//! Co-location packing: assign every registered model to one or more
//! fabrics under a per-fabric [`FabricCapacity`] budget.
//!
//! Small models leave most of a fabric idle, so the fleet packs several
//! onto each chip. The packer runs in two deterministic passes:
//!
//! 1. **Primary placement** (first-fit-decreasing): models sorted by PE
//!    demand, largest first, each landing on the first fabric with room.
//!    A model that fits on *no* fabric raises the compiler's own typed
//!    [`CompileError::CapacityExceeded`] — the same error a single-fabric
//!    compile reports, with `available` describing the packer's budget.
//! 2. **Replication**: leftover capacity is filled by replicating models
//!    round-robin (largest first) onto every fabric that still has room
//!    and does not host them yet, so any fabric can absorb any model's
//!    load and the router can steer around hot spots.
//!
//! Both passes are pure arithmetic over block counts — no randomness, no
//! clocks — so the same registry and budget always produce the same
//! placement.

use fpsa_arch::FabricCapacity;
use fpsa_core::CompileError;

use crate::registry::{ModelId, ModelRegistry};

/// Where every model lives: the output of [`FleetPlacement::pack`], the
/// input to `FleetEngine::start`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetPlacement {
    /// Per-fabric budget the packing was computed against.
    pub capacity: FabricCapacity,
    /// Models hosted on each fabric, in ascending id order.
    pub hosted: Vec<Vec<ModelId>>,
    /// Capacity left on each fabric after packing.
    pub residual: Vec<FabricCapacity>,
}

impl FleetPlacement {
    /// Pack every model in `registry` onto `fabrics` chips of `capacity`
    /// each (see the module docs for the algorithm).
    ///
    /// # Errors
    ///
    /// [`CompileError::CapacityExceeded`] when some model's demand fits on
    /// no fabric even empty — co-location cannot help a model that is too
    /// big for one chip (that is `fpsa_shard`'s job).
    pub fn pack(
        registry: &ModelRegistry,
        fabrics: usize,
        capacity: FabricCapacity,
    ) -> Result<FleetPlacement, CompileError> {
        let fabrics = fabrics.max(1);
        let mut order: Vec<ModelId> = (0..registry.len() as ModelId).collect();
        // Largest PE demand first; ties broken by id for determinism.
        order.sort_by_key(|&id| {
            let demand = registry.get(id).expect("id in range").demand;
            (std::cmp::Reverse(demand.pes), id)
        });

        let mut hosted: Vec<Vec<ModelId>> = vec![Vec::new(); fabrics];
        let mut residual = vec![capacity; fabrics];

        // Pass 1: first-fit-decreasing — every model gets a primary home.
        for &id in &order {
            let demand = registry.get(id).expect("id in range").demand;
            let Some(fabric) = residual.iter().position(|left| left.fits(&demand)) else {
                return Err(CompileError::CapacityExceeded {
                    required: demand,
                    available: capacity,
                    blocks: demand.total_blocks(),
                    block_limit: capacity.total_blocks(),
                });
            };
            hosted[fabric].push(id);
            residual[fabric] = subtract(residual[fabric], demand);
        }

        // Pass 2: replicate round-robin into leftover capacity so load can
        // spread — each sweep adds at most one replica per model, and the
        // loop stops once a full sweep places nothing.
        loop {
            let mut placed = false;
            for &id in &order {
                let demand = registry.get(id).expect("id in range").demand;
                let slot =
                    (0..fabrics).find(|&f| !hosted[f].contains(&id) && residual[f].fits(&demand));
                if let Some(fabric) = slot {
                    hosted[fabric].push(id);
                    residual[fabric] = subtract(residual[fabric], demand);
                    placed = true;
                }
            }
            if !placed {
                break;
            }
        }

        for models in &mut hosted {
            models.sort_unstable();
        }
        Ok(FleetPlacement {
            capacity,
            hosted,
            residual,
        })
    }

    /// Number of fabrics in the placement.
    pub fn fabrics(&self) -> usize {
        self.hosted.len()
    }

    /// Total placements (primaries plus replicas) across the fleet.
    pub fn replicas(&self) -> usize {
        self.hosted.iter().map(Vec::len).sum()
    }
}

/// Kind-wise saturating capacity subtraction.
fn subtract(left: FabricCapacity, demand: FabricCapacity) -> FabricCapacity {
    FabricCapacity::new(
        left.pes.saturating_sub(demand.pes),
        left.smbs.saturating_sub(demand.smbs),
        left.clbs.saturating_sub(demand.clbs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FleetPlacement {
        /// The fabrics hosting `model`, in ascending index order.
        pub(crate) fn hosts_of(&self, model: ModelId) -> Vec<usize> {
            (0..self.hosted.len())
                .filter(|&f| self.hosted[f].contains(&model))
                .collect()
        }
    }
    use fpsa_core::Compiler;
    use fpsa_nn::{zoo, GraphParameters};
    use fpsa_sim::Precision;
    use std::sync::Arc;

    fn zoo_registry() -> ModelRegistry {
        let cache = Arc::new(fpsa_core::CompileCache::new(8));
        let mut registry = ModelRegistry::with_cache(Compiler::fpsa(), cache);
        for (name, graph) in [("mlp", zoo::tiny_mlp()), ("cnn", zoo::tiny_cnn())] {
            let params = GraphParameters::seeded(&graph, 11);
            registry
                .register(name, graph, params, Precision::Float)
                .unwrap();
        }
        registry
    }

    #[test]
    fn every_model_gets_a_home_and_replicas_fill_leftover_room() {
        let registry = zoo_registry();
        let ample = FabricCapacity::new(100_000, 20_000, 20_000);
        let placement = FleetPlacement::pack(&registry, 2, ample).unwrap();
        assert_eq!(placement.fabrics(), 2);
        for model in 0..registry.len() as ModelId {
            assert_eq!(
                placement.hosts_of(model),
                vec![0, 1],
                "with ample capacity every fabric hosts every model"
            );
        }
        for (fabric, left) in placement.residual.iter().enumerate() {
            assert!(
                left.total_blocks() < placement.capacity.total_blocks(),
                "fabric {fabric} consumed nothing"
            );
        }
    }

    #[test]
    fn an_oversized_model_is_a_typed_capacity_error() {
        let registry = zoo_registry();
        let tiny = FabricCapacity::new(1, 1, 1);
        let err = FleetPlacement::pack(&registry, 4, tiny).unwrap_err();
        match err {
            CompileError::CapacityExceeded {
                required,
                available,
                ..
            } => {
                assert_eq!(available, tiny);
                assert!(required.total_blocks() > tiny.total_blocks());
            }
            other => panic!("expected CapacityExceeded, got {other:?}"),
        }
    }

    #[test]
    fn packing_is_deterministic() {
        let registry = zoo_registry();
        let cap = FabricCapacity::new(4_000, 1_000, 1_000);
        let a = FleetPlacement::pack(&registry, 3, cap).unwrap();
        let b = FleetPlacement::pack(&registry, 3, cap).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tight_capacity_splits_models_across_fabrics() {
        let registry = zoo_registry();
        // Budget big enough for the larger model alone but not both.
        let biggest = registry
            .models()
            .iter()
            .map(|m| m.demand)
            .max_by_key(|d| d.pes)
            .unwrap();
        let both: usize = registry.models().iter().map(|m| m.demand.pes).sum();
        if both <= biggest.pes {
            return; // degenerate zoo; nothing to split
        }
        let cap = FabricCapacity::new(
            biggest.pes,
            registry.models().iter().map(|m| m.demand.smbs).sum(),
            registry.models().iter().map(|m| m.demand.clbs).sum(),
        );
        let placement = FleetPlacement::pack(&registry, 2, cap).unwrap();
        // No fabric can hold both models' PEs, so each hosts exactly one.
        assert!(placement.hosted.iter().all(|h| h.len() == 1));
        assert_eq!(placement.replicas(), 2);
    }
}
