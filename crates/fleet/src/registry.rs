//! The model registry: every model a fleet serves, compiled once through
//! the shared [`CompileCache`] and annotated with its fabric footprint.
//!
//! A fleet serves a *zoo* — many small models with independent weights and
//! precisions — so the registry is the single place where a model's
//! identity is pinned down: its [`CompileKey`] (content hash of graph +
//! compiler configuration, the same key the compile cache dedupes on), its
//! compiled artifacts, and its [`FabricCapacity`] demand that the packer
//! budgets against. Registering the same graph twice costs one compile:
//! the second registration is a cache hit on the identical key.

use std::fmt;
use std::sync::Arc;

use fpsa_arch::FabricCapacity;
use fpsa_core::{CacheOutcome, CompileCache, CompileError, CompileKey, CompiledModel, Compiler};
use fpsa_nn::{ComputationalGraph, GraphParameters, Operator};
use fpsa_sim::Precision;

/// Dense registry index of a model, matching `TraceEvent::model`.
pub type ModelId = u16;

/// One registered model: everything needed to bind an executor on any
/// fabric that hosts it, plus the footprint the packer budgets with.
#[derive(Clone)]
pub struct FleetModel {
    /// Human-readable name (unique within the registry).
    pub name: String,
    /// The model graph (bind-time input).
    pub graph: ComputationalGraph,
    /// The model's weights.
    pub params: GraphParameters,
    /// Arithmetic mode requests for this model run under.
    pub precision: Precision,
    /// Compiled artifacts, shared with the compile cache.
    pub compiled: Arc<CompiledModel>,
    /// Content key the compile cache filed the artifacts under.
    pub key: CompileKey,
    /// Function-block demand of the mapped netlist — what one placement of
    /// this model consumes on a fabric.
    pub demand: FabricCapacity,
    /// How the compile cache satisfied this model's registration.
    pub cache_outcome: CacheOutcome,
}

impl FleetModel {
    /// Elements the model's input vector must have (the graph's input
    /// node's element count, the same width `Executor::input_len` reports
    /// after binding).
    pub fn input_len(&self) -> Option<usize> {
        self.graph.nodes().iter().find_map(|n| match &n.op {
            Operator::Input { shape } => Some(shape.elements()),
            _ => None,
        })
    }
}

impl fmt::Debug for FleetModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetModel")
            .field("name", &self.name)
            .field("key", &self.key.hex())
            .field("demand", &self.demand)
            .finish_non_exhaustive()
    }
}

/// The fleet's model zoo: compile-once storage for every served model,
/// keyed by dense [`ModelId`] for the hot path and by [`CompileKey`] for
/// artifact identity.
#[derive(Clone)]
pub struct ModelRegistry {
    compiler: Compiler,
    cache: Arc<CompileCache>,
    models: Vec<FleetModel>,
}

impl ModelRegistry {
    /// An empty registry compiling through the process-wide
    /// [`CompileCache::global`].
    pub fn new(compiler: Compiler) -> Self {
        ModelRegistry::with_cache(compiler, CompileCache::global())
    }

    /// An empty registry compiling through a caller-owned cache (tests use
    /// this to observe hit/miss behaviour in isolation).
    pub fn with_cache(compiler: Compiler, cache: Arc<CompileCache>) -> Self {
        ModelRegistry {
            compiler,
            cache,
            models: Vec::new(),
        }
    }

    /// The compiler configuration every registered model shares.
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// Compile `graph` (through the shared cache) and add it to the zoo.
    /// Returns the new model's dense id.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the compile pipeline — notably
    /// [`CompileError::CapacityExceeded`] when the model alone outgrows a
    /// fabric.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        graph: ComputationalGraph,
        params: GraphParameters,
        precision: Precision,
    ) -> Result<ModelId, CompileError> {
        let (compiled, cache_outcome) = self.cache.compile_with_info(&self.compiler, &graph)?;
        let key = CompileKey::for_compile(&self.compiler, &graph);
        let (pes, smbs, clbs) = compiled.mapping.block_demand();
        let id = self.models.len() as ModelId;
        self.models.push(FleetModel {
            name: name.into(),
            graph,
            params,
            precision,
            compiled,
            key,
            demand: FabricCapacity::new(pes, smbs, clbs),
            cache_outcome,
        });
        Ok(id)
    }

    /// The model filed under `id`, if registered.
    pub fn get(&self, id: ModelId) -> Option<&FleetModel> {
        self.models.get(usize::from(id))
    }

    /// All registered models in id order.
    pub fn models(&self) -> &[FleetModel] {
        &self.models
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the zoo is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

impl fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.models)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_nn::zoo;

    #[test]
    fn registering_the_same_graph_twice_hits_the_cache() {
        let cache = Arc::new(CompileCache::new(8));
        let mut registry = ModelRegistry::with_cache(Compiler::fpsa(), cache.clone());
        let graph = zoo::tiny_mlp();
        let a = registry
            .register(
                "mlp-a",
                graph.clone(),
                GraphParameters::seeded(&graph, 1),
                Precision::Float,
            )
            .unwrap();
        let b = registry
            .register(
                "mlp-b",
                graph.clone(),
                GraphParameters::seeded(&graph, 2),
                Precision::Float,
            )
            .unwrap();
        assert_ne!(a, b, "distinct weights are distinct models");
        assert_eq!(
            registry.get(a).unwrap().key,
            registry.get(b).unwrap().key,
            "same graph, same compile key"
        );
        assert_eq!(cache.stats().compiles_executed(), 1);
        assert_eq!(registry.get(b).unwrap().cache_outcome, CacheOutcome::Hit);
    }

    #[test]
    fn demand_reflects_the_mapped_netlist() {
        let mut registry = ModelRegistry::new(Compiler::fpsa());
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 7);
        let id = registry
            .register("mlp", graph, params, Precision::Float)
            .unwrap();
        let model = registry.get(id).unwrap();
        let (pes, smbs, clbs) = model.compiled.mapping.block_demand();
        assert_eq!(model.demand, FabricCapacity::new(pes, smbs, clbs));
        assert!(model.demand.total_blocks() > 0);
        assert_eq!(model.input_len(), Some(16));
    }
}
