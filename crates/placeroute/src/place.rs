//! Timing-driven simulated-annealing placement.
//!
//! Blocks may only occupy fabric slots of their own kind (PEs on PE slots,
//! SMBs on SMB slots, CLBs on CLB slots). The cost function is
//! criticality-weighted half-perimeter wirelength (HPWL): every net's HPWL is
//! scaled by a weight derived from its traffic (`values_per_activation`), so
//! the annealer pulls the heavily used nets — the ones that set the routed
//! critical path — tighter than one-shot control nets.
//!
//! The engine is incremental: per-net bounding boxes are cached and a move
//! only re-evaluates the nets incident to the two swapped blocks (the
//! [`fpsa_mapper::NetIncidence`] index), so the cost of one move is
//! proportional to local fanout instead of netlist size. The cooling schedule
//! is adaptive in the VPR style — the cooling factor follows the measured
//! acceptance rate — and the whole trajectory is reported in a
//! [`PlacementQuality`] attached to the result.

use fpsa_arch::{BlockKind, Fabric, FabricDimensions};
use fpsa_mapper::{NetRef, Netlist, NetlistBlock, Nets};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Placer tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacerConfig {
    /// Random seed (placement is deterministic for a given seed).
    pub seed: u64,
    /// Moves attempted per temperature step.
    pub moves_per_temperature: usize,
    /// Upper bound on temperature steps (the adaptive schedule usually
    /// freezes earlier).
    pub max_temperature_steps: usize,
    /// Initial temperature as a fraction of the initial cost.
    pub initial_temperature_fraction: f64,
    /// Weight of net criticality in the cost: a net carrying the peak traffic
    /// counts `1 + timing_weight` times its HPWL, a trafficless net once.
    pub timing_weight: f64,
}

impl PlacerConfig {
    /// A quality-oriented configuration (used for final results). The
    /// incremental engine's cheaper moves buy a larger budget per step than
    /// the seed annealer could afford in the same wall-clock.
    pub fn quality() -> Self {
        PlacerConfig {
            seed: 0xF95A,
            moves_per_temperature: 3000,
            max_temperature_steps: 60,
            initial_temperature_fraction: 0.05,
            timing_weight: 0.5,
        }
    }

    /// A fast configuration for tests and large netlists.
    pub fn fast() -> Self {
        PlacerConfig {
            seed: 0xF95A,
            moves_per_temperature: 300,
            max_temperature_steps: 20,
            initial_temperature_fraction: 0.05,
            timing_weight: 0.5,
        }
    }
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self::fast()
    }
}

/// One temperature step of the annealing trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealStep {
    /// Temperature during the step.
    pub temperature: f64,
    /// Fraction of attempted moves that were accepted, 0..=1.
    pub acceptance_rate: f64,
    /// Criticality-weighted cost at the end of the step.
    pub weighted_cost: f64,
}

/// The annealer's self-report: how the placement was reached.
///
/// Everything in here is deterministic for a given seed (no wall-clock), so
/// two placements of the same netlist compare equal field by field.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PlacementQuality {
    /// Unweighted HPWL of the initial (pre-annealing) assignment.
    pub initial_wirelength: f64,
    /// Unweighted HPWL of the final placement.
    pub final_wirelength: f64,
    /// Total moves evaluated.
    pub moves_evaluated: u64,
    /// Total moves accepted.
    pub moves_accepted: u64,
    /// Whether the initial assignment was seeded from a prior placement
    /// (see [`WarmStart`]) instead of the cold slot-order assignment.
    pub warm_started: bool,
    /// Number of blocks that took their seed position (0 for a cold start).
    pub seeded_blocks: usize,
    /// Cost/acceptance trajectory, one entry per temperature step.
    pub steps: Vec<AnnealStep>,
}

impl PlacementQuality {
    /// Overall acceptance rate across the whole anneal, 0..=1.
    pub fn acceptance_rate(&self) -> f64 {
        if self.moves_evaluated == 0 {
            return 0.0;
        }
        self.moves_accepted as f64 / self.moves_evaluated as f64
    }

    /// Relative HPWL improvement over the initial assignment, 0..=1.
    pub fn improvement(&self) -> f64 {
        if self.initial_wirelength <= 0.0 {
            return 0.0;
        }
        1.0 - self.final_wirelength / self.initial_wirelength
    }
}

/// A placement: the slot coordinate of every netlist block, plus the quality
/// report of the anneal that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Fabric grid dimensions.
    pub dims: FabricDimensions,
    positions: Vec<(usize, usize)>,
    wirelength: f64,
    quality: PlacementQuality,
}

impl Placement {
    /// Slot coordinates per block (indexed by netlist block index).
    pub fn positions(&self) -> &[(usize, usize)] {
        &self.positions
    }

    /// The coordinate of one block.
    pub fn position(&self, block: usize) -> (usize, usize) {
        self.positions[block]
    }

    /// Total (unweighted) half-perimeter wirelength of the placement.
    pub fn wirelength(&self) -> f64 {
        self.wirelength
    }

    /// The annealing quality report.
    pub fn quality(&self) -> &PlacementQuality {
        &self.quality
    }
}

/// A prior placement offered to the annealer as a starting point.
///
/// Positions are matched to the new netlist's blocks *by block identity*
/// ([`WarmStart::from_placement`]), so a donor placement of an
/// incrementally edited model seeds every surviving block; new or moved
/// blocks fall back to the cold assignment and a short, low-temperature
/// anneal polishes the result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmStart {
    blocks: Vec<NetlistBlock>,
    positions: Vec<(usize, usize)>,
}

impl WarmStart {
    /// Capture a donor placement for identity-matched warm starting.
    pub fn from_placement(netlist: &Netlist, placement: &Placement) -> Self {
        WarmStart {
            blocks: netlist.blocks().to_vec(),
            positions: placement.positions().to_vec(),
        }
    }
}

/// Cached bounding box of one net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NetBox {
    min_r: usize,
    max_r: usize,
    min_c: usize,
    max_c: usize,
}

impl NetBox {
    fn of(positions: &[(usize, usize)], net: NetRef<'_>) -> Self {
        let (mut min_r, mut max_r, mut min_c, mut max_c) = {
            let (r, c) = positions[net.source()];
            (r, r, c, c)
        };
        for s in net.sinks() {
            let (r, c) = positions[s];
            min_r = min_r.min(r);
            max_r = max_r.max(r);
            min_c = min_c.min(c);
            max_c = max_c.max(c);
        }
        NetBox {
            min_r,
            max_r,
            min_c,
            max_c,
        }
    }

    fn hpwl(&self) -> f64 {
        (self.max_r - self.min_r) as f64 + (self.max_c - self.min_c) as f64
    }
}

/// Mutable annealing state shared by the cooling sweeps and the final
/// zero-temperature quench.
struct AnnealState<'a> {
    nets: &'a Nets,
    incidence: &'a fpsa_mapper::NetIncidence,
    weights: &'a [f64],
    positions: &'a mut Vec<(usize, usize)>,
    boxes: &'a mut Vec<NetBox>,
    weighted_cost: &'a mut f64,
    swappable: &'a [&'a Vec<usize>],
    /// Blocks eligible for swapping (their kind has at least two members),
    /// so move proposals are proportional to block counts per kind.
    movable: &'a [usize],
    /// Block index → index into `swappable` of its kind group.
    group_of: &'a [usize],
    /// Stamp-based dedup of affected nets: O(1) per net instead of
    /// sort+dedup per move.
    stamp: Vec<u64>,
    move_id: u64,
    affected: Vec<usize>,
    new_boxes: Vec<NetBox>,
}

impl AnnealState<'_> {
    /// One sweep of up to `moves` attempted swaps at `temperature`
    /// (0 = pure greedy descent). Records the step into `quality` and
    /// returns its acceptance rate.
    fn sweep(
        &mut self,
        temperature: f64,
        moves: usize,
        rng: &mut StdRng,
        quality: &mut PlacementQuality,
    ) -> f64 {
        let mut attempted = 0u64;
        let mut accepted = 0u64;
        for _ in 0..moves {
            // Proposals are proportional to block counts per kind: `a` is a
            // uniformly random movable block, `b` a partner of its kind —
            // either uniformly random, or (for a fraction of moves) the
            // sampled partner closest to the centroid of `a`'s nets, which
            // steers the anneal instead of waiting for lucky swaps.
            let a = self.movable[rng.gen_range(0..self.movable.len())];
            let members = self.swappable[self.group_of[a]];
            let guided = !self.incidence.nets_of(a).is_empty() && rng.gen::<f64>() < 0.2;
            let b = if guided {
                let nets_of_a = self.incidence.nets_of(a);
                let mut ideal_r = 0.0;
                let mut ideal_c = 0.0;
                for &n in nets_of_a {
                    let bx = &self.boxes[n];
                    ideal_r += (bx.min_r + bx.max_r) as f64 / 2.0;
                    ideal_c += (bx.min_c + bx.max_c) as f64 / 2.0;
                }
                ideal_r /= nets_of_a.len() as f64;
                ideal_c /= nets_of_a.len() as f64;
                let mut best = a;
                let mut best_distance = f64::INFINITY;
                for _ in 0..8 {
                    let candidate = members[rng.gen_range(0..members.len())];
                    if candidate == a {
                        continue;
                    }
                    let (r, c) = self.positions[candidate];
                    let distance = (r as f64 - ideal_r).abs() + (c as f64 - ideal_c).abs();
                    if distance < best_distance {
                        best_distance = distance;
                        best = candidate;
                    }
                }
                best
            } else {
                members[rng.gen_range(0..members.len())]
            };
            if a == b {
                continue;
            }
            attempted += 1;
            self.move_id += 1;

            self.affected.clear();
            for &n in self
                .incidence
                .nets_of(a)
                .iter()
                .chain(self.incidence.nets_of(b))
            {
                if self.stamp[n] != self.move_id {
                    self.stamp[n] = self.move_id;
                    self.affected.push(n);
                }
            }

            self.positions.swap(a, b);
            self.new_boxes.clear();
            let mut delta = 0.0;
            for &n in &self.affected {
                let nb = NetBox::of(self.positions, self.nets.get(n));
                delta += self.weights[n] * (nb.hpwl() - self.boxes[n].hpwl());
                self.new_boxes.push(nb);
            }

            let accept = delta <= 0.0
                || (temperature > 0.0 && rng.gen::<f64>() < (-delta / temperature).exp());
            if accept {
                accepted += 1;
                *self.weighted_cost += delta;
                for (&n, &nb) in self.affected.iter().zip(&self.new_boxes) {
                    self.boxes[n] = nb;
                }
            } else {
                self.positions.swap(a, b);
            }
        }

        let acceptance_rate = if attempted == 0 {
            0.0
        } else {
            accepted as f64 / attempted as f64
        };
        quality.moves_evaluated += attempted;
        quality.moves_accepted += accepted;
        quality.steps.push(AnnealStep {
            temperature,
            acceptance_rate,
            weighted_cost: *self.weighted_cost,
        });
        acceptance_rate
    }
}

/// The simulated-annealing placer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placer {
    config: PlacerConfig,
}

impl Placer {
    /// Create a placer.
    pub fn new(config: PlacerConfig) -> Self {
        Placer { config }
    }

    /// Place a netlist onto a fabric from a cold start.
    ///
    /// # Panics
    ///
    /// Panics if the fabric has fewer slots of some kind than the netlist
    /// needs.
    pub fn place(&self, netlist: &Netlist, fabric: &Fabric) -> Placement {
        self.place_seeded(netlist, fabric, None)
    }

    /// Place a netlist onto a fabric, optionally seeding the annealer from a
    /// prior placement.
    ///
    /// With a near-miss [`WarmStart`], blocks present in the donor keep
    /// their donor slots, the rest take the cold assignment, and a short
    /// low-temperature anneal (1/8th of the cold step budget at 1/50th of
    /// the cold starting temperature) plus the usual greedy quench polishes
    /// the seams; the best placement seen is the one returned, so a warm
    /// start never ends worse than its seed.
    ///
    /// # Panics
    ///
    /// Panics if the fabric has fewer slots of some kind than the netlist
    /// needs.
    pub fn place_seeded(
        &self,
        netlist: &Netlist,
        fabric: &Fabric,
        warm: Option<&WarmStart>,
    ) -> Placement {
        let dims = fabric.dims;
        let kind_of = |b: &NetlistBlock| match b {
            NetlistBlock::Pe { .. } => BlockKind::Pe,
            NetlistBlock::Smb { .. } => BlockKind::Smb,
            NetlistBlock::Clb { .. } => BlockKind::Clb,
        };

        // Seed pass: adopt donor positions that are legal on this fabric
        // (inside the grid, on a real slot, not claimed twice), matching
        // donor blocks to this netlist's blocks by identity.
        const UNPLACED: (usize, usize) = (usize::MAX, usize::MAX);
        let mut positions: Vec<(usize, usize)> = vec![UNPLACED; netlist.len()];
        let mut taken: std::collections::HashSet<(usize, usize)> = Default::default();
        let mut seeded_blocks = 0usize;
        if let Some(warm) = warm {
            let slot_coords: std::collections::HashSet<(usize, usize)> = BlockKind::all()
                .iter()
                .flat_map(|&k| fabric.slots_of(k))
                .map(|s| dims.coord(s))
                .collect();
            let donor: std::collections::HashMap<&NetlistBlock, (usize, usize)> = warm
                .blocks
                .iter()
                .zip(warm.positions.iter().copied())
                .collect();
            for (i, block) in netlist.blocks().iter().enumerate() {
                if let Some(&pos) = donor.get(block) {
                    if slot_coords.contains(&pos) && taken.insert(pos) {
                        positions[i] = pos;
                        seeded_blocks += 1;
                    }
                }
            }
        }

        // Cold assignment for whatever the seed did not cover: blocks of
        // each kind take the remaining slots of that kind in index order;
        // SMB/CLB overflow falls back to spare PE slots (physically those
        // slots would be configured as the needed kind).
        let mut free: std::collections::HashMap<BlockKind, Vec<usize>> = BlockKind::all()
            .iter()
            .map(|&k| {
                let slots: Vec<usize> = fabric
                    .slots_of(k)
                    .into_iter()
                    .filter(|&s| !taken.contains(&dims.coord(s)))
                    .rev()
                    .collect();
                (k, slots)
            })
            .collect();
        for (i, block) in netlist.blocks().iter().enumerate() {
            if positions[i] != UNPLACED {
                continue;
            }
            let kind = kind_of(block);
            let slot = free
                .get_mut(&kind)
                .and_then(Vec::pop)
                .or_else(|| free.get_mut(&BlockKind::Pe).and_then(Vec::pop))
                .or_else(|| free.get_mut(&BlockKind::Smb).and_then(Vec::pop))
                .or_else(|| free.get_mut(&BlockKind::Clb).and_then(Vec::pop))
                .expect("fabric must have at least as many slots as the netlist has blocks");
            positions[i] = dims.coord(slot);
        }

        // The net→block incidence index drives incremental move evaluation.
        let incidence = netlist.incidence();
        let nets = netlist.nets();

        // Criticality weights: nets carrying more values per activation set
        // the routed critical path, so their wirelength counts for more.
        let max_traffic = nets
            .iter()
            .map(|n| n.values_per_activation())
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        let weights: Vec<f64> = nets
            .iter()
            .map(|n| {
                1.0 + self.config.timing_weight * (n.values_per_activation() as f64 / max_traffic)
            })
            .collect();

        // Cached per-net bounding boxes and the weighted cost they imply.
        let mut boxes: Vec<NetBox> = nets.iter().map(|n| NetBox::of(&positions, n)).collect();
        let mut weighted_cost: f64 = boxes.iter().zip(&weights).map(|(b, w)| w * b.hpwl()).sum();
        let initial_wirelength: f64 = boxes.iter().map(NetBox::hpwl).sum();

        // Group block indices by kind so that swaps stay kind-compatible.
        // A BTreeMap keeps the iteration order deterministic, which keeps the
        // whole placement deterministic for a given seed.
        let mut by_kind: std::collections::BTreeMap<BlockKind, Vec<usize>> = Default::default();
        for (i, b) in netlist.blocks().iter().enumerate() {
            by_kind.entry(kind_of(b)).or_default().push(i);
        }
        let swappable: Vec<&Vec<usize>> = by_kind.values().filter(|v| v.len() >= 2).collect();
        let mut group_of = vec![usize::MAX; netlist.len()];
        let mut movable: Vec<usize> = Vec::new();
        for (g, members) in swappable.iter().enumerate() {
            for &block in members.iter() {
                group_of[block] = g;
                movable.push(block);
            }
        }
        movable.sort_unstable();

        // Warm-start schedule: a seed is already near the donor's optimum,
        // so the anneal only has to polish the seams — 1/8th of the cold
        // step budget at 1/50th of the cold starting temperature (hot enough
        // to shake the re-assigned blocks loose, cold enough not to scramble
        // the seed).
        let warm_started = seeded_blocks > 0;
        let (max_steps, temperature_fraction) = if warm_started {
            (
                (self.config.max_temperature_steps / 8).max(2),
                self.config.initial_temperature_fraction * 0.02,
            )
        } else {
            (
                self.config.max_temperature_steps,
                self.config.initial_temperature_fraction,
            )
        };

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut temperature = (weighted_cost * temperature_fraction).max(1.0);
        let mut quality = PlacementQuality {
            initial_wirelength,
            warm_started,
            seeded_blocks,
            ..Default::default()
        };

        // A warm-started anneal must never hand back something worse than
        // its seed: the low-temperature schedule still accepts uphill moves,
        // so track the best placement seen per sweep (by unweighted HPWL)
        // and restore it if the final state regressed. Cold anneals keep
        // their exact historical behavior.
        let mut best: Option<(f64, Vec<(usize, usize)>)> =
            warm_started.then(|| (initial_wirelength, positions.clone()));

        let mut state = AnnealState {
            nets,
            incidence: &incidence,
            weights: &weights,
            positions: &mut positions,
            boxes: &mut boxes,
            weighted_cost: &mut weighted_cost,
            swappable: &swappable,
            movable: &movable,
            group_of: &group_of,
            stamp: vec![0; nets.len()],
            move_id: 0,
            affected: Vec::new(),
            new_boxes: Vec::new(),
        };

        if !movable.is_empty() && max_steps > 0 {
            for _ in 0..max_steps {
                let acceptance_rate = state.sweep(
                    temperature,
                    self.config.moves_per_temperature,
                    &mut rng,
                    &mut quality,
                );
                if let Some((best_len, best_pos)) = best.as_mut() {
                    let len: f64 = state.boxes.iter().map(NetBox::hpwl).sum();
                    if len < *best_len {
                        *best_len = len;
                        best_pos.clone_from(state.positions);
                    }
                }

                // Adaptive cooling (VPR): cool slowly through the productive
                // mid-range of acceptance rates, fast outside it.
                temperature *= match acceptance_rate {
                    r if r > 0.96 => 0.5,
                    r if r > 0.80 => 0.9,
                    r if r > 0.15 => 0.95,
                    _ => 0.8,
                };
                // Freeze-out: once the temperature is far below the typical
                // per-net cost, no hill climb can be accepted any more.
                if temperature < 0.005 * *state.weighted_cost / nets.len().max(1) as f64 {
                    break;
                }
            }
            // Zero-temperature quench: pure-greedy descent sweeps squeeze
            // out the improving moves the frozen schedule left, repeated
            // until a whole sweep stops finding any.
            for _ in 0..8 {
                let before = *state.weighted_cost;
                state.sweep(
                    0.0,
                    self.config.moves_per_temperature,
                    &mut rng,
                    &mut quality,
                );
                if *state.weighted_cost >= before - 1e-9 {
                    break;
                }
                if let Some((best_len, best_pos)) = best.as_mut() {
                    let len: f64 = state.boxes.iter().map(NetBox::hpwl).sum();
                    if len < *best_len {
                        *best_len = len;
                        best_pos.clone_from(state.positions);
                    }
                }
            }
        }

        // Report the exact final wirelength (unweighted, recomputed from
        // scratch so float drift from incremental updates cannot leak out).
        let mut final_wirelength: f64 = nets.iter().map(|n| NetBox::of(&positions, n).hpwl()).sum();
        if let Some((_, best_pos)) = best {
            let best_len: f64 = nets.iter().map(|n| NetBox::of(&best_pos, n).hpwl()).sum();
            if best_len < final_wirelength {
                positions = best_pos;
                final_wirelength = best_len;
            }
        }
        quality.final_wirelength = final_wirelength;

        Placement {
            dims,
            positions,
            wirelength: final_wirelength,
            quality,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_arch::ArchitectureConfig;
    use fpsa_mapper::{AllocationPolicy, Mapper};
    use fpsa_nn::zoo;
    use fpsa_synthesis::{NeuralSynthesizer, SynthesisConfig};

    fn lenet_netlist() -> Netlist {
        let graph = NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
            .synthesize(&zoo::lenet())
            .unwrap();
        Mapper::new(64, AllocationPolicy::DuplicationDegree(1))
            .map(&graph)
            .netlist
    }

    #[test]
    fn every_block_gets_a_unique_slot() {
        let netlist = lenet_netlist();
        let fabric = Fabric::with_pe_count(ArchitectureConfig::fpsa(), netlist.len());
        let placement = Placer::new(PlacerConfig::fast()).place(&netlist, &fabric);
        let mut seen: Vec<(usize, usize)> = placement.positions().to_vec();
        let before = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(before, seen.len(), "blocks must not share slots");
        assert_eq!(before, netlist.len());
    }

    #[test]
    fn annealing_does_not_increase_wirelength_vs_initial() {
        let netlist = lenet_netlist();
        let fabric = Fabric::with_pe_count(ArchitectureConfig::fpsa(), netlist.len());
        let mut no_anneal = PlacerConfig::fast();
        no_anneal.max_temperature_steps = 0;
        let initial = Placer::new(no_anneal).place(&netlist, &fabric);
        let annealed = Placer::new(PlacerConfig::fast()).place(&netlist, &fabric);
        assert!(
            annealed.wirelength() <= initial.wirelength(),
            "annealed {} vs initial {}",
            annealed.wirelength(),
            initial.wirelength()
        );
        // The quality report agrees with the two measurements.
        assert_eq!(annealed.quality().initial_wirelength, initial.wirelength());
        assert_eq!(annealed.quality().final_wirelength, annealed.wirelength());
        assert!(annealed.quality().improvement() >= 0.0);
    }

    #[test]
    fn placement_is_deterministic_for_a_seed() {
        let netlist = lenet_netlist();
        let fabric = Fabric::with_pe_count(ArchitectureConfig::fpsa(), netlist.len());
        let a = Placer::new(PlacerConfig::fast()).place(&netlist, &fabric);
        let b = Placer::new(PlacerConfig::fast()).place(&netlist, &fabric);
        assert_eq!(a, b);
    }

    #[test]
    fn positions_stay_inside_the_grid() {
        let netlist = lenet_netlist();
        let fabric = Fabric::with_pe_count(ArchitectureConfig::fpsa(), netlist.len());
        let placement = Placer::new(PlacerConfig::fast()).place(&netlist, &fabric);
        for &(r, c) in placement.positions() {
            assert!(r < placement.dims.rows);
            assert!(c < placement.dims.cols);
        }
    }

    #[test]
    fn quality_records_the_annealing_trajectory() {
        let netlist = lenet_netlist();
        let fabric = Fabric::with_pe_count(ArchitectureConfig::fpsa(), netlist.len());
        let placement = Placer::new(PlacerConfig::fast()).place(&netlist, &fabric);
        let quality = placement.quality();
        assert!(!quality.steps.is_empty());
        // Cooling steps plus the final zero-temperature quench sweeps.
        assert!(quality.steps.len() <= PlacerConfig::fast().max_temperature_steps + 8);
        assert_eq!(
            quality.steps.last().unwrap().temperature,
            0.0,
            "the trajectory ends with the greedy quench"
        );
        for step in &quality.steps {
            assert!(step.temperature >= 0.0);
            assert!((0.0..=1.0).contains(&step.acceptance_rate));
            assert!(step.weighted_cost >= 0.0);
        }
        // Temperatures never rise; they strictly decrease while positive
        // (the quench sweeps all sit at zero).
        for pair in quality.steps.windows(2) {
            assert!(pair[1].temperature <= pair[0].temperature);
            if pair[1].temperature > 0.0 {
                assert!(pair[1].temperature < pair[0].temperature);
            }
        }
        // The trajectory ends no higher than it started.
        assert!(
            quality.steps.last().unwrap().weighted_cost
                <= quality.steps.first().unwrap().weighted_cost
        );
        assert!(quality.moves_evaluated > 0);
        assert!((0.0..=1.0).contains(&quality.acceptance_rate()));
    }

    #[test]
    fn warm_start_is_legal_and_cheaper_than_cold() {
        let netlist = lenet_netlist();
        let fabric = Fabric::with_pe_count(ArchitectureConfig::fpsa(), netlist.len());
        let placer = Placer::new(PlacerConfig::fast());
        let cold = placer.place(&netlist, &fabric);
        let seed = WarmStart::from_placement(&netlist, &cold);
        let warm = placer.place_seeded(&netlist, &fabric, Some(&seed));
        // Legal: every block on a unique in-bounds slot.
        let mut seen = warm.positions().to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), netlist.len());
        for &(r, c) in warm.positions() {
            assert!(r < warm.dims.rows && c < warm.dims.cols);
        }
        // Cheaper: the cut schedule evaluates at most half the cold moves,
        // and the near-optimal seed cannot lose wirelength.
        assert!(warm.quality().warm_started);
        assert!(
            warm.quality().moves_evaluated <= cold.quality().moves_evaluated / 2,
            "warm {} vs cold {} moves",
            warm.quality().moves_evaluated,
            cold.quality().moves_evaluated
        );
        assert!(warm.wirelength() <= cold.wirelength());
    }

    #[test]
    fn warm_start_from_an_edited_netlist_seeds_surviving_blocks() {
        let netlist = lenet_netlist();
        let fabric = Fabric::with_pe_count(ArchitectureConfig::fpsa(), netlist.len() + 4);
        let placer = Placer::new(PlacerConfig::fast());
        let donor = placer.place(&netlist, &fabric);
        // "Edit" the model: append four fresh PE blocks the donor never saw.
        let mut blocks = netlist.blocks().to_vec();
        for i in 0..4 {
            blocks.push(NetlistBlock::Pe {
                group: 10_000 + i,
                duplicate: 0,
            });
        }
        let edited = Netlist::from_parts("edited", blocks, netlist.nets().to_vec());
        let seed = WarmStart::from_placement(&netlist, &donor);
        let warm = placer.place_seeded(&edited, &fabric, Some(&seed));
        assert_eq!(warm.quality().seeded_blocks, netlist.len());
        let mut seen = warm.positions().to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), edited.len(), "no slot is claimed twice");
    }

    #[test]
    fn quality_settings_match_or_beat_fast_settings() {
        let netlist = lenet_netlist();
        let fabric = Fabric::with_pe_count(ArchitectureConfig::fpsa(), netlist.len());
        let fast = Placer::new(PlacerConfig::fast()).place(&netlist, &fabric);
        let quality = Placer::new(PlacerConfig::quality()).place(&netlist, &fabric);
        assert!(
            quality.wirelength() <= fast.wirelength() * 1.05,
            "quality {} should not lose to fast {}",
            quality.wirelength(),
            fast.wirelength()
        );
    }

    #[test]
    fn a_chain_of_blocks_reaches_minimal_wirelength() {
        use fpsa_mapper::Net;
        // Four PEs in a chain on a fabric with >= 4 PE slots: the optimal
        // placement puts neighbours on adjacent slots, HPWL = 3.
        let blocks = (0..4)
            .map(|i| NetlistBlock::Pe {
                group: i,
                duplicate: 0,
            })
            .collect();
        let nets = (0..3)
            .map(|i| Net {
                source: i,
                sinks: vec![i + 1],
                values_per_activation: 8,
            })
            .collect();
        let netlist = Netlist::from_parts("chain", blocks, nets);
        let fabric = Fabric::with_pe_count(ArchitectureConfig::fpsa(), 4);
        let placement = Placer::new(PlacerConfig::quality()).place(&netlist, &fabric);
        assert_eq!(
            placement.wirelength(),
            3.0,
            "the annealer should find the optimal chain embedding"
        );
    }

    #[test]
    fn timing_weight_pulls_critical_nets_tighter() {
        use fpsa_mapper::Net;
        // Two nets from one hub: one carries 64 values per activation, the
        // other 1. Under a strong timing weight the heavy net's HPWL must not
        // exceed the light net's.
        let blocks = (0..12)
            .map(|i| NetlistBlock::Pe {
                group: i,
                duplicate: 0,
            })
            .collect();
        let mut nets = vec![
            Net {
                source: 0,
                sinks: vec![1],
                values_per_activation: 64,
            },
            Net {
                source: 0,
                sinks: vec![2],
                values_per_activation: 1,
            },
        ];
        // Background nets keep the anneal non-trivial.
        for i in 3..11 {
            nets.push(Net {
                source: i,
                sinks: vec![i + 1],
                values_per_activation: 4,
            });
        }
        let netlist = Netlist::from_parts("weighted", blocks, nets);
        let fabric = Fabric::with_pe_count(ArchitectureConfig::fpsa(), netlist.len());
        let mut config = PlacerConfig::quality();
        config.timing_weight = 4.0;
        let placement = Placer::new(config).place(&netlist, &fabric);
        let dist = |a: usize, b: usize| {
            placement
                .dims
                .manhattan(placement.position(a), placement.position(b))
        };
        assert!(
            dist(0, 1) <= dist(0, 2),
            "critical net spans {} but non-critical spans {}",
            dist(0, 1),
            dist(0, 2)
        );
    }
}
