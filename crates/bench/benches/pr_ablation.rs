//! Physical-design ablation: what the timing-driven engine buys over the
//! seed implementations it replaced.
//!
//! * **Placement** — the incremental annealer (cached per-net bounding
//!   boxes, adaptive cooling) against a faithful reimplementation of the
//!   seed annealer (per-move recomputation of the affected nets' before/after
//!   cost, fixed geometric cooling) at the same `quality()` move budget: the
//!   incremental engine must match or beat the seed's final HPWL while
//!   spending measurably less time per move.
//! * **Routing** — PathFinder negotiation against a single congestion-aware
//!   pass on the Figure 8 netlists: the negotiated routing must need at most
//!   the single pass's channel width.

use fpsa_arch::{ArchitectureConfig, BlockKind, Fabric};
use fpsa_bench::{print_experiment, save_text, time};
use fpsa_mapper::{AllocationPolicy, Mapper, Netlist, NetlistBlock};
use fpsa_nn::zoo::Benchmark;
use fpsa_placeroute::{Placer, PlacerConfig, Router, RouterConfig, WarmStart};
use fpsa_synthesis::{NeuralSynthesizer, SynthesisConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn netlist_for(benchmark: Benchmark, duplication: u64) -> Netlist {
    let graph = NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
        .synthesize(&benchmark.build())
        .expect("zoo models synthesize");
    Mapper::new(64, AllocationPolicy::DuplicationDegree(duplication))
        .map(&graph)
        .netlist
}

/// The seed annealer's tuning: 2000 moves over 60 geometric steps was the
/// repository's quality() preset before the incremental engine landed.
struct SeedConfig {
    seed: u64,
    moves_per_temperature: usize,
    temperature_steps: usize,
    initial_temperature_fraction: f64,
}

impl SeedConfig {
    fn quality() -> Self {
        SeedConfig {
            seed: 0xF95A,
            moves_per_temperature: 2000,
            temperature_steps: 60,
            initial_temperature_fraction: 0.05,
        }
    }
}

/// The seed repository's annealer, kept verbatim as the ablation baseline:
/// every move recomputes the affected nets' HPWL before *and* after the
/// swap (no cached bounding boxes), under a fixed geometric schedule.
/// Returns the final HPWL and the number of moves attempted.
fn seed_anneal(netlist: &Netlist, fabric: &Fabric, config: &SeedConfig) -> (f64, u64) {
    let dims = fabric.dims;
    let kind_of = |b: &NetlistBlock| match b {
        NetlistBlock::Pe { .. } => BlockKind::Pe,
        NetlistBlock::Smb { .. } => BlockKind::Smb,
        NetlistBlock::Clb { .. } => BlockKind::Clb,
    };
    let mut free: std::collections::HashMap<BlockKind, Vec<usize>> = BlockKind::all()
        .iter()
        .map(|&k| (k, fabric.slots_of(k).into_iter().rev().collect()))
        .collect();
    let mut positions: Vec<(usize, usize)> = Vec::with_capacity(netlist.len());
    for block in netlist.blocks() {
        let kind = kind_of(block);
        let slot = free
            .get_mut(&kind)
            .and_then(Vec::pop)
            .or_else(|| free.get_mut(&BlockKind::Pe).and_then(Vec::pop))
            .or_else(|| free.get_mut(&BlockKind::Smb).and_then(Vec::pop))
            .or_else(|| free.get_mut(&BlockKind::Clb).and_then(Vec::pop))
            .expect("fabric fits the netlist");
        positions.push(dims.coord(slot));
    }

    let mut nets_of_block: Vec<Vec<usize>> = vec![Vec::new(); netlist.len()];
    for (i, net) in netlist.nets().iter().enumerate() {
        nets_of_block[net.source()].push(i);
        for s in net.sinks() {
            nets_of_block[s].push(i);
        }
    }
    let hpwl = |positions: &[(usize, usize)], net: fpsa_mapper::NetRef<'_>| -> f64 {
        let mut min_r = usize::MAX;
        let mut max_r = 0usize;
        let mut min_c = usize::MAX;
        let mut max_c = 0usize;
        for b in std::iter::once(net.source()).chain(net.sinks()) {
            let (r, c) = positions[b];
            min_r = min_r.min(r);
            max_r = max_r.max(r);
            min_c = min_c.min(c);
            max_c = max_c.max(c);
        }
        (max_r - min_r) as f64 + (max_c - min_c) as f64
    };

    let cost: f64 = netlist.nets().iter().map(|n| hpwl(&positions, n)).sum();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut temperature = (cost * config.initial_temperature_fraction).max(1.0);
    let mut attempted = 0u64;
    let mut by_kind: std::collections::BTreeMap<BlockKind, Vec<usize>> = Default::default();
    for (i, b) in netlist.blocks().iter().enumerate() {
        by_kind.entry(kind_of(b)).or_default().push(i);
    }
    for _ in 0..config.temperature_steps {
        for _ in 0..config.moves_per_temperature {
            let kinds: Vec<&BlockKind> = by_kind
                .iter()
                .filter(|(_, v)| v.len() >= 2)
                .map(|(k, _)| k)
                .collect();
            if kinds.is_empty() {
                break;
            }
            let kind = *kinds[rng.gen_range(0..kinds.len())];
            let members = &by_kind[&kind];
            let a = members[rng.gen_range(0..members.len())];
            let b = members[rng.gen_range(0..members.len())];
            if a == b {
                continue;
            }
            attempted += 1;
            let mut affected: Vec<usize> = nets_of_block[a]
                .iter()
                .chain(nets_of_block[b].iter())
                .copied()
                .collect();
            affected.sort_unstable();
            affected.dedup();
            let before: f64 = affected
                .iter()
                .map(|&n| hpwl(&positions, netlist.net(n)))
                .sum();
            positions.swap(a, b);
            let after: f64 = affected
                .iter()
                .map(|&n| hpwl(&positions, netlist.net(n)))
                .sum();
            let delta = after - before;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature.max(1e-9)).exp();
            if !accept {
                positions.swap(a, b);
            }
        }
        temperature *= 0.9;
    }
    let final_hpwl = netlist.nets().iter().map(|n| hpwl(&positions, n)).sum();
    (final_hpwl, attempted)
}

fn main() {
    let arch = ArchitectureConfig::fpsa();
    let netlist = netlist_for(Benchmark::LeNet, 4);
    let fabric = Fabric::with_pe_count(arch.clone(), netlist.len());

    // Comparison pass: each engine at its own quality preset (the seed's
    // historical 2000x60 schedule vs the incremental engine's quality()),
    // measuring final HPWL and wall-clock per attempted move.
    let mut quality_cfg = PlacerConfig::quality();
    quality_cfg.timing_weight = 0.0; // compare raw HPWL on equal terms
    let start = std::time::Instant::now();
    let incremental = Placer::new(quality_cfg).place(&netlist, &fabric);
    let incremental_wall = start.elapsed();
    let seed_cfg = SeedConfig::quality();
    let start = std::time::Instant::now();
    let (seed_hpwl, seed_moves) = seed_anneal(&netlist, &fabric, &seed_cfg);
    let seed_wall = start.elapsed();
    let incremental_ns_per_move =
        incremental_wall.as_nanos() as f64 / incremental.quality().moves_evaluated.max(1) as f64;
    let seed_ns_per_move = seed_wall.as_nanos() as f64 / seed_moves.max(1) as f64;
    print_experiment(
        "P&R ablation: incremental vs seed annealer (LeNet x4, each at its quality preset)",
        &format!(
            "incremental HPWL {:.0}  ({} moves, {:.0} ns/move)\nseed HPWL        {:.0}  ({} moves, {:.0} ns/move)\nHPWL ratio {:.3} (<= 1 means equal-or-better), per-move speedup {:.2}x",
            incremental.wirelength(),
            incremental.quality().moves_evaluated,
            incremental_ns_per_move,
            seed_hpwl,
            seed_moves,
            seed_ns_per_move,
            incremental.wirelength() / seed_hpwl.max(1.0),
            seed_ns_per_move / incremental_ns_per_move.max(1.0),
        ),
    );
    assert!(
        incremental.wirelength() <= seed_hpwl,
        "incremental placement must match or beat the seed annealer's HPWL"
    );
    // Wall-clock comparisons are machine-dependent, so a slowdown only
    // warns (the HPWL assertion above is the deterministic gate).
    if incremental_ns_per_move >= seed_ns_per_move {
        eprintln!(
            "warning: incremental moves ({incremental_ns_per_move:.0} ns) were not cheaper than \
             seed moves ({seed_ns_per_move:.0} ns) on this run"
        );
    }

    // Warm-start ablation: seeding the annealer from a donor placement (the
    // compile cache's near-miss path) must reach equal-or-better HPWL than
    // the cold anneal in at most half the move evaluations.
    let warm_seed = WarmStart::from_placement(&netlist, &incremental);
    let start = std::time::Instant::now();
    let warm = Placer::new(quality_cfg).place_seeded(&netlist, &fabric, Some(&warm_seed));
    let warm_wall = start.elapsed();
    print_experiment(
        "P&R ablation: warm-started anneal vs cold anneal (LeNet x4, quality preset)",
        &format!(
            "cold HPWL {:.0}  ({} moves, {} ms)\nwarm HPWL {:.0}  ({} moves, {} ms, {} blocks seeded)",
            incremental.wirelength(),
            incremental.quality().moves_evaluated,
            incremental_wall.as_millis(),
            warm.wirelength(),
            warm.quality().moves_evaluated,
            warm_wall.as_millis(),
            warm.quality().seeded_blocks,
        ),
    );
    assert!(warm.quality().warm_started);
    assert!(
        warm.wirelength() <= incremental.wirelength(),
        "warm-started placement must not regress the donor's HPWL"
    );
    assert!(
        warm.quality().moves_evaluated <= incremental.quality().moves_evaluated / 2,
        "warm start must cut the move budget at least in half"
    );

    let mut width_rows = Vec::new();
    for benchmark in [
        Benchmark::Mlp500x100,
        Benchmark::LeNet,
        Benchmark::CifarVgg17,
    ] {
        let model_netlist = netlist_for(benchmark, 1);
        let model_fabric = Fabric::with_pe_count(arch.clone(), model_netlist.len());
        let placement = Placer::new(PlacerConfig::fast()).place(&model_netlist, &model_fabric);
        let negotiated = Router::new(arch.routing).route(&model_netlist, &placement);
        let single = Router::with_config(arch.routing, RouterConfig::single_pass())
            .route(&model_netlist, &placement);
        width_rows.push(format!(
            "{:<12} single-pass width {:>4}  negotiated width {:>4}  (iterations {})",
            benchmark.name(),
            single.required_channel_width(),
            negotiated.required_channel_width(),
            negotiated.iterations,
        ));
        assert!(
            negotiated.required_channel_width() <= single.required_channel_width(),
            "{}: negotiation must not need more tracks than the single pass",
            benchmark.name()
        );
    }
    print_experiment(
        "P&R ablation: PathFinder negotiation vs single congestion-aware pass",
        &width_rows.join("\n"),
    );
    save_text(
        "pr_ablation.txt",
        &format!(
            "{:#?}",
            (incremental.quality().clone(), seed_hpwl, width_rows.clone())
        ),
    );

    // Timed passes: per-move cost of both annealers at the same budget, the
    // two router modes, and the full minimum-width search.
    let fast = PlacerConfig::fast();
    time("pr_ablation/place_incremental_fast", 10, || {
        Placer::new(fast).place(&netlist, &fabric)
    });
    time("pr_ablation/place_seed_reference_quality", 10, || {
        seed_anneal(&netlist, &fabric, &seed_cfg)
    });
    let quality = PlacerConfig::quality();
    time("pr_ablation/place_incremental_quality", 10, || {
        Placer::new(quality).place(&netlist, &fabric)
    });
    let placement = Placer::new(fast).place(&netlist, &fabric);
    for (label, config) in [
        ("negotiated", RouterConfig::negotiated()),
        ("single_pass", RouterConfig::single_pass()),
    ] {
        let router = Router::with_config(arch.routing, config);
        time(&format!("pr_ablation/route_lenet_x4/{label}"), 10, || {
            router.route(&netlist, &placement)
        });
    }
    let router = Router::new(arch.routing);
    time("pr_ablation/minimum_channel_width_lenet_x4", 10, || {
        router.minimum_channel_width(&netlist, &placement)
    });
}
