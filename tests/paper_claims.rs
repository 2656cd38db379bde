//! Integration tests that check the paper's headline quantitative claims at
//! the level the reproduction supports (shape and factors, not third-decimal
//! agreement; `cargo bench -p fpsa-bench` prints the full tables).

use fpsa::core::experiments::{fig2, fig6, fig7, fig9, table2};
use fpsa::device::pe::ProcessingElementSpec;
use fpsa::device::variation::{CellVariation, WeightScheme};
use fpsa::nn::zoo::Benchmark;

#[test]
fn claim_computational_density_improves_by_about_31x() {
    let table = table2::run();
    assert!(
        table.density_improvement > 28.0 && table.density_improvement < 34.0,
        "Table 2 density improvement {}x should be close to the published 30.92x",
        table.density_improvement
    );
}

#[test]
fn claim_pe_latency_drops_by_about_95_percent() {
    let table = table2::run();
    assert!(
        table.latency_change < -0.90,
        "latency change {} should be around -94.9%",
        table.latency_change
    );
    assert!(
        table.area_change < -0.30 && table.area_change > -0.45,
        "area change {} should be around -36.6%",
        table.area_change
    );
}

#[test]
fn claim_prime_is_communication_bound() {
    let fig = fig2::run();
    let last = fig.points.last().unwrap();
    assert!(
        last.ideal_ops / last.real_ops > 30.0,
        "PRIME's real performance should sit orders of magnitude below ideal at scale"
    );
}

#[test]
fn claim_fpsa_speedup_over_prime_reaches_hundreds_to_a_thousand_x() {
    let fig = fig6::run();
    assert!(
        fig.speedup_at_max_area > 100.0,
        "end-to-end FPSA/PRIME speedup {}x should be in the hundreds-to-1000x band",
        fig.speedup_at_max_area
    );
}

#[test]
fn claim_spiking_pe_cuts_latency_by_about_20x() {
    // §1: "The latency is decreased by 19.6x" (PE compute path).
    let fig = fig7::run();
    let ratio = fig.bars[1].compute_ns / fig.bars[2].compute_ns;
    assert!(
        ratio > 15.0 && ratio < 25.0,
        "compute latency ratio {ratio}"
    );
}

#[test]
fn claim_fpsa_pe_density_is_about_38_tops_per_mm2() {
    let pe = ProcessingElementSpec::fpsa_default();
    let d = pe.computational_density_tops_per_mm2();
    assert!((d - 38.0).abs() < 2.0, "density {d} TOPS/mm^2");
}

#[test]
fn claim_add_method_reduces_deviation_by_sqrt_n() {
    let v = CellVariation::measured();
    let one = WeightScheme::Add {
        cells: 1,
        bits_per_cell: 4,
    }
    .normalized_deviation(v);
    let sixteen = WeightScheme::Add {
        cells: 16,
        bits_per_cell: 4,
    }
    .normalized_deviation(v);
    assert!((one / sixteen - 4.0).abs() < 1e-9);
    // And splicing barely helps.
    let splice2 = WeightScheme::Splice {
        cells: 2,
        bits_per_cell: 4,
    }
    .normalized_deviation(v);
    let splice1 = WeightScheme::Splice {
        cells: 1,
        bits_per_cell: 4,
    }
    .normalized_deviation(v);
    assert!((splice2 - splice1).abs() / splice1 < 0.1);
}

#[test]
fn claim_add_method_beats_splice_on_the_compiled_fabric() {
    // §7.2 on the configured fabric: FPSA's 8 added cells distort the
    // compiled model's outputs less than PRIME's 2 spliced cells, and 16
    // added cells keep the accuracy of the noise-free fabric.
    let fig = fig9::run_with(CellVariation::measured(), &[2, 8, 16], 3);
    let point = |method: &str, cells: usize| {
        fig.points
            .iter()
            .find(|p| p.method == method && p.cells == cells)
            .unwrap()
    };
    let (splice2, add8) = (point("splice", 2), point("add", 8));
    assert!(
        add8.logit_distortion < splice2.logit_distortion,
        "add-8 distortion {} should be below splice-2 {}",
        add8.logit_distortion,
        splice2.logit_distortion
    );
    let add16 = point("add", 16).normalized_accuracy;
    assert!(add16 >= 0.95, "add-16 normalized accuracy {add16}");
}

#[test]
fn claim_table3_weight_and_op_counts_match() {
    for benchmark in Benchmark::all() {
        let stats = benchmark.build().statistics();
        let w_err = (stats.total_weights as f64 - benchmark.published_weights()).abs()
            / benchmark.published_weights();
        let o_err =
            (stats.total_ops as f64 - benchmark.published_ops()).abs() / benchmark.published_ops();
        assert!(
            w_err < 0.10,
            "{}: weights off by {:.1}%",
            benchmark.name(),
            w_err * 100.0
        );
        assert!(
            o_err < 0.12,
            "{}: ops off by {:.1}%",
            benchmark.name(),
            o_err * 100.0
        );
    }
}

#[test]
fn claim_vgg16_motivation_numbers_hold() {
    // §3: first two conv layers: 0.028% of weights, 12.5% of compute;
    // fully connected layers: 89.3% of weights, 0.8% of compute.
    let stats = fpsa::nn::zoo::vgg16().statistics();
    let (w_front, o_front) = stats.front_layer_imbalance(2);
    assert!(w_front < 0.0005);
    assert!((o_front - 0.125).abs() < 0.02);
    assert!((stats.weight_share_of("fc") - 0.893).abs() < 0.01);
    assert!(stats.ops_share_of("fc") < 0.01);
}
