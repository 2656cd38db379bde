//! One driver per table and figure of the paper's evaluation.
//!
//! Every driver returns structured, serializable records and can render a
//! plain-text table; the bench mains in `fpsa-bench` (which persist
//! the records under `target/experiment-data/`) and the examples all call
//! these functions, so the published numbers are regenerated by the same
//! code the tests exercise. Every
//! driver fans its evaluation grid out through the unified
//! [`crate::sweep`] engine instead of hand-rolling its own loop.
//!
//! | driver | paper artifact |
//! |--------|----------------|
//! | [`table1`] | Table 1 — function-block parameters |
//! | [`fig2`]   | Figure 2 — PRIME peak/ideal/real bounds vs area |
//! | [`table2`] | Table 2 — PE comparison (PRIME vs FPSA) |
//! | [`fig6`]   | Figure 6 — PRIME vs FP-PRIME vs FPSA for VGG16 |
//! | [`fig7`]   | Figure 7 — per-PE latency breakdown |
//! | [`fig8`]   | Figure 8 — scalability across the 7-model zoo |
//! | [`table3`] | Table 3 — overall FPSA results per model |
//! | [`fig9`]   | Figure 9 — splice vs add accuracy under variation, noise injected per PE into the executed fabric |
//! | [`serving`] | beyond the paper — serving throughput of the `fpsa_serve` engine (batch window × replicas vs the bind-per-request direct path) |
//!
//! The multi-fabric sharding sweep (stage count × batch window vs the
//! single fabric, `BENCH_sharding.json`) lives one layer up, in
//! `fpsa_shard::experiments::sharding`, because it drives the sharding
//! compiler which itself builds on this crate.

pub mod fig2;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod serving;
pub mod table1;
pub mod table2;
pub mod table3;
