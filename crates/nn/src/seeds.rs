//! The repository-wide seeded-RNG convention.
//!
//! Every stochastic component (weight initialization, Monte-Carlo variation
//! trials, per-PE noise injection) derives its RNG seed through this module
//! instead of consuming a shared stream. The convention:
//!
//! ```text
//! seed(component) = mix(mix(mix(base) ^ STREAM) ^ index)
//! ```
//!
//! where `mix` is the SplitMix64 finalizer, `STREAM` is a compile-time
//! constant naming the consumer (so different components never collide even
//! for the same base seed), and `index` identifies the draw within the
//! component (trial number, node id, PE slot, ...). Deriving instead of
//! streaming means:
//!
//! * adding a draw to one component never shifts any other component's
//!   randomness (no cross-contamination across refactors);
//! * trials / PEs can be evaluated in any order — including in parallel —
//!   and still see exactly the same noise;
//! * a result is reproducible from `(base, STREAM, index)` alone.

/// The SplitMix64 finalizer: a high-quality 64-bit mixing permutation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream tag: deterministic graph-parameter initialization
/// ([`crate::params::GraphParameters`]); `index` is the node id.
pub const STREAM_PARAMS: u64 = 0x5041_5241_4D53; // "PARAMS"

/// Stream tag: Monte-Carlo variation trials of Figure 9
/// (`fpsa_core::experiments::fig9`), each seeding one noisy bind; `index`
/// is the trial number.
pub const STREAM_TRIAL: u64 = 0x0054_5249_414C; // "TRIAL"

/// Stream tag: per-PE weight-programming noise in the compiled-model
/// executor (`fpsa_sim::exec`); `index` packs `(group, duplicate)`.
pub const STREAM_PE_NOISE: u64 = 0x0050_454E_4F49_5345; // "PENOISE"

/// Stream tag: input-sample generation in tests and examples; `index` is the
/// sample number.
pub const STREAM_SAMPLES: u64 = 0x5341_4D50_4C45; // "SAMPLE"

/// Stream tag: workload arrival-process draws (`fpsa_workload`); `index`
/// names the sub-stream within the recorder (0 = inter-arrival, 1 =
/// thinning/acceptance).
pub const STREAM_ARRIVAL: u64 = 0x0041_5252_4956_4545; // "ARRIVEE"

/// Stream tag: workload mix draws — tenant, model and client-batch-size
/// selection (`fpsa_workload`); `index` names the mix (0 = tenant,
/// 1 = model, 2 = batch size).
pub const STREAM_MIX: u64 = 0x0057_4C4D_4958; // "WLMIX"

/// Stream tag: per-request input features in trace replay
/// (`fpsa_workload`); `index` is the request's position in the trace, so a
/// replayer can regenerate any request without scanning the stream.
pub const STREAM_REQUEST: u64 = 0x0052_4551_5545_5354; // "REQUEST"

/// Derive the seed for `(base, stream, index)` per the convention above.
pub fn derive(base: u64, stream: u64, index: u64) -> u64 {
    mix(mix(mix(base) ^ stream) ^ index)
}

/// Pack a `(group, duplicate)` pair into one stream index for
/// [`STREAM_PE_NOISE`]. Duplicates get the low 16 bits, which no allocation
/// in this repository comes close to exceeding.
pub fn pe_index(group: usize, duplicate: u64) -> u64 {
    ((group as u64) << 16) | (duplicate & 0xFFFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic() {
        assert_eq!(derive(1, STREAM_TRIAL, 0), derive(1, STREAM_TRIAL, 0));
    }

    #[test]
    fn streams_and_indices_separate() {
        let base = 42;
        let a = derive(base, STREAM_TRIAL, 0);
        let b = derive(base, STREAM_TRIAL, 1);
        let c = derive(base, STREAM_PARAMS, 0);
        let d = derive(base.wrapping_add(1), STREAM_TRIAL, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn pe_index_keeps_groups_apart() {
        assert_ne!(pe_index(1, 0), pe_index(0, 1));
        assert_ne!(pe_index(2, 3), pe_index(3, 2));
        assert_eq!(pe_index(5, 7), (5 << 16) | 7);
    }
}
