//! The benchmark's own seeded generator (SplitMix64). Inputs come from
//! here, not from the library's `sample_inputs`/`Trace::input_for`, so a
//! change to the library's RNG conventions cannot change what is measured.

/// Stream ids: one per independent use of the run's seed.
pub const STREAM_INPUTS: u64 = 2;
pub const STREAM_TRACE: u64 = 3;

/// A seed for `stream`/`index` derived from the run's `--seed`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64() ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The seed of model `index`'s weights. Weights are part of the model under
/// test, not of the traffic: a kernel's time depends on the activation
/// sparsity the weights produce (LeNet moves +-8% across weight seeds), so
/// they are the same on every run and `--seed` draws only inputs and traces.
pub fn params_seed(index: u64) -> u64 {
    derive(0xF95A, 1, index)
}

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 24 bits of mantissa, like an f32 feature.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// `n` input vectors of `len` uniform `[0, 1)` features.
pub fn inputs(seed: u64, index: u64, n: usize, len: usize) -> Vec<Vec<f32>> {
    let mut rng = Rng::new(derive(seed, STREAM_INPUTS, index));
    (0..n)
        .map(|_| (0..len).map(|_| rng.unit_f32()).collect())
        .collect()
}
