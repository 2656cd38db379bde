//! Quantization helpers for accelerator deployment.
//!
//! The FPSA configuration stores 8-bit weights (via the add method) and uses
//! 6-bit activations (a 64-cycle sampling window). These helpers perform the
//! symmetric uniform quantization the neural synthesizer applies before
//! mapping weights onto cells.

use serde::{Deserialize, Serialize};

/// A symmetric uniform quantizer for values in `[-range, range]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quantizer {
    /// Number of bits (including sign).
    pub bits: u32,
    /// Symmetric clipping range.
    pub range: f32,
}

impl Quantizer {
    /// Create a quantizer.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `range` is not positive and finite.
    pub fn new(bits: u32, range: f32) -> Self {
        assert!(bits >= 1, "quantizer needs at least one bit");
        assert!(range > 0.0 && range.is_finite(), "range must be positive");
        Quantizer { bits, range }
    }

    /// The 8-bit weight quantizer used by the FPSA configuration.
    pub fn weights_8bit(range: f32) -> Self {
        Self::new(8, range)
    }

    /// Number of positive quantization levels.
    pub fn positive_levels(&self) -> i64 {
        (1i64 << (self.bits - 1)) - 1
    }

    /// Quantize a value to its integer code in `[-levels, levels]`.
    pub fn quantize(&self, value: f32) -> i64 {
        let levels = self.positive_levels() as f32;
        let scaled = (value / self.range * levels).round();
        scaled.clamp(-levels, levels) as i64
    }

    /// Map an integer code back to a real value.
    pub fn dequantize(&self, code: i64) -> f32 {
        code as f32 * self.range / self.positive_levels() as f32
    }

    /// Quantize-dequantize round trip (the value the accelerator effectively
    /// computes with).
    pub fn round_trip(&self, value: f32) -> f32 {
        self.dequantize(self.quantize(value))
    }

    /// The worst-case absolute quantization error inside the range.
    pub fn max_error(&self) -> f32 {
        0.5 * self.range / self.positive_levels() as f32
    }
}

/// Quantize a real value onto a symmetric integer-code grid: `round(value /
/// step)` (half away from zero), clamped to `[-levels, levels]`.
///
/// This is the single rounding rule of the integer execution domain: the
/// golden-model reference (`fpsa_nn::reference`) and the compiled-model
/// executor (`fpsa_sim::exec`) both requantize through this function, which
/// is what makes their integer results comparable bit for bit.
#[inline]
pub fn quantize_code(value: f64, step: f64, levels: i64) -> i64 {
    let code = (value / step).round();
    let bound = levels as f64;
    code.clamp(-bound, bound) as i64
}

/// Rescale an integer code from one step size to another (identity when the
/// steps are equal, so rescaling to a code's own grid is always lossless).
#[inline]
pub fn rescale_code(code: i64, step_from: f64, step_to: f64, levels: i64) -> i64 {
    if step_from == step_to {
        return code.clamp(-levels, levels);
    }
    quantize_code(code as f64 * step_from, step_to, levels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_code_rounds_half_away_and_clamps() {
        assert_eq!(quantize_code(0.5, 1.0, 31), 1);
        assert_eq!(quantize_code(-0.5, 1.0, 31), -1);
        assert_eq!(quantize_code(0.49, 1.0, 31), 0);
        assert_eq!(quantize_code(100.0, 1.0, 31), 31);
        assert_eq!(quantize_code(-100.0, 1.0, 31), -31);
    }

    #[test]
    fn rescale_to_same_step_is_identity() {
        for code in -31i64..=31 {
            assert_eq!(rescale_code(code, 0.1, 0.1, 31), code);
        }
    }

    #[test]
    fn rescale_halving_step_doubles_codes() {
        assert_eq!(rescale_code(3, 0.2, 0.1, 127), 6);
        assert_eq!(rescale_code(-3, 0.2, 0.1, 127), -6);
    }

    #[test]
    fn codes_cover_the_symmetric_range() {
        let q = Quantizer::weights_8bit(1.0);
        assert_eq!(q.positive_levels(), 127);
        assert_eq!(q.quantize(1.0), 127);
        assert_eq!(q.quantize(-1.0), -127);
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn out_of_range_values_are_clipped() {
        let q = Quantizer::weights_8bit(1.0);
        assert_eq!(q.quantize(5.0), 127);
        assert_eq!(q.quantize(-5.0), -127);
    }

    #[test]
    fn round_trip_error_is_bounded() {
        let q = Quantizer::weights_8bit(2.0);
        for i in -100..=100 {
            let v = i as f32 * 0.02;
            let err = (q.round_trip(v) - v).abs();
            assert!(err <= q.max_error() + 1e-6, "error {err} at {v}");
        }
    }

    #[test]
    fn six_bit_quantizer_is_coarser_than_eight_bit() {
        let q8 = Quantizer::weights_8bit(1.0);
        let q6 = Quantizer::new(6, 1.0);
        assert!(q6.max_error() > q8.max_error());
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn non_positive_range_is_rejected() {
        let _ = Quantizer::new(8, 0.0);
    }
}
