//! Operators of the computational-graph IR.
//!
//! The set mirrors what the paper's benchmark networks need: convolutions,
//! fully connected layers, poolings, ReLU, element-wise residual addition,
//! channel concatenation (GoogLeNet inception), flattening, local response
//! normalization (AlexNet/GoogLeNet) and batch normalization (ResNet, folded
//! into the preceding convolution for inference).

use crate::error::NnError;
use crate::shape::TensorShape;
use serde::{Deserialize, Serialize};

/// One tensor operation in the computational graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operator {
    /// Graph input with a fixed shape.
    Input {
        /// Shape of the input sample.
        shape: TensorShape,
    },
    /// 2-D convolution.
    Conv2d {
        /// Input channels.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Symmetric zero padding.
        padding: usize,
        /// Channel groups (1 for dense convolution).
        groups: usize,
    },
    /// Fully connected layer.
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Rectified linear activation.
    Relu,
    /// Max pooling.
    MaxPool2d {
        /// Square window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Average pooling.
    AvgPool2d {
        /// Square window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling over the full spatial extent.
    GlobalAvgPool,
    /// Element-wise addition of two tensors (residual connections).
    Add,
    /// Channel-wise concatenation of several tensors.
    Concat,
    /// Flatten a CHW tensor into a feature vector.
    Flatten,
    /// Batch normalization (inference mode, folded scale/shift).
    BatchNorm {
        /// Number of channels.
        channels: usize,
    },
    /// Local response normalization (treated as a cheap element-wise op).
    LocalResponseNorm,
    /// Dropout (identity at inference time).
    Dropout,
    /// Softmax classifier output (evaluated off-accelerator).
    Softmax,
}

impl Operator {
    /// Short mnemonic used in reports and netlist names.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Operator::Input { .. } => "input",
            Operator::Conv2d { .. } => "conv",
            Operator::Linear { .. } => "fc",
            Operator::Relu => "relu",
            Operator::MaxPool2d { .. } => "maxpool",
            Operator::AvgPool2d { .. } => "avgpool",
            Operator::GlobalAvgPool => "gap",
            Operator::Add => "add",
            Operator::Concat => "concat",
            Operator::Flatten => "flatten",
            Operator::BatchNorm { .. } => "bn",
            Operator::LocalResponseNorm => "lrn",
            Operator::Dropout => "dropout",
            Operator::Softmax => "softmax",
        }
    }

    /// Number of trainable weights (biases are folded into the weight count
    /// the same way the paper's Table 3 counts parameters).
    pub fn weight_count(&self) -> usize {
        match *self {
            Operator::Conv2d {
                in_channels,
                out_channels,
                kernel,
                groups,
                ..
            } => out_channels * (in_channels / groups) * kernel * kernel,
            Operator::Linear {
                in_features,
                out_features,
            } => in_features * out_features,
            Operator::BatchNorm { channels } => 2 * channels,
            _ => 0,
        }
    }

    /// Infer the output shape for the given input shapes.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the inputs are incompatible
    /// with the operator and [`NnError::InvalidOperator`] for degenerate
    /// configurations (zero stride, missing inputs, ...).
    pub fn infer_shape(&self, name: &str, inputs: &[TensorShape]) -> Result<TensorShape, NnError> {
        let mismatch = |reason: String| NnError::ShapeMismatch {
            node: name.to_string(),
            reason,
        };
        let single = |inputs: &[TensorShape]| -> Result<TensorShape, NnError> {
            inputs
                .first()
                .copied()
                .ok_or_else(|| mismatch("operator requires one input".into()))
        };
        match *self {
            Operator::Input { shape } => Ok(shape),
            Operator::Conv2d {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                ..
            } => {
                if stride == 0 || kernel == 0 {
                    return Err(NnError::InvalidOperator {
                        node: name.to_string(),
                        reason: "kernel and stride must be non-zero".into(),
                    });
                }
                let input = single(inputs)?;
                match input {
                    TensorShape::Chw {
                        channels,
                        height,
                        width,
                    } => {
                        if channels != in_channels {
                            return Err(mismatch(format!(
                                "expected {in_channels} input channels, got {channels}"
                            )));
                        }
                        if height + 2 * padding < kernel || width + 2 * padding < kernel {
                            return Err(mismatch(format!(
                                "kernel {kernel} larger than padded input {height}x{width}"
                            )));
                        }
                        let oh = (height + 2 * padding - kernel) / stride + 1;
                        let ow = (width + 2 * padding - kernel) / stride + 1;
                        Ok(TensorShape::chw(out_channels, oh, ow))
                    }
                    TensorShape::Features(_) => {
                        Err(mismatch("convolution requires a CHW input".into()))
                    }
                }
            }
            Operator::Linear {
                in_features,
                out_features,
            } => {
                let input = single(inputs)?;
                if input.elements() != in_features {
                    return Err(mismatch(format!(
                        "expected {in_features} input features, got {}",
                        input.elements()
                    )));
                }
                Ok(TensorShape::Features(out_features))
            }
            Operator::Relu
            | Operator::BatchNorm { .. }
            | Operator::LocalResponseNorm
            | Operator::Dropout
            | Operator::Softmax => single(inputs),
            Operator::MaxPool2d { kernel, stride } | Operator::AvgPool2d { kernel, stride } => {
                if stride == 0 || kernel == 0 {
                    return Err(NnError::InvalidOperator {
                        node: name.to_string(),
                        reason: "kernel and stride must be non-zero".into(),
                    });
                }
                let input = single(inputs)?;
                match input {
                    TensorShape::Chw {
                        channels,
                        height,
                        width,
                    } => {
                        if height < kernel || width < kernel {
                            return Err(mismatch(format!(
                                "pooling window {kernel} larger than input {height}x{width}"
                            )));
                        }
                        let oh = (height - kernel) / stride + 1;
                        let ow = (width - kernel) / stride + 1;
                        Ok(TensorShape::chw(channels, oh, ow))
                    }
                    TensorShape::Features(_) => {
                        Err(mismatch("pooling requires a CHW input".into()))
                    }
                }
            }
            Operator::GlobalAvgPool => {
                let input = single(inputs)?;
                Ok(TensorShape::Features(input.channels()))
            }
            Operator::Add => {
                if inputs.len() < 2 {
                    return Err(mismatch("element-wise add requires two inputs".into()));
                }
                if inputs.iter().any(|s| s.elements() != inputs[0].elements()) {
                    return Err(mismatch("element-wise add requires equal shapes".into()));
                }
                Ok(inputs[0])
            }
            Operator::Concat => {
                if inputs.is_empty() {
                    return Err(mismatch("concat requires at least one input".into()));
                }
                match inputs[0] {
                    TensorShape::Chw { height, width, .. } => {
                        let mut channels = 0;
                        for s in inputs {
                            match *s {
                                TensorShape::Chw {
                                    channels: c,
                                    height: h,
                                    width: w,
                                } if h == height && w == width => channels += c,
                                _ => {
                                    return Err(mismatch(
                                        "concat inputs must share spatial dimensions".into(),
                                    ))
                                }
                            }
                        }
                        Ok(TensorShape::chw(channels, height, width))
                    }
                    TensorShape::Features(_) => {
                        let total = inputs.iter().map(TensorShape::elements).sum();
                        Ok(TensorShape::Features(total))
                    }
                }
            }
            Operator::Flatten => {
                let input = single(inputs)?;
                Ok(input.flattened())
            }
        }
    }

    /// Number of multiply-accumulate operations this operator performs for
    /// one sample, given its (already inferred) output shape.
    pub fn mac_count(&self, output: TensorShape) -> u64 {
        match *self {
            Operator::Conv2d {
                in_channels,
                kernel,
                groups,
                ..
            } => {
                let (oh, ow) = output.spatial();
                let oc = output.channels();
                (oc * oh * ow) as u64 * ((in_channels / groups) * kernel * kernel) as u64
            }
            Operator::Linear {
                in_features,
                out_features,
            } => (in_features * out_features) as u64,
            _ => 0,
        }
    }

    /// The weight-reuse degree: how many different output positions reuse the
    /// same weights. Convolutions reuse their kernels across all spatial
    /// output positions; fully connected layers do not reuse weights at all.
    pub fn reuse_degree(&self, output: TensorShape) -> u64 {
        match *self {
            Operator::Conv2d { .. } => {
                let (oh, ow) = output.spatial();
                (oh * ow) as u64
            }
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Operator {
        /// Whether this operator carries trainable weights that must be stored in
        /// ReRAM crossbars.
        pub(crate) fn has_weights(&self) -> bool {
            matches!(
                self,
                Operator::Conv2d { .. } | Operator::Linear { .. } | Operator::BatchNorm { .. }
            )
        }
    }

    fn chw(c: usize, h: usize, w: usize) -> TensorShape {
        TensorShape::chw(c, h, w)
    }

    #[test]
    fn conv_shape_inference_matches_formula() {
        let conv = Operator::Conv2d {
            in_channels: 3,
            out_channels: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        };
        let out = conv.infer_shape("conv1", &[chw(3, 224, 224)]).unwrap();
        assert_eq!(out, chw(64, 224, 224));
    }

    #[test]
    fn conv_rejects_channel_mismatch_and_flat_input() {
        let conv = Operator::Conv2d {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 0,
            groups: 1,
        };
        assert!(conv.infer_shape("c", &[chw(4, 8, 8)]).is_err());
        assert!(conv
            .infer_shape("c", &[TensorShape::Features(100)])
            .is_err());
    }

    #[test]
    fn conv_rejects_zero_stride() {
        let conv = Operator::Conv2d {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 0,
            padding: 0,
            groups: 1,
        };
        assert!(matches!(
            conv.infer_shape("c", &[chw(3, 8, 8)]),
            Err(NnError::InvalidOperator { .. })
        ));
    }

    #[test]
    fn linear_checks_feature_count() {
        let fc = Operator::Linear {
            in_features: 100,
            out_features: 10,
        };
        assert_eq!(
            fc.infer_shape("fc", &[TensorShape::Features(100)]).unwrap(),
            TensorShape::Features(10)
        );
        assert!(fc.infer_shape("fc", &[TensorShape::Features(99)]).is_err());
    }

    #[test]
    fn pooling_shrinks_spatial_dimensions() {
        let pool = Operator::MaxPool2d {
            kernel: 2,
            stride: 2,
        };
        assert_eq!(
            pool.infer_shape("p", &[chw(16, 8, 8)]).unwrap(),
            chw(16, 4, 4)
        );
        let gap = Operator::GlobalAvgPool;
        assert_eq!(
            gap.infer_shape("g", &[chw(1024, 7, 7)]).unwrap(),
            TensorShape::Features(1024)
        );
    }

    #[test]
    fn add_requires_matching_shapes() {
        let add = Operator::Add;
        assert!(add.infer_shape("a", &[chw(8, 4, 4), chw(8, 4, 4)]).is_ok());
        assert!(add.infer_shape("a", &[chw(8, 4, 4)]).is_err());
        assert!(add.infer_shape("a", &[chw(8, 4, 4), chw(4, 4, 4)]).is_err());
    }

    #[test]
    fn concat_sums_channels() {
        let cat = Operator::Concat;
        let out = cat
            .infer_shape("cat", &[chw(64, 28, 28), chw(32, 28, 28), chw(16, 28, 28)])
            .unwrap();
        assert_eq!(out, chw(112, 28, 28));
        assert!(cat
            .infer_shape("cat", &[chw(64, 28, 28), chw(32, 14, 14)])
            .is_err());
    }

    #[test]
    fn flatten_produces_feature_vector() {
        let out = Operator::Flatten
            .infer_shape("f", &[chw(512, 7, 7)])
            .unwrap();
        assert_eq!(out, TensorShape::Features(512 * 49));
    }

    #[test]
    fn weight_counts_match_closed_forms() {
        let conv = Operator::Conv2d {
            in_channels: 64,
            out_channels: 128,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        };
        assert_eq!(conv.weight_count(), 128 * 64 * 9);
        let fc = Operator::Linear {
            in_features: 4096,
            out_features: 1000,
        };
        assert_eq!(fc.weight_count(), 4096 * 1000);
        assert_eq!(Operator::Relu.weight_count(), 0);
    }

    #[test]
    fn mac_count_uses_output_positions() {
        let conv = Operator::Conv2d {
            in_channels: 3,
            out_channels: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        };
        let out = conv.infer_shape("c", &[chw(3, 224, 224)]).unwrap();
        assert_eq!(conv.mac_count(out), 64 * 224 * 224 * 3 * 9);
    }

    #[test]
    fn reuse_degree_is_spatial_positions_for_conv_only() {
        let conv = Operator::Conv2d {
            in_channels: 3,
            out_channels: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        };
        let out = conv.infer_shape("c", &[chw(3, 224, 224)]).unwrap();
        assert_eq!(conv.reuse_degree(out), 224 * 224);
        let fc = Operator::Linear {
            in_features: 10,
            out_features: 10,
        };
        assert_eq!(fc.reuse_degree(TensorShape::Features(10)), 1);
    }

    #[test]
    fn grouped_convolution_divides_weights_and_macs() {
        let conv = Operator::Conv2d {
            in_channels: 96,
            out_channels: 256,
            kernel: 5,
            stride: 1,
            padding: 2,
            groups: 2,
        };
        assert_eq!(conv.weight_count(), 256 * 48 * 25);
        let out = conv.infer_shape("c", &[chw(96, 27, 27)]).unwrap();
        assert_eq!(conv.mac_count(out), 256 * 27 * 27 * 48 * 25);
    }
}
