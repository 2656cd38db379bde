//! Per-operator lowering rules.
//!
//! Each rule turns one computational-graph node into a set of core-op groups
//! sized for the target crossbar. The rules follow Section 5.1 of the paper:
//! weight layers are tiled, oversized input dimensions get reduction tiles,
//! poolings and element-wise operations become dedicated small matrices, and
//! everything else is wiring.

use crate::coreop::{CoreOpGroup, CoreOpKind};
use fpsa_nn::{Operator, TensorShape};

/// Crossbar geometry the synthesizer lowers onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConstraints {
    /// Usable crossbar rows (logical inputs).
    pub rows: usize,
    /// Usable logical crossbar columns (outputs).
    pub cols: usize,
}

/// Split `total` into tile sizes of at most `tile`.
pub fn tile_sizes(total: usize, tile: usize) -> Vec<usize> {
    assert!(tile > 0, "tile size must be positive");
    if total == 0 {
        return Vec::new();
    }
    let full = total / tile;
    let rest = total % tile;
    let mut out = vec![tile; full];
    if rest > 0 {
        out.push(rest);
    }
    out
}

/// Split `total` into `(offset, size)` tiles of at most `tile` — the sizes
/// of [`tile_sizes`] paired with their running start offsets, which become
/// the tiles' [`CoreOpGroup::row_offset`]/[`CoreOpGroup::col_offset`].
pub fn tile_spans(total: usize, tile: usize) -> Vec<(usize, usize)> {
    let mut offset = 0;
    tile_sizes(total, tile)
        .into_iter()
        .map(|size| {
            let span = (offset, size);
            offset += size;
            span
        })
        .collect()
}

/// The result of lowering one computational-graph node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoweredNode {
    /// The produced groups (ids are assigned later by the synthesizer).
    pub groups: Vec<CoreOpGroup>,
    /// Index range (into `groups`) of the groups carrying the node's output.
    pub outputs: std::ops::Range<usize>,
    /// Dependencies internal to the node, as `(producer, consumer)` local
    /// indices into `groups` (e.g. VMM tile → the reduction tile summing it).
    pub intra_edges: Vec<(usize, usize)>,
}

impl LoweredNode {
    /// A node that lowers to nothing (pure wiring).
    pub fn empty() -> Self {
        LoweredNode::default()
    }

    /// Whether the node produced any groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The groups that receive the node's external inputs (everything that is
    /// not an output of an intra-node edge, or all groups when there are no
    /// intra-node stages).
    pub fn input_range(&self) -> std::ops::Range<usize> {
        if self.outputs.start == 0 {
            0..self.groups.len()
        } else {
            0..self.outputs.start
        }
    }
}

/// The parameters of one dense lowering: a weight matrix of
/// `input_dim x output_dim`, executed `reuse` times per sample.
#[derive(Debug, Clone, Copy)]
pub struct DenseSpec<'a> {
    /// Name prefix for the generated tiles.
    pub name: &'a str,
    /// The computational-graph node the tiles come from.
    pub source_node: usize,
    /// Weight-matrix rows (the layer's input dimension).
    pub input_dim: usize,
    /// Weight-matrix columns (the layer's output dimension).
    pub output_dim: usize,
    /// How many times the matrix is reused per sample.
    pub reuse: u64,
    /// Whether a ReLU follows (fused into the tiles when possible).
    pub relu: bool,
    /// The core-op kind of the VMM tiles.
    pub kind: CoreOpKind,
}

/// Lower a dense weight matrix into VMM tiles plus (if needed) reduction
/// tiles.
pub fn lower_dense(spec: DenseSpec<'_>, constraints: TileConstraints) -> LoweredNode {
    let DenseSpec {
        name,
        source_node,
        input_dim,
        output_dim,
        reuse,
        relu,
        kind,
    } = spec;
    let row_tiles = tile_spans(input_dim, constraints.rows);
    let col_tiles = tile_spans(output_dim, constraints.cols);
    let mut groups = Vec::new();
    for (ci, &(col_offset, cols)) in col_tiles.iter().enumerate() {
        for (ri, &(row_offset, rows)) in row_tiles.iter().enumerate() {
            groups.push(CoreOpGroup {
                id: 0,
                name: format!("{name}_t{ri}_{ci}"),
                source_node,
                kind,
                rows,
                cols,
                row_offset,
                col_offset,
                reuse_degree: reuse,
                // ReLU can only be fused when no reduction follows.
                relu: relu && row_tiles.len() == 1,
                layer_depth: 0,
            });
        }
    }
    let vmm_count = groups.len();
    if row_tiles.len() > 1 {
        // Partial sums from `row_tiles.len()` tiles must be added per output.
        let partials = row_tiles.len();
        let outputs_per_tile = (constraints.rows / partials).max(1).min(constraints.cols);
        let mut intra_edges = Vec::new();
        for (ci, &(col_offset, cols)) in col_tiles.iter().enumerate() {
            for (bi, &(block_offset, block)) in
                tile_spans(cols, outputs_per_tile).iter().enumerate()
            {
                let reduction_index = groups.len();
                groups.push(CoreOpGroup {
                    id: 0,
                    name: format!("{name}_red{ci}_{bi}"),
                    source_node,
                    kind: CoreOpKind::Reduction,
                    rows: (partials * block).min(constraints.rows),
                    cols: block,
                    row_offset: 0,
                    col_offset: col_offset + block_offset,
                    reuse_degree: reuse,
                    relu,
                    layer_depth: 0,
                });
                // Only the VMM tiles of this column tile feed this reduction.
                for ri in 0..row_tiles.len() {
                    intra_edges.push((ci * row_tiles.len() + ri, reduction_index));
                }
            }
        }
        LoweredNode {
            outputs: vmm_count..groups.len(),
            groups,
            intra_edges,
        }
    } else {
        let len = groups.len();
        LoweredNode {
            groups,
            outputs: 0..len,
            intra_edges: Vec::new(),
        }
    }
}

/// Lower one computational-graph node.
///
/// Returns the groups (possibly empty for pass-through operators), the range
/// of output-carrying groups within them, and any intra-node dependencies.
pub fn lower_node(
    node_id: usize,
    name: &str,
    op: &Operator,
    input_shapes: &[TensorShape],
    output_shape: TensorShape,
    fuse_relu: bool,
    constraints: TileConstraints,
) -> LoweredNode {
    match *op {
        Operator::Linear {
            in_features,
            out_features,
        } => lower_dense(
            DenseSpec {
                name,
                source_node: node_id,
                input_dim: in_features,
                output_dim: out_features,
                reuse: 1,
                relu: fuse_relu,
                kind: CoreOpKind::Vmm,
            },
            constraints,
        ),
        Operator::Conv2d {
            in_channels,
            out_channels,
            kernel,
            groups,
            ..
        } => {
            let (oh, ow) = output_shape.spatial();
            lower_dense(
                DenseSpec {
                    name,
                    source_node: node_id,
                    input_dim: (in_channels / groups) * kernel * kernel,
                    output_dim: out_channels / groups,
                    reuse: (oh * ow * groups) as u64,
                    relu: fuse_relu,
                    kind: CoreOpKind::Vmm,
                },
                constraints,
            )
        }
        Operator::AvgPool2d { kernel, .. } => {
            let channels = input_shapes.first().map_or(0, TensorShape::channels);
            let (oh, ow) = output_shape.spatial();
            lower_pooling(
                name,
                node_id,
                channels,
                kernel * kernel,
                (oh * ow) as u64,
                false,
                constraints,
            )
        }
        Operator::MaxPool2d { kernel, .. } => {
            let channels = input_shapes.first().map_or(0, TensorShape::channels);
            let (oh, ow) = output_shape.spatial();
            // Max pooling is approximated by a two-stage MLP construct
            // (Section 5.1 / Section 7.3), doubling the tile count.
            lower_pooling(
                name,
                node_id,
                channels,
                kernel * kernel,
                (oh * ow) as u64,
                true,
                constraints,
            )
        }
        Operator::GlobalAvgPool => {
            let input = input_shapes.first().copied().unwrap_or(output_shape);
            let (h, w) = input.spatial();
            lower_pooling(
                name,
                node_id,
                input.channels(),
                h * w,
                1,
                false,
                constraints,
            )
        }
        Operator::Add => {
            let channels = output_shape.channels();
            let (h, w) = output_shape.spatial();
            let per_tile = (constraints.rows / 2).min(constraints.cols).max(1);
            let mut groups = Vec::new();
            for (i, &(block_offset, block)) in tile_spans(channels, per_tile).iter().enumerate() {
                groups.push(CoreOpGroup {
                    id: 0,
                    name: format!("{name}_add{i}"),
                    source_node: node_id,
                    kind: CoreOpKind::Eltwise,
                    rows: 2 * block,
                    cols: block,
                    row_offset: 0,
                    col_offset: block_offset,
                    reuse_degree: (h * w) as u64,
                    relu: fuse_relu,
                    layer_depth: 0,
                });
            }
            let len = groups.len();
            LoweredNode {
                groups,
                outputs: 0..len,
                intra_edges: Vec::new(),
            }
        }
        // Pass-through / folded operators produce no core-ops.
        Operator::Input { .. }
        | Operator::Relu
        | Operator::Concat
        | Operator::Flatten
        | Operator::BatchNorm { .. }
        | Operator::LocalResponseNorm
        | Operator::Dropout
        | Operator::Softmax => LoweredNode::empty(),
    }
}

/// Lower a pooling over `channels` channels with `window` inputs per output
/// position into pooling tiles; `two_stage` adds the MLP approximation stage
/// used for max pooling.
fn lower_pooling(
    name: &str,
    source_node: usize,
    channels: usize,
    window: usize,
    reuse: u64,
    two_stage: bool,
    constraints: TileConstraints,
) -> LoweredNode {
    let per_tile = (constraints.rows / window.max(1))
        .max(1)
        .min(constraints.cols);
    let blocks = tile_spans(channels, per_tile);
    let mut groups = Vec::new();
    for (i, &(block_offset, block)) in blocks.iter().enumerate() {
        groups.push(CoreOpGroup {
            id: 0,
            name: format!("{name}_p{i}"),
            source_node,
            kind: CoreOpKind::Pooling,
            rows: (window * block).min(constraints.rows),
            cols: if two_stage {
                (2 * block).min(constraints.cols)
            } else {
                block
            },
            row_offset: 0,
            col_offset: block_offset,
            reuse_degree: reuse,
            relu: false,
            layer_depth: 0,
        });
    }
    if two_stage {
        let mut intra_edges = Vec::new();
        for (i, &(block_offset, block)) in blocks.iter().enumerate() {
            let stage2_index = groups.len();
            groups.push(CoreOpGroup {
                id: 0,
                name: format!("{name}_p{i}_stage2"),
                source_node,
                kind: CoreOpKind::Pooling,
                rows: (2 * block).min(constraints.rows),
                cols: block,
                row_offset: 0,
                col_offset: block_offset,
                reuse_degree: reuse,
                relu: false,
                layer_depth: 0,
            });
            intra_edges.push((i, stage2_index));
        }
        let start = blocks.len();
        let end = groups.len();
        LoweredNode {
            groups,
            outputs: start..end,
            intra_edges,
        }
    } else {
        let len = groups.len();
        LoweredNode {
            groups,
            outputs: 0..len,
            intra_edges: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TileConstraints {
        /// The default FPSA constraint: a 256×256 logical crossbar.
        pub(crate) fn fpsa_256() -> Self {
            TileConstraints {
                rows: 256,
                cols: 256,
            }
        }
    }

    #[test]
    fn tile_sizes_cover_the_total() {
        assert_eq!(tile_sizes(600, 256), vec![256, 256, 88]);
        assert_eq!(tile_sizes(256, 256), vec![256]);
        assert_eq!(tile_sizes(0, 256), Vec::<usize>::new());
        assert_eq!(tile_sizes(600, 256).iter().sum::<usize>(), 600);
    }

    #[test]
    #[should_panic(expected = "tile size must be positive")]
    fn tile_sizes_rejects_zero_tile() {
        let _ = tile_sizes(10, 0);
    }

    #[test]
    fn tile_spans_pair_offsets_with_sizes() {
        assert_eq!(tile_spans(600, 256), vec![(0, 256), (256, 256), (512, 88)]);
        assert_eq!(tile_spans(0, 256), Vec::<(usize, usize)>::new());
    }

    #[test]
    fn dense_tiles_carry_their_layer_coordinates() {
        let lowered = lower_dense(
            DenseSpec {
                name: "fc1",
                source_node: 0,
                input_dim: 784,
                output_dim: 500,
                reuse: 1,
                relu: true,
                kind: CoreOpKind::Vmm,
            },
            TileConstraints::fpsa_256(),
        );
        // VMM tile spans partition the 784 x 500 weight matrix.
        let mut covered = 0usize;
        for g in lowered.groups.iter().filter(|g| g.kind == CoreOpKind::Vmm) {
            assert!(g.row_offset + g.rows <= 784);
            assert!(g.col_offset + g.cols <= 500);
            covered += g.rows * g.cols;
        }
        assert_eq!(covered, 784 * 500);
        // Reduction tiles partition the 500 outputs exactly once.
        let mut out_covered = vec![false; 500];
        for g in &lowered.groups[lowered.outputs.clone()] {
            for c in 0..g.cols {
                assert!(!out_covered[g.col_offset + c]);
                out_covered[g.col_offset + c] = true;
            }
        }
        assert!(out_covered.iter().all(|&c| c));
    }

    #[test]
    fn small_dense_layer_is_one_tile_with_fused_relu() {
        let lowered = lower_dense(
            DenseSpec {
                name: "fc",
                source_node: 0,
                input_dim: 100,
                output_dim: 10,
                reuse: 1,
                relu: true,
                kind: CoreOpKind::Vmm,
            },
            TileConstraints::fpsa_256(),
        );
        assert_eq!(lowered.groups.len(), 1);
        assert_eq!(lowered.groups[0].rows, 100);
        assert_eq!(lowered.groups[0].cols, 10);
        assert!(lowered.groups[0].relu);
        assert_eq!(lowered.outputs, 0..1);
        assert!(lowered.intra_edges.is_empty());
    }

    #[test]
    fn large_dense_layer_gets_reduction_tiles() {
        // 784 inputs -> 4 row tiles; 500 outputs -> 2 col tiles.
        let lowered = lower_dense(
            DenseSpec {
                name: "fc1",
                source_node: 0,
                input_dim: 784,
                output_dim: 500,
                reuse: 1,
                relu: true,
                kind: CoreOpKind::Vmm,
            },
            TileConstraints::fpsa_256(),
        );
        let groups = &lowered.groups;
        let vmm = groups.iter().filter(|g| g.kind == CoreOpKind::Vmm).count();
        let red = groups
            .iter()
            .filter(|g| g.kind == CoreOpKind::Reduction)
            .count();
        assert_eq!(vmm, 4 * 2);
        assert!(red >= 2, "each column tile needs at least one reduction");
        // VMM tiles must not fuse ReLU when a reduction follows.
        assert!(groups
            .iter()
            .filter(|g| g.kind == CoreOpKind::Vmm)
            .all(|g| !g.relu));
        assert!(groups[lowered.outputs.clone()]
            .iter()
            .all(|g| g.kind == CoreOpKind::Reduction));
        assert!(groups[lowered.outputs.clone()].iter().all(|g| g.relu));
        // Every reduction tile is fed by exactly the 4 row tiles of its
        // column tile, not by every VMM tile.
        for (_, consumer) in &lowered.intra_edges {
            assert!(groups[*consumer].kind == CoreOpKind::Reduction);
        }
        let per_reduction = lowered.intra_edges.len() / red;
        assert_eq!(per_reduction, 4);
    }

    #[test]
    fn conv_lowering_uses_spatial_reuse() {
        let op = Operator::Conv2d {
            in_channels: 64,
            out_channels: 128,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        };
        let input = TensorShape::chw(64, 56, 56);
        let output = op.infer_shape("c", &[input]).unwrap();
        let lowered = lower_node(
            3,
            "conv",
            &op,
            &[input],
            output,
            true,
            TileConstraints::fpsa_256(),
        );
        let groups = &lowered.groups;
        assert!(!groups.is_empty());
        assert!(groups.iter().all(|g| g.reuse_degree == 56 * 56));
        assert!(groups.iter().all(|g| g.rows <= 256 && g.cols <= 256));
        // 64*9 = 576 inputs -> 3 row tiles; 128 outputs -> 1 col tile.
        let vmm = groups.iter().filter(|g| g.kind == CoreOpKind::Vmm).count();
        assert_eq!(vmm, 3);
    }

    #[test]
    fn max_pooling_produces_two_stage_small_tiles() {
        let op = Operator::MaxPool2d {
            kernel: 2,
            stride: 2,
        };
        let input = TensorShape::chw(512, 14, 14);
        let output = op.infer_shape("p", &[input]).unwrap();
        let lowered = lower_node(
            1,
            "pool",
            &op,
            &[input],
            output,
            false,
            TileConstraints::fpsa_256(),
        );
        let groups = &lowered.groups;
        assert!(groups.iter().all(|g| g.kind == CoreOpKind::Pooling));
        // 2x2 window -> 64 channels per tile -> 8 tiles, doubled by the MLP stage.
        assert_eq!(groups.len(), 16);
        assert_eq!(lowered.outputs, 8..16);
        assert_eq!(lowered.intra_edges.len(), 8);
        assert!(groups.iter().all(|g| g.reuse_degree == 49));
    }

    #[test]
    fn avg_pooling_is_single_stage() {
        let op = Operator::AvgPool2d {
            kernel: 2,
            stride: 2,
        };
        let input = TensorShape::chw(128, 8, 8);
        let output = op.infer_shape("p", &[input]).unwrap();
        let lowered = lower_node(
            1,
            "pool",
            &op,
            &[input],
            output,
            false,
            TileConstraints::fpsa_256(),
        );
        assert_eq!(lowered.groups.len(), 2);
        assert_eq!(lowered.outputs, 0..2);
        assert!(lowered.intra_edges.is_empty());
    }

    #[test]
    fn global_average_pool_uses_spatial_window() {
        let op = Operator::GlobalAvgPool;
        let input = TensorShape::chw(1024, 7, 7);
        let output = op.infer_shape("g", &[input]).unwrap();
        let lowered = lower_node(
            2,
            "gap",
            &op,
            &[input],
            output,
            false,
            TileConstraints::fpsa_256(),
        );
        // 49-input window -> 5 channels per tile -> 205 tiles.
        assert_eq!(lowered.groups.len(), 205);
        assert!(lowered.groups.iter().all(|g| g.rows <= 256));
    }

    #[test]
    fn residual_add_produces_eltwise_tiles_with_spatial_reuse() {
        let op = Operator::Add;
        let shape = TensorShape::chw(256, 56, 56);
        let lowered = lower_node(
            4,
            "res",
            &op,
            &[shape, shape],
            shape,
            true,
            TileConstraints::fpsa_256(),
        );
        let groups = &lowered.groups;
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.kind == CoreOpKind::Eltwise));
        assert!(groups.iter().all(|g| g.reuse_degree == 56 * 56));
        assert!(groups.iter().all(|g| g.relu));
    }

    #[test]
    fn pass_through_operators_produce_no_groups() {
        for op in [
            Operator::Relu,
            Operator::Flatten,
            Operator::Dropout,
            Operator::Softmax,
            Operator::Concat,
            Operator::LocalResponseNorm,
        ] {
            let lowered = lower_node(
                0,
                "x",
                &op,
                &[TensorShape::Features(16)],
                TensorShape::Features(16),
                false,
                TileConstraints::fpsa_256(),
            );
            assert!(lowered.is_empty(), "{op:?} should not produce groups");
            assert_eq!(lowered.outputs, 0..0);
        }
    }
}
