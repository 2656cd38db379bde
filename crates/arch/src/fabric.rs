//! The physical fabric: a 2-D grid of function-block slots.

use crate::blocks::BlockKind;
use crate::config::ArchitectureConfig;
use serde::{Deserialize, Serialize};

/// Grid dimensions of a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FabricDimensions {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl FabricDimensions {
    /// Total slot count.
    pub fn slots(&self) -> usize {
        self.rows * self.cols
    }

    /// The smallest square grid with at least `slots` slots.
    pub fn square_for(slots: usize) -> Self {
        let side = (slots as f64).sqrt().ceil().max(1.0) as usize;
        FabricDimensions {
            rows: side,
            cols: side,
        }
    }

    /// Manhattan distance between two slot coordinates.
    pub fn manhattan(&self, a: (usize, usize), b: (usize, usize)) -> usize {
        a.0.abs_diff(b.0) + a.1.abs_diff(b.1)
    }

    /// Coordinate of a linear index.
    pub fn coord(&self, index: usize) -> (usize, usize) {
        (index / self.cols, index % self.cols)
    }
}

/// A concrete fabric instance: an architecture configuration plus a grid of
/// block slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fabric {
    /// The architecture this fabric instantiates.
    pub config: ArchitectureConfig,
    /// Grid dimensions.
    pub dims: FabricDimensions,
    slots: Vec<BlockKind>,
}

impl Fabric {
    /// Build a fabric with at least `pe_count` PEs, inserting SMBs and CLBs
    /// at the ratios requested by the configuration. Blocks are interleaved
    /// so that every PE has a buffer and control block nearby.
    pub fn with_pe_count(config: ArchitectureConfig, pe_count: usize) -> Self {
        let pe_count = pe_count.max(1);
        let smb_count = pe_count.div_ceil(config.pes_per_smb);
        let clb_count = pe_count.div_ceil(config.pes_per_clb);
        let total = pe_count + smb_count + clb_count;
        let dims = FabricDimensions::square_for(total);

        let mut slots = Vec::with_capacity(dims.slots());
        let mut placed_smb = 0usize;
        let mut placed_clb = 0usize;
        for i in 0..dims.slots() {
            // Interleave: every (pes_per_smb + 2) slots hold one SMB and one
            // CLB; remaining slots hold PEs (extra slots in the square grid
            // stay PEs so capacity only rounds up).
            let phase = i % (config.pes_per_smb + 2);
            let kind = if phase == config.pes_per_smb && placed_smb < smb_count {
                placed_smb += 1;
                BlockKind::Smb
            } else if phase == config.pes_per_smb + 1 && placed_clb < clb_count {
                placed_clb += 1;
                BlockKind::Clb
            } else {
                BlockKind::Pe
            };
            slots.push(kind);
        }
        Fabric {
            config,
            dims,
            slots,
        }
    }

    /// Slots of a given kind, as linear indices.
    pub fn slots_of(&self, kind: BlockKind) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == kind)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FabricDimensions {
        /// Linear index of a coordinate.
        pub(crate) fn index(&self, coord: (usize, usize)) -> usize {
            coord.0 * self.cols + coord.1
        }
    }

    impl Fabric {
        /// The block kind at each slot, in row-major order.
        pub(crate) fn slots(&self) -> &[BlockKind] {
            &self.slots
        }

        /// Number of PEs on the fabric.
        pub(crate) fn pe_count(&self) -> usize {
            self.slots.iter().filter(|k| **k == BlockKind::Pe).count()
        }

        /// Number of SMBs on the fabric.
        pub(crate) fn smb_count(&self) -> usize {
            self.slots.iter().filter(|k| **k == BlockKind::Smb).count()
        }

        /// Number of CLBs on the fabric.
        pub(crate) fn clb_count(&self) -> usize {
            self.slots.iter().filter(|k| **k == BlockKind::Clb).count()
        }
    }

    #[test]
    fn dimensions_round_up_to_squares() {
        let d = FabricDimensions::square_for(10);
        assert_eq!(d, FabricDimensions { rows: 4, cols: 4 });
        assert!(d.slots() >= 10);
        assert_eq!(FabricDimensions::square_for(0).slots(), 1);
    }

    #[test]
    fn coordinate_round_trip() {
        let d = FabricDimensions { rows: 5, cols: 7 };
        for i in 0..d.slots() {
            assert_eq!(d.index(d.coord(i)), i);
        }
        assert_eq!(d.manhattan((0, 0), (3, 4)), 7);
    }

    #[test]
    fn fabric_holds_requested_pe_count() {
        let f = Fabric::with_pe_count(ArchitectureConfig::fpsa(), 100);
        assert!(f.pe_count() >= 100);
        assert!(f.smb_count() >= 100 / 8);
        assert!(f.clb_count() >= 100 / 8);
        assert_eq!(f.slots().len(), f.dims.slots());
    }

    #[test]
    fn block_mix_follows_configuration_ratio() {
        let f = Fabric::with_pe_count(ArchitectureConfig::fpsa(), 512);
        let ratio = f.pe_count() as f64 / f.smb_count() as f64;
        assert!(ratio > 5.0 && ratio < 11.0, "PE/SMB ratio {ratio}");
    }

    #[test]
    fn slots_of_partitions_the_grid() {
        let f = Fabric::with_pe_count(ArchitectureConfig::fpsa(), 32);
        let total = f.slots_of(BlockKind::Pe).len()
            + f.slots_of(BlockKind::Smb).len()
            + f.slots_of(BlockKind::Clb).len();
        assert_eq!(total, f.dims.slots());
    }
}
