//! Function-block descriptions.

use fpsa_device::clb::ConfigurableLogicBlockSpec;
use fpsa_device::pe::ProcessingElementSpec;
use fpsa_device::smb::SpikingMemoryBlockSpec;
use serde::{Deserialize, Serialize};

/// The three kinds of function blocks on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BlockKind {
    /// ReRAM processing element (computation).
    Pe,
    /// Spiking memory block (buffering).
    Smb,
    /// Configurable logic block (control).
    Clb,
}

impl BlockKind {
    /// All block kinds.
    pub fn all() -> [BlockKind; 3] {
        [BlockKind::Pe, BlockKind::Smb, BlockKind::Clb]
    }
}

/// A concrete function-block specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FunctionBlock {
    /// A processing element.
    Pe(ProcessingElementSpec),
    /// A spiking memory block.
    Smb(SpikingMemoryBlockSpec),
    /// A configurable logic block.
    Clb(ConfigurableLogicBlockSpec),
}

impl FunctionBlock {
    /// Default SMB block.
    pub fn default_smb() -> Self {
        FunctionBlock::Smb(SpikingMemoryBlockSpec::fpsa_16kb())
    }

    /// Default CLB block.
    pub fn default_clb() -> Self {
        FunctionBlock::Clb(ConfigurableLogicBlockSpec::fpsa_128lut())
    }

    /// Silicon area in µm².
    pub fn area_um2(&self) -> f64 {
        match self {
            FunctionBlock::Pe(pe) => pe.area_um2(),
            FunctionBlock::Smb(smb) => smb.area_um2(),
            FunctionBlock::Clb(clb) => clb.area_um2(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FunctionBlock {
        fn default_pe() -> Self {
            FunctionBlock::Pe(ProcessingElementSpec::fpsa_default())
        }
    }

    #[test]
    fn block_areas_match_table1() {
        assert!((FunctionBlock::default_pe().area_um2() - 22051.414).abs() / 22051.414 < 0.01);
        assert!((FunctionBlock::default_smb().area_um2() - 5421.9).abs() < 1.0);
        assert!((FunctionBlock::default_clb().area_um2() - 5998.272).abs() < 1.0);
    }

    #[test]
    fn pe_is_the_largest_and_slowest_block() {
        let pe = FunctionBlock::default_pe();
        let smb = FunctionBlock::default_smb();
        let clb = FunctionBlock::default_clb();
        assert!(pe.area_um2() > smb.area_um2());
        assert!(pe.area_um2() > clb.area_um2());
    }
}
