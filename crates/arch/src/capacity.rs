//! Function-block capacity accounting.
//!
//! A [`FabricCapacity`] counts the PE / SMB / CLB slots a design needs or a
//! fabric offers. It is the currency of the multi-fabric sharding stack: the
//! compiler's block-limit check reports it in the typed `CapacityExceeded`
//! error, and the partitioner in `fpsa_shard` packs pipeline stages under a
//! per-chip budget expressed in the same units.

use crate::config::ArchitectureConfig;
use serde::{Deserialize, Serialize};

/// A count of function-block slots, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FabricCapacity {
    /// Processing elements.
    pub pes: usize,
    /// Spiking memory blocks.
    pub smbs: usize,
    /// Configurable logic blocks.
    pub clbs: usize,
}

impl FabricCapacity {
    /// A capacity with the given per-kind counts.
    pub fn new(pes: usize, smbs: usize, clbs: usize) -> Self {
        FabricCapacity { pes, smbs, clbs }
    }

    /// The largest capacity whose total block count stays within `blocks`
    /// slots, split at the architecture's interleave ratio (every
    /// `pes_per_smb + 2` slots hold `pes_per_smb` PEs, one SMB and one CLB).
    /// This is what the compiler's netlist block limit corresponds to in
    /// per-kind terms.
    pub fn within_block_budget(config: &ArchitectureConfig, blocks: usize) -> Self {
        let phase = config.pes_per_smb + 2;
        let full = blocks / phase;
        let rest = blocks % phase;
        FabricCapacity {
            pes: full * config.pes_per_smb + rest.min(config.pes_per_smb),
            smbs: full + usize::from(rest > config.pes_per_smb),
            // A partial phase (rest <= pes_per_smb + 1) fills its PEs and at
            // most the SMB slot; it can never reach the trailing CLB slot.
            clbs: full,
        }
    }

    /// Total block slots across all kinds.
    pub fn total_blocks(&self) -> usize {
        self.pes + self.smbs + self.clbs
    }

    /// Whether a demand fits inside this capacity, kind by kind.
    pub fn fits(&self, demand: &FabricCapacity) -> bool {
        demand.pes <= self.pes && demand.smbs <= self.smbs && demand.clbs <= self.clbs
    }

    /// The fraction of this capacity's PEs a demand occupies (the per-chip
    /// utilization figure of the sharding experiments).
    pub fn pe_utilization(&self, demand: &FabricCapacity) -> f64 {
        if self.pes == 0 {
            return 0.0;
        }
        demand.pes as f64 / self.pes as f64
    }
}

impl std::fmt::Display for FabricCapacity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} PEs / {} SMBs / {} CLBs",
            self.pes, self.smbs, self.clbs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_budget_splits_at_the_interleave_ratio() {
        let config = ArchitectureConfig::fpsa(); // 8 PEs : 1 SMB : 1 CLB
        let cap = FabricCapacity::within_block_budget(&config, 10);
        assert_eq!(cap, FabricCapacity::new(8, 1, 1));
        assert_eq!(cap.total_blocks(), 10);
        // Partial phases allocate PEs first, then the SMB, then the CLB.
        assert_eq!(
            FabricCapacity::within_block_budget(&config, 13),
            FabricCapacity::new(11, 1, 1)
        );
        assert_eq!(
            FabricCapacity::within_block_budget(&config, 19),
            FabricCapacity::new(16, 2, 1)
        );
        assert!(FabricCapacity::within_block_budget(&config, 4_000).total_blocks() <= 4_000);
    }

    #[test]
    fn fits_compares_kind_by_kind() {
        let budget = FabricCapacity::new(16, 2, 2);
        assert!(budget.fits(&FabricCapacity::new(16, 2, 2)));
        assert!(budget.fits(&FabricCapacity::new(1, 0, 0)));
        assert!(!budget.fits(&FabricCapacity::new(17, 0, 0)));
        assert!(!budget.fits(&FabricCapacity::new(1, 3, 0)));
    }

    #[test]
    fn pe_utilization_is_a_fraction_of_the_budget() {
        let budget = FabricCapacity::new(20, 3, 3);
        let demand = FabricCapacity::new(15, 1, 1);
        assert!((budget.pe_utilization(&demand) - 0.75).abs() < 1e-12);
        assert_eq!(FabricCapacity::default().pe_utilization(&demand), 0.0);
    }

    #[test]
    fn display_reads_naturally() {
        let s = FabricCapacity::new(8, 1, 1).to_string();
        assert!(s.contains("8 PEs"));
        assert!(s.contains("1 SMBs"));
    }
}
