//! Device- and circuit-level models for the FPSA ReRAM neural-network accelerator.
//!
//! This crate is the bottom layer of the FPSA reproduction stack. It models the
//! 45 nm technology parameters, the ReRAM crossbar, the simplified spiking
//! peripheral circuits of the FPSA processing element (charging unit,
//! integrate-and-fire neuron unit, spike subtracter), the SRAM-based spiking
//! memory block (SMB) and configurable logic block (CLB), and the ReRAM
//! conductance-variation weight representation schemes (*splice* vs *add*).
//!
//! The headline numbers of Table 1 and Table 2 of the paper are reproduced by
//! composing the component models defined here, not by hard-coding the totals;
//! the published values are kept as constants only for regression testing.
//!
//! # Example
//!
//! ```
//! use fpsa_device::pe::ProcessingElementSpec;
//!
//! let pe = ProcessingElementSpec::fpsa_default();
//! // The FPSA PE completes a 256x256 vector-matrix multiplication in about
//! // 156 ns and reaches ~38 TOPS/mm^2 of computational density.
//! assert!(pe.vmm_latency_ns() > 150.0 && pe.vmm_latency_ns() < 165.0);
//! assert!(pe.computational_density_tops_per_mm2() > 30.0);
//! ```

pub mod circuits;
pub mod clb;
pub mod pe;
pub mod reram;
pub mod smb;
pub mod spiking;
pub mod sram;
pub mod tech;
pub mod variation;

pub use pe::ProcessingElementSpec;
pub use tech::TechnologyNode;
