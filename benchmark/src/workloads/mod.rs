pub mod compile_zoo;
pub mod exec_offline;
pub mod fleet_zoo;
pub mod serve_saturate;
pub mod serve_steady;
mod serving;
