//! The bundled checks, one module per diagnostic family.

pub(crate) mod absint;
pub(crate) mod cluster;
pub(crate) mod ic;
pub(crate) mod netlist;
pub(crate) mod rp;
pub(crate) mod structural;
