//! The GPU Performance Estimation Engine (PEE) of the paper (Section 3.3).
//!
//! Given any sub-graph (candidate partition) of a stream graph, the PEE
//! answers two questions:
//!
//! 1. With which kernel parameters — `W` executions, `S` compute threads per
//!    execution and `F` data-transfer threads — should this partition be
//!    compiled into a kernel?
//! 2. How long will that kernel take?
//!
//! The execution-time model implements the paper's equations III.8–III.12:
//!
//! ```text
//! Texec = max(Tcomp, Tdt) + Tdb            (III.8)
//! Tcomp = Σ_i  t_i / min(f_i, S)           (III.9)
//! Tdt   = C1 · D / F                       (III.10)
//! Tdb   = C2 · D / (F + W·S)               (III.11)
//! T     = Texec / W                        (III.12)
//! ```
//!
//! where `t_i` is the profiled single-thread time of all firings of filter
//! `i` in one execution, `f_i` its firing rate, and `D` the primary IO bytes
//! of the kernel. `C1` and `C2` are derived once per device
//! ([`PerfModel::for_gpu`]); the [`calibrate`] tests check them against a
//! regression on the simulator, the paper's fitting procedure.
//!
//! An estimator's context is fixed by its GPU: the model is
//! `PerfModel::for_gpu` of the device, and the kernel-parameter search
//! enumerates one fixed space (`S` in 1–32, `F` in 16–256, `W` up to 64,
//! capped by the device's shared memory and thread budget). Neither can be
//! changed, so neither is part of an estimate-cache key.
//!
//! One documented deviation from the thesis text: because our substrate is a
//! simulator with an explicit SM issue-throughput limit, `Tcomp` always
//! includes the saturation term `W·Σt_i / warp_size` (on real Fermi hardware
//! the thread-count cap keeps kernels out of that regime, which is why the
//! paper's simpler formula is accurate there). This keeps the estimator and
//! the "measured" kernel times consistent, exactly as the paper requires of
//! its PEE ("the PEE includes the same optimization done by the GPU code
//! generator").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
mod chars;
mod estimator;
mod model;
mod params;
mod shared_cache;

pub use chars::{
    merge_characteristics, subtract_characteristics, CharsIndex, PartitionCharacteristics, SetChars,
};
pub use estimator::{Estimate, Estimator};
pub use model::{PerfModel, PAPER_C1, PAPER_C2};
pub use params::select_parameters;
pub use shared_cache::{CacheStats, EstimateCache, EstimateKey, ESTIMATOR_ALGORITHM_VERSION};
