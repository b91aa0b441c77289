//! # rtpl-sim — multiprocessor performance model
//!
//! The paper evaluates its executors on a 16-processor Encore Multimax/320.
//! That machine is long gone (and this reproduction may run on a single
//! core), but §4 and §5.1.2 of the paper demonstrate that its timings are
//! accurately predicted by a simple cost accounting:
//!
//! * each loop index costs its floating-point work (`Tp` per work unit),
//! * a pre-scheduled phase ends with a global synchronization (`Tsynch`),
//! * a self-executing index pays `Tinc` to increment the shared ready array
//!   and `Tcheck` per operand availability check,
//! * everything else is load balance — *when* each index can run given the
//!   schedule and the dependences.
//!
//! This crate implements that accounting two ways:
//!
//! * [`event`] — a **discrete-event simulation** of `p` processors
//!   executing a concrete [`Schedule`] over a concrete [`DepGraph`]
//!   (pre-scheduled, self-executing, and doacross disciplines). With all
//!   overheads zero this yields the paper's *symbolically estimated
//!   efficiency*.
//! * [`model`] — the **closed-form analysis of §4** for the m×n five-point
//!   model problem (equations 1–7) and the dense-triangular extreme case,
//!   validated against the event simulator in the test suite.
//!
//! [`Schedule`]: rtpl_inspector::Schedule
//! [`DepGraph`]: rtpl_inspector::DepGraph

pub mod calibrate;
pub mod cost;
pub mod event;
pub mod model;

pub use cost::CostModel;
pub use event::{
    sim_doacross, sim_pre_scheduled, sim_pre_scheduled_elided, sim_self_executing,
    sim_self_executing_fine, sim_sequential, SimOutcome,
};
