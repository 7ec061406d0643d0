//! # dhpf-sim — an SPMD message-passing machine simulator
//!
//! The execution substrate of the dHPF reproduction (standing in for the
//! paper's IBM SP-2 + MPI): compiled [`SpmdProgram`](dhpf_core::SpmdProgram)s
//! run on `P` simulated ranks (threads with FIFO mailboxes), with simulated
//! time from an α/β communication model and a per-flop compute model.
//!
//! The crate also provides the *serial reference interpreter*
//! ([`run_serial`]) used as the correctness oracle: the gathered distributed
//! arrays and reduction scalars of a simulated run must match it exactly.

#![warn(missing_docs)]

pub mod exec;
pub mod interp;
mod lower;
pub mod machine;
pub mod store;

pub use exec::{simulate, simulate_with, RankComm, SimResult};
pub use interp::{run_serial, SimError};
pub use machine::MachineModel;
pub use store::{Array, Store};
