//! A simulated multi-cloud environment for CDStore experiments.
//!
//! The paper evaluates CDStore on a LAN testbed and on four commercial
//! clouds (Amazon, Google, Azure, Rackspace — §5.1, Table 2). Neither
//! testbed is available to this reproduction, so this crate provides the
//! closest synthetic equivalent:
//!
//! * [`profile`] — per-cloud bandwidth/latency profiles seeded from the
//!   paper's Table 2 measurements, plus the 1 Gb/s LAN profile.
//! * [`flow`] — a max-min-fair fluid flow simulator that models concurrent
//!   transfers sharing links, disks, and CPU stages; used for the
//!   multi-client aggregate experiments (Figure 8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod profile;

pub use flow::{Flow, FlowSimulator, Resource};
pub use profile::{CloudProfile, Direction};
