//! # amnesia-fleet
//!
//! Sharded multi-server deployment of the Amnesia protocol.
//!
//! The paper deploys one server and one rendezvous instance. This crate
//! scales that deployment horizontally without touching the protocol:
//! a consistent-hash [`ring`] routes every user to one of N server
//! shards, a [`host`] runs the shards and M rendezvous instances over a
//! single shared simulated network (forwarding pushes between rendezvous
//! instances when a phone registered elsewhere must be reached), and a
//! [`loadgen`] drives the whole fleet with population-sampled traffic —
//! workload mixes, diurnal waves and Zipf hot-user skew.
//!
//! Sharding is transparent: sessions run on the same session host as the
//! single-host `AmnesiaSystem`, and the passwords a fleet generates are
//! byte-identical to a single host seeded the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod loadgen;
pub mod ring;

pub use host::{phone_seed, Fleet, FleetConfig, FleetError, FleetOp, OpOutcome};
pub use loadgen::{DiurnalSchedule, LoadConfig, LoadGenerator, LoadReport, WorkloadMix};
pub use ring::{FleetRouter, HashRing, DEFAULT_VNODES_PER_SHARD};
