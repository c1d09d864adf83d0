//! Zero-dependency metrics and tracing for the Amnesia reproduction.
//!
//! The paper's evaluation (Fig. 3 latency under Wifi/4G, Tables I–III) is a
//! measurement story; this crate gives every component a first-class way to
//! report what it did. It provides:
//!
//! - [`Registry`] — a cloneable handle to a shared table of named metrics;
//! - [`Counter`] / [`Gauge`] — lock-free monotonic and instantaneous values;
//! - [`LazyHandle`] — a metric handle resolved at its first event, for hot
//!   paths whose keys must not appear before the event does;
//! - [`Histogram`] — a log-scale latency histogram with exact count/sum/
//!   min/max and quantile *bounds* with ≤ 1/32 relative bucket width;
//! - [`Span`] / [`span!`] — scope guards that time a region against any
//!   [`Clock`], wall or simulated;
//! - [`Snapshot`] and a stable JSON rendering for bench bins and tooling.
//!
//! # Usage
//!
//! ```
//! use amnesia_telemetry::{ManualClock, Registry};
//!
//! let registry = Registry::new();
//! let clock = ManualClock::new();
//!
//! registry.counter("net.frames_sent").inc();
//! registry.gauge("server.pending_requests").set(1);
//! {
//!     let _span = amnesia_telemetry::span!(&registry, "server.derive_R", &clock);
//!     clock.advance(850); // stand-in for real work
//! }
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["net.frames_sent"], 1);
//! assert_eq!(snapshot.histograms["server.derive_R"].quantile(0.5), Some(850));
//! println!("{}", snapshot.to_json());
//! ```
//!
//! Components in this workspace each hold a `Registry` clone injected by
//! `amnesia-system`, so one snapshot covers the network, server, rendezvous
//! point, and phones of a deployment at once; `amnesia-net`'s `SimClock`
//! implements [`Clock`], so spans measure simulated time in the same unit
//! (microseconds) as wall time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod histogram;
mod registry;
mod report;

pub use clock::{Clock, ManualClock, WallClock};
pub use histogram::Histogram;
pub use registry::{Counter, Gauge, HistogramHandle, LazyHandle, Metric, Registry, Span};
pub use report::{histogram_json, json_string, Snapshot};
