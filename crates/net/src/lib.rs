//! Simulated network substrate for the Amnesia reproduction.
//!
//! The paper's prototype ran over the real Internet: a CherryPy server on
//! EC2, Google Cloud Messaging as the rendezvous, and a Samsung phone on Cox
//! Wifi or T-Mobile 4G. This crate rebuilds that environment as a
//! deterministic discrete-event simulation:
//!
//! * [`SimClock`] / [`SimInstant`] / [`SimDuration`] — simulated time.
//!   Nothing in the workspace's experiment path reads the wall clock, so
//!   every latency figure regenerates bit-for-bit from a seed.
//! * [`LatencyModel`] — stochastic per-hop latency (constant, uniform,
//!   truncated normal via Box–Muller, log-normal). The Figure 3 experiment
//!   calibrates normal models so the end-to-end distribution matches the
//!   paper's measured Wifi/4G means and standard deviations.
//! * [`SimNet`] — named endpoints addressed by dense [`EndpointId`]s,
//!   directed links with [`LinkProfile`]s, an
//!   event queue ordered by delivery time whose [`step`](SimNet::step)
//!   hands each frame to the orchestrator (the network keeps nothing it
//!   delivered), and [`Wiretap`]s that record every frame crossing a link
//!   (the §IV eavesdropping attacks attach here).
//! * [`SecureChannel`] — a toy authenticated-encryption channel standing in
//!   for HTTPS: SHA-256 in counter mode for confidentiality plus
//!   HMAC-SHA-256 for integrity, with a DTLS/QUIC-style sliding anti-replay
//!   window so out-of-order frames authenticate exactly once. A wiretap on
//!   a protected link sees only ciphertext; the "broken HTTPS" attack is
//!   modelled by handing the attacker the channel key. A [`ChannelMap`]
//!   holds a deployment's channels, keyed `(from, to)` by endpoint id.
//!
//! # Example
//!
//! ```
//! use amnesia_net::{LatencyModel, LinkProfile, SimNet};
//!
//! let mut net = SimNet::new(42);
//! net.register("browser");
//! net.register("server");
//! net.connect("browser", "server", LinkProfile::new(LatencyModel::constant_ms(10.0)));
//!
//! net.send("browser", "server", b"hello".to_vec()).unwrap();
//! let frame = net.step().unwrap();
//! assert!(net.step().is_none());
//! assert_eq!(net.name(frame.to), "server");
//! assert_eq!(frame.payload, b"hello");
//! assert_eq!(frame.delivered_at.as_millis_f64(), 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod latency;
pub mod network;
pub mod secure;
pub mod time;

pub use error::NetError;
pub use latency::LatencyModel;
pub use network::{EndpointId, Frame, LinkProfile, SimNet, Wiretap, WiretapRecord};
pub use secure::{ChannelError, ChannelMap, SecureChannel, REPLAY_WINDOW};
pub use time::{SimClock, SimDuration, SimInstant};
