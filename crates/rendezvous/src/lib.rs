//! A Google-Cloud-Messaging-style rendezvous server.
//!
//! The Amnesia server cannot reach a phone directly (phones sit behind NAT
//! and have no fixed address), so password requests `R` travel
//! server → rendezvous → phone, while the token `T` returns phone → server
//! directly because the Amnesia server's address is static (paper Fig. 1,
//! §I). The paper used GCM; this crate reproduces its roles:
//!
//! * a device registers and receives an opaque **registration ID** — the
//!   address the Amnesia server stores (in plaintext, per Table I) and uses
//!   to push requests;
//! * the rendezvous server **forwards** pushed payloads to the registered
//!   device over the simulated network;
//! * the link through the rendezvous is the §IV-B **eavesdropping surface**:
//!   a wiretap on it observes every request `R` in transit.
//!
//! The service is deliberately oblivious to payload contents — exactly the
//! trust the paper places in GCM.
//!
//! # Example
//!
//! ```
//! use amnesia_net::{LatencyModel, LinkProfile, SimNet};
//! use amnesia_rendezvous::{PushEnvelope, RendezvousServer};
//!
//! let mut net = SimNet::new(1);
//! net.register("server");
//! net.register("gcm");
//! net.register("phone");
//! net.connect("server", "gcm", LinkProfile::new(LatencyModel::constant_ms(20.0)));
//! net.connect("gcm", "phone", LinkProfile::new(LatencyModel::constant_ms(30.0)));
//!
//! let mut gcm = RendezvousServer::new("gcm", 7);
//! let reg_id = gcm.register_device("phone");
//!
//! // The Amnesia server pushes a request through the rendezvous.
//! let envelope = PushEnvelope { registration_id: reg_id, data: b"request R".to_vec() };
//! net.send("server", "gcm", envelope.to_wire().unwrap()).unwrap();
//!
//! // Orchestrator loop: deliver to GCM, let it forward, deliver to phone.
//! let frame = net.step().unwrap();
//! gcm.handle_frame(frame, &mut net).unwrap();
//! let delivered = net.step().unwrap();
//! assert_eq!(net.name(delivered.to), "phone");
//! assert_eq!(delivered.payload, b"request R");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use amnesia_crypto::{hex, SecretRng};
use amnesia_net::{EndpointId, Frame, NetError, SimDuration, SimNet};
use amnesia_store::codec::{self, Reader, Record};
use amnesia_telemetry::{Counter, Gauge, LazyHandle, Registry};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// An opaque device address issued by the rendezvous service
/// (the paper's Table I stores it in plaintext on the Amnesia server).
/// The text is shared, so the copy each push carries costs no allocation;
/// it encodes as a `String`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegistrationId(Arc<str>);
amnesia_store::record_tuple! { RegistrationId(token) }

impl RegistrationId {
    /// The token text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Tables keyed by registration id are looked up by the text an envelope
/// carries, without decoding it into an owned id.
impl Borrow<str> for RegistrationId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for RegistrationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RegistrationId({}…)", &self.0[..12.min(self.0.len())])
    }
}

impl fmt::Display for RegistrationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The wire format the Amnesia server sends *to* the rendezvous service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PushEnvelope {
    /// Which registered device to forward to.
    pub registration_id: RegistrationId,
    /// Opaque payload forwarded verbatim (Amnesia puts the request `R`,
    /// origin metadata, and the session-correlation request id here; the
    /// rendezvous never interprets any of it).
    pub data: Vec<u8>,
}
amnesia_store::record_struct! { PushEnvelope { registration_id, data } }

impl PushEnvelope {
    /// Encodes the envelope for transmission.
    ///
    /// # Errors
    ///
    /// Propagates codec errors (practically unreachable for this type).
    pub fn to_wire(&self) -> Result<Vec<u8>, codec::CodecError> {
        codec::to_bytes(self)
    }

    /// Decodes an envelope received off the wire.
    ///
    /// # Errors
    ///
    /// Returns a codec error for malformed bytes.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, codec::CodecError> {
        codec::from_bytes(bytes)
    }

    /// Appends the wire bytes of the envelope that carries, for
    /// `registration_id`, the data `write_data` appends: what
    /// [`to_wire`](Self::to_wire) gives for that envelope, with the data
    /// encoded once, in place, rather than into a `Vec` of its own.
    pub fn write_wire(
        registration_id: &RegistrationId,
        out: &mut Vec<u8>,
        write_data: impl FnOnce(&mut Vec<u8>),
    ) {
        registration_id.encode(out);
        codec::write_nested(out, write_data);
    }

    /// Reads an encoded envelope's header without copying anything: the
    /// registration id it names, and the offset in `bytes` at which its
    /// data starts (the data runs to the end). Accepts exactly the bytes
    /// [`from_wire`](Self::from_wire) accepts.
    ///
    /// # Errors
    ///
    /// Returns a codec error for malformed bytes.
    pub fn header(bytes: &[u8]) -> Result<(&str, usize), codec::CodecError> {
        let mut r = Reader::new(bytes);
        let registration_id = r.str()?;
        let len = r.length()?;
        match r.remaining() - len {
            0 => Ok((registration_id, bytes.len() - len)),
            remaining => Err(codec::CodecError::TrailingBytes { remaining }),
        }
    }
}

/// Errors produced by the rendezvous service.
#[derive(Debug)]
#[non_exhaustive]
pub enum RendezvousError {
    /// The pushed registration ID is not (or no longer) registered.
    UnknownRegistration(RegistrationId),
    /// The frame payload was not a valid [`PushEnvelope`].
    MalformedEnvelope(codec::CodecError),
    /// Forwarding onto the simulated network failed.
    Net(NetError),
}

impl fmt::Display for RendezvousError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RendezvousError::UnknownRegistration(id) => {
                write!(f, "unknown registration id {id:?}")
            }
            RendezvousError::MalformedEnvelope(e) => write!(f, "malformed envelope: {e}"),
            RendezvousError::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl Error for RendezvousError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RendezvousError::MalformedEnvelope(e) => Some(e),
            RendezvousError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for RendezvousError {
    fn from(e: NetError) -> Self {
        RendezvousError::Net(e)
    }
}

/// The service's metric handles, each registered on first use.
#[derive(Debug)]
struct RendezvousMetrics {
    devices: LazyHandle<Gauge>,
    forwarded: LazyHandle<Counter>,
    rejected: LazyHandle<Counter>,
}

impl RendezvousMetrics {
    fn new(registry: &Registry) -> Self {
        RendezvousMetrics {
            devices: LazyHandle::new(registry, "rendezvous.devices"),
            forwarded: LazyHandle::new(registry, "rendezvous.push_forwarded"),
            rejected: LazyHandle::new(registry, "rendezvous.push_rejected"),
        }
    }
}

/// The rendezvous (push) service.
///
/// Holds the registration-ID → device-endpoint mapping and forwards pushed
/// payloads. See the crate-level example for the full flow.
pub struct RendezvousServer {
    endpoint: String,
    /// Registration ID → device endpoint name. Hashed: nothing iterates it.
    registry: HashMap<RegistrationId, String>,
    rng: SecretRng,
    forwarded: u64,
    rejected: u64,
    metrics: RendezvousMetrics,
}

impl fmt::Debug for RendezvousServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RendezvousServer")
            .field("endpoint", &self.endpoint)
            .field("devices", &self.registry.len())
            .field("forwarded", &self.forwarded)
            .field("rejected", &self.rejected)
            .finish_non_exhaustive()
    }
}

impl RendezvousServer {
    /// Creates a service living at the given network endpoint name.
    pub fn new(endpoint: impl Into<String>, seed: u64) -> Self {
        RendezvousServer {
            endpoint: endpoint.into(),
            registry: HashMap::new(),
            rng: SecretRng::seeded(seed),
            forwarded: 0,
            rejected: 0,
            metrics: RendezvousMetrics::new(&Registry::new()),
        }
    }

    /// Replaces the metrics registry this service records into
    /// (`rendezvous.*` counters and the registered-device gauge).
    pub fn set_telemetry(&mut self, registry: Registry) {
        self.metrics = RendezvousMetrics::new(&registry);
    }

    /// The service's network endpoint name.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Registers a device endpoint and issues a fresh registration ID
    /// (the phone does this during app installation; re-installing yields a
    /// new ID, matching GCM behaviour).
    pub fn register_device(&mut self, device_endpoint: &str) -> RegistrationId {
        let token = self.rng.bytes::<24>();
        let id = RegistrationId(Arc::from(format!("reg:{}", hex::encode(&token))));
        self.registry
            .insert(id.clone(), device_endpoint.to_string());
        self.metrics.devices.get().set_usize(self.registry.len());
        id
    }

    /// Revokes a registration ID; returns whether it existed.
    pub fn unregister(&mut self, id: &RegistrationId) -> bool {
        let existed = self.registry.remove(id).is_some();
        self.metrics.devices.get().set_usize(self.registry.len());
        existed
    }

    /// Whether the ID is currently registered; `id` may be the id or its
    /// text, as an envelope carries it.
    pub fn is_registered<Q>(&self, id: &Q) -> bool
    where
        RegistrationId: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.registry.contains_key(id)
    }

    /// Number of registered devices.
    pub fn device_count(&self) -> usize {
        self.registry.len()
    }

    /// Processes one frame addressed to the rendezvous service: reads the
    /// [`PushEnvelope`] header and forwards the data to the registered
    /// device, from the endpoint the frame was delivered to. The data
    /// leaves in the frame's own buffer, with the header cut off.
    ///
    /// Returns the device endpoint the payload was forwarded to.
    ///
    /// # Errors
    ///
    /// Returns [`RendezvousError::MalformedEnvelope`] for undecodable
    /// frames, [`RendezvousError::UnknownRegistration`] for unregistered
    /// IDs, and network errors from the forward hop.
    pub fn handle_frame(
        &mut self,
        frame: Frame,
        net: &mut SimNet,
    ) -> Result<EndpointId, RendezvousError> {
        let (registration_id, data_start) = match PushEnvelope::header(&frame.payload) {
            Ok(header) => header,
            Err(e) => return Err(self.reject(RendezvousError::MalformedEnvelope(e))),
        };
        let Some(device) = self.registry.get(registration_id) else {
            let id = RegistrationId(Arc::from(registration_id));
            return Err(self.reject(RendezvousError::UnknownRegistration(id)));
        };
        let to = net
            .endpoint(device)
            .ok_or_else(|| NetError::UnknownEndpoint {
                name: device.clone(),
            })?;
        let mut data = frame.payload;
        data.drain(..data_start);
        net.transmit(frame.to, to, data, SimDuration::ZERO)?;
        self.forwarded += 1;
        self.metrics.forwarded.get().inc();
        Ok(to)
    }

    /// Counts a rejected frame and hands its error back.
    fn reject(&mut self, error: RendezvousError) -> RendezvousError {
        self.rejected += 1;
        self.metrics.rejected.get().inc();
        error
    }

    /// Total payloads forwarded so far.
    pub fn forwarded_count(&self) -> u64 {
        self.forwarded
    }

    /// Total frames rejected (malformed or unknown registration).
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_net::{LatencyModel, LinkProfile};

    fn harness() -> (SimNet, RendezvousServer) {
        let mut net = SimNet::new(3);
        net.register("server");
        net.register("gcm");
        net.register("phone");
        net.connect(
            "server",
            "gcm",
            LinkProfile::new(LatencyModel::constant_ms(10.0)),
        );
        net.connect(
            "gcm",
            "phone",
            LinkProfile::new(LatencyModel::constant_ms(15.0)),
        );
        (net, RendezvousServer::new("gcm", 9))
    }

    fn push(
        net: &mut SimNet,
        gcm: &mut RendezvousServer,
        id: &RegistrationId,
        data: &[u8],
    ) -> Result<EndpointId, RendezvousError> {
        let env = PushEnvelope {
            registration_id: id.clone(),
            data: data.to_vec(),
        };
        net.send("server", "gcm", env.to_wire().unwrap()).unwrap();
        let frame = net.step().unwrap();
        gcm.handle_frame(frame, net)
    }

    #[test]
    fn forwards_to_registered_device() {
        let (mut net, mut gcm) = harness();
        let id = gcm.register_device("phone");
        let device = push(&mut net, &mut gcm, &id, b"R-bytes").unwrap();
        assert_eq!(net.name(device), "phone");
        let frames: Vec<Frame> = std::iter::from_fn(|| net.step()).collect();
        assert_eq!(frames.len(), 1);
        assert_eq!(net.name(frames[0].to), "phone");
        assert_eq!(frames[0].payload, b"R-bytes");
        // Total path latency = 10ms (server→gcm) + 15ms (gcm→phone).
        assert_eq!(frames[0].delivered_at.as_millis_f64(), 25.0);
        assert_eq!(gcm.forwarded_count(), 1);
    }

    #[test]
    fn unknown_registration_rejected() {
        let (mut net, mut gcm) = harness();
        let id = gcm.register_device("phone");
        gcm.unregister(&id);
        let err = push(&mut net, &mut gcm, &id, b"x").unwrap_err();
        assert!(matches!(err, RendezvousError::UnknownRegistration(_)));
        assert_eq!(gcm.rejected_count(), 1);
        assert!(net.step().is_none(), "nothing reaches the phone");
    }

    #[test]
    fn malformed_envelope_rejected() {
        let (mut net, mut gcm) = harness();
        net.send("server", "gcm", vec![0xff, 0xff, 0xff]).unwrap();
        let frame = net.step().unwrap();
        let err = gcm.handle_frame(frame, &mut net).unwrap_err();
        assert!(matches!(err, RendezvousError::MalformedEnvelope(_)));
        assert_eq!(gcm.rejected_count(), 1);
    }

    #[test]
    fn header_reads_what_from_wire_decodes() {
        let (_, mut gcm) = harness();
        let registration_id = gcm.register_device("phone");
        for data in [vec![], vec![7; 3], vec![9; 200]] {
            let env = PushEnvelope {
                registration_id: registration_id.clone(),
                data: data.clone(),
            };
            let wire = env.to_wire().unwrap();
            let mut written = Vec::new();
            PushEnvelope::write_wire(&registration_id, &mut written, |out| {
                out.extend_from_slice(&data)
            });
            assert_eq!(written, wire);
            let (id, start) = PushEnvelope::header(&wire).unwrap();
            assert_eq!(id, registration_id.as_str());
            assert_eq!(&wire[start..], data.as_slice());
            // Every prefix and any trailing byte fail in both readers.
            for cut in 0..wire.len() {
                assert!(PushEnvelope::header(&wire[..cut]).is_err());
                assert!(PushEnvelope::from_wire(&wire[..cut]).is_err());
            }
            let mut long = wire.clone();
            long.push(0);
            assert!(PushEnvelope::header(&long).is_err());
            assert!(PushEnvelope::from_wire(&long).is_err());
        }
    }

    #[test]
    fn reinstall_issues_fresh_id() {
        let (_, mut gcm) = harness();
        let first = gcm.register_device("phone");
        let second = gcm.register_device("phone");
        assert_ne!(first, second);
        assert!(gcm.is_registered(&first));
        assert!(gcm.is_registered(second.as_str()));
        assert_eq!(gcm.device_count(), 2);
    }

    #[test]
    fn ids_are_unpredictable_per_seed_stream() {
        let mut a = RendezvousServer::new("gcm", 1);
        let mut b = RendezvousServer::new("gcm", 2);
        assert_ne!(a.register_device("p"), b.register_device("p"));
    }

    #[test]
    fn envelope_wire_roundtrip() {
        let (_, mut gcm) = harness();
        let env = PushEnvelope {
            registration_id: gcm.register_device("phone"),
            data: vec![1, 2, 3],
        };
        assert_eq!(
            PushEnvelope::from_wire(&env.to_wire().unwrap()).unwrap(),
            env
        );
    }

    #[test]
    fn telemetry_tracks_forwards_rejections_and_devices() {
        let (mut net, mut gcm) = harness();
        let registry = Registry::new();
        gcm.set_telemetry(registry.clone());
        let id = gcm.register_device("phone");
        push(&mut net, &mut gcm, &id, b"ok").unwrap();
        gcm.unregister(&id);
        push(&mut net, &mut gcm, &id, b"stale").unwrap_err();

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["rendezvous.push_forwarded"], 1);
        assert_eq!(snapshot.counters["rendezvous.push_rejected"], 1);
        assert_eq!(snapshot.gauges["rendezvous.devices"], 0);
    }

    #[test]
    fn debug_truncates_registration_id() {
        let (_, mut gcm) = harness();
        let id = gcm.register_device("phone");
        assert!(format!("{id:?}").len() < 40);
    }
}
