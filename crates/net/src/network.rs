//! The simulated network: endpoints, links, delivery queue and wiretaps.

use crate::error::NetError;
use crate::latency::LatencyModel;
use crate::time::{SimClock, SimDuration, SimInstant};
use amnesia_crypto::SecretRng;
use amnesia_telemetry::{Counter, Gauge, HistogramHandle, LazyHandle, Registry};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Per-link delivery characteristics.
///
/// ```
/// use amnesia_net::{LatencyModel, LinkProfile};
/// let p = LinkProfile::new(LatencyModel::constant_ms(5.0)).with_drop_probability(0.01);
/// assert_eq!(p.drop_probability, 0.01);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LinkProfile {
    /// Latency distribution sampled per frame (propagation + queueing).
    pub latency: LatencyModel,
    /// Independent probability that a frame is silently dropped.
    pub drop_probability: f64,
}

impl LinkProfile {
    /// A lossless link with the given latency. Links model independent
    /// datagrams: each frame lands at `sent_at + sampled latency`, so a
    /// lucky late frame may overtake an unlucky early one.
    pub fn new(latency: LatencyModel) -> Self {
        LinkProfile {
            latency,
            drop_probability: 0.0,
        }
    }

    /// Sets the frame-drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.drop_probability = p;
        self
    }
}

/// A registered endpoint, as a dense index in registration order.
///
/// [`SimNet::register`] hands ids out and every [`Frame`] carries them, so
/// routing, sealing and dispatching a frame compare integers, never names.
/// [`SimNet::name`] and [`SimNet::endpoint`] convert at the edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EndpointId(u32);

impl EndpointId {
    /// The endpoint's position in registration order (the first endpoint
    /// registered is 0), for indexing per-endpoint tables.
    pub fn index(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

/// A frame on the simulated network; [`SimNet::step`] hands each one to the
/// orchestrator when it is delivered.
#[derive(Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sending endpoint.
    pub from: EndpointId,
    /// Receiving endpoint.
    pub to: EndpointId,
    /// Opaque payload (typically `amnesia-store` codec bytes, possibly
    /// sealed by a [`SecureChannel`](crate::SecureChannel)).
    pub payload: Vec<u8>,
    /// When the frame entered the link.
    pub sent_at: SimInstant,
    /// When the frame is delivered to its receiver.
    pub delivered_at: SimInstant,
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frame")
            .field("from", &self.from)
            .field("to", &self.to)
            .field("len", &self.payload.len())
            .field("sent_at", &self.sent_at)
            .field("delivered_at", &self.delivered_at)
            .finish()
    }
}

/// One observation captured by a [`Wiretap`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WiretapRecord {
    /// Sending endpoint.
    pub from: String,
    /// Receiving endpoint.
    pub to: String,
    /// The bytes on the wire (ciphertext if the parties used a secure
    /// channel).
    pub payload: Vec<u8>,
    /// When the frame entered the link.
    pub sent_at: SimInstant,
}

/// A passive eavesdropper attached to one directed link.
///
/// Cloning the handle shares the underlying record list; the attack harness
/// keeps one clone while the network writes through the other.
///
/// ```
/// use amnesia_net::{LatencyModel, LinkProfile, SimNet};
/// let mut net = SimNet::new(7);
/// net.register("a");
/// net.register("b");
/// net.connect("a", "b", LinkProfile::new(LatencyModel::constant_ms(1.0)));
/// let tap = net.tap("a", "b").unwrap();
/// net.send("a", "b", vec![1, 2, 3]).unwrap();
/// assert_eq!(tap.records()[0].payload, vec![1, 2, 3]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Wiretap {
    records: Arc<Mutex<Vec<WiretapRecord>>>,
}

impl Wiretap {
    /// Locks the record list, explicitly recovering from poisoning: a
    /// panicking observer thread leaves the `Vec` fully intact (push is the
    /// only mutation), so the data is safe to keep using — we make that
    /// decision here, once, rather than unwrapping at every call site.
    fn lock_records(&self) -> MutexGuard<'_, Vec<WiretapRecord>> {
        self.records
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn observe(&self, record: WiretapRecord) {
        self.lock_records().push(record);
    }

    /// A snapshot of everything observed so far.
    pub fn records(&self) -> Vec<WiretapRecord> {
        self.lock_records().clone()
    }

    /// Number of frames observed.
    pub fn len(&self) -> usize {
        self.lock_records().len()
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.lock_records().is_empty()
    }
}

struct LinkState {
    profile: LinkProfile,
    taps: Vec<Wiretap>,
}

/// The network-wide metric handles, resolved once per registry; the
/// counters of rare events (drops, wiretap hits) register on first use.
struct NetMetrics {
    frames_sent: Counter,
    queue_depth: Gauge,
    delivery_latency: HistogramHandle,
    frames_dropped: LazyHandle<Counter>,
    wiretap_hits: LazyHandle<Counter>,
}

impl NetMetrics {
    fn resolve(registry: &Registry) -> Self {
        NetMetrics {
            frames_sent: registry.counter("net.frames_sent"),
            queue_depth: registry.gauge("net.queue_depth"),
            delivery_latency: registry.histogram("net.delivery_latency_us"),
            frames_dropped: LazyHandle::new(registry, "net.frames_dropped"),
            wiretap_hits: LazyHandle::new(registry, "net.wiretap_hits"),
        }
    }
}

struct Pending {
    deliver_at: SimInstant,
    seq: u64,
    frame: Frame,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap: earliest delivery first, FIFO tiebreak.
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

/// The simulated network.
///
/// Endpoints are registered by name and addressed by [`EndpointId`], links
/// are directed and carry a [`LinkProfile`], and frames traverse the
/// network in delivery-time order while the embedded [`SimClock`]
/// advances. See the crate-level example.
///
/// Every frame takes one path, [`transmit`](Self::transmit), which works
/// on ids and delays the frame by the sender's compute time. The
/// name-taking [`send`](Self::send), [`connect`](Self::connect) and
/// [`tap`](Self::tap) are the setup and test API: they resolve the names
/// and call the id path (`send` with no delay). The caller delivers frames
/// one at a time with [`step`](Self::step) and dispatches each itself.
pub struct SimNet {
    clock: SimClock,
    rng: SecretRng,
    /// Endpoint names, indexed by [`EndpointId`].
    names: Vec<String>,
    /// Name → id, for the name-taking API and the names frames carry.
    /// Hashed: nothing iterates it.
    ids: HashMap<String, EndpointId>,
    /// Every directed link, in creation order.
    links: Vec<LinkState>,
    /// Per sender, indexed by its id: receiver → index into `links`.
    /// Hashed: nothing iterates it.
    routes: Vec<HashMap<EndpointId, usize>>,
    queue: BinaryHeap<Pending>,
    seq: u64,
    dropped: u64,
    telemetry: Registry,
    metrics: NetMetrics,
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNet")
            .field("now", &self.clock.now())
            .field("endpoints", &self.names.len())
            .field("links", &self.links.len())
            .field("pending", &self.queue.len())
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl SimNet {
    /// Creates a network with a deterministic latency-sampling seed.
    pub fn new(seed: u64) -> Self {
        let telemetry = Registry::new();
        SimNet {
            clock: SimClock::new(),
            rng: SecretRng::seeded(seed),
            names: Vec::new(),
            ids: HashMap::new(),
            links: Vec::new(),
            routes: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            dropped: 0,
            metrics: NetMetrics::resolve(&telemetry),
            telemetry,
        }
    }

    /// Replaces the metrics registry this network records into. The system
    /// orchestrator injects its deployment-wide registry here so one snapshot
    /// covers every component.
    pub fn set_telemetry(&mut self, registry: Registry) {
        self.metrics = NetMetrics::resolve(&registry);
        self.telemetry = registry;
    }

    /// The metrics registry this network records into.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// A shared handle to the simulated clock. The handle observes every
    /// subsequent advance, so it can drive `amnesia-telemetry` spans while
    /// the network itself is borrowed mutably.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Registers an endpoint and returns its id, the next one in
    /// registration order.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered — endpoint wiring is harness
    /// configuration, not runtime input.
    pub fn register(&mut self, name: &str) -> EndpointId {
        let fresh = !self.ids.contains_key(name);
        assert!(fresh, "endpoint {name:?} already registered");
        let index = u32::try_from(self.names.len());
        assert!(index.is_ok(), "endpoint ids exhausted");
        let id = EndpointId(index.unwrap_or(u32::MAX));
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        self.routes.push(HashMap::new());
        id
    }

    /// Whether `name` is a registered endpoint.
    pub fn has_endpoint(&self, name: &str) -> bool {
        self.ids.contains_key(name)
    }

    /// The id registered under `name`, if any.
    pub fn endpoint(&self, name: &str) -> Option<EndpointId> {
        self.ids.get(name).copied()
    }

    /// The name `id` was registered under (empty for an id this network
    /// never issued).
    pub fn name(&self, id: EndpointId) -> &str {
        self.names.get(id.index()).map_or("", String::as_str)
    }

    /// Creates a directed link `from → to` between named endpoints.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unregistered (harness configuration
    /// error).
    pub fn connect(&mut self, from: &str, to: &str, profile: LinkProfile) {
        let (from_id, to_id) = (self.endpoint(from), self.endpoint(to));
        assert!(from_id.is_some(), "unknown endpoint {from:?}");
        assert!(to_id.is_some(), "unknown endpoint {to:?}");
        if let (Some(from), Some(to)) = (from_id, to_id) {
            self.connect_ids(from, to, profile);
        }
    }

    /// Creates a directed link `from → to`, replacing any link already
    /// there.
    ///
    /// # Panics
    ///
    /// Panics if either id was not issued by this network.
    pub fn connect_ids(&mut self, from: EndpointId, to: EndpointId, profile: LinkProfile) {
        assert!(to.index() < self.names.len(), "unknown endpoint id {to:?}");
        let state = LinkState {
            profile,
            taps: Vec::new(),
        };
        let next = self.links.len();
        let routes = self.routes.get_mut(from.index());
        assert!(routes.is_some(), "unknown endpoint id {from:?}");
        if let Some(routes) = routes {
            let index = *routes.entry(to).or_insert(next);
            match self.links.get_mut(index) {
                Some(link) => *link = state,
                None => self.links.push(state),
            }
        }
    }

    /// The index into `links` of the link `from → to`.
    fn route(&self, from: EndpointId, to: EndpointId) -> Option<usize> {
        self.routes.get(from.index())?.get(&to).copied()
    }

    /// Attaches a wiretap to the directed link `from → to` and returns the
    /// observer handle.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoLink`] if the link does not exist.
    pub fn tap(&mut self, from: &str, to: &str) -> Result<Wiretap, NetError> {
        let link = match (self.endpoint(from), self.endpoint(to)) {
            (Some(from), Some(to)) => self.route(from, to),
            _ => None,
        };
        let link = link
            .and_then(|index| self.links.get_mut(index))
            .ok_or_else(|| NetError::NoLink {
                from: from.into(),
                to: to.into(),
            })?;
        let tap = Wiretap::default();
        link.taps.push(tap.clone());
        Ok(tap)
    }

    /// The current simulated time.
    pub fn now(&self) -> SimInstant {
        self.clock.now()
    }

    /// Advances the clock by `d` — used to model local computation time
    /// between network operations.
    pub fn advance(&mut self, d: SimDuration) {
        self.clock.advance(d);
    }

    /// Sends `payload` from `from` to `to`, sampling the link's latency.
    ///
    /// Wiretaps on the link observe the frame whether or not it is later
    /// dropped (a passive eavesdropper sits before the loss point).
    /// Returns the scheduled delivery time, or `None` if the link dropped
    /// the frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownEndpoint`] or [`NetError::NoLink`] if the
    /// route does not exist.
    pub fn send(
        &mut self,
        from: &str,
        to: &str,
        payload: Vec<u8>,
    ) -> Result<Option<SimInstant>, NetError> {
        let resolve = |name: &str| {
            self.endpoint(name)
                .ok_or_else(|| NetError::UnknownEndpoint { name: name.into() })
        };
        let (from, to) = (resolve(from)?, resolve(to)?);
        self.transmit(from, to, payload, SimDuration::ZERO)
    }

    /// Sends `payload` over the link `from → to`, the one path every frame
    /// takes. The frame enters the link after a sender-local compute
    /// `delay` (`sent_at = now + delay`), so per-request work (deriving `R`,
    /// computing a token, assembling a password) delays *this* frame without
    /// stalling the rest of the simulation — a concurrent server's worker
    /// thread, not a global pause. [`advance`](Self::advance) remains the
    /// right tool when the whole world genuinely waits.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoLink`] if no link runs from `from` to `to`.
    pub fn transmit(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        payload: Vec<u8>,
        delay: SimDuration,
    ) -> Result<Option<SimInstant>, NetError> {
        let link = self.route(from, to).and_then(|i| self.links.get(i));
        let Some(link) = link else {
            return Err(NetError::NoLink {
                from: self.name(from).into(),
                to: self.name(to).into(),
            });
        };

        let sent_at = self.clock.now() + delay;
        self.metrics.frames_sent.inc();
        if !link.taps.is_empty() {
            self.metrics.wiretap_hits.get().add(link.taps.len() as u64);
            let name = |id: EndpointId| self.names.get(id.index()).cloned().unwrap_or_default();
            for tap in &link.taps {
                tap.observe(WiretapRecord {
                    from: name(from),
                    to: name(to),
                    payload: payload.clone(),
                    sent_at,
                });
            }
        }

        let dropped = link.profile.drop_probability > 0.0 && {
            let draw = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            draw < link.profile.drop_probability
        };
        if dropped {
            self.dropped += 1;
            self.metrics.frames_dropped.get().inc();
            return Ok(None);
        }

        let deliver_at = sent_at + link.profile.latency.sample(&mut self.rng);
        let frame = Frame {
            from,
            to,
            payload,
            sent_at,
            delivered_at: deliver_at,
        };
        self.queue.push(Pending {
            deliver_at,
            seq: self.seq,
            frame,
        });
        self.seq += 1;
        self.metrics.queue_depth.set_usize(self.queue.len());
        Ok(Some(deliver_at))
    }

    /// The delivery time of the earliest pending frame, without delivering
    /// it or advancing the clock — lets an orchestrator decide whether a
    /// timer deadline fires before the next frame lands.
    pub fn next_delivery_at(&self) -> Option<SimInstant> {
        self.queue.peek().map(|p| p.deliver_at)
    }

    /// Delivers the next pending frame (advancing the clock to its delivery
    /// time) and hands it over, or returns `None` if the network is idle.
    /// The network keeps nothing it delivered: the caller dispatches the
    /// frame to its receiver.
    pub fn step(&mut self) -> Option<Frame> {
        let pending = self.queue.pop()?;
        self.clock.advance_to(pending.deliver_at);
        let frame = pending.frame;
        self.metrics
            .delivery_latency
            .record((frame.delivered_at - frame.sent_at).as_micros());
        self.metrics.queue_depth.set_usize(self.queue.len());
        Some(frame)
    }

    /// Frames dropped by lossy links so far.
    pub fn dropped_count(&self) -> u64 {
        self.dropped
    }

    /// Frames queued but not yet delivered.
    pub fn pending_count(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_net(latency: LatencyModel) -> SimNet {
        let mut net = SimNet::new(1);
        net.register("a");
        net.register("b");
        net.connect("a", "b", LinkProfile::new(latency.clone()));
        net.connect("b", "a", LinkProfile::new(latency));
        net
    }

    /// Delivers every pending frame and collects them in delivery order.
    fn deliver_all(net: &mut SimNet) -> Vec<Frame> {
        std::iter::from_fn(|| net.step()).collect()
    }

    /// The first payload byte of each frame, in order.
    fn first_bytes(frames: &[Frame]) -> Vec<u8> {
        frames.iter().map(|f| f.payload[0]).collect()
    }

    #[test]
    fn delivery_advances_clock_by_latency() {
        let mut net = two_node_net(LatencyModel::constant_ms(25.0));
        net.send("a", "b", vec![9]).unwrap();
        assert_eq!(net.pending_count(), 1);
        let frames = deliver_all(&mut net);
        assert_eq!(net.now().as_millis_f64(), 25.0);
        assert_eq!(frames.len(), 1);
        assert_eq!(net.name(frames[0].to), "b");
        assert_eq!(frames[0].payload, vec![9]);
        assert_eq!(frames[0].sent_at.as_millis_f64(), 0.0);
    }

    #[test]
    fn frames_deliver_in_time_order_with_fifo_ties() {
        let mut net = SimNet::new(2);
        net.register("a");
        net.register("b");
        net.connect("a", "b", LinkProfile::new(LatencyModel::constant_ms(10.0)));
        // Same latency → same delivery time → FIFO by send order.
        net.send("a", "b", vec![1]).unwrap();
        net.send("a", "b", vec![2]).unwrap();
        net.send("a", "b", vec![3]).unwrap();
        assert_eq!(first_bytes(&deliver_all(&mut net)), vec![1, 2, 3]);
    }

    #[test]
    fn out_of_order_latencies_reorder_delivery() {
        let mut net = SimNet::new(3);
        net.register("a");
        net.register("b");
        net.register("c");
        net.connect("a", "b", LinkProfile::new(LatencyModel::constant_ms(50.0)));
        net.connect("a", "c", LinkProfile::new(LatencyModel::constant_ms(5.0)));
        net.send("a", "b", vec![1]).unwrap();
        net.send("a", "c", vec![2]).unwrap();
        // The c-bound frame arrives first even though it was sent second.
        let first = net.step().unwrap();
        assert_eq!(net.name(first.to), "c");
        assert_eq!(net.now().as_millis_f64(), 5.0);
        let second = net.step().unwrap();
        assert_eq!(net.name(second.to), "b");
        assert_eq!(net.now().as_millis_f64(), 50.0);
    }

    /// Finds a seed where two consecutive jittered samples invert (second
    /// frame beats the first), so ordering behaviour is observable.
    fn inverting_seed(model: &LatencyModel) -> u64 {
        (0..1000u64)
            .find(|&seed| {
                let mut rng = amnesia_crypto::SecretRng::seeded(seed);
                let a = model.sample(&mut rng);
                let b = model.sample(&mut rng);
                b < a
            })
            .expect("some seed inverts")
    }

    #[test]
    fn unordered_links_let_late_frames_overtake() {
        let jitter = LatencyModel::normal_ms(50.0, 20.0, 1.0);
        let seed = inverting_seed(&jitter);
        let mut net = SimNet::new(seed);
        net.register("a");
        net.register("b");
        net.connect("a", "b", LinkProfile::new(jitter));
        net.send("a", "b", vec![1]).unwrap();
        net.send("a", "b", vec![2]).unwrap();
        assert_eq!(
            first_bytes(&deliver_all(&mut net)),
            vec![2, 1],
            "datagram link must reorder"
        );
    }

    #[test]
    fn next_delivery_at_peeks_without_advancing() {
        let mut net = two_node_net(LatencyModel::constant_ms(10.0));
        assert_eq!(net.next_delivery_at(), None);
        net.send("a", "b", vec![1]).unwrap();
        let peeked = net.next_delivery_at().unwrap();
        assert_eq!(peeked.as_millis_f64(), 10.0);
        assert_eq!(net.now().as_millis_f64(), 0.0, "peek must not advance");
        assert_eq!(net.step().unwrap().delivered_at, peeked);
    }

    #[test]
    fn wiretap_sees_all_frames_including_dropped() {
        let mut net = SimNet::new(4);
        net.register("a");
        net.register("b");
        net.connect(
            "a",
            "b",
            LinkProfile::new(LatencyModel::constant_ms(1.0)).with_drop_probability(1.0),
        );
        let tap = net.tap("a", "b").unwrap();
        let outcome = net.send("a", "b", vec![7]).unwrap();
        assert!(outcome.is_none(), "frame should be dropped");
        assert_eq!(net.dropped_count(), 1);
        assert_eq!(tap.len(), 1);
        assert_eq!(tap.records()[0].payload, vec![7]);
        assert!(deliver_all(&mut net).is_empty());
    }

    #[test]
    fn tap_on_missing_link_is_an_error() {
        let mut net = two_node_net(LatencyModel::constant_ms(1.0));
        assert_eq!(
            net.tap("a", "ghost").unwrap_err(),
            NetError::NoLink {
                from: "a".into(),
                to: "ghost".into()
            }
        );
    }

    #[test]
    fn telemetry_records_traffic_and_latency() {
        let mut net = SimNet::new(11);
        net.register("a");
        net.register("b");
        net.connect("a", "b", LinkProfile::new(LatencyModel::constant_ms(10.0)));
        net.connect(
            "b",
            "a",
            LinkProfile::new(LatencyModel::constant_ms(1.0)).with_drop_probability(1.0),
        );
        let _tap = net.tap("a", "b").unwrap();

        net.send("a", "b", vec![1]).unwrap();
        net.send("b", "a", vec![2]).unwrap(); // dropped, but tapped links only a→b
        deliver_all(&mut net);

        let snapshot = net.telemetry().snapshot();
        assert_eq!(snapshot.counters["net.frames_sent"], 2);
        assert_eq!(snapshot.counters["net.frames_dropped"], 1);
        assert_eq!(snapshot.counters["net.wiretap_hits"], 1);
        assert_eq!(snapshot.gauges["net.queue_depth"], 0);
        let delivery = &snapshot.histograms["net.delivery_latency_us"];
        assert_eq!(delivery.count(), 1);
        assert_eq!(delivery.min(), Some(10_000));
        assert_eq!(snapshot.histograms.len(), 1, "no per-link histograms");
    }

    #[test]
    fn shared_clock_handle_drives_sim_time_spans() {
        use amnesia_telemetry::Registry;
        let mut net = two_node_net(LatencyModel::constant_ms(25.0));
        let registry = Registry::new();
        let span = registry.span("roundtrip_us", net.clock());
        net.send("a", "b", vec![]).unwrap();
        deliver_all(&mut net);
        assert_eq!(span.finish(), 25_000);
    }

    #[test]
    fn send_errors() {
        let mut net = two_node_net(LatencyModel::constant_ms(1.0));
        net.register("island");
        assert_eq!(
            net.send("ghost", "a", vec![]),
            Err(NetError::UnknownEndpoint {
                name: "ghost".into()
            })
        );
        assert_eq!(
            net.send("a", "island", vec![]),
            Err(NetError::NoLink {
                from: "a".into(),
                to: "island".into()
            })
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_panics() {
        let mut net = SimNet::new(5);
        net.register("x");
        net.register("x");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed: u64| {
            let mut net = SimNet::new(seed);
            net.register("a");
            net.register("b");
            net.connect(
                "a",
                "b",
                LinkProfile::new(LatencyModel::normal_ms(100.0, 10.0, 0.0)),
            );
            let mut times = Vec::new();
            for _ in 0..20 {
                times.push(net.send("a", "b", vec![]).unwrap().unwrap().as_micros());
            }
            times
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn transmit_delays_one_frame_without_stalling_the_clock() {
        let mut net = two_node_net(LatencyModel::constant_ms(10.0));
        let (a, b) = (net.endpoint("a").unwrap(), net.endpoint("b").unwrap());
        // Sender-local compute of 3 ms: the frame enters the link late...
        let at = net
            .transmit(a, b, vec![1], SimDuration::from_millis(3))
            .unwrap()
            .unwrap();
        assert_eq!(at.as_millis_f64(), 13.0);
        // ...but the rest of the world is not paused.
        assert_eq!(net.now().as_millis_f64(), 0.0);
        let frame = net.step().unwrap();
        assert_eq!(frame.sent_at.as_millis_f64(), 3.0);
        assert_eq!(frame.delivered_at.as_millis_f64(), 13.0);
    }

    #[test]
    fn advance_models_compute_time() {
        let mut net = two_node_net(LatencyModel::constant_ms(10.0));
        net.advance(SimDuration::from_millis(3));
        net.send("a", "b", vec![]).unwrap();
        deliver_all(&mut net);
        assert_eq!(net.now().as_millis_f64(), 13.0);
    }
}
