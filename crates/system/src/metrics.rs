//! The metric handles a session host records into on the generation path.

use amnesia_telemetry::{Counter, Gauge, HistogramHandle, LazyHandle, Registry};

/// The metrics a session host records per frame and per session, each
/// resolved at its first event and kept, so no delivered frame looks a
/// metric up by name.
///
/// The six `steps.*` legs of Fig. 1 are one namespace for every host; the
/// rest live under the host's prefix (`system` for `AmnesiaSystem`,
/// `fleet` for the sharded fleet). A handle registers its key at its first
/// event, exactly where the by-name call it replaces did, so a snapshot
/// holds the same keys at every point of a run.
#[derive(Debug)]
pub struct HostMetrics {
    /// `steps.step1_request_upload_us`: the browser's request reaching the
    /// server.
    pub step1: LazyHandle<HistogramHandle>,
    /// `steps.step2_server_to_gcm_us`: the server's push reaching the
    /// rendezvous service.
    pub step2: LazyHandle<HistogramHandle>,
    /// `steps.step3_push_delivery_us`: the push reaching the phone.
    pub step3: LazyHandle<HistogramHandle>,
    /// `steps.step4_token_upload_us`: the token reaching the server.
    pub step4: LazyHandle<HistogramHandle>,
    /// `steps.step5_password_compute_us`: the modelled password assembly.
    pub step5: LazyHandle<HistogramHandle>,
    /// `steps.step6_password_download_us`: the password reaching the
    /// browser.
    pub step6: LazyHandle<HistogramHandle>,
    /// `<prefix>.generate_password_us`: the paper's measured window.
    pub window: LazyHandle<HistogramHandle>,
    /// `<prefix>.generate_password_e2e_us`: browser click to password.
    pub e2e: LazyHandle<HistogramHandle>,
    /// `<prefix>.generations`: passwords delivered.
    pub generations: LazyHandle<Counter>,
    /// `<prefix>.generation_retries`: re-sent generation requests.
    pub retries: LazyHandle<Counter>,
    /// `<prefix>.session.inflight`: unsettled sessions.
    pub inflight: LazyHandle<Gauge>,
    /// `<prefix>.session.inflight_peak`: the most sessions unsettled at once.
    pub inflight_peak: LazyHandle<Gauge>,
    /// `<prefix>.session.timeouts`: session timers that fired.
    pub timeouts: LazyHandle<Counter>,
    /// `<prefix>.session.late_replies`: replies to settled sessions.
    pub late_replies: LazyHandle<Counter>,
    /// `<prefix>.dispatch_faults`: frames no component accepted.
    pub dispatch_faults: LazyHandle<Counter>,
    /// `<prefix>.forward_hop_us`: the second hop of a cross-instance
    /// rendezvous forward.
    pub forward_hop: LazyHandle<HistogramHandle>,
    /// `<prefix>.rendezvous.forwarded`: pushes forwarded between instances.
    pub rendezvous_forwarded: LazyHandle<Counter>,
    /// `<prefix>.rendezvous.dropped`: frames an offline instance lost.
    pub rendezvous_dropped: LazyHandle<Counter>,
}

impl HostMetrics {
    /// The handles for a host recording into `registry` under `prefix`.
    pub fn new(registry: &Registry, prefix: &str) -> Self {
        let scoped = |name: &str| format!("{prefix}.{name}");
        HostMetrics {
            step1: LazyHandle::new(registry, "steps.step1_request_upload_us"),
            step2: LazyHandle::new(registry, "steps.step2_server_to_gcm_us"),
            step3: LazyHandle::new(registry, "steps.step3_push_delivery_us"),
            step4: LazyHandle::new(registry, "steps.step4_token_upload_us"),
            step5: LazyHandle::new(registry, "steps.step5_password_compute_us"),
            step6: LazyHandle::new(registry, "steps.step6_password_download_us"),
            window: LazyHandle::new(registry, scoped("generate_password_us")),
            e2e: LazyHandle::new(registry, scoped("generate_password_e2e_us")),
            generations: LazyHandle::new(registry, scoped("generations")),
            retries: LazyHandle::new(registry, scoped("generation_retries")),
            inflight: LazyHandle::new(registry, scoped("session.inflight")),
            inflight_peak: LazyHandle::new(registry, scoped("session.inflight_peak")),
            timeouts: LazyHandle::new(registry, scoped("session.timeouts")),
            late_replies: LazyHandle::new(registry, scoped("session.late_replies")),
            dispatch_faults: LazyHandle::new(registry, scoped("dispatch_faults")),
            forward_hop: LazyHandle::new(registry, scoped("forward_hop_us")),
            rendezvous_forwarded: LazyHandle::new(registry, scoped("rendezvous.forwarded")),
            rendezvous_dropped: LazyHandle::new(registry, scoped("rendezvous.dropped")),
        }
    }
}
