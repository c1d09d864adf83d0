//! Per-layer numbers, measured from outside the program.
//!
//! Two sources, both public:
//!
//! * **counts** the program already exposes (telemetry counters, the
//!   crypto stats atomics, WAL stats), taken as deltas over the workload's
//!   digest prefix, so they repeat exactly for a seed;
//! * **per-call costs** of each layer's public functions, timed after the
//!   measured phase on inputs shaped like the workload's.
//!
//! A `*_share` is calls per op × cost per call ÷ wall time per op. It is a
//! model built from isolated per-call costs, not a measurement inside the
//! program, with one exception: `server.handle_share` sums the server's own
//! wall-clock step histograms. `host.unattributed_share` is 1 − Σ shares, so
//! the shares sum to 1 by construction; a negative remainder means the
//! model over-attributes.

use crate::stats::weighted_quantile;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Deployment, Host, Shape, TempDir, Workload};
use amnesia_core::{PasswordRequest, Token};
use amnesia_crypto::{kdf, KdfPolicy};
use amnesia_net::{SecureChannel, SimInstant};
use amnesia_phone::ConfirmPolicy;
use amnesia_server::protocol::{FromServer, Reply, ToServer, TokenResponse};
use amnesia_store::Database;
use amnesia_system::session::{Event, FlowSpec, Session};
use amnesia_system::{AmnesiaSystem, SystemConfig};
use amnesia_telemetry::Registry;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crypto.kdf_per_op", "count/op"),
    ("crypto.kdf_us", "us"),
    ("crypto.kdf_share", "ratio"),
    ("crypto.hmac_keys_per_op", "count/op"),
    ("net.frames_per_op", "count/op"),
    ("net.drops_per_op", "count/op"),
    ("net.sealed_per_op", "count/op"),
    ("net.seal_open_us", "us"),
    ("net.channel_share", "ratio"),
    ("net.step_us", "us"),
    ("net.simnet_share", "ratio"),
    ("server.codec_us", "us"),
    ("server.codec_share", "ratio"),
    ("server.step2_us", "us"),
    ("server.step5_us", "us"),
    ("server.handle_share", "ratio"),
    ("server.tokens_rejected", "count"),
    ("host.sessions_per_op", "count/op"),
    ("host.session_us", "us"),
    ("host.session_share", "ratio"),
    ("host.retries_per_op", "count/op"),
    ("host.timeouts", "count"),
    ("host.late_replies", "count"),
    ("host.retained_bytes_per_op", "bytes/op"),
    ("host.rss_per_user_kib", "KiB/user"),
    ("host.unattributed_share", "ratio"),
    ("fleet.coalesced_share", "ratio"),
    ("fleet.rejected", "count"),
    ("fleet.queue_wait_p99_us", "us"),
    ("store.wal_records_per_op", "count/op"),
    ("store.wal_records_per_flush", "records/flush"),
    ("store.wal_bytes_per_record", "bytes/record"),
    ("store.wal_commit_us", "us"),
    ("store.wal_share", "ratio"),
    ("phone.tokens_per_op", "count/op"),
    ("rendezvous.pushes_per_op", "count/op"),
    ("rendezvous.rejected", "count"),
    ("telemetry.keys", "count"),
    ("telemetry.lookup_ns", "ns"),
    ("model.sim_p50_ms", "ms"),
    ("model.sim_p99_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.ops_per_s", "ops/s"),
];

/// Counters read from the program at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    frames_sent: u64,
    frames_dropped: u64,
    pushes_sent: u64,
    pushes_delivered: u64,
    gcm_forwards: u64,
    push_rejected: u64,
    tokens_computed: u64,
    tokens_rejected: u64,
    retries: u64,
    timeouts: u64,
    late_replies: u64,
    coalesced: u64,
    shed: u64,
    sessions: u64,
    kdf: u64,
    hmac_keys: u64,
    wal_records: u64,
    wal_flushes: u64,
    wal_bytes: u64,
    server_busy_us: u64,
}

fn registry(host: &Host) -> &Registry {
    match host {
        Host::System(system) => system.telemetry(),
        Host::Fleet(fleet) => fleet.telemetry(),
    }
}

impl Counts {
    /// Reads one telemetry snapshot, so reading registers no name; a name
    /// the program does not export reads 0 (see [`Counts::check_exported`]).
    pub fn read(deployment: &Deployment) -> Counts {
        let snapshot = registry(&deployment.host).snapshot();
        let c = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let histogram_sum = |name: &str| {
            snapshot
                .histograms
                .get(name)
                .map_or(0, |h| u64::try_from(h.sum()).unwrap_or(u64::MAX))
        };
        let (host, sessions, gcm_forwards, push_rejected, coalesced, shed, wal) =
            match &deployment.host {
                Host::System(system) => (
                    "system",
                    c("system.generations"),
                    0,
                    c("rendezvous.push_rejected"),
                    0,
                    0,
                    vec![system.server().database().wal_stats()],
                ),
                Host::Fleet(fleet) => (
                    "fleet",
                    (0..fleet.shard_count())
                        .map(|i| c(&format!("fleet.shard.{i}.sessions_routed")))
                        .sum(),
                    c("fleet.rendezvous.forwarded"),
                    c("rendezvous.push_rejected") + c("fleet.rendezvous.rejected"),
                    c("fleet.admission.coalesced"),
                    c("fleet.admission.rejected"),
                    (0..fleet.shard_count())
                        .map(|i| fleet.shard_server(i).and_then(|s| s.database().wal_stats()))
                        .collect(),
                ),
            };
        let wal: Vec<_> = wal.into_iter().flatten().collect();
        Counts {
            frames_sent: c("net.frames_sent"),
            frames_dropped: c("net.frames_dropped"),
            pushes_sent: c("server.requests_pushed"),
            pushes_delivered: c("rendezvous.push_forwarded"),
            gcm_forwards,
            push_rejected,
            tokens_computed: c("phone.tokens_computed"),
            tokens_rejected: c("server.tokens_rejected"),
            retries: c(&format!("{host}.generation_retries")),
            timeouts: c(&format!("{host}.session.timeouts")),
            late_replies: c(&format!("{host}.session.late_replies")),
            coalesced,
            shed,
            sessions,
            kdf: amnesia_crypto::stats::kdf_cpu_derivations()
                + amnesia_crypto::stats::kdf_memhard_derivations(),
            hmac_keys: amnesia_crypto::stats::hmac_keys_created(),
            wal_records: wal.iter().map(|s| s.appended_records).sum(),
            wal_flushes: wal.iter().map(|s| s.flushes).sum(),
            wal_bytes: wal.iter().map(|s| s.flushed_bytes).sum(),
            server_busy_us: histogram_sum("server.step2_derive_request_us")
                + histogram_sum("server.step5_assemble_password_us"),
        }
    }

    /// Fails on a count that every op of `workload` moves but that read 0:
    /// the program renamed or stopped exporting what this module reads, and
    /// the per-layer table would silently report a bypassed layer.
    pub fn check_exported(&self, workload: Workload) -> Result<(), String> {
        let mut required = vec![
            ("net.frames_sent", self.frames_sent),
            ("server.requests_pushed", self.pushes_sent),
            ("rendezvous.push_forwarded", self.pushes_delivered),
            ("phone.tokens_computed", self.tokens_computed),
            (
                "sessions (system.generations, fleet.shard.*)",
                self.sessions,
            ),
            ("crypto::stats::hmac_keys_created", self.hmac_keys),
            ("server.step{2,5}_* histograms", self.server_busy_us),
        ];
        // Every sign-up derives and writes; a short `mixed` prefix may hold
        // no rotation.
        if workload == Workload::Signup {
            required.push(("crypto::stats::kdf_*_derivations", self.kdf));
            required.push(("Database::wal_stats records", self.wal_records));
            required.push(("Database::wal_stats flushes", self.wal_flushes));
        }
        match required.iter().find(|(_, count)| *count == 0) {
            Some((name, _)) => Err(format!(
                "{name} read 0 over the prefix: the program no longer exports it under that name"
            )),
            None => Ok(()),
        }
    }

    /// `self − before`, field by field.
    pub fn since(self, before: Counts) -> Counts {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counts {
            frames_sent: d(self.frames_sent, before.frames_sent),
            frames_dropped: d(self.frames_dropped, before.frames_dropped),
            pushes_sent: d(self.pushes_sent, before.pushes_sent),
            pushes_delivered: d(self.pushes_delivered, before.pushes_delivered),
            gcm_forwards: d(self.gcm_forwards, before.gcm_forwards),
            push_rejected: d(self.push_rejected, before.push_rejected),
            tokens_computed: d(self.tokens_computed, before.tokens_computed),
            tokens_rejected: d(self.tokens_rejected, before.tokens_rejected),
            retries: d(self.retries, before.retries),
            timeouts: d(self.timeouts, before.timeouts),
            late_replies: d(self.late_replies, before.late_replies),
            coalesced: d(self.coalesced, before.coalesced),
            shed: d(self.shed, before.shed),
            sessions: d(self.sessions, before.sessions),
            kdf: d(self.kdf, before.kdf),
            hmac_keys: d(self.hmac_keys, before.hmac_keys),
            wal_records: d(self.wal_records, before.wal_records),
            wal_flushes: d(self.wal_flushes, before.wal_flushes),
            wal_bytes: d(self.wal_bytes, before.wal_bytes),
            server_busy_us: d(self.server_busy_us, before.server_busy_us),
        }
    }

    /// Frames sealed by a secure channel: every frame except the push legs
    /// (server → rendezvous, rendezvous → rendezvous, rendezvous → phone).
    fn sealed(&self) -> u64 {
        self.frames_sent
            .saturating_sub(self.pushes_sent + self.gcm_forwards + self.pushes_delivered)
    }
}

/// p99 of the per-shard simulated queue wait, worst shard; 0 on the single
/// host, which has no worker pool. Only generation steps queue, and set-up
/// runs none, so read right after the prefix this covers the prefix alone.
pub fn queue_wait_p99_us(deployment: &Deployment) -> f64 {
    let Host::Fleet(fleet) = &deployment.host else {
        return 0.0;
    };
    (0..fleet.shard_count())
        .filter_map(|i| {
            fleet
                .telemetry()
                .histogram(&format!("fleet.shard.{i}.queue_wait_us"))
                .snapshot()
                .quantile(0.99)
        })
        .max()
        .map_or(0.0, |us| us as f64)
}

/// Per-call costs of each layer's public functions.
#[derive(Clone, Copy, Debug, Default)]
pub struct Costs {
    kdf_us: f64,
    seal_open_us: f64,
    codec_us: f64,
    session_us: f64,
    step_us: f64,
    wal_commit_us: f64,
    lookup_ns: f64,
    span_ns: f64,
}

/// Mean wall µs of one `f()` over `n` calls.
fn per_call_us<R>(n: u64, mut f: impl FnMut(u64) -> Result<R, String>) -> Result<f64, String> {
    let started = Instant::now();
    for i in 0..n {
        black_box(f(i)?);
    }
    Ok(started.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64)
}

/// Realistic inputs for the channel, codec and session timings: one real
/// generation's messages, taken from a one-user deployment.
struct Fixture {
    messages: Vec<Vec<u8>>,
    spec: FlowSpec,
    token: amnesia_server::SessionToken,
    pushed: FromServer,
    ready: FromServer,
}

fn fixture(seed: u64) -> Result<Fixture, String> {
    let mut system =
        AmnesiaSystem::new(SystemConfig::default().with_seed(seed).with_table_size(64));
    system.add_browser("cal.b");
    system.add_phone("cal.p", seed);
    system
        .setup_user("cal", "calibration", "cal.b", "cal.p")
        .map_err(|e| format!("calibration setup: {e}"))?;
    system
        .phone_mut("cal.p")
        .ok_or("calibration phone missing")?
        .set_confirm_policy(ConfirmPolicy::AutoConfirm);
    let username = amnesia_core::Username::new("cal-a0").map_err(|e| e.to_string())?;
    let domain = amnesia_core::Domain::new("s0.cal.example.com").map_err(|e| e.to_string())?;
    let policy = amnesia_core::PasswordPolicy::default();
    system
        .add_account("cal.b", username.clone(), domain.clone(), policy)
        .map_err(|e| format!("calibration account: {e}"))?;
    let outcome = system
        .generate_password("cal.b", "cal.p", &username, &domain)
        .map_err(|e| format!("calibration generation: {e}"))?;
    let token = system
        .browser_ref("cal.b")
        .and_then(|b| b.session())
        .cloned()
        .ok_or("calibration browser has no session")?;
    let ready = FromServer::PasswordReady {
        account: outcome.account,
        password: outcome.password,
        requested_at: SimInstant::EPOCH,
    };
    let wire = |r: Result<Vec<u8>, amnesia_store::codec::CodecError>| r.map_err(|e| e.to_string());
    let messages = vec![
        wire(
            ToServer::RequestPassword {
                session: token.clone(),
                username: username.clone(),
                domain: domain.clone(),
                request_id: 1,
                reply_to: "cal.b".into(),
            }
            .to_wire(),
        )?,
        wire(
            Reply {
                request_id: 1,
                message: FromServer::RequestPushed,
            }
            .to_wire(),
        )?,
        wire(
            ToServer::Token(TokenResponse {
                request_id: 1,
                request: PasswordRequest::from_bytes([7; 32]),
                token: Token::from_bytes([9; 32]),
                tstart: SimInstant::EPOCH,
            })
            .to_wire(),
        )?,
        wire(
            Reply {
                request_id: 1,
                message: ready.clone(),
            }
            .to_wire(),
        )?,
    ];
    Ok(Fixture {
        messages,
        spec: FlowSpec::Generate { username, domain },
        token,
        pushed: FromServer::RequestPushed,
        ready,
    })
}

/// Times each layer's public functions; one `calibrate.<layer>` span each.
pub fn calibrate(
    workload: Workload,
    shape: &Shape,
    deployment: &mut Deployment,
    tracer: &mut Tracer,
    parent: SpanId,
    wal_root: &Path,
    bytes_per_record: f64,
) -> Result<Costs, String> {
    let fixture = fixture(0xca1)?;
    let mut costs = Costs::default();

    let span = tracer.begin("calibrate.crypto", parent);
    let policy = workload.kdf_policy();
    let calls = if matches!(policy, KdfPolicy::Cpu { .. }) {
        2_000
    } else {
        4
    };
    let mut out = [0u8; 32];
    costs.kdf_us = per_call_us(calls, |_| {
        kdf::derive(
            &policy,
            b"benchmark master password",
            b"benchmark salt",
            &mut out,
        )
        .map_err(|e| e.to_string())
    })?;
    tracer.end(span);

    let messages = &fixture.messages;
    let span = tracer.begin("calibrate.channel", parent);
    let mut channel = SecureChannel::new(&[7; 32], "fwd");
    let mut sealed_bytes = 0;
    for message in messages {
        sealed_bytes += channel.seal(message).map_err(|e| e.to_string())?.len();
    }
    costs.seal_open_us = per_call_us(8_000, |i| {
        let sealed = channel
            .seal(&messages[i as usize % messages.len()])
            .map_err(|e| e.to_string())?;
        channel.open(&sealed).map_err(|e| e.to_string())
    })?;
    tracer.end(span);

    let span = tracer.begin("calibrate.codec", parent);
    costs.codec_us = per_call_us(8_000, |i| {
        let bytes = &messages[i as usize % messages.len()];
        let decoded = match i % 4 {
            0 | 2 => ToServer::from_wire(bytes).and_then(|m| m.to_wire()),
            _ => Reply::from_wire(bytes).and_then(|m| m.to_wire()),
        };
        decoded.map_err(|e| e.to_string())
    })?;
    tracer.end(span);

    let span = tracer.begin("calibrate.session", parent);
    costs.session_us = per_call_us(20_000, |i| {
        let mut session =
            Session::new(i, "cal.b", fixture.spec.clone()).with_auth(fixture.token.clone());
        let mut actions = session.start();
        actions.extend(session.on_event(Event::FrameReceived(fixture.pushed.clone())));
        actions.extend(session.on_event(Event::FrameReceived(fixture.ready.clone())));
        Ok(actions.len())
    })?;
    tracer.end(span);

    let span = tracer.begin("calibrate.simnet", parent);
    let mean_frame = sealed_bytes / messages.len();
    costs.step_us = time_simnet(shape.max_inflight, deployment, mean_frame)?;
    tracer.end(span);

    let span = tracer.begin("calibrate.store", parent);
    {
        let dir = TempDir::fresh(wal_root.join(format!("calibrate-{}", std::process::id())))?;
        let db =
            Database::open_durable(dir.path()).map_err(|e| format!("calibration store: {e}"))?;
        let table = db.table::<String, Vec<u8>>("calibrate");
        let value = vec![0x5a; bytes_per_record.max(64.0) as usize];
        costs.wal_commit_us = per_call_us(50, |i| {
            table
                .put(&format!("k{i}"), &value)
                .map_err(|e| e.to_string())
        })?;
    }
    tracer.end(span);

    let span = tracer.begin("calibrate.telemetry", parent);
    let r = registry(&deployment.host);
    costs.lookup_ns = per_call_us(200_000, |_| Ok(r.counter("net.frames_sent")))? * 1e3;
    tracer.end(span);

    let span = tracer.begin("calibrate.trace", parent);
    let mut probe = Tracer::new(true);
    costs.span_ns = per_call_us(200_000, |_| {
        let id = probe.begin("op", 0);
        probe.end(id);
        Ok(id)
    })? * 1e3;
    tracer.end(span);
    Ok(costs)
}

/// `send` + `step` of one frame on the workload's own network, with as
/// many frames queued ahead of it as the workload keeps in flight.
fn time_simnet(
    in_flight: usize,
    deployment: &mut Deployment,
    payload_len: usize,
) -> Result<f64, String> {
    let first = deployment.users.first().ok_or("no users")?;
    let (from, to) = match &deployment.host {
        Host::System(system) => (first.phone.clone(), system.server().endpoint().to_string()),
        Host::Fleet(fleet) => {
            let shard = fleet.user_shard(&first.id).ok_or("user has no shard")?;
            (
                fleet
                    .user_phone(&first.id)
                    .ok_or("user has no phone")?
                    .to_string(),
                fleet
                    .shard_server(shard)
                    .ok_or("no such shard")?
                    .endpoint()
                    .to_string(),
            )
        }
    };
    let net = match &mut deployment.host {
        Host::System(system) => system.net_mut(),
        Host::Fleet(fleet) => fleet.net_mut(),
    };
    let payload = vec![0u8; payload_len];
    for _ in 0..in_flight {
        net.send(&from, &to, payload.clone())
            .map_err(|e| e.to_string())?;
    }
    let cost = per_call_us(20_000, |_| {
        net.send(&from, &to, payload.clone())
            .map_err(|e| e.to_string())?;
        Ok(net.step())
    })?;
    while net.step().is_some() {}
    Ok(cost)
}

/// Keys in the program's telemetry registry.
fn telemetry_keys(deployment: &Deployment) -> usize {
    let snapshot = registry(&deployment.host).snapshot();
    snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len()
}

/// Everything the per-layer table is computed from.
pub struct LayerInputs<'a> {
    pub shape: Shape,
    pub deployment: &'a Deployment,
    /// Counter deltas over the digest prefix.
    pub prefix: Counts,
    pub queue_wait_p99_us: f64,
    pub prefix_sim_ms: &'a [f64],
    pub costs: Costs,
    /// Measured phase: ops completed and wall seconds inside the program.
    pub completed_ops: u64,
    pub program_s: f64,
    /// `ops_per_s` as the untraced run computes it.
    pub ops_per_s: f64,
    pub retained_bytes: f64,
    pub rss_per_user_kib: f64,
}

pub fn layer_metrics(inputs: &LayerInputs) -> BTreeMap<&'static str, f64> {
    let p = &inputs.prefix;
    let c = &inputs.costs;
    let ops = inputs.shape.prefix_ops.max(1) as f64;
    let per_op = |n: u64| n as f64 / ops;
    let wall_per_op_us = inputs.program_s * 1e6 / inputs.completed_ops.max(1) as f64;
    let share = |calls_per_op: f64, cost_us: f64| calls_per_op * cost_us / wall_per_op_us;
    let registry = registry(&inputs.deployment.host);
    let p50 = |name: &str| {
        registry
            .histogram(name)
            .snapshot()
            .quantile(0.5)
            .map_or(0.0, |v| v as f64)
    };
    let sim: Vec<(f64, u64)> = inputs.prefix_sim_ms.iter().map(|v| (*v, 1)).collect();

    let shares = [
        ("crypto.kdf_share", share(per_op(p.kdf), c.kdf_us)),
        (
            "net.channel_share",
            share(per_op(p.sealed()), c.seal_open_us),
        ),
        ("net.simnet_share", share(per_op(p.frames_sent), c.step_us)),
        ("server.codec_share", share(per_op(p.sealed()), c.codec_us)),
        (
            "server.handle_share",
            per_op(p.server_busy_us) / wall_per_op_us,
        ),
        (
            "host.session_share",
            share(per_op(p.sessions), c.session_us),
        ),
        (
            "store.wal_share",
            share(per_op(p.wal_flushes), c.wal_commit_us),
        ),
    ];
    let attributed: f64 = shares.iter().map(|s| s.1).sum();
    let unit_ops = inputs.shape.unit_ops as f64;
    let mut m: BTreeMap<&'static str, f64> = shares.into_iter().collect();
    m.extend([
        ("crypto.kdf_per_op", per_op(p.kdf)),
        ("crypto.kdf_us", c.kdf_us),
        ("crypto.hmac_keys_per_op", per_op(p.hmac_keys)),
        ("net.frames_per_op", per_op(p.frames_sent)),
        ("net.drops_per_op", per_op(p.frames_dropped)),
        ("net.sealed_per_op", per_op(p.sealed())),
        ("net.seal_open_us", c.seal_open_us),
        ("net.step_us", c.step_us),
        ("server.codec_us", c.codec_us),
        ("server.step2_us", p50("server.step2_derive_request_us")),
        ("server.step5_us", p50("server.step5_assemble_password_us")),
        ("server.tokens_rejected", p.tokens_rejected as f64),
        ("host.sessions_per_op", per_op(p.sessions)),
        ("host.session_us", c.session_us),
        ("host.retries_per_op", per_op(p.retries)),
        ("host.timeouts", p.timeouts as f64),
        ("host.late_replies", p.late_replies as f64),
        (
            "host.retained_bytes_per_op",
            inputs.retained_bytes / inputs.completed_ops.max(1) as f64,
        ),
        ("host.rss_per_user_kib", inputs.rss_per_user_kib),
        ("host.unattributed_share", 1.0 - attributed),
        ("fleet.coalesced_share", per_op(p.coalesced)),
        ("fleet.rejected", p.shed as f64),
        ("fleet.queue_wait_p99_us", inputs.queue_wait_p99_us),
        ("store.wal_records_per_op", per_op(p.wal_records)),
        (
            "store.wal_records_per_flush",
            p.wal_records as f64 / p.wal_flushes.max(1) as f64,
        ),
        (
            "store.wal_bytes_per_record",
            p.wal_bytes as f64 / p.wal_records.max(1) as f64,
        ),
        ("store.wal_commit_us", c.wal_commit_us),
        ("phone.tokens_per_op", per_op(p.tokens_computed)),
        ("rendezvous.pushes_per_op", per_op(p.pushes_delivered)),
        ("rendezvous.rejected", p.push_rejected as f64),
        ("telemetry.keys", telemetry_keys(inputs.deployment) as f64),
        ("telemetry.lookup_ns", c.lookup_ns),
        (
            "model.sim_p50_ms",
            weighted_quantile(&sim, 0.5).unwrap_or(0.0),
        ),
        (
            "model.sim_p99_ms",
            weighted_quantile(&sim, 0.99).unwrap_or(0.0),
        ),
        (
            "trace.overhead",
            c.span_ns / 1e3 / unit_ops / wall_per_op_us,
        ),
        ("trace.ops_per_s", inputs.ops_per_s),
    ]);
    m
}

/// Bytes per WAL record over the prefix (for sizing the commit timing).
pub fn bytes_per_record(prefix: &Counts) -> f64 {
    prefix.wal_bytes as f64 / prefix.wal_records.max(1) as f64
}
