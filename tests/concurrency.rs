//! Concurrent-session behaviour of the deployment and cross-runtime
//! equivalence of the shared session engine.
//!
//! The simulated deployment drives every flow through the sans-IO
//! [`Session`](amnesia::system::Session) engine keyed by `request_id`, so
//! hundreds of generations can be in flight over one network. These tests
//! pin the two properties that makes that safe:
//!
//! * **isolation** — 256 interleaved sessions each receive exactly the
//!   password (and latency attribution) of their own account, bit-identical
//!   to a sequential run;
//! * **runtime equivalence** — the threaded deployment, driving the *same*
//!   engine over mpsc channels, derives byte-identical passwords from the
//!   same component seeds.

use amnesia::core::{Domain, PasswordPolicy, Username};
use amnesia::net::SimDuration;
use amnesia::phone::ConfirmPolicy;
use amnesia::system::realtime::{RealtimeConfig, RealtimeDeployment};
use amnesia::system::{AmnesiaSystem, GenerationRequest, NetProfile, SystemConfig};
use amnesia::telemetry::Histogram;

const N: usize = 256;

fn concurrent_deployment(
    seed: u64,
    profile: NetProfile,
) -> (AmnesiaSystem, Vec<(Username, Domain)>) {
    let mut sys = AmnesiaSystem::new(
        SystemConfig::default()
            .with_seed(seed)
            .with_profile(profile)
            .with_table_size(256),
    );
    sys.add_browser("browser");
    sys.add_phone("phone", seed.wrapping_add(1));
    sys.setup_user("crowd", "master password", "browser", "phone")
        .unwrap();
    sys.phone_mut("phone")
        .unwrap()
        .set_confirm_policy(ConfirmPolicy::AutoConfirm);
    let accounts: Vec<(Username, Domain)> = (0..N)
        .map(|i| {
            let u = Username::new(format!("user{i}")).unwrap();
            let d = Domain::new(format!("site{i}.example.com")).unwrap();
            sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
                .unwrap();
            (u, d)
        })
        .collect();
    (sys, accounts)
}

/// The host's `system.generate_password_us` histogram: one sample per
/// delivered password, its §VI-B window in µs.
fn window(sys: &AmnesiaSystem) -> Histogram {
    sys.telemetry().snapshot().histograms["system.generate_password_us"].clone()
}

fn requests(accounts: &[(Username, Domain)]) -> Vec<GenerationRequest> {
    accounts
        .iter()
        .map(|(u, d)| GenerationRequest {
            browser: "browser".into(),
            phone: "phone".into(),
            username: u.clone(),
            domain: d.clone(),
        })
        .collect()
}

#[test]
fn two_hundred_fifty_six_interleaved_sessions_stay_isolated() {
    let (mut sys, accounts) = concurrent_deployment(0xC0, NetProfile::lan());
    let results = sys.generate_passwords_concurrent(&requests(&accounts), 1);
    assert_eq!(results.len(), N);

    // Sequential ground truth on an identical deployment.
    let (mut reference, ref_accounts) = concurrent_deployment(0xC0, NetProfile::lan());
    for (result, (u, d)) in results.iter().zip(&ref_accounts) {
        let outcome = result.as_ref().unwrap_or_else(|e| panic!("{u}@{d}: {e}"));
        // The outcome is attributed to the right account...
        assert_eq!(&outcome.account.username, u);
        assert_eq!(&outcome.account.domain, d);
        // ...and its password is exactly the sequential one — no bleed from
        // the 255 sessions sharing the wire.
        let expected = reference
            .generate_password("browser", "phone", u, d)
            .unwrap();
        assert_eq!(outcome.password, expected.password, "{u}@{d}");
    }
    assert!(sys.faults().is_empty(), "{:?}", sys.faults());
    assert_eq!(window(&sys).count(), N as u64);
}

#[test]
fn interleaved_sessions_stay_isolated_under_out_of_order_links() {
    // Same isolation property, but over the jittered wifi profile whose
    // links now deliver out of order (per-frame latency sampling, no FIFO
    // clamp): the sliding replay window must absorb the reordering without
    // a single dispatch fault or cross-session bleed.
    let (mut sys, accounts) = concurrent_deployment(0xC2, NetProfile::wifi());
    let results = sys.generate_passwords_concurrent(&requests(&accounts), 1);
    assert_eq!(results.len(), N);

    let (mut reference, ref_accounts) = concurrent_deployment(0xC2, NetProfile::wifi());
    for (result, (u, d)) in results.iter().zip(&ref_accounts) {
        let outcome = result.as_ref().unwrap_or_else(|e| panic!("{u}@{d}: {e}"));
        assert_eq!(&outcome.account.username, u);
        assert_eq!(&outcome.account.domain, d);
        let expected = reference
            .generate_password("browser", "phone", u, d)
            .unwrap();
        assert_eq!(outcome.password, expected.password, "{u}@{d}");
    }
    assert!(sys.faults().is_empty(), "{:?}", sys.faults());
    assert_eq!(window(&sys).count(), N as u64);
}

#[test]
fn late_reply_after_timeout_is_counted_not_double_resolved() {
    // A timeout that fires while the PasswordReady is still in flight: the
    // session must fail exactly once (timer first), and the late-but-valid
    // reply must be counted as `late_reply`, not resolve the session a
    // second time. Over the 1 ms lan profile the timer is last re-armed at
    // t=2 ms (RequestPushed ack) and the PasswordReady is sent at t=4 ms,
    // landing at t=5 ms; a 2.5 ms timeout therefore expires at t=4.5 ms,
    // while the reply is in flight.
    let mut sys = AmnesiaSystem::new(
        SystemConfig::default()
            .with_seed(0xFA)
            .with_table_size(64)
            .with_profile(NetProfile::lan())
            .with_session_timeout(SimDuration::from_micros(2_500)),
    );
    sys.add_browser("browser");
    sys.add_phone("phone", 0xFB);
    sys.setup_user("tardy", "mp", "browser", "phone").unwrap();
    let u = Username::new("tardy").unwrap();
    let d = Domain::new("late.example.com").unwrap();
    sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
        .unwrap();

    let err = sys
        .generate_password("browser", "phone", &u, &d)
        .unwrap_err();
    assert!(err.to_string().contains("PasswordReady"), "{err}");

    // The reply is still on the wire; delivering it must not resurrect the
    // settled (and already removed) session.
    sys.pump();
    let snapshot = sys.telemetry().snapshot();
    assert_eq!(snapshot.counters["system.session.timeouts"], 1);
    assert_eq!(snapshot.counters["system.session.late_replies"], 1);
    assert!(
        !snapshot.counters.contains_key("system.generations"),
        "a late reply must never count as a completed generation"
    );
    assert!(sys.faults().is_empty(), "{:?}", sys.faults());
}

#[test]
fn concurrent_latencies_are_attributed_per_session() {
    // Under a jittered profile each session's measured window differs; the
    // outcome must carry its own, not the last one recorded globally.
    let (mut sys, accounts) = concurrent_deployment(0xC1, NetProfile::wifi());
    let results = sys.generate_passwords_concurrent(&requests(&accounts), 1);

    let mut latencies = Vec::with_capacity(N);
    for result in &results {
        let outcome = result.as_ref().unwrap();
        assert!(outcome.latency > SimDuration::ZERO);
        latencies.push(outcome.latency);
    }
    // All 256 samples were recorded, and the per-outcome latencies sum to
    // the recorded total and share its extremes.
    let recorded = window(&sys);
    let micros = || latencies.iter().map(SimDuration::as_micros);
    assert_eq!(recorded.count(), N as u64);
    assert_eq!(recorded.sum(), micros().map(u128::from).sum::<u128>());
    assert_eq!(recorded.min(), micros().min());
    assert_eq!(recorded.max(), micros().max());
    latencies.sort();
    // Attribution is non-trivial: the windows are not all identical.
    assert!(latencies.first() != latencies.last());
}

#[test]
fn batch_interleaving_is_deterministic() {
    let run = |seed: u64| {
        let (mut sys, accounts) = concurrent_deployment(seed, NetProfile::wifi());
        sys.generate_passwords_concurrent(&requests(&accounts), 1)
            .into_iter()
            .map(|r| {
                let o = r.unwrap();
                (o.password.as_str().to_string(), o.latency)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(7));
}

#[test]
fn sim_and_realtime_runtimes_derive_identical_passwords() {
    // Build the simulated deployment, then mirror its components in the
    // threaded runtime: same server seed (exported for exactly this), same
    // phone seed, same table size. Both drive the same session engine, so
    // the same user/account inputs must produce byte-identical passwords.
    let phone_seed = 0xD1CE;
    let table_size = 512;
    let mut sys = AmnesiaSystem::new(SystemConfig::default().with_table_size(table_size));
    sys.add_browser("browser");
    sys.add_phone("phone", phone_seed);
    sys.setup_user("mirror", "master password", "browser", "phone")
        .unwrap();
    sys.phone_mut("phone")
        .unwrap()
        .set_confirm_policy(ConfirmPolicy::AutoConfirm);

    let mut rt = RealtimeDeployment::start_with(RealtimeConfig {
        server_seed: sys.server_seed(),
        phone_seed,
        table_size,
        kdf_policy: amnesia::crypto::KdfPolicy::PAPER,
    });
    rt.setup_user("mirror", "master password").unwrap();

    for (user, site) in [
        ("mirror-a", "alpha.example.com"),
        ("mirror-b", "beta.example.com"),
    ] {
        let u = Username::new(user).unwrap();
        let d = Domain::new(site).unwrap();
        sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
            .unwrap();
        rt.add_account(user, site).unwrap();

        let simulated = sys.generate_password("browser", "phone", &u, &d).unwrap();
        let (threaded, _) = rt.generate(user, site).unwrap();
        assert_eq!(
            simulated.password.as_str(),
            threaded,
            "{user}@{site}: the two runtimes disagree"
        );
    }
    rt.shutdown();
}

/// ISSUE 7: the bounded in-flight cap admits a batch through a sliding
/// window. All requests still succeed with byte-identical passwords, the
/// session table never exceeds the cap, and the peak gauge records it.
#[test]
fn bounded_inflight_cap_slides_without_losing_requests() {
    let (mut capped, accounts) = {
        let mut sys = AmnesiaSystem::new(
            SystemConfig::default()
                .with_seed(0xCA)
                .with_table_size(256)
                .with_max_inflight(4),
        );
        sys.add_browser("browser");
        sys.add_phone("phone", 0xCB);
        sys.setup_user("crowd", "master password", "browser", "phone")
            .unwrap();
        sys.phone_mut("phone")
            .unwrap()
            .set_confirm_policy(ConfirmPolicy::AutoConfirm);
        let accounts: Vec<(Username, Domain)> = (0..64)
            .map(|i| {
                let u = Username::new(format!("user{i}")).unwrap();
                let d = Domain::new(format!("site{i}.example.com")).unwrap();
                sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
                    .unwrap();
                (u, d)
            })
            .collect();
        (sys, accounts)
    };
    // Reset so the peak gauge observes only the batch, not the setup.
    capped.telemetry().reset();
    let results = capped.generate_passwords_concurrent(&requests(&accounts), 1);
    assert!(
        results.iter().all(|r| r.is_ok()),
        "capped batch must finish"
    );

    let snapshot = capped.telemetry().snapshot();
    let peak = snapshot.gauges["system.session.inflight_peak"];
    assert!(peak <= 4, "cap 4 exceeded: peak {peak}");
    assert!(peak >= 1, "peak gauge not recording");
    assert_eq!(snapshot.gauges["system.session.inflight"], 0);

    // Same passwords as an uncapped run of the identical deployment.
    let mut open = AmnesiaSystem::new(SystemConfig::default().with_seed(0xCA).with_table_size(256));
    open.add_browser("browser");
    open.add_phone("phone", 0xCB);
    open.setup_user("crowd", "master password", "browser", "phone")
        .unwrap();
    open.phone_mut("phone")
        .unwrap()
        .set_confirm_policy(ConfirmPolicy::AutoConfirm);
    for (u, d) in &accounts {
        open.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
            .unwrap();
    }
    let open_results = open.generate_passwords_concurrent(&requests(&accounts), 1);
    for (capped_r, open_r) in results.iter().zip(&open_results) {
        assert_eq!(
            capped_r.as_ref().unwrap().password.as_str(),
            open_r.as_ref().unwrap().password.as_str(),
            "the cap must not change what gets generated"
        );
    }
}

/// The simulated timeline of a small single-host scenario, pinned as one
/// SHA-256: a concurrent batch behind a sliding window of 4 with push drops
/// and retries, a seed rotation, a retried generation of the rotated
/// account, and a generation that times out. The digest covers every
/// outcome with its measured latency in µs, the faults, every counter and
/// gauge, and the sorted histogram names. It leaves out histogram values
/// (some are wall-clock spans) and the process-global `crypto.*` mirrors,
/// whose values depend on what else ran in this process. A change to the
/// order of events, a simulated time, a byte of a password or the set of
/// metric keys changes the digest.
#[test]
fn single_host_timeline_is_pinned() {
    let mut sys = AmnesiaSystem::new(
        SystemConfig::default()
            .with_seed(0x7157)
            .with_table_size(64)
            .with_max_inflight(4)
            .with_profile(NetProfile::wifi().with_push_drop_probability(0.25)),
    );
    sys.add_browser("browser");
    sys.add_phone("phone", 0x7158);
    sys.setup_user("pinned", "master password", "browser", "phone")
        .unwrap();
    let accounts: Vec<(Username, Domain)> = (0..12)
        .map(|i| {
            let u = Username::new(format!("pinned{i}")).unwrap();
            let d = Domain::new(format!("site{i}.pinned.example.com")).unwrap();
            sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
                .unwrap();
            (u, d)
        })
        .collect();

    let mut results = sys.generate_passwords_concurrent(&requests(&accounts), 3);
    let (u, d) = &accounts[0];
    sys.rotate_seed("browser", u.clone(), d.clone()).unwrap();
    results.push(sys.generate_password_with_retry("browser", "phone", u, d, 3));
    sys.phone_mut("phone")
        .unwrap()
        .set_confirm_policy(ConfirmPolicy::AutoReject);
    results.push(sys.generate_password("browser", "phone", u, d));

    let mut lines: Vec<String> = results
        .iter()
        .map(|r| match r {
            Ok(o) => format!(
                "password:{:?}:{}:{}us",
                o.account,
                o.password.as_str(),
                o.latency.as_micros()
            ),
            Err(e) => format!("err:{e:?}"),
        })
        .collect();
    lines.extend(sys.faults().iter().map(|f| format!("fault:{f}")));
    let snapshot = sys.telemetry().snapshot();
    let local = |name: &String| !name.starts_with("crypto.");
    lines.extend(
        snapshot
            .counters
            .iter()
            .filter(|(name, _)| local(name))
            .map(|(name, v)| format!("counter:{name}={v}")),
    );
    lines.extend(
        snapshot
            .gauges
            .iter()
            .filter(|(name, _)| local(name))
            .map(|(name, v)| format!("gauge:{name}={v}")),
    );
    lines.extend(
        snapshot
            .histograms
            .keys()
            .filter(|name| local(name))
            .map(|name| format!("histogram:{name}")),
    );
    let digest =
        amnesia::crypto::hex::encode(&amnesia::crypto::sha256(lines.join("\n").as_bytes()));
    assert!(results[..12].iter().any(|r| r.is_ok()));
    assert!(
        results[13].is_err(),
        "the rejected generation must time out"
    );
    assert_eq!(
        digest, "1955ac47075a50397abf1342ccfce4522f560fc130d4f4201bdf5a3fa2d8b350",
        "{lines:#?}"
    );
}
