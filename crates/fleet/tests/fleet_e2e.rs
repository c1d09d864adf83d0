//! End-to-end fleet behaviour: sharding transparency (byte-identity vs a
//! single-host ground truth), cross-instance rendezvous forwarding,
//! admission control and per-shard telemetry.

use amnesia_core::{Domain, PasswordPolicy, Username};
use amnesia_fleet::{phone_seed, Fleet, FleetConfig, FleetError, FleetOp, OpOutcome};
use amnesia_net::SimDuration;
use amnesia_rendezvous::{PushEnvelope, RendezvousServer};
use amnesia_system::{
    AmnesiaSystem, GenerationOutcome, GenerationRequest, NetProfile, SystemConfig, SystemError,
};

fn acct(user: &str, a: usize) -> (Username, Domain) {
    (
        Username::new(format!("{user}-acct{a}")).expect("valid username"),
        Domain::new(format!("d{a}.{user}.example.com")).expect("valid domain"),
    )
}

fn small_fleet(seed: u64, shards: usize, rendezvous: usize) -> Fleet {
    Fleet::new(
        FleetConfig::default()
            .with_seed(seed)
            .with_shards(shards)
            .with_rendezvous(rendezvous)
            .with_table_size(64),
    )
}

#[test]
fn fleet_setup_and_generate_works() {
    let mut fleet = small_fleet(0xf1ee7, 2, 2);
    fleet.add_user("alice", "correct horse").expect("setup");
    let (u, d) = acct("alice", 0);
    fleet
        .add_account("alice", u, d, PasswordPolicy::default())
        .expect("add account");
    let (_, password, _) = fleet.generate("alice", 0).expect("generate");
    assert!(!password.as_str().is_empty());
    // Generating again for the same account is deterministic in value.
    let (_, again, _) = fleet.generate("alice", 0).expect("second generate");
    assert_eq!(password, again);
}

/// The acceptance gate: passwords produced through the sharded fleet are
/// byte-identical to a single-host `AmnesiaSystem` seeded with the same
/// per-shard server seed, replaying that shard's users in fleet setup
/// order with the same phone seeds.
#[test]
fn fleet_passwords_match_single_host_ground_truth() {
    let fleet_seed = 0xbeef;
    let mut fleet = small_fleet(fleet_seed, 2, 2);

    let users = ["alice", "bob", "carol", "dave", "erin", "frank"];
    for name in users {
        fleet.add_user(name, &format!("mp-{name}")).expect("setup");
        for a in 0..2 {
            let (u, d) = acct(name, a);
            fleet
                .add_account(name, u, d, PasswordPolicy::default())
                .expect("add account");
        }
    }
    // Both shards should have at least one user for the test to bite.
    assert!(
        (0..2).all(|i| !fleet.users_on_shard(i).is_empty()),
        "pick seeds/users so both shards are populated"
    );

    let mut fleet_passwords = Vec::new();
    for name in users {
        for a in 0..2 {
            let (_, p, _) = fleet.generate(name, a).expect("fleet generate");
            fleet_passwords.push((name, a, p));
        }
    }

    for shard in 0..fleet.shard_count() {
        let server_seed = fleet.shard_server_seed(shard).expect("shard seed");
        let mut host = AmnesiaSystem::new(
            SystemConfig::default()
                .with_server_seed(server_seed)
                .with_table_size(64),
        );
        for name in fleet.users_on_shard(shard) {
            let browser = format!("{name}.host.b");
            let phone = format!("{name}.host.p");
            host.add_browser(&browser);
            host.add_phone(&phone, phone_seed(fleet_seed, &name));
            host.setup_user(&name, &format!("mp-{name}"), &browser, &phone)
                .expect("host setup");
            for a in 0..2 {
                let (u, d) = acct(&name, a);
                host.add_account(&browser, u, d, PasswordPolicy::default())
                    .expect("host add account");
            }
            for a in 0..2 {
                let (u, d) = acct(&name, a);
                let outcome = host
                    .generate_password(&browser, &phone, &u, &d)
                    .expect("host generate");
                let host_password = outcome.password;
                let fleet_password = fleet_passwords
                    .iter()
                    .find(|(n, idx, _)| *n == name && *idx == a)
                    .map(|(_, _, p)| p)
                    .expect("fleet generated this account");
                assert_eq!(
                    fleet_password.as_str(),
                    host_password.as_str(),
                    "shard {shard} user {name} account {a}: fleet and single-host disagree"
                );
            }
        }
    }
}

/// A one-shard, one-instance fleet with no worker pool and a single host on
/// the same seed, with `users` set up in the same order and `accounts`
/// accounts each: the same deployment behind its two façades.
fn one_shard_twins(
    seed: u64,
    profile: NetProfile,
    cap: usize,
    attempts: u32,
    users: &[&str],
    accounts: usize,
) -> (Fleet, AmnesiaSystem) {
    let mut fleet = Fleet::new(
        FleetConfig::default()
            .with_seed(seed)
            .with_shards(1)
            .with_rendezvous(1)
            .with_shard_workers(0)
            .with_profile(profile.clone())
            .with_table_size(64)
            .with_max_inflight(cap)
            .with_generate_attempts(attempts),
    );
    let mut host = AmnesiaSystem::new(
        SystemConfig::default()
            .with_seed(seed)
            .with_profile(profile)
            .with_table_size(64)
            .with_max_inflight(cap),
    );
    for name in users {
        let (browser, phone) = (format!("{name}.b"), format!("{name}.p0"));
        fleet
            .add_user(name, &format!("mp-{name}"))
            .expect("fleet setup");
        host.add_browser(&browser);
        host.add_phone(&phone, phone_seed(seed, name));
        host.setup_user(name, &format!("mp-{name}"), &browser, &phone)
            .expect("host setup");
        for a in 0..accounts {
            let (u, d) = acct(name, a);
            fleet
                .add_account(name, u.clone(), d.clone(), PasswordPolicy::default())
                .expect("fleet account");
            host.add_account(&browser, u, d, PasswordPolicy::default())
                .expect("host account");
        }
    }
    (fleet, host)
}

/// One generation's outcome as the fleet reports it: account, password and
/// measured latency in µs, or the error text.
fn fleet_line(result: &Result<OpOutcome, FleetError>) -> String {
    match result {
        Ok(OpOutcome::Password {
            account,
            password,
            latency,
        }) => format!(
            "{account:?}:{}:{}us",
            password.as_str(),
            latency.as_micros()
        ),
        Ok(other) => format!("{other:?}"),
        Err(e) => format!("err:{e}"),
    }
}

/// [`fleet_line`] for the single host's outcome.
fn host_line(result: &Result<GenerationOutcome, SystemError>) -> String {
    match result {
        Ok(o) => format!(
            "{:?}:{}:{}us",
            o.account,
            o.password.as_str(),
            o.latency.as_micros()
        ),
        Err(e) => format!("err:{e}"),
    }
}

/// Count, sum, min and max of a window histogram
/// (`<prefix>.generate_password_us`: one sample per delivered password,
/// in µs).
type WindowStats = (u64, u128, Option<u64>, Option<u64>);

fn window_stats(registry: &amnesia_telemetry::Registry, name: &str) -> WindowStats {
    let h = &registry.snapshot().histograms[name];
    (h.count(), h.sum(), h.min(), h.max())
}

fn fleet_window(fleet: &Fleet) -> WindowStats {
    window_stats(fleet.telemetry(), "fleet.generate_password_us")
}

fn host_window(host: &AmnesiaSystem) -> WindowStats {
    window_stats(host.telemetry(), "system.generate_password_us")
}

/// The single host is a one-shard fleet. Sequentially (Wifi, 18
/// generations with rotations, three seeds) and through a shared window
/// (12-op batches with a quarter of the pushes dropped, 3 attempts, caps 1,
/// 4 and 64), both façades give every op the same password and latency,
/// record window histograms with the same count, sum, min and max, and end
/// at the same simulated instant.
#[test]
fn single_host_is_a_one_shard_fleet() {
    let users = ["alice", "bob"];
    for seed in [0x5e1, 0x5e2, 0x5e3] {
        let (mut fleet, mut host) =
            one_shard_twins(seed, NetProfile::wifi(), usize::MAX, 1, &users, 3);
        for i in 0..18 {
            let name = users[i % 2];
            let index = (i / 2) % 3;
            let (u, d) = acct(name, index);
            let browser = format!("{name}.b");
            if i % 5 == 4 {
                fleet.rotate(name, index).expect("fleet rotate");
                host.rotate_seed(&browser, u.clone(), d.clone())
                    .expect("host rotate");
            }
            let from_fleet = fleet
                .generate(name, index)
                .map(|(account, password, latency)| OpOutcome::Password {
                    account,
                    password,
                    latency,
                });
            let from_host = host.generate_password(&browser, &format!("{name}.p0"), &u, &d);
            assert_eq!(
                fleet_line(&from_fleet),
                host_line(&from_host),
                "seed {seed:#x} generation {i}"
            );
        }
        assert_eq!(fleet_window(&fleet), host_window(&host), "seed {seed:#x}");
        assert_eq!(fleet.now(), host.now(), "seed {seed:#x}");
    }

    let lossy = NetProfile::wifi().with_push_drop_probability(0.25);
    for cap in [1, 4, 64] {
        let (mut fleet, mut host) = one_shard_twins(0x5e4, lossy.clone(), cap, 3, &["alice"], 12);
        let ops: Vec<FleetOp> = (0..12)
            .map(|account| FleetOp::Generate {
                user: "alice".into(),
                account,
            })
            .collect();
        let requests: Vec<GenerationRequest> = (0..12)
            .map(|a| {
                let (username, domain) = acct("alice", a);
                GenerationRequest {
                    browser: "alice.b".into(),
                    phone: "alice.p0".into(),
                    username,
                    domain,
                }
            })
            .collect();
        for batch in 0..2 {
            let from_fleet: Vec<String> = fleet.run_ops(&ops).iter().map(fleet_line).collect();
            let from_host: Vec<String> = host
                .generate_passwords_concurrent(&requests, 3)
                .iter()
                .map(host_line)
                .collect();
            assert_eq!(from_fleet, from_host, "cap {cap} batch {batch}");
        }
        assert_eq!(fleet_window(&fleet), host_window(&host), "cap {cap}");
        assert_eq!(fleet.now(), host.now(), "cap {cap}");
    }
}

/// Recovery onto a replacement endpoint name that is already registered
/// must fail before the session begins: the server has not taken the
/// backup, the old registration is not purged, and the user's phone keeps
/// generating the same password.
#[test]
fn recovery_onto_a_taken_endpoint_name_fails_before_anything_changes() {
    let mut fleet = small_fleet(0x7a4e, 2, 2);
    fleet.add_user("alice", "mp").expect("setup");
    let (u, d) = acct("alice", 0);
    fleet
        .add_account("alice", u, d, PasswordPolicy::default())
        .expect("account");
    let (_, before, _) = fleet.generate("alice", 0).expect("generate");

    // The first replacement would be installed as "alice.p1".
    fleet.net_mut().register("alice.p1");
    let err = fleet
        .recover("alice")
        .expect_err("the replacement's name is taken");
    assert!(err.to_string().contains("already registered"), "{err}");

    assert_eq!(fleet.user_phone("alice"), Some("alice.p0"));
    let (_, after, _) = fleet.generate("alice", 0).expect("generate after");
    assert_eq!(after, before);
}

/// A push for a registration no instance knows is the rendezvous' own
/// rejection: the instance it reached counts it in
/// `rendezvous.push_rejected`, and the fault carries its error text.
#[test]
fn an_unroutable_push_is_rejected_by_the_rendezvous_itself() {
    let mut fleet = small_fleet(0x0bad, 2, 2);
    fleet.add_user("alice", "mp").expect("setup");
    let foreign = RendezvousServer::new("elsewhere", 11).register_device("nobody");
    let envelope = PushEnvelope {
        registration_id: foreign.clone(),
        data: b"request R".to_vec(),
    };
    let shard = fleet.user_shard("alice").expect("routed");
    let local = fleet.shard_local_gcm(shard).expect("local instance");
    fleet
        .net_mut()
        .send(
            &format!("shard-{shard}"),
            &format!("gcm-{local}"),
            envelope.to_wire().expect("encode"),
        )
        .expect("the shard pushes through its local instance");
    // Any flow drives the network; the push lands before the login settles.
    fleet.login("alice").expect("login");

    let snapshot = fleet.telemetry().snapshot();
    assert_eq!(snapshot.counters["rendezvous.push_rejected"], 1);
    assert!(!snapshot.counters.contains_key("fleet.rendezvous.rejected"));
    assert!(
        fleet
            .faults()
            .iter()
            .any(|f| f.contains(&format!("{foreign:?}"))),
        "{:?}",
        fleet.faults()
    );
}

/// A user whose home rendezvous instance differs from their shard's local
/// instance exercises the forwarding hop; the per-shard forward counter
/// and the fleet-wide forwarded counter must both see it.
#[test]
fn cross_instance_pushes_are_forwarded() {
    let mut fleet = small_fleet(0xf0f0, 2, 2);
    // Pin alice's home rendezvous instance to NOT be her shard's local one,
    // so every push must take the forwarding hop.
    let shard_name = fleet
        .router_mut()
        .shard_for("alice")
        .expect("ring populated")
        .to_string();
    let shard: usize = shard_name
        .trim_start_matches("shard-")
        .parse()
        .expect("shard index");
    let local = fleet.shard_local_gcm(shard).expect("local gcm");
    let home = (local + 1) % fleet.rendezvous_count();
    fleet
        .add_user_with_home("alice", "mp", home)
        .expect("setup with pinned home");
    assert_eq!(fleet.user_shard("alice"), Some(shard));
    let (u, d) = acct("alice", 0);
    fleet
        .add_account("alice", u, d, PasswordPolicy::default())
        .expect("add account");
    fleet.generate("alice", 0).expect("generate");

    let snapshot = fleet.telemetry().snapshot();
    let forwarded = snapshot.counters["fleet.rendezvous.forwarded"];
    assert!(forwarded > 0, "push must take the forwarding hop");
    let per_shard = snapshot.counters[&format!("fleet.shard.{shard}.forwards")];
    assert!(per_shard > 0, "origin shard must be credited");
}

#[test]
fn admission_rejects_beyond_window_plus_queue() {
    let mut fleet = Fleet::new(
        FleetConfig::default()
            .with_seed(0xad31)
            .with_shards(2)
            .with_table_size(64)
            .with_max_inflight(2)
            .with_admission_queue(2),
    );
    for name in ["u1", "u2", "u3", "u4"] {
        fleet.add_user(name, "mp").expect("setup");
        let (u, d) = acct(name, 0);
        fleet
            .add_account(name, u, d, PasswordPolicy::default())
            .expect("account");
    }
    // 8 distinct ops offered, budget = 2 in flight + 2 queued → 4 shed.
    let ops: Vec<FleetOp> = (0..8)
        .map(|i| FleetOp::Login {
            user: format!("u{}", (i % 4) + 1),
        })
        .collect();
    let results = fleet.run_ops(&ops);
    let rejected = results
        .iter()
        .filter(|r| matches!(r, Err(FleetError::AdmissionRejected)))
        .count();
    assert_eq!(rejected, 4, "budget is max_inflight + admission_queue");
    let snapshot = fleet.telemetry().snapshot();
    assert_eq!(snapshot.counters["fleet.admission.rejected"], 4);
    assert_eq!(
        snapshot.gauges["fleet.session.inflight_peak"], 2,
        "the window holds max_inflight sessions at most"
    );
    let completed = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(completed, 4);
}

#[test]
fn duplicate_inflight_generations_coalesce_to_one_password() {
    let mut fleet = small_fleet(0xc0a1, 1, 1);
    fleet.add_user("alice", "mp").expect("setup");
    let (u, d) = acct("alice", 0);
    fleet
        .add_account("alice", u, d, PasswordPolicy::default())
        .expect("account");
    let op = FleetOp::Generate {
        user: "alice".into(),
        account: 0,
    };
    let results = fleet.run_ops(&[op.clone(), op]);
    let passwords: Vec<_> = results
        .iter()
        .map(|r| match r {
            Ok(OpOutcome::Password { password, .. }) => password.as_str().to_string(),
            other => panic!("expected a password, got {other:?}"),
        })
        .collect();
    assert_eq!(passwords[0], passwords[1]);
    assert_eq!(
        fleet.telemetry().snapshot().counters["fleet.admission.coalesced"],
        1,
        "the duplicate must ride the in-flight session, not open its own"
    );
}

#[test]
fn per_shard_telemetry_appears_in_snapshot() {
    let mut fleet = small_fleet(0x7e1e, 4, 2);
    for k in 0..8 {
        let name = format!("user-{k}");
        fleet.add_user(&name, "mp").expect("setup");
        let (u, d) = acct(&name, 0);
        fleet
            .add_account(&name, u, d, PasswordPolicy::default())
            .expect("account");
        fleet.generate(&name, 0).expect("generate");
    }
    let snapshot = fleet.telemetry().snapshot();
    let mut total_routed = 0;
    for i in 0..4 {
        total_routed += snapshot.counters[&format!("fleet.shard.{i}.sessions_routed")];
    }
    // 8 setups + 8 add-accounts + 8 generations.
    assert_eq!(total_routed, 24);
    assert!(snapshot.counters["fleet.generations"] >= 8);
}

/// Telemetry keys are bounded by the fleet's shape, not its population:
/// two fleets with the same shards, rendezvous instances and seed, one
/// with 4 users and one with 32, each user generating once, name the same
/// counters, gauges and histograms.
#[test]
fn telemetry_keys_do_not_scale_with_the_population() {
    fn keys(users: usize) -> [Vec<String>; 3] {
        let mut fleet = small_fleet(0x6e75, 2, 2);
        for k in 0..users {
            let name = format!("user-{k}");
            fleet.add_user(&name, "mp").expect("setup");
            let (u, d) = acct(&name, 0);
            fleet
                .add_account(&name, u, d, PasswordPolicy::default())
                .expect("account");
            fleet.generate(&name, 0).expect("generate");
        }
        let snapshot = fleet.telemetry().snapshot();
        [
            snapshot.counters.into_keys().collect(),
            snapshot.gauges.into_keys().collect(),
            snapshot.histograms.into_keys().collect(),
        ]
    }
    let (small, large) = (keys(4), keys(32));
    for (kind, (small, large)) in ["counters", "gauges", "histograms"]
        .iter()
        .zip(small.iter().zip(&large))
    {
        let only_small: Vec<&String> = small.iter().filter(|k| !large.contains(k)).collect();
        let only_large: Vec<&String> = large.iter().filter(|k| !small.contains(k)).collect();
        assert!(
            only_small.is_empty() && only_large.is_empty(),
            "{kind} differ: only at 4 users {only_small:?}, only at 32 users {only_large:?}"
        );
    }
}

#[test]
fn mixed_op_kinds_complete() {
    let mut fleet = small_fleet(0x111, 2, 2);
    for name in ["alice", "bob"] {
        fleet.add_user(name, "mp").expect("setup");
        let (u, d) = acct(name, 0);
        fleet
            .add_account(name, u, d, PasswordPolicy::default())
            .expect("account");
    }
    let ops = vec![
        FleetOp::Login {
            user: "alice".into(),
        },
        FleetOp::Generate {
            user: "bob".into(),
            account: 0,
        },
        FleetOp::Rotate {
            user: "alice".into(),
            account: 0,
        },
        FleetOp::Recover { user: "bob".into() },
    ];
    let results = fleet.run_ops(&ops);
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "op {i} failed: {r:?}");
    }
    assert!(matches!(results[0], Ok(OpOutcome::LoggedIn)));
    assert!(matches!(results[1], Ok(OpOutcome::Password { .. })));
    assert!(matches!(results[2], Ok(OpOutcome::SeedRotated)));
    assert!(matches!(results[3], Ok(OpOutcome::Recovered { .. })));
    // After recovery bob's replacement phone serves generations.
    fleet.generate("bob", 0).expect("post-recovery generate");
}

/// `run_ops`' admission order within one wave: a `Recover` parks until
/// every in-flight op on its user settles, later ops on accounts it does
/// not hold overtake it, a duplicate generation coalesces onto the one in
/// flight, and a `Rotate` holds its account until it lands. Each password
/// is checked against the ones generated before and after the wave (bob's
/// recovery and alice's rotation both change theirs).
#[test]
fn run_ops_admission_order_is_pinned() {
    let mut fleet = small_fleet(0xad31, 1, 1);
    for name in ["alice", "bob"] {
        fleet.add_user(name, "mp").expect("setup");
        for a in 0..2 {
            let (u, d) = acct(name, a);
            fleet
                .add_account(name, u, d, PasswordPolicy::default())
                .expect("account");
        }
    }
    fn passwords(fleet: &mut Fleet) -> Vec<(&'static str, usize, String)> {
        let mut out = Vec::new();
        for name in ["alice", "bob"] {
            for a in 0..2 {
                let (_, password, _) = fleet.generate(name, a).expect("generate");
                out.push((name, a, password.as_str().to_string()));
            }
        }
        out
    }
    let before = passwords(&mut fleet);
    let generate = |user: &str, account| FleetOp::Generate {
        user: user.into(),
        account,
    };
    let ops = [
        generate("bob", 0),
        FleetOp::Recover { user: "bob".into() },
        generate("bob", 1),
        generate("bob", 0),
        FleetOp::Rotate {
            user: "alice".into(),
            account: 0,
        },
        generate("alice", 0),
    ];
    let results = fleet.run_ops(&ops);
    let after = passwords(&mut fleet);

    let lookup = |table: &[(&str, usize, String)], user: &str, account: usize| {
        table
            .iter()
            .find(|(u, a, _)| *u == user && *a == account)
            .map(|(_, _, p)| p.clone())
            .expect("generated")
    };
    // Which side of the wave each op's password belongs to.
    let expect_password = |i: usize, user: &str, account: usize, pre_wave: bool| {
        let (pre, post) = (
            lookup(&before, user, account),
            lookup(&after, user, account),
        );
        assert_ne!(
            pre, post,
            "op {i}: the wave changes {user}'s account {account}"
        );
        let got = password_of(i, &results[i]).unwrap_or_else(|| panic!("op {i}: {:?}", results[i]));
        let want = if pre_wave { pre } else { post };
        assert_eq!(got, want, "op {i} ({user} {account}, pre-wave {pre_wave})");
    };
    expect_password(0, "bob", 0, true);
    assert!(
        matches!(results[1], Ok(OpOutcome::Recovered { credentials: 2 })),
        "op 1: {:?}",
        results[1]
    );
    // Op 2 overtakes the parked recovery; op 3 rides op 0's session.
    expect_password(2, "bob", 1, true);
    expect_password(3, "bob", 0, true);
    assert!(
        matches!(results[4], Ok(OpOutcome::SeedRotated)),
        "op 4: {:?}",
        results[4]
    );
    expect_password(5, "alice", 0, false);
    assert_eq!(
        fleet.telemetry().snapshot().counters["fleet.admission.coalesced"],
        1
    );
    // Alice's other account is untouched by the wave.
    assert_eq!(lookup(&before, "alice", 1), lookup(&after, "alice", 1));
}

/// The shared-window fleet: 12 users with 2 accounts each on one shard
/// behind an 8-session window. The shard pushes through rendezvous
/// instance 0, which forwards to instance 1 for the users homed there. A
/// 2 s session timeout makes lost pushes surface quickly.
fn window_fleet(profile: NetProfile, attempts: u32) -> Fleet {
    let mut fleet = Fleet::new(
        FleetConfig::default()
            .with_seed(0x71e5)
            .with_shards(1)
            .with_rendezvous(2)
            .with_profile(profile)
            .with_table_size(64)
            .with_max_inflight(8)
            .with_generate_attempts(attempts)
            .with_session_timeout(SimDuration::from_micros(2_000_000)),
    );
    for k in 0..12 {
        let name = format!("user-{k}");
        fleet.add_user(&name, &format!("mp-{name}")).expect("setup");
        for a in 0..2 {
            let (u, d) = acct(&name, a);
            fleet
                .add_account(&name, u, d, PasswordPolicy::default())
                .expect("account");
        }
    }
    fleet
}

/// 40 generations over the 24 accounts, repeats included, so several
/// sessions share the window and some duplicates coalesce.
fn window_ops() -> Vec<FleetOp> {
    (0..40)
        .map(|i| FleetOp::Generate {
            user: format!("user-{}", (i * 5) % 12),
            account: (i / 3) % 2,
        })
        .collect()
}

/// The password each op's account gets on a healthy fleet with the same
/// seed, in offer order.
fn healthy_passwords() -> Vec<String> {
    let mut fleet = window_fleet(NetProfile::lan(), 1);
    fleet
        .run_ops(&window_ops())
        .iter()
        .enumerate()
        .map(|(i, r)| password_of(i, r).unwrap_or_else(|| panic!("healthy op {i}: {r:?}")))
        .collect()
}

/// The password of result `i`, if it has one; panics on a non-password
/// success.
fn password_of(i: usize, result: &Result<OpOutcome, FleetError>) -> Option<String> {
    match result {
        Ok(OpOutcome::Password { password, .. }) => Some(password.as_str().to_string()),
        Ok(other) => panic!("op {i}: expected a password, got {other:?}"),
        Err(_) => None,
    }
}

/// Timers firing while several `run_ops` sessions share the window: with
/// rendezvous instance 1 down, every push forwarded to it is lost and its
/// session times out (taking any coalesced duplicates with it), while the
/// rest of the window completes. Each op settles exactly once, in offer
/// order, and a restart heals every op.
#[test]
fn outage_timeouts_settle_each_op_in_a_shared_window() {
    let healthy = healthy_passwords();
    let ops = window_ops();
    let mut fleet = window_fleet(NetProfile::lan(), 1);
    fleet.set_rendezvous_online(1, false);

    let results = fleet.run_ops(&ops);
    assert_eq!(results.len(), ops.len());
    let mut failed = 0;
    for (i, result) in results.iter().enumerate() {
        match password_of(i, result) {
            Some(password) => assert_eq!(password, healthy[i], "op {i} out of order"),
            None => {
                failed += 1;
                assert!(
                    matches!(
                        result,
                        Err(FleetError::System(SystemError::MissingReply { .. })
                            | FleetError::Coalesced(_))
                    ),
                    "op {i}: expected a typed timeout, got {result:?}"
                );
            }
        }
    }
    assert!(
        failed > 0 && failed < ops.len(),
        "some but not all ops must fail, {failed} of {} did",
        ops.len()
    );
    assert!(
        results
            .iter()
            .any(|r| matches!(r, Err(FleetError::Coalesced(_)))),
        "a timed-out session must fail its coalesced waiters too"
    );
    let snapshot = fleet.telemetry().snapshot();
    assert!(snapshot.counters["fleet.session.timeouts"] > 0);
    assert_eq!(snapshot.gauges["fleet.session.inflight"], 0);

    fleet.set_rendezvous_online(1, true);
    for (i, result) in fleet.run_ops(&ops).iter().enumerate() {
        assert_eq!(
            password_of(i, result).as_deref(),
            Some(healthy[i].as_str()),
            "op {i} after the restart"
        );
    }
}

/// Push drops attributed while several `run_ops` sessions share the
/// window: each lost push is retried within the attempt budget and every
/// op still returns its account's password, in offer order.
#[test]
fn push_drops_retry_within_a_shared_window() {
    let healthy = healthy_passwords();
    let mut fleet = window_fleet(NetProfile::lan().with_push_drop_probability(0.3), 8);
    for (i, result) in fleet.run_ops(&window_ops()).iter().enumerate() {
        assert_eq!(
            password_of(i, result).as_deref(),
            Some(healthy[i].as_str()),
            "op {i}: {result:?}"
        );
    }
    assert!(fleet.telemetry().snapshot().counters["fleet.generation_retries"] > 0);
}

/// Seed-replay determinism gate (pins the `nondet-iteration` hardening):
/// two fleets built from the same seed and driven through the same mixed
/// burst must produce identical outcomes, window histograms with identical
/// count, sum, min and max, and identical telemetry counters. Any
/// hash-order-dependent scheduling in the host event loop would make the
/// replay diverge.
#[test]
fn seed_replay_is_bit_for_bit_deterministic() {
    fn run_once(
        seed: u64,
    ) -> (
        Vec<String>,
        WindowStats,
        std::collections::BTreeMap<String, u64>,
    ) {
        let mut fleet = small_fleet(seed, 3, 2);
        for name in ["alice", "bob", "carol", "dave"] {
            fleet.add_user(name, &format!("mp-{name}")).expect("setup");
            for a in 0..2 {
                let (u, d) = acct(name, a);
                fleet
                    .add_account(name, u, d, PasswordPolicy::default())
                    .expect("account");
            }
        }
        let ops = vec![
            FleetOp::Generate {
                user: "alice".into(),
                account: 0,
            },
            FleetOp::Generate {
                user: "bob".into(),
                account: 1,
            },
            FleetOp::Rotate {
                user: "carol".into(),
                account: 0,
            },
            FleetOp::Generate {
                user: "carol".into(),
                account: 1,
            },
            FleetOp::Login {
                user: "dave".into(),
            },
            FleetOp::Generate {
                user: "dave".into(),
                account: 0,
            },
            FleetOp::Recover { user: "bob".into() },
            FleetOp::Generate {
                user: "alice".into(),
                account: 1,
            },
        ];
        let fingerprints: Vec<String> = fleet
            .run_ops(&ops)
            .into_iter()
            .map(|r| match r {
                Ok(OpOutcome::Password {
                    account,
                    password,
                    latency,
                }) => format!(
                    "password:{:?}:{}:{}us",
                    account,
                    password.as_str(),
                    latency.as_micros()
                ),
                Ok(other) => format!("{other:?}"),
                Err(e) => format!("err:{e:?}"),
            })
            .collect();
        (
            fingerprints,
            fleet_window(&fleet),
            fleet.telemetry().snapshot().counters,
        )
    }

    let first = run_once(0xd37e);
    let second = run_once(0xd37e);
    assert_eq!(first.0, second.0, "op outcomes diverged between replays");
    assert_eq!(
        first.1, second.1,
        "window histograms diverged between replays"
    );
    assert_eq!(first.2, second.2, "telemetry counters diverged");

    // A different seed must actually change the measurement stream —
    // otherwise the replay assertion above would be vacuous.
    let other = run_once(0x5eed);
    assert_ne!(first.1, other.1, "latencies insensitive to seed");
}

/// ISSUE 9: a fleet started with a durable directory persists each shard's
/// server state through the WAL; reopening a shard's directory after the
/// fleet is gone recovers the registered users from disk.
#[test]
fn durable_fleet_persists_shard_state_across_restart() {
    use amnesia_server::UserRecord;
    use amnesia_store::Database;

    let root =
        std::env::temp_dir().join(format!("amnesia-fleet-durable-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let users = ["alice", "bob", "carol"];
    {
        let mut fleet = Fleet::try_new(
            FleetConfig::default()
                .with_seed(0xd0d0)
                .with_shards(2)
                .with_rendezvous(1)
                .with_table_size(64)
                .with_durable_dir(&root),
        )
        .expect("durable fleet construction");
        for (i, name) in users.iter().enumerate() {
            fleet.add_user(name, "correct horse").expect("add user");
            let (u, d) = acct(name, 0);
            fleet
                .add_account(name, u, d, PasswordPolicy::default())
                .expect("add account");
            let (_, password, _) = fleet.generate(name, 0).expect("generate");
            assert!(!password.as_str().is_empty(), "user {i} generated nothing");
        }
        assert!(fleet.faults().is_empty(), "{:?}", fleet.faults());
    }

    // The fleet is gone; each shard directory alone must recover its slice
    // of the user registry, and the slices must cover every user exactly
    // once (consistent-hash routing is a partition).
    let mut recovered = Vec::new();
    for shard in 0..2 {
        let dir = root.join(format!("shard-{shard}"));
        let db = Database::open_durable(&dir).expect("reopen shard store");
        let table = db.table::<String, UserRecord>("users");
        for name in users {
            if table
                .get(&name.to_string())
                .expect("decode user row")
                .is_some()
            {
                recovered.push(name);
            }
        }
    }
    recovered.sort_unstable();
    assert_eq!(recovered, users, "every user must be on exactly one shard");
    let _ = std::fs::remove_dir_all(&root);
}

/// The simulated timeline of the `seed_replay_is_bit_for_bit_deterministic`
/// scenario at seed `0xd37e` (3 shards, 2 rendezvous instances, a mixed
/// burst with a rotation, a login and a recovery), pinned as one SHA-256
/// over the op outcomes with their measured latencies in µs, the faults,
/// every counter and gauge, and the sorted histogram names (histogram
/// values are left out: some are wall-clock spans). A change to the order
/// of events, a simulated time, a byte of a password or the set of metric
/// keys changes the digest.
#[test]
fn fleet_timeline_is_pinned() {
    let mut fleet = small_fleet(0xd37e, 3, 2);
    for name in ["alice", "bob", "carol", "dave"] {
        fleet.add_user(name, &format!("mp-{name}")).expect("setup");
        for a in 0..2 {
            let (u, d) = acct(name, a);
            fleet
                .add_account(name, u, d, PasswordPolicy::default())
                .expect("account");
        }
    }
    let generate = |user: &str, account| FleetOp::Generate {
        user: user.into(),
        account,
    };
    let ops = vec![
        generate("alice", 0),
        generate("bob", 1),
        FleetOp::Rotate {
            user: "carol".into(),
            account: 0,
        },
        generate("carol", 1),
        FleetOp::Login {
            user: "dave".into(),
        },
        generate("dave", 0),
        FleetOp::Recover { user: "bob".into() },
        generate("alice", 1),
    ];
    let mut lines: Vec<String> = fleet
        .run_ops(&ops)
        .into_iter()
        .map(|r| match r {
            Ok(OpOutcome::Password {
                account,
                password,
                latency,
            }) => format!(
                "password:{:?}:{}:{}us",
                account,
                password.as_str(),
                latency.as_micros()
            ),
            Ok(other) => format!("{other:?}"),
            Err(e) => format!("err:{e:?}"),
        })
        .collect();
    lines.extend(fleet.faults().iter().map(|f| format!("fault:{f}")));
    let snapshot = fleet.telemetry().snapshot();
    lines.extend(
        snapshot
            .counters
            .iter()
            .map(|(name, v)| format!("counter:{name}={v}")),
    );
    lines.extend(
        snapshot
            .gauges
            .iter()
            .map(|(name, v)| format!("gauge:{name}={v}")),
    );
    lines.extend(
        snapshot
            .histograms
            .keys()
            .map(|name| format!("histogram:{name}")),
    );
    let digest = amnesia_crypto::hex::encode(&amnesia_crypto::sha256(lines.join("\n").as_bytes()));
    assert_eq!(
        digest, "0ae8d600ab4be15f188e5d4c0c4743272734b00812530598734ceaf418194a00",
        "{lines:#?}"
    );
}
