//! Security invariants across the whole stack, including property-based
//! tests of the generative core on the in-repo `amnesia-testkit` harness.

use amnesia::core::{
    derive_password, AccountEntry, CharClass, CharacterTable, Domain, EntryTable, OnlineId,
    PasswordPolicy, PasswordRequest, Seed, Username,
};
use amnesia::crypto::SecretRng;
use amnesia_testkit::{for_all, require, require_eq, require_ne, Gen};

const CASES: u32 = 64;

const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";

fn arb_name(g: &mut Gen) -> String {
    let len = g.usize_in(1, 24);
    (0..len).map(|_| *g.pick(NAME_CHARS) as char).collect()
}

/// Determinism: the pipeline is a pure function of its five inputs.
#[test]
fn pipeline_deterministic() {
    for_all("pipeline deterministic", CASES, |g: &mut Gen| {
        let user = arb_name(g);
        let domain = arb_name(g);
        let mut rng = SecretRng::seeded(g.next_u64());
        let entry = AccountEntry::new(
            Username::new(user).unwrap(),
            Domain::new(domain).unwrap(),
            Seed::random(&mut rng),
        );
        let oid = OnlineId::random(&mut rng);
        let table = EntryTable::random(&mut rng, 64);
        let policy = PasswordPolicy::default();
        let a = derive_password(&entry, &oid, &table, &policy).unwrap();
        let b = derive_password(&entry, &oid, &table, &policy).unwrap();
        require_eq!(a, b);
        Ok(())
    });
}

/// Every generated password satisfies its policy: exact length, only
/// charset members.
#[test]
fn generated_passwords_respect_policy() {
    for_all("passwords respect policy", CASES, |g: &mut Gen| {
        let user = arb_name(g);
        let length = g.usize_in(1, 32);
        let charset_mask = g.u64_in(1, 15) as u8;
        let classes: Vec<CharClass> = CharClass::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| charset_mask & (1 << i) != 0)
            .map(|(_, c)| c)
            .collect();
        let table = CharacterTable::from_classes(&classes).unwrap();
        let policy = PasswordPolicy::new(table.clone(), length).unwrap();

        let mut rng = SecretRng::seeded(g.next_u64());
        let entry = AccountEntry::new(
            Username::new(user).unwrap(),
            Domain::new("x.example.com").unwrap(),
            Seed::random(&mut rng),
        );
        let oid = OnlineId::random(&mut rng);
        let entry_table = EntryTable::random(&mut rng, 32);
        let password = derive_password(&entry, &oid, &entry_table, &policy).unwrap();
        require_eq!(password.len(), length);
        for c in password.as_str().chars() {
            require!(table.contains(c), "{c:?} not in charset");
        }
        Ok(())
    });
}

/// Avalanche: distinct seeds give distinct requests, tokens, passwords.
#[test]
fn distinct_seeds_never_collide() {
    for_all("distinct seeds never collide", CASES, |g: &mut Gen| {
        let mut rng = SecretRng::seeded(g.next_u64());
        let u = Username::new("u").unwrap();
        let d = Domain::new("d.example.com").unwrap();
        let s1 = Seed::random(&mut rng);
        let s2 = Seed::random(&mut rng);
        if s1 == s2 {
            return Ok(()); // 2^-256 chance; nothing to compare
        }
        let r1 = PasswordRequest::derive(&u, &d, &s1);
        let r2 = PasswordRequest::derive(&u, &d, &s2);
        require_ne!(r1.clone(), r2.clone());
        let table = EntryTable::random(&mut rng, 64);
        require_ne!(table.token(&r1).unwrap(), table.token(&r2).unwrap());
        Ok(())
    });
}

/// The request never leaks its inputs: R contains no substring of the
/// username or domain (it is a SHA-256 output).
#[test]
fn request_reveals_nothing_textual() {
    for_all("request reveals nothing", CASES, |g: &mut Gen| {
        let len = g.usize_in(6, 20);
        let user: String = (0..len)
            .map(|_| (g.usize_in(b'a' as usize, b'z' as usize) as u8) as char)
            .collect();
        let mut rng = SecretRng::seeded(g.next_u64());
        let u = Username::new(user.clone()).unwrap();
        let d = Domain::new("secret-site.example.com").unwrap();
        let r = PasswordRequest::derive(&u, &d, &Seed::random(&mut rng));
        let hex = r.to_hex();
        require!(!hex.contains(&user), "request leaks username");
        require!(!hex.contains("secret-site"), "request leaks domain");
        Ok(())
    });
}

#[test]
fn attack_matrix_is_the_paper_matrix() {
    // The single most important claim: only the designed two-factor
    // combinations (plus a broken browser-side TLS session) yield
    // passwords. Runs the full live-deployment scenario suite.
    let reports = amnesia::attacks::run_all(0x600D);
    let successes: Vec<_> = reports
        .iter()
        .filter(|r| r.success)
        .map(|r| r.vector)
        .collect();
    use amnesia::attacks::AttackVector::*;
    assert_eq!(
        successes,
        vec![
            BrokenHttpsBrowserLink,
            PhonePlusMasterPassword,
            ServerBreachPlusPhone,
            // Vault: the scenario internally asserts breach-alone fails;
            // success records the breach+phone combination.
            VaultServerBreach,
        ]
    );
}

#[test]
fn wiretaps_see_no_secrets_on_protected_channels() {
    use amnesia::core::{Domain, PasswordPolicy, Username};
    use amnesia::system::{AmnesiaSystem, SystemConfig, SERVER_ENDPOINT};

    let mut sys = AmnesiaSystem::new(SystemConfig::default().with_seed(9).with_table_size(128));
    sys.add_browser("browser");
    sys.add_phone("phone", 90);
    let tap_up = sys.net_mut().tap("browser", SERVER_ENDPOINT).unwrap();
    let tap_down = sys.net_mut().tap(SERVER_ENDPOINT, "browser").unwrap();
    let tap_phone = sys.net_mut().tap("phone", SERVER_ENDPOINT).unwrap();

    sys.setup_user("kate", "hunter2 master", "browser", "phone")
        .unwrap();
    let u = Username::new("kate").unwrap();
    let d = Domain::new("w.example.com").unwrap();
    sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
        .unwrap();
    let outcome = sys.generate_password("browser", "phone", &u, &d).unwrap();

    let password_bytes = outcome.password.as_str().as_bytes().to_vec();
    let mp_bytes = b"hunter2 master".to_vec();
    for tap in [&tap_up, &tap_down, &tap_phone] {
        for record in tap.records() {
            for needle in [&password_bytes, &mp_bytes] {
                assert!(
                    !record
                        .payload
                        .windows(needle.len())
                        .any(|w| w == needle.as_slice()),
                    "secret leaked on {} -> {}",
                    record.from,
                    record.to
                );
            }
        }
    }
}

#[test]
fn server_stores_no_reversible_credentials() {
    use amnesia::system::{AmnesiaSystem, SystemConfig};

    let mut sys = AmnesiaSystem::new(SystemConfig::default().with_seed(10).with_table_size(128));
    sys.add_browser("browser");
    sys.add_phone("phone", 100);
    sys.setup_user("liam", "the master password", "browser", "phone")
        .unwrap();

    let record = sys.server().user_record("liam").unwrap();
    // Verifiers, not plaintext.
    assert_ne!(record.mp_verifier.hash_bytes(), b"the master password");
    assert!(record.mp_verifier.verify(b"the master password"));
    assert!(!record.mp_verifier.verify(b"the master passwore"));
    let pid = sys.phone("phone").unwrap().pid().clone();
    let pid_verifier = record.pid_verifier.as_ref().unwrap();
    assert_ne!(pid_verifier.hash_bytes(), pid.as_bytes());
    assert!(pid_verifier.verify(pid.as_bytes()));
}

#[test]
fn kdf_policy_downgrade_is_rejected_at_login() {
    use amnesia::crypto::KdfPolicy;
    use amnesia::server::{AmnesiaServer, ServerConfig, ServerError};
    use amnesia::system::{AmnesiaSystem, SystemConfig};

    // A deployment provisioned at a memory-hard rung (tiny parameters so
    // the test stays fast; the *class* is what matters).
    let tiny = KdfPolicy::MemoryHard {
        log_n: 4,
        r: 1,
        p: 1,
    };
    let mut sys = AmnesiaSystem::new(
        SystemConfig::default()
            .with_seed(11)
            .with_table_size(128)
            .with_kdf_policy(tiny),
    );
    sys.add_browser("browser");
    sys.add_phone("phone", 200);
    sys.setup_user("mona", "a strong master password", "browser", "phone")
        .unwrap();
    assert_eq!(
        *sys.server()
            .user_record("mona")
            .unwrap()
            .mp_verifier
            .policy(),
        tiny
    );

    // Snapshot the database and "restart" the server misconfigured back to
    // the CPU-only rung. Login must fail loudly — never silently serve the
    // memory-hard record at reduced hardness.
    let path = std::env::temp_dir().join(format!(
        "amnesia-downgrade-{}-{:?}.db",
        std::process::id(),
        std::thread::current().id()
    ));
    sys.server().save_to(&path).unwrap();
    let mut downgraded = AmnesiaServer::open(
        ServerConfig {
            endpoint: "amnesia-server".into(),
            seed: 999,
            kdf_policy: KdfPolicy::PAPER,
        },
        &path,
    )
    .unwrap();
    assert!(matches!(
        downgraded.login("mona", "a strong master password"),
        Err(ServerError::PolicyDowngrade { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

/// At a memory-hard rung only the master password is stretched: the `Pid`
/// verifier is the paper's salted hash, since a 512-bit random `Pid` needs
/// no per-guess cost. Counts come from the deployment's own registry, which
/// no parallel test shares.
#[test]
fn pid_verifier_is_the_paper_hash_at_a_memory_hard_rung() {
    use amnesia::crypto::KdfPolicy;
    use amnesia::server::ServerError;
    use amnesia::system::{AmnesiaSystem, SystemConfig};

    let tiny = KdfPolicy::MemoryHard {
        log_n: 4,
        r: 1,
        p: 1,
    };
    let mut sys = AmnesiaSystem::new(
        SystemConfig::default()
            .with_seed(12)
            .with_table_size(128)
            .with_kdf_policy(tiny),
    );
    sys.add_browser("browser");
    sys.add_phone("phone", 300);
    sys.setup_user("nora", "first master password", "browser", "phone")
        .unwrap();

    let record = sys.server().user_record("nora").unwrap();
    assert_eq!(*record.mp_verifier.policy(), tiny);
    assert_eq!(
        *record.pid_verifier.as_ref().unwrap().policy(),
        KdfPolicy::PAPER
    );
    // Registration and login stretch the master password; pairing does not.
    let snapshot = sys.telemetry().snapshot();
    let samples = |key: &str| snapshot.histograms.get(key).map_or(0, |h| h.count());
    assert_eq!(samples("crypto.kdf.memhard.derive_us"), 2);
    assert_eq!(samples("crypto.kdf.cpu.derive_us"), 1);

    // Recovery onto a new phone verifies the old `Pid` and pairs the new
    // one with the paper's hash.
    let old_pid = sys.phone("phone").unwrap().pid().clone();
    sys.recover_phone("nora", "first master password", "browser", "phone2", 301)
        .unwrap();
    let record = sys.server().user_record("nora").unwrap();
    let pid_verifier = record.pid_verifier.as_ref().unwrap();
    assert_eq!(*pid_verifier.policy(), KdfPolicy::PAPER);
    let new_pid = sys.phone("phone2").unwrap().pid().clone();
    assert!(pid_verifier.verify(new_pid.as_bytes()));
    assert!(!pid_verifier.verify(old_pid.as_bytes()));

    // A master-password change refuses the old phone's `Pid` and accepts
    // the paired one.
    assert_eq!(
        sys.server_mut().change_master_password(
            "nora",
            "first master password",
            &old_pid,
            "second master password",
        ),
        Err(ServerError::PidMismatch)
    );
    sys.change_master_password(
        "nora",
        "first master password",
        "second master password",
        "browser",
        "phone2",
    )
    .unwrap();
    let record = sys.server().user_record("nora").unwrap();
    assert_eq!(*record.mp_verifier.policy(), tiny);
    assert!(record.mp_verifier.verify(b"second master password"));
}

#[test]
fn replayed_tokens_are_rejected_by_pending_tracking() {
    use amnesia::net::SimInstant;
    use amnesia::server::protocol::TokenResponse;
    use amnesia::server::{AmnesiaServer, ServerConfig};

    let mut server = AmnesiaServer::new(ServerConfig::default());
    server.register_user("mia", "mp").unwrap();
    // A token for a request that was never pushed must be rejected.
    let mut rng = SecretRng::seeded(0);
    let bogus = TokenResponse {
        request_id: 0,
        request: PasswordRequest::derive(
            &Username::new("mia").unwrap(),
            &Domain::new("x.example.com").unwrap(),
            &Seed::random(&mut rng),
        ),
        token: amnesia::core::Token::from_bytes(rng.bytes()),
        tstart: SimInstant::EPOCH,
    };
    assert!(server.receive_token(&bogus).is_err());
    assert_eq!(server.stats().tokens_rejected, 1);
}

#[test]
fn channel_tampering_is_detected_and_dropped() {
    use amnesia::net::SecureChannel;

    let mut tx = SecureChannel::new(b"shared", "c2s");
    let mut rx = SecureChannel::new(b"shared", "c2s");
    let mut sealed = tx.seal(b"RequestPassword{...}").unwrap();
    sealed[10] ^= 0x80;
    assert!(rx.open(&sealed).is_err());
}

/// The sliding-window tentpole property: an arbitrary permutation of a
/// sealed-frame stream, with arbitrary duplications mixed in, decrypts to
/// exactly the sent set — every frame accepted once, every extra copy
/// rejected as a replay, no nonce ever accepted twice.
#[test]
fn permuted_and_duplicated_streams_decrypt_to_exactly_the_sent_set() {
    use amnesia::net::{ChannelError, SecureChannel, REPLAY_WINDOW};

    for_all(
        "permuted stream decrypts exactly once",
        CASES,
        |g: &mut Gen| {
            let mut tx = SecureChannel::new(b"window secret", "c2s");
            let mut rx = SecureChannel::new(b"window secret", "c2s");
            let n = g.usize_in(1, REPLAY_WINDOW as usize / 2);
            let sealed: Vec<Vec<u8>> = (0..n)
                .map(|i| tx.seal(format!("frame {i}").as_bytes()).unwrap())
                .collect();
            // Delivery schedule: every frame once plus random duplicates,
            // shuffled (Fisher–Yates driven by the generator).
            let mut schedule: Vec<usize> = (0..n).collect();
            for _ in 0..g.usize_in(0, n) {
                schedule.push(g.usize_in(0, n - 1));
            }
            for i in (1..schedule.len()).rev() {
                let j = g.usize_in(0, i);
                schedule.swap(i, j);
            }

            let mut accepted = vec![0u32; n];
            for &i in &schedule {
                match rx.open(&sealed[i]) {
                    Ok(plain) => {
                        require_eq!(plain, format!("frame {i}").into_bytes());
                        accepted[i] += 1;
                    }
                    Err(ChannelError::Replayed { nonce }) => {
                        require_eq!(nonce, i as u64);
                        require_eq!(accepted[i], 1);
                    }
                    Err(e) => return Err(format!("unexpected channel error: {e}")),
                }
            }
            require!(
                accepted.iter().all(|&c| c == 1),
                "every sent frame must decrypt exactly once"
            );
            Ok(())
        },
    );
}

#[test]
fn replayed_wire_frames_are_rejected_systemwide() {
    use amnesia::system::{AmnesiaSystem, SystemConfig, SERVER_ENDPOINT};

    // Capture every genuine server→browser frame of a generation off the
    // wire, then re-inject the lot: each duplicate must be refused by the
    // channel's replay window, and no password may reach the browser twice.
    let mut sys = AmnesiaSystem::new(SystemConfig::default().with_seed(21).with_table_size(128));
    sys.add_browser("browser");
    sys.add_phone("phone", 210);
    sys.setup_user("nina", "mp", "browser", "phone").unwrap();
    let u = Username::new("nina").unwrap();
    let d = Domain::new("replay.example.com").unwrap();
    sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
        .unwrap();
    let tap = sys.net_mut().tap(SERVER_ENDPOINT, "browser").unwrap();
    sys.generate_password("browser", "phone", &u, &d).unwrap();

    // Step 6 is recorded for every PasswordReady the browser's channel
    // accepts.
    let step6 = |sys: &AmnesiaSystem| {
        sys.telemetry().snapshot().histograms["steps.step6_password_download_us"].count()
    };
    let deliveries_before = step6(&sys);
    let records = tap.records();
    assert!(!records.is_empty());
    let faults_before = sys.faults().len();
    for record in &records {
        sys.net_mut()
            .send(SERVER_ENDPOINT, "browser", record.payload.clone())
            .unwrap();
    }
    sys.pump();

    let new_faults = &sys.faults()[faults_before..];
    assert_eq!(new_faults.len(), records.len(), "{new_faults:?}");
    assert!(
        new_faults.iter().all(|f| f.contains("replayed")),
        "{new_faults:?}"
    );
    assert_eq!(
        step6(&sys),
        deliveries_before,
        "a replayed PasswordReady must never reach the browser again"
    );
}
