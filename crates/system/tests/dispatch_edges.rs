//! Edge cases of the deployment's dispatch and configuration layer.

use amnesia_core::{CharacterTable, Domain, PasswordPolicy, Username};
use amnesia_rendezvous::{PushEnvelope, RendezvousServer};
use amnesia_server::protocol::ToServer;
use amnesia_store::codec::{self, Record};
use amnesia_system::{AmnesiaSystem, NetProfile, SystemConfig, GCM_ENDPOINT, SERVER_ENDPOINT};

fn base(seed: u64) -> AmnesiaSystem {
    let mut sys = AmnesiaSystem::new(SystemConfig::default().with_seed(seed).with_table_size(64));
    sys.add_browser("browser");
    sys.add_phone("phone", seed + 1);
    sys.setup_user("alice", "mp", "browser", "phone").unwrap();
    sys
}

#[test]
fn frames_to_a_removed_phone_become_faults_not_panics() {
    let mut sys = base(1);
    let u = Username::new("alice").unwrap();
    let d = Domain::new("gone.example.com").unwrap();
    sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
        .unwrap();

    // The phone vanishes (powered off / stolen) but its endpoint and GCM
    // registration remain — the push is delivered into the void.
    sys.remove_phone("phone");
    let err = sys
        .generate_password("browser", "phone", &u, &d)
        .unwrap_err();
    // The flow fails cleanly with a missing-reply error…
    assert!(err.to_string().contains("PasswordReady"), "{err}");
    // …and the undeliverable push is recorded as a dispatch fault.
    assert!(
        sys.faults().iter().any(|f| f.contains("phone")),
        "push to a dead endpoint must be recorded: {:?}",
        sys.faults()
    );
}

#[test]
fn channel_key_export_unknown_pair_is_none() {
    let sys = base(2);
    assert!(sys
        .export_channel_keys_for_attack_model("nonexistent", SERVER_ENDPOINT)
        .is_none());
    assert!(sys
        .export_channel_keys_for_attack_model("browser", SERVER_ENDPOINT)
        .is_some());
    // The rendezvous legs deliberately have no channel (GCM must read the
    // envelope) — there is nothing to export.
    assert!(sys
        .export_channel_keys_for_attack_model(SERVER_ENDPOINT, GCM_ENDPOINT)
        .is_none());
}

#[test]
fn flows_against_unknown_components_error_cleanly() {
    let mut sys = base(3);
    let u = Username::new("alice").unwrap();
    let d = Domain::new("x.example.com").unwrap();
    assert!(sys
        .generate_password("no-such-browser", "phone", &u, &d)
        .is_err());
    assert!(sys
        .enable_generation_session("alice", "no-such-phone", "browser", 1)
        .is_err());
    assert!(sys
        .store_chosen_password("browser", "no-such-phone", u, d, "pw")
        .is_err());
}

#[test]
fn vault_store_requires_login() {
    let mut sys = AmnesiaSystem::new(SystemConfig::default().with_seed(4).with_table_size(64));
    sys.add_browser("fresh-browser");
    sys.add_phone("phone", 5);
    let err = sys
        .store_chosen_password(
            "fresh-browser",
            "phone",
            Username::new("alice").unwrap(),
            Domain::new("d.example.com").unwrap(),
            "pw",
        )
        .unwrap_err();
    assert!(err.to_string().contains("session"), "{err}");
}

#[test]
#[should_panic(expected = "probability")]
fn invalid_push_drop_probability_panics() {
    let _ = NetProfile::lan().with_push_drop_probability(1.5);
}

#[test]
fn outcome_debug_does_not_leak_nothing_useful() {
    let mut sys = base(6);
    let u = Username::new("alice").unwrap();
    let d = Domain::new("dbg.example.com").unwrap();
    sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
        .unwrap();
    let outcome = sys.generate_password("browser", "phone", &u, &d).unwrap();
    // GenerationOutcome's Debug goes through GeneratedPassword's redacted
    // Debug — the password text must not appear.
    let dbg = format!("{outcome:?}");
    assert!(!dbg.contains(outcome.password.as_str()));
    assert!(dbg.contains("GenerationOutcome"));
}

#[test]
fn session_grant_for_unknown_user_rejected_over_wire() {
    let mut sys = base(7);
    let err = sys
        .enable_generation_session("nobody", "phone", "browser", 3)
        .unwrap_err();
    assert!(err.to_string().contains("unknown user"), "{err}");
}

#[test]
fn system_debug_summarizes_topology() {
    let sys = base(8);
    let dbg = format!("{sys:?}");
    assert!(dbg.contains("phone"));
    assert!(dbg.contains("browser"));
}

#[test]
fn recovery_onto_a_taken_endpoint_name_fails_before_anything_changes() {
    let mut sys = base(9);
    let u = Username::new("alice").unwrap();
    let d = Domain::new("keep.example.com").unwrap();
    sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
        .unwrap();
    let before = sys.generate_password("browser", "phone", &u, &d).unwrap();

    // "phone" is alice's current phone: installing a replacement under that
    // name cannot succeed, so the flow must refuse before the server takes
    // the backup or the rendezvous forgets the old registration.
    let err = sys
        .recover_phone("alice", "mp", "browser", "phone", 99)
        .unwrap_err();
    assert!(err.to_string().contains("already registered"), "{err}");

    let after = sys.generate_password("browser", "phone", &u, &d).unwrap();
    assert_eq!(after.password, before.password);
}

#[test]
fn a_push_for_an_unknown_registration_is_rejected_by_the_rendezvous() {
    let mut sys = base(10);
    // A registration some other rendezvous service issued: this one has
    // never heard of it.
    let foreign = RendezvousServer::new("elsewhere", 11).register_device("nobody");
    let envelope = PushEnvelope {
        registration_id: foreign.clone(),
        data: b"request R".to_vec(),
    };
    sys.net_mut()
        .send(SERVER_ENDPOINT, GCM_ENDPOINT, envelope.to_wire().unwrap())
        .unwrap();
    sys.pump();

    assert_eq!(sys.faults().len(), 1, "{:?}", sys.faults());
    assert!(
        sys.faults()[0].contains(&format!("{foreign:?}")),
        "the fault must name the registration: {:?}",
        sys.faults()
    );
    let snapshot = sys.telemetry().snapshot();
    assert_eq!(snapshot.counters["rendezvous.push_rejected"], 1);
}

/// A deployment with plaintext channels, so a test can put its own bytes on
/// the browser's link to the server.
fn unsealed(seed: u64) -> AmnesiaSystem {
    let config = SystemConfig::default()
        .with_seed(seed)
        .with_table_size(64)
        .with_secure_channels(false);
    let mut sys = AmnesiaSystem::new(config);
    sys.add_browser("browser");
    sys.add_phone("phone", seed + 1);
    sys.setup_user("alice", "mp", "browser", "phone").unwrap();
    sys
}

/// An `AddAccount` frame from the logged-in browser whose bytes at the
/// encoding of `valid` are replaced by `patch`: a value no constructor
/// would build, in the place the wire puts it.
fn patched_add_account(
    sys: &AmnesiaSystem,
    username: &Username,
    domain: &Domain,
    valid: &[u8],
    patch: &[u8],
) -> Vec<u8> {
    let message = ToServer::AddAccount {
        session: sys
            .browser_ref("browser")
            .unwrap()
            .session()
            .unwrap()
            .clone(),
        username: username.clone(),
        domain: domain.clone(),
        policy: PasswordPolicy::default(),
        request_id: 900,
        reply_to: "browser".into(),
    };
    let wire = message.to_wire().unwrap();
    let at = wire
        .windows(valid.len())
        .position(|w| w == valid)
        .expect("the valid encoding is in the frame");
    [&wire[..at], patch, &wire[at + valid.len()..]].concat()
}

/// A policy whose character table is empty would divide by zero in
/// `PasswordPolicy::render` at the account's first generation; decoding
/// runs the constructor's checks, so such a frame is a dispatch fault and
/// the account never exists.
#[test]
fn a_policy_with_no_characters_off_the_wire_is_a_fault_not_an_account() {
    let mut sys = unsealed(12);
    let u = Username::new("alice").unwrap();
    let d = Domain::new("empty-table.example.com").unwrap();
    let valid = codec::to_bytes(&CharacterTable::full()).unwrap();
    let mut empty = Vec::new();
    Vec::<char>::new().encode(&mut empty);
    let frame = patched_add_account(&sys, &u, &d, &valid, &empty);
    sys.net_mut()
        .send("browser", SERVER_ENDPOINT, frame)
        .unwrap();
    sys.pump();

    let err = sys
        .generate_password("browser", "phone", &u, &d)
        .unwrap_err();
    assert!(err.to_string().contains("no such managed account"), "{err}");
    assert!(
        sys.faults()
            .iter()
            .any(|f| f.contains("character table fails validation")),
        "{:?}",
        sys.faults()
    );
    let record = sys.server().user_record("alice").unwrap();
    assert!(record.find_account(&u, &d).is_none());
}

/// `R = H(µ ‖ \0 ‖ d ‖ \0 ‖ σ)` is injective only if neither name holds
/// the separator; a username carrying one off the wire is a fault.
#[test]
fn a_username_with_nul_off_the_wire_is_a_fault_not_an_account() {
    let mut sys = unsealed(13);
    let u = Username::new("al?ce").unwrap();
    let d = Domain::new("nul.example.com").unwrap();
    let frame = patched_add_account(&sys, &u, &d, b"al?ce", b"al\0ce");
    sys.net_mut()
        .send("browser", SERVER_ENDPOINT, frame)
        .unwrap();
    sys.pump();

    assert!(
        sys.faults()
            .iter()
            .any(|f| f.contains("username fails validation")),
        "{:?}",
        sys.faults()
    );
    let record = sys.server().user_record("alice").unwrap();
    assert!(record.accounts.is_empty(), "{:?}", record.accounts);
}
