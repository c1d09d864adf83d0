//! Per-step latency breakdown of the Amnesia Figure 1 flow, produced from
//! the `amnesia-telemetry` registry rather than ad-hoc instrumentation.
//!
//! Runs instrumented simulated deployments under the calibrated Wifi and 4G
//! profiles (with a small push-drop probability so the retry path is
//! exercised), with a wiretap on the GCM→phone link so passive-observer
//! counters are non-zero, and prints one JSON document on stdout:
//! `{"wifi": <snapshot>, "4g": <snapshot>, "kdf_interactive": <snapshot>}`
//! where each snapshot follows the `amnesia-telemetry` schema (counters /
//! gauges / histograms with p50/p90/p99). A human-readable step table goes
//! to stderr, followed by a KDF section: per-policy-class derive-latency
//! histograms (`crypto.kdf.{cpu,memhard}.derive_us`) and the process-wide
//! derivation counters, with a mini-deployment run at the `interactive`
//! memory-hard rung so the memhard rows are non-zero. At that rung the
//! memhard histogram holds the master-password derivations, registration
//! and login; pairing derives the `Pid` verifier with the paper's salted
//! hash at every rung, so it lands in the cpu histogram.

use amnesia_core::{Domain, PasswordPolicy, Username};
use amnesia_crypto::KdfPolicy;
use amnesia_phone::ConfirmPolicy;
use amnesia_system::{AmnesiaSystem, NetProfile, SystemConfig, GCM_ENDPOINT};
use amnesia_telemetry::Snapshot;
use std::error::Error;

const TRIALS: usize = 30;
const RETRY_ATTEMPTS: u32 = 5;
const PUSH_DROP: f64 = 0.05;
const SEED: u64 = 0x7E1E;

/// The Fig. 1 step histograms, in protocol order, with display labels.
const STEPS: [(&str, &str); 8] = [
    ("steps.step1_request_upload_us", "1 request upload"),
    ("steps.step2_server_to_gcm_us", "2 server->GCM"),
    ("steps.step3_push_delivery_us", "3 push delivery"),
    ("steps.step4_token_upload_us", "4 token upload"),
    ("steps.step5_password_compute_us", "5 password compute"),
    ("steps.step6_password_download_us", "6 password download"),
    ("system.generate_password_us", "measured window"),
    ("system.generate_password_e2e_us", "end-to-end"),
];

fn run_profile(profile: NetProfile, seed: u64) -> Result<Snapshot, Box<dyn Error>> {
    let name = profile.name.clone();
    let mut system = AmnesiaSystem::new(
        SystemConfig::default()
            .with_seed(seed)
            .with_profile(profile.with_push_drop_probability(PUSH_DROP)),
    );
    system.add_browser("browser");
    system.add_phone("phone", seed.wrapping_add(1));
    system.setup_user("tester", "master password", "browser", "phone")?;
    system
        .phone_mut("phone")
        .ok_or("phone not installed")?
        .set_confirm_policy(ConfirmPolicy::AutoConfirm);

    let username = Username::new("tester")?;
    let domain = Domain::new("telemetry.example.com")?;
    system.add_account(
        "browser",
        username.clone(),
        domain.clone(),
        PasswordPolicy::default(),
    )?;

    // Passive observer on the push link: every delivered push also lands in
    // this wiretap, incrementing `net.wiretap_hits`.
    let _tap = system.net_mut().tap(GCM_ENDPOINT, "phone")?;

    for trial in 0..TRIALS {
        system
            .generate_password_with_retry("browser", "phone", &username, &domain, RETRY_ATTEMPTS)
            .map_err(|e| format!("{name} trial {trial}: {e}"))?;
    }
    Ok(system.telemetry().snapshot())
}

fn print_summary(name: &str, snap: &Snapshot) {
    eprintln!("== {name} ({TRIALS} generations, push drop {PUSH_DROP}) ==");
    eprintln!(
        "{:<22} {:>7} {:>10} {:>10} {:>10}",
        "step", "count", "p50", "p90", "p99"
    );
    for (key, label) in STEPS {
        let Some(h) = snap.histograms.get(key) else {
            continue;
        };
        let q = |p: f64| h.quantile(p).unwrap_or(0);
        eprintln!(
            "{:<22} {:>7} {:>8.1}ms {:>8.1}ms {:>8.1}ms",
            label,
            h.count(),
            q(0.5) as f64 / 1e3,
            q(0.9) as f64 / 1e3,
            q(0.99) as f64 / 1e3,
        );
    }
    for key in [
        "rendezvous.push_forwarded",
        "system.generation_retries",
        "net.frames_dropped",
        "net.wiretap_hits",
    ] {
        eprintln!("{key:<26} {}", snap.counters.get(key).copied().unwrap_or(0));
    }
    eprintln!();
}

/// A one-user deployment at the `interactive` memory-hard rung: enough to
/// populate the memhard derive histogram (registration and a login-path
/// verification) without slowing the report down. Pairing derives the `Pid`
/// verifier with the paper's salted hash, so its one sample lands in the
/// cpu histogram.
fn run_kdf_interactive() -> Result<Snapshot, Box<dyn Error>> {
    let mut system = AmnesiaSystem::new(
        SystemConfig::default()
            .with_seed(SEED.wrapping_add(0x200))
            .with_kdf_policy(KdfPolicy::INTERACTIVE),
    );
    system.add_browser("browser");
    system.add_phone("phone", SEED.wrapping_add(0x201));
    system.setup_user("kdf-tester", "master password", "browser", "phone")?;
    system
        .phone_mut("phone")
        .ok_or("phone not installed")?
        .set_confirm_policy(ConfirmPolicy::AutoConfirm);
    let username = Username::new("kdf-tester")?;
    let domain = Domain::new("kdf.example.com")?;
    system.add_account(
        "browser",
        username.clone(),
        domain.clone(),
        PasswordPolicy::default(),
    )?;
    system.generate_password_with_retry("browser", "phone", &username, &domain, RETRY_ATTEMPTS)?;
    Ok(system.telemetry().snapshot())
}

fn print_kdf_summary(cpu_snap: &Snapshot, memhard_snap: &Snapshot) {
    eprintln!("== KDF ladder (per-policy-class derive latency) ==");
    eprintln!(
        "{:<30} {:>7} {:>10} {:>10} {:>10}",
        "histogram", "count", "p50", "p90", "p99"
    );
    for (snap, key) in [
        (cpu_snap, "crypto.kdf.cpu.derive_us"),
        (memhard_snap, "crypto.kdf.memhard.derive_us"),
    ] {
        let Some(h) = snap.histograms.get(key) else {
            continue;
        };
        let q = |p: f64| h.quantile(p).unwrap_or(0);
        eprintln!(
            "{:<30} {:>7} {:>8.1}ms {:>8.1}ms {:>8.1}ms",
            key,
            h.count(),
            q(0.5) as f64 / 1e3,
            q(0.9) as f64 / 1e3,
            q(0.99) as f64 / 1e3,
        );
    }
    // Process-wide totals straight from the crypto crate's lock-free
    // counters (registry copies are per-deployment deltas of these).
    eprintln!(
        "crypto.kdf.cpu.derivations     {}",
        amnesia_crypto::stats::kdf_cpu_derivations()
    );
    eprintln!(
        "crypto.kdf.memhard.derivations {}",
        amnesia_crypto::stats::kdf_memhard_derivations()
    );
    eprintln!();
}

fn main() -> Result<(), Box<dyn Error>> {
    let wifi = run_profile(NetProfile::wifi(), SEED)?;
    let cell = run_profile(NetProfile::cellular_4g(), SEED.wrapping_add(0x100))?;
    let kdf = run_kdf_interactive()?;
    print_summary("wifi", &wifi);
    print_summary("4g", &cell);
    print_kdf_summary(&wifi, &kdf);
    println!(
        "{{\"wifi\":{},\"4g\":{},\"kdf_interactive\":{}}}",
        wifi.to_json(),
        cell.to_json(),
        kdf.to_json()
    );
    Ok(())
}
