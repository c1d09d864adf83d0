//! Committed crypto-throughput baseline for the allocation-free hot path.
//!
//! Times the three layers the midstate/fan-out work optimizes — per-message
//! HMAC with a precomputed [`HmacKey`], PBKDF2 at the deployment iteration
//! count, and an end-to-end simulated password generation — and writes one
//! JSON document (default `BENCH_CRYPTO.json` at the workspace root; the
//! committed copy is the regression baseline) with derived throughput
//! metrics:
//!
//! * `hmac_msgs_per_sec` — 256-byte messages MAC'd per second, key reused;
//! * `pbkdf2_iters_per_sec` — HMAC iterations per second inside a
//!   10 000-iteration PBKDF2-HMAC-SHA-256 derivation (32-byte output);
//! * `e2e_generate_p50_ns` / `e2e_generate_p99_ns` — wall-clock quantiles
//!   of one full simulated generation round trip;
//! * `drbg_next_u64` (in `raw`) — one `SecretRng::next_u64`, the draw
//!   behind every simulated frame latency;
//! * `scrypt_kats` — pass/fail of the RFC 7914 §12 known-answer vectors
//!   (1, 2, and 3, including N=16384/r=8/p=1), run in **every** mode;
//! * `kdf_ladder` — per-rung median derive latency for the
//!   [`KdfPolicy`] ladder plus the modeled attacker guess rate and
//!   slowdown versus the paper's salted hash.
//!
//! The binary self-validates: every metric must be finite and positive —
//! and every KAT must match — or it exits nonzero, so
//! `scripts/verify.sh --quick` can use it as a smoke test (`--quick`
//! shrinks sample counts; `--out <path>` redirects the report).

use amnesia_attacks::guessing::KdfAttackCost;
use amnesia_bench::timing::{Harness, Measurement};
use amnesia_core::{Domain, PasswordPolicy, Username};
use amnesia_crypto::{hex, kdf, pbkdf2_hmac_sha256, scrypt, HmacKey, KdfPolicy, SecretRng, Sha256};
use amnesia_phone::ConfirmPolicy;
use amnesia_system::{AmnesiaSystem, NetProfile, SystemConfig};
use std::hint::black_box;

/// Deployment-grade PBKDF2 cost (matches the server verifier default).
const PBKDF2_ITERS: u32 = 10_000;
const SEED: u64 = 0xBE7C;

/// One scrypt known-answer vector: `(name, password, salt, log_n, r, p,
/// expected-hex)`.
type ScryptKat = (
    &'static str,
    &'static [u8],
    &'static [u8],
    u8,
    u32,
    u32,
    &'static str,
);

/// RFC 7914 §12 known-answer vectors. Vector 4 (1 GiB) is left to the
/// crypto crate's ignored test.
const SCRYPT_KATS: &[ScryptKat] = &[
    ("rfc7914_v1", b"", b"", 4, 1, 1,
     "77d6576238657b203b19ca42c18a0497f16b4844e3074ae8dfdffa3fede21442fcd0069ded0948f8326a753a0fc81f17e8d3e0fb2e0d3628cf35e20c38d18906"),
    ("rfc7914_v2", b"password", b"NaCl", 10, 8, 16,
     "fdbabe1c9d3472007856e7190d01e9fe7c6ad7cbc8237830e77376634b3731622eaf30d92e22a3886ff109279d9830dac727afb94a83ee6d8360cbdfa2cc0640"),
    ("rfc7914_v3", b"pleaseletmein", b"SodiumChloride", 14, 8, 1,
     "7023bdcb3afd7348461c06cd81fd38ebfda8fbba904f8e3ea9b543f6545da1f2d5432955613f0fcf62d49705242a9af9e61e85dc0d651e40dfcf017b45575887"),
];

/// Runs every pinned KAT; any mismatch is a hard failure.
fn run_scrypt_kats() -> Result<(), String> {
    for &(name, password, salt, log_n, r, p, expected) in SCRYPT_KATS {
        let want = hex::decode(expected).map_err(|e| format!("{name}: bad vector hex: {e:?}"))?;
        let mut got = vec![0u8; want.len()];
        scrypt(password, salt, log_n, r, p, &mut got)
            .map_err(|e| format!("{name}: scrypt failed: {e}"))?;
        if got != want {
            return Err(format!(
                "{name}: scrypt KAT MISMATCH (N=2^{log_n}, r={r}, p={p}): got {}, want {expected}",
                hex::encode(&got)
            ));
        }
    }
    Ok(())
}

struct Options {
    quick: bool,
    out_path: String,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        out_path: "BENCH_CRYPTO.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => {
                opts.out_path = args.next().ok_or("--out requires a path argument")?;
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --quick and/or --out <path>)"
                ));
            }
        }
    }
    Ok(opts)
}

/// One full simulated generation loop, reused across bench iterations.
fn build_system() -> Result<(AmnesiaSystem, Username, Domain), String> {
    let mut system = AmnesiaSystem::new(
        SystemConfig::default()
            .with_seed(SEED)
            .with_profile(NetProfile::wifi()),
    );
    system.add_browser("browser");
    system.add_phone("phone", SEED.wrapping_add(1));
    system
        .setup_user("bench", "master password", "browser", "phone")
        .map_err(|e| format!("setup_user: {e}"))?;
    system
        .phone_mut("phone")
        .ok_or("phone not installed")?
        .set_confirm_policy(ConfirmPolicy::AutoConfirm);
    let username = Username::new("bench").map_err(|e| format!("username: {e}"))?;
    let domain = Domain::new("bench.example.com").map_err(|e| format!("domain: {e}"))?;
    system
        .add_account(
            "browser",
            username.clone(),
            domain.clone(),
            PasswordPolicy::default(),
        )
        .map_err(|e| format!("add_account: {e}"))?;
    Ok((system, username, domain))
}

fn find<'a>(results: &'a [Measurement], name: &str) -> Result<&'a Measurement, String> {
    results
        .iter()
        .find(|m| m.name == name)
        .ok_or_else(|| format!("measurement `{name}` missing from harness results"))
}

/// Nanoseconds-per-op → ops-per-second, guarding divide-by-zero.
fn per_sec(ns_per_op: u64) -> f64 {
    1e9 / ns_per_op.max(1) as f64
}

fn run(opts: &Options) -> Result<(), String> {
    // Correctness gates throughput: a KAT mismatch fails the run before any
    // timing happens, in quick mode too.
    run_scrypt_kats()?;

    let mut h = Harness::new("bench_crypto");
    if opts.quick {
        h.sample_size(5);
    }

    let key = HmacKey::<Sha256>::new(b"throughput baseline key");
    let msg = [0xa5u8; 256];
    h.bench("hmac_sha256_256B", || {
        let mut tag = [0u8; 32];
        key.mac_into(black_box(&msg), &mut tag);
        tag
    });

    // One DRBG draw: SimNet samples each normal or log-normal frame latency
    // from two of them.
    let mut rng = SecretRng::seeded(SEED);
    h.bench("drbg_next_u64", || rng.next_u64());

    h.sample_size(if opts.quick { 3 } else { 10 });
    h.bench("pbkdf2_10k_32B", || {
        let mut out = [0u8; 32];
        let _ = pbkdf2_hmac_sha256(
            black_box(b"master password"),
            b"salt",
            PBKDF2_ITERS,
            &mut out,
        );
        out
    });

    // KDF ladder sweep: defender-side derive latency per rung, paired below
    // with the modeled attacker guess rate from the area-time cost model.
    let ladder = KdfPolicy::ladder();
    h.sample_size(if opts.quick { 1 } else { 5 });
    for (rung, policy) in ladder {
        h.bench(&format!("kdf_derive_{rung}"), || {
            let mut out = [0u8; 32];
            let _ = kdf::derive(&policy, black_box(b"master password"), b"salt", &mut out);
            out
        });
    }

    let (mut system, username, domain) = build_system()?;
    let mut generate_failures = 0u64;
    h.sample_size(if opts.quick { 3 } else { 10 });
    h.bench("e2e_generate", || {
        if system
            .generate_password_with_retry("browser", "phone", &username, &domain, 3)
            .is_err()
        {
            generate_failures += 1;
        }
    });
    if generate_failures > 0 {
        return Err(format!(
            "{generate_failures} simulated generation(s) failed during the bench"
        ));
    }

    let results = h.measurements();
    let hmac = find(results, "hmac_sha256_256B")?;
    let pbkdf2 = find(results, "pbkdf2_10k_32B")?;
    let e2e = find(results, "e2e_generate")?;

    let hmac_msgs_per_sec = per_sec(hmac.median_ns());
    let pbkdf2_iters_per_sec = per_sec(pbkdf2.median_ns()) * f64::from(PBKDF2_ITERS);
    let e2e_p50_ns = e2e.histogram.quantile(0.5).unwrap_or(0);
    let e2e_p99_ns = e2e.histogram.quantile(0.99).unwrap_or(0);

    for (name, value) in [
        ("hmac_msgs_per_sec", hmac_msgs_per_sec),
        ("pbkdf2_iters_per_sec", pbkdf2_iters_per_sec),
        ("e2e_generate_p50_ns", e2e_p50_ns as f64),
        ("e2e_generate_p99_ns", e2e_p99_ns as f64),
    ] {
        if !(value.is_finite() && value > 0.0) {
            return Err(format!("metric `{name}` is not positive ({value})"));
        }
    }

    // Per-rung ladder rows: measured defender latency + modeled attacker
    // cost, for the EXPERIMENTS.md asymmetry table.
    let mut ladder_json = String::new();
    let mut ladder_log = String::new();
    for cost in KdfAttackCost::ladder().into_iter().skip(1) {
        let m = find(results, &format!("kdf_derive_{}", cost.rung))?;
        let derive_ms = m.median_ns() as f64 / 1e6;
        if !(derive_ms.is_finite() && derive_ms > 0.0) {
            return Err(format!("rung `{}` derive latency not positive", cost.rung));
        }
        if !ladder_json.is_empty() {
            ladder_json.push(',');
        }
        ladder_json.push_str(&format!(
            "{{\"rung\":\"{}\",\"policy\":\"{}\",\"median_derive_ms\":{derive_ms:.3},\
             \"defender_memory_bytes\":{},\"attacker_guesses_per_sec\":{:.3e},\
             \"attacker_bound\":\"{}\",\"slowdown_vs_paper\":{:.3e}}}",
            cost.rung,
            cost.policy.describe(),
            cost.defender_memory_bytes,
            cost.guesses_per_sec,
            cost.binding_constraint,
            cost.slowdown_vs_paper,
        ));
        ladder_log.push_str(&format!(
            " {}={derive_ms:.1}ms/{:.0}x",
            cost.rung, cost.slowdown_vs_paper
        ));
    }

    let mut raw = String::new();
    for (i, m) in results.iter().enumerate() {
        if i > 0 {
            raw.push(',');
        }
        raw.push_str(&format!(
            "{{\"name\":\"{}\",\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"samples\":{}}}",
            m.name,
            m.median_ns(),
            m.min_ns(),
            m.max_ns(),
            m.samples()
        ));
    }
    let doc = format!(
        "{{\n  \"suite\": \"bench_crypto\",\n  \"mode\": \"{}\",\n  \
         \"pbkdf2_iterations\": {PBKDF2_ITERS},\n  \
         \"scrypt_kats\": \"pass\",\n  \
         \"hmac_msgs_per_sec\": {:.0},\n  \
         \"pbkdf2_iters_per_sec\": {:.0},\n  \
         \"e2e_generate_p50_ns\": {e2e_p50_ns},\n  \
         \"e2e_generate_p99_ns\": {e2e_p99_ns},\n  \
         \"kdf_ladder\": [{ladder_json}],\n  \
         \"raw\": [{raw}]\n}}\n",
        if opts.quick { "quick" } else { "full" },
        hmac_msgs_per_sec,
        pbkdf2_iters_per_sec,
    );
    std::fs::write(&opts.out_path, &doc).map_err(|e| format!("writing {}: {e}", opts.out_path))?;
    eprintln!(
        "bench_crypto: scrypt KATs pass, hmac {hmac_msgs_per_sec:.0} msgs/s, pbkdf2 \
         {pbkdf2_iters_per_sec:.0} iters/s, e2e p50 {:.2} ms, p99 {:.2} ms, ladder{ladder_log} \
         -> {}",
        e2e_p50_ns as f64 / 1e6,
        e2e_p99_ns as f64 / 1e6,
        opts.out_path
    );
    Ok(())
}

fn main() {
    let code = match parse_args().and_then(|opts| run(&opts)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("bench_crypto: error: {e}");
            1
        }
    };
    std::process::exit(code);
}
