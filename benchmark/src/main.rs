//! Wall-clock benchmark of the Amnesia deployment, end to end and layer by
//! layer. `BENCHMARK.json` at the repository root declares its workloads,
//! metrics and regression bounds; this program implements them.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <interactive|burst|mixed|signup> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! One invocation runs one workload in its own process, so `peak_rss_mib`
//! is that workload's alone. The seed drives everything: the deployment
//! seed and the op stream, which comes from the benchmark's own generator
//! (`traffic.rs`); the program receives only the generated inputs.
//! `--quick` shrinks every size about 16× for the smoke test in `tests/`.
//!
//! # Workloads
//!
//! All four are closed loops driven from one thread: a client (or, in the
//! fleet waves, each of `max_inflight` clients) sends its next request only
//! when the previous one has completed. Users copy the paper's 31 study
//! participants (`traffic.rs`): each user's account count, activity (hours
//! online) and password-change rate come from the pinned population in
//! `amnesia_userstudy`; the rates the study gives no figure for are stated
//! as assumptions there.
//!
//! * `interactive` — `AmnesiaSystem` on the wifi profile, `KdfPolicy::PAPER`,
//!   in memory: one user per participant (31), each with their own browser
//!   and an auto-confirming phone holding the default 5 000-entry table,
//!   accounts per the participant's bucket (about 310 in all). One client
//!   sends sequential `generate_password` calls, users drawn by hours
//!   online, the account uniformly among the user's. This is the per-op
//!   critical path (session engine, seal/open, codec, `handle_message`,
//!   phone token) with no KDF, no WAL and one session in flight, so
//!   in-flight scans and durability are bypassed.
//! * `burst` — a `Fleet` of 4 shards, 2 rendezvous instances and 2 workers
//!   per shard, `max_inflight` 1 024, 2 000 users (about 20 000 accounts),
//!   in memory. Waves of 1 536 `Generate` ops (512 wait in the admission
//!   backlog): 1 024 clients spread over many users, so little work is
//!   shared. It stresses host bookkeeping at high concurrency (in-flight
//!   scans, SimNet queue depth, admission, coalescing) and holds the largest
//!   working set, with almost no crypto, KDF or WAL work.
//! * `mixed` — a durable `Fleet` of 2 shards, 2 rendezvous instances and 2
//!   workers per shard, `max_inflight` 64, 250 users (about 2 500 accounts).
//!   Waves of 1 024 ops of every kind at the population's rates (about
//!   88% generations, 11% logins, 1% rotations, rare recoveries): 64
//!   clients. Logins derive the master-password KDF, rotations and
//!   recoveries go through the WAL and recoveries through admission
//!   locking; the store does real work here and none in `interactive` or
//!   `burst`.
//! * `signup` — a durable 2-shard `Fleet` on `KdfPolicy::INTERACTIVE`
//!   (8 MiB scrypt) holding 8 users. One client signs new users up; each
//!   op is the study's tasks 1–4: `add_user` (register and pair), one
//!   `add_account` and the account's first generation. KDF-dominated; the
//!   other three workloads bypass the KDF.
//!
//! Durable workloads keep their WAL under
//! `$CARGO_TARGET_DIR/amnesia-benchmark/wal/` (`target/` when unset), wiped
//! before and after. The flush policy is the store default: fsync on, a
//! 500 µs group-commit window. WAL latencies are the local disk's.
//!
//! # A run
//!
//! 1. Set-up runs several times from the same seed (five where it is cheap,
//!    three where it is not); `setup_s` is the median. The last deployment
//!    is kept.
//! 2. The measured phase runs units (one op, or one wave) in chunks of about
//!    0.1–1 s until `--seconds` have passed, at least `min_units` are done
//!    and the last chunk is whole. Only the time inside the program's calls
//!    counts. `ops_per_s` is the median throughput over chunks.
//!    `peak_rss_mib` is `VmHWM` when `min_units` are done: the program keeps
//!    some state per op, so reading it after a fixed amount of work keeps a
//!    faster commit from looking bigger.
//! 3. Checks: every generation of an account must repeat the password it
//!    produced before, unless a rotation of that account or a recovery of
//!    its user completed in between, after which it must differ; a password
//!    must belong to the account asked for; a recovery must regenerate one
//!    credential per account; a sign-up's password has the policy's length.
//!    Only SHA-256 hashes of passwords are kept; no plaintext reaches
//!    stdout, the trace or the JSON. A digest over `(op index, result)` of
//!    the first ops (the prefix) is printed; for a seed it is the same on
//!    every machine and every commit that keeps the passwords.
//!
//! # Times are scaled to a reference host
//!
//! The benchmark runs on a share of a host whose speed drifts: for seconds
//! or minutes at a time the same code runs up to twice as slowly, so raw
//! wall times of runs of one commit spread by 10–40%. Every time the
//! benchmark reports is therefore the wall time scaled to a reference
//! host's speed. `stats::Probe` runs a small kernel that lives in this
//! package for 10 ms before the first chunk, after every chunk and around
//! every set-up, and reads the host's speed relative to the reference (1.0
//! on the quiet 2-vCPU Xeon VM its constants come from). The kernel is
//! shaped like the work that dominates the workload (`Workload::probe`): a
//! SHA-256-shaped compression for the ALU-bound HMAC, channel and network
//! model work of `interactive` and `mixed`; a ROMix-shaped walk over an
//! 8 MiB table for the cache-missing work of `burst` and `signup`. The time
//! a chunk or set-up spent on the CPU is multiplied by the mean of the
//! readings on either side of it; time it spent off the CPU (fsync, the
//! group-commit window) is kept as measured. A chunk's throughput and
//! latencies come from its scaled time. The kernel choices are measured,
//! not derived: `BASELINE.md` records what each kernel gave on each
//! workload. No change to the program can move the kernels, so a commit
//! that makes the program faster moves the scaled numbers by the same
//! factor as the wall clock. The scaling assumes the program slows in
//! proportion to its kernel; it removes most, not all, of the host's drift
//! (`BASELINE.md`). The ROMix table adds 8 MiB to `peak_rss_mib` on `burst`
//! and `signup`. Unscaled wall throughput, wall set-up times, the readings
//! and the share of time spent off the CPU are printed as context.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones (`ops_per_s`, `op_p50_us`, `setup_s`, `peak_rss_mib`); each is also
//! printed as `<workload>.<metric> <value> <unit>`, beside context lines
//! (`op_p99_us` with its sample count, the digest, the unscaled wall times,
//! the host-speed readings). A failed op or a failed check exits 1 after
//! printing.
//!
//! `op_p50_us` is the latency a caller sees: one op in the one-client
//! loops; in the fleet waves every op's result returns when `run_ops` does,
//! so each op of a wave counts the wave's duration. On `burst` and `mixed`
//! it is therefore derived from `ops_per_s` (ops per wave ÷ wave
//! throughput) and carries no separate signal; the benchmark format asks
//! for every end-to-end metric on every workload. The tail is printed but
//! not gated: only `interactive` has enough samples for a p99 in one run.
//!
//! # The traced run and `layers.json`
//!
//! `--trace 1` runs the same workload with spans on (workload → setup |
//! measure | calibrate → op, wave, `probe` or `calibrate.<layer>`) and
//! reports the per-layer metrics of `layers.rs` instead. It writes
//! `amnesia-benchmark/trace/<workload>.trace.jsonl` (one span per line:
//! `id`, `parent`, `name`, `start_us`, `end_us`) and
//! `<workload>.layers.json` beside it under the target directory. In
//! `layers.json`:
//!
//! * `*_per_op` and plain counts are deltas over the digest prefix and
//!   repeat exactly for a seed; zero counts are kept as evidence that a
//!   workload bypasses a layer;
//! * `*_us` / `*_ns` are per-call costs of a layer's public function,
//!   timed after the measured phase;
//! * `*_share` values are a model, calls per op × cost per call ÷ wall time
//!   per op (except `server.handle_share`, summed from the server's own
//!   wall-clock step histograms); with `host.unattributed_share` they sum
//!   to 1. Spans inside the program will replace the model;
//! * `trace.overhead` is the span-recording cost per op ÷ wall time per op;
//!   `trace.ops_per_s` (scaled like `ops_per_s`) compared with the untraced
//!   `ops_per_s` gives the whole traced run's overhead.
//!
//! # Re-baselining
//!
//! Bounds in `BENCHMARK.json` are shares of the parent commit's median.
//! After a change to this benchmark (a new workload, metric or size), run
//! every workload ten times with different seeds and check that each
//! end-to-end metric's interquartile range stays below a third of its
//! bound; `BASELINE.md` records the last such measurement. A change that
//! claims a gain must not edit this package.

mod check;
mod layers;
mod stats;
mod trace;
mod traffic;
mod workloads;

use layers::{Counts, LayerInputs, PER_LAYER};
use stats::{median, memory_kib, scaled_s, weighted_quantile, Probe, Stopwatch};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{SpanId, Tracer};
use traffic::{Profile, Rng};
use workloads::{Deployment, Runner, Shape, Workload};

/// The end-to-end metrics, in output order, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("op_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Smoke size (`--quick`), for the package's own tests.
    quick: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut quick = false;
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        quick,
    })
}

/// Where durable workloads and traces write: inside the build directory.
fn work_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("amnesia-benchmark")
}

/// The outcome of one run, ready to print.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    context: Vec<String>,
}

/// The deployment a run measures, and what building it cost.
struct SetUp {
    deployment: Deployment,
    /// Seconds of each set-up, scaled to the reference host's speed.
    seconds: Vec<f64>,
    /// The same, as the wall clock read them.
    wall_seconds: Vec<f64>,
    /// RSS growth of the first set-up per user (later ones reuse freed
    /// memory).
    rss_per_user_kib: f64,
}

/// Builds the deployment `shape.setup_repeats` times from one seed and keeps
/// the last. The probe reads the host's speed before and after each
/// set-up; their mean scales the set-up's time on the CPU.
#[allow(clippy::too_many_arguments)]
fn set_up(
    workload: Workload,
    shape: &Shape,
    profiles: &[Profile],
    seed: u64,
    wal_root: &Path,
    probe: &Probe,
    tracer: &mut Tracer,
    root: SpanId,
) -> Result<SetUp, String> {
    let mut seconds = Vec::with_capacity(shape.setup_repeats);
    let mut wall_seconds = Vec::with_capacity(shape.setup_repeats);
    let mut rss_per_user_kib = 0.0;
    let mut deployment = None;
    let mut speed_before = probe.speed();
    for i in 0..shape.setup_repeats {
        drop(deployment.take());
        let rss_before = memory_kib()?.1;
        let span = tracer.begin("setup", root);
        let watch = Stopwatch::start()?;
        let built = workloads::setup(workload, shape, profiles, seed, wal_root)?;
        let (wall, waited) = watch.read()?;
        tracer.end(span);
        if i == 0 {
            let grown = memory_kib()?.1.saturating_sub(rss_before);
            rss_per_user_kib = grown as f64 / built.users.len().max(1) as f64;
        }
        let speed_after = probe.speed();
        seconds.push(scaled_s(wall, waited, (speed_before + speed_after) / 2.0));
        wall_seconds.push(wall);
        speed_before = speed_after;
        deployment = Some(built);
    }
    Ok(SetUp {
        deployment: deployment.ok_or("no deployment was built")?,
        seconds,
        wall_seconds,
        rss_per_user_kib,
    })
}

/// What the measured phase saw.
#[derive(Default)]
struct Measured {
    attempted: u64,
    failed: u64,
    units: u64,
    /// Wall seconds inside the program's calls.
    program_s: f64,
    /// Per-op latency as the caller saw it, µs, weighted by ops, scaled to
    /// the reference host's speed.
    latencies_us: Vec<(f64, u64)>,
    /// Ops per second of each chunk of `shape.chunk_units` units, scaled to
    /// the reference host's speed.
    throughputs: Vec<f64>,
    /// Every host-speed reading, one before the first chunk and one after
    /// each.
    speeds: Vec<f64>,
    /// Seconds inside the program's calls spent off the CPU.
    waited_s: f64,
    /// `VmHWM` once `shape.min_units` units are done.
    peak_kib: u64,
    rss_growth_kib: u64,
    /// Traced runs: counter deltas and the queue-wait p99 over the prefix.
    prefix: (Counts, f64),
    prefix_sim_ms: Vec<f64>,
}

/// Runs units until `budget` has passed, `shape.min_units` are done and the
/// last chunk is whole. Each chunk's time on the CPU is scaled by the mean
/// of the probe readings taken just before and just after it.
#[allow(clippy::too_many_arguments)]
fn measure(
    shape: &Shape,
    deployment: &mut Deployment,
    runner: &mut Runner,
    budget: Duration,
    probe: &Probe,
    tracer: &mut Tracer,
    parent: SpanId,
    counted: bool,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let start_counts = counted.then(|| Counts::read(deployment));
    let mut prefix_done = false;
    let (mut chunk_ops, mut chunk_s, mut chunk_latencies) = (0u64, 0.0, Vec::new());
    let rss_before = memory_kib()?.1;
    let mut speed_before = probe.speed();
    m.speeds.push(speed_before);
    let mut chunk_watch = Stopwatch::start()?;
    let started = Instant::now();
    while m.units < shape.min_units
        || m.units % shape.chunk_units != 0
        || started.elapsed() < budget
    {
        let span = tracer.begin(runner.unit_name(), parent);
        let unit = runner.run_unit(deployment)?;
        tracer.end(span);
        m.units += 1;
        if m.units == shape.min_units {
            m.peak_kib = memory_kib()?.0;
        }
        m.attempted += unit.attempted;
        m.failed += unit.failed;
        m.program_s += unit.program_s;
        chunk_ops += unit.attempted - unit.failed;
        chunk_s += unit.program_s;
        chunk_latencies.push((unit.program_s * 1e6, unit.attempted));
        if m.units % shape.chunk_units == 0 {
            // The benchmark's own work between calls never waits, so all
            // of the chunk's time off the CPU was inside the program.
            let (_, waited) = chunk_watch.read()?;
            let span = tracer.begin("probe", parent);
            let speed_after = probe.speed();
            tracer.end(span);
            let scaled = scaled_s(chunk_s, waited, (speed_before + speed_after) / 2.0);
            m.waited_s += waited.min(chunk_s);
            let factor = scaled / chunk_s.max(1e-9);
            m.throughputs.push(chunk_ops as f64 / scaled.max(1e-9));
            m.latencies_us
                .extend(chunk_latencies.drain(..).map(|(us, n)| (us * factor, n)));
            (chunk_ops, chunk_s) = (0, 0.0);
            m.speeds.push(speed_after);
            speed_before = speed_after;
            chunk_watch = Stopwatch::start()?;
        }
        if !prefix_done {
            m.prefix_sim_ms.extend(unit.sim_ms);
            if runner.ops_offered() >= shape.prefix_ops {
                prefix_done = true;
                if let Some(before) = start_counts {
                    m.prefix = (
                        Counts::read(deployment).since(before),
                        layers::queue_wait_p99_us(deployment),
                    );
                }
            }
        }
    }
    m.rss_growth_kib = memory_kib()?.1.saturating_sub(rss_before);
    Ok(m)
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let shape = workload.shape(args.quick);
    let wal_root = work_root().join("wal");
    let probe = workload.probe();
    let mut tracer = Tracer::new(args.trace);
    let root = tracer.begin("workload", 0);
    let mut seeds = Rng::new(args.seed);
    let deployment_seed = seeds.next_u64();
    let profiles = traffic::profiles(shape.users, &mut seeds.fork());

    let setup = set_up(
        workload,
        &shape,
        &profiles,
        deployment_seed,
        &wal_root,
        &probe,
        &mut tracer,
        root,
    )?;
    let mut deployment = setup.deployment;
    let mut runner = Runner::new(workload, shape, &profiles, seeds.fork());
    let span = tracer.begin("measure", root);
    let m = measure(
        &shape,
        &mut deployment,
        &mut runner,
        Duration::from_secs(args.seconds),
        &probe,
        &mut tracer,
        span,
        args.trace,
    )?;
    tracer.end(span);

    let completed = m.attempted - m.failed;
    let ops_per_s = median(&m.throughputs).ok_or("no chunk of ops completed")?;
    let metrics = if args.trace {
        let (prefix, queue_wait_p99_us) = m.prefix;
        prefix.check_exported(workload)?;
        let span = tracer.begin("calibrate", root);
        let costs = layers::calibrate(
            workload,
            &shape,
            &mut deployment,
            &mut tracer,
            span,
            &wal_root,
            layers::bytes_per_record(&prefix),
        )?;
        tracer.end(span);
        let values = layers::layer_metrics(&LayerInputs {
            shape,
            deployment: &deployment,
            prefix,
            queue_wait_p99_us,
            prefix_sim_ms: &m.prefix_sim_ms,
            costs,
            completed_ops: completed,
            program_s: m.program_s,
            ops_per_s,
            retained_bytes: m.rss_growth_kib as f64 * 1024.0,
            rss_per_user_kib: setup.rss_per_user_kib,
        });
        collect(PER_LAYER, &values)?
    } else {
        let values = BTreeMap::from([
            ("ops_per_s", ops_per_s),
            (
                "op_p50_us",
                weighted_quantile(&m.latencies_us, 0.5).ok_or("no op was measured")?,
            ),
            (
                "setup_s",
                median(&setup.seconds).ok_or("no set-up was timed")?,
            ),
            ("peak_rss_mib", m.peak_kib as f64 / 1024.0),
        ]);
        collect(END_TO_END, &values)?
    };
    drop(deployment);
    tracer.end(root);
    if args.trace {
        write_trace(workload, &tracer, &metrics)?;
    }

    let checker = &runner.checker;
    let (digest, digest_ops) = checker.digest();
    let list = |values: &[f64]| {
        values
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut speeds = m.speeds.clone();
    speeds.sort_by(f64::total_cmp);
    let mut context = vec![
        format!("digest {digest} ops={digest_ops}"),
        format!(
            "op_p99_us {:.3} us n={completed}",
            weighted_quantile(&m.latencies_us, 0.99).unwrap_or(0.0)
        ),
        format!("units {} ({} ops each)", m.units, shape.unit_ops),
        format!("setups_s {}", list(&setup.seconds)),
        format!("setups_wall_s {}", list(&setup.wall_seconds)),
        format!(
            "ops_per_s_wall {:.1} ops/s (all ops over all time in the program, unscaled)",
            completed as f64 / m.program_s.max(1e-9)
        ),
        format!(
            "host_speed median {:.3} min {:.3} max {:.3} over {} readings",
            median(&speeds).unwrap_or(0.0),
            speeds.first().copied().unwrap_or(0.0),
            speeds.last().copied().unwrap_or(0.0),
            speeds.len()
        ),
        format!(
            "waited_share {:.4} (time in the program spent off the CPU, unscaled)",
            m.waited_s / m.program_s.max(1e-9)
        ),
    ];
    if let Some(violation) = checker.first_violation() {
        context.push(format!(
            "check failed ({} violations): {violation}",
            checker.violations()
        ));
    }
    Ok(Report {
        correct: checker.violations() == 0 && m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        context,
    })
}

/// Orders `values` by the declared metric table, failing on any metric that
/// is missing or not a finite number.
fn collect(
    declared: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    declared
        .iter()
        .map(|&(name, unit)| match values.get(name) {
            Some(v) if v.is_finite() => Ok((name, *v, unit)),
            Some(v) => Err(format!("metric {name} is {v}")),
            None => Err(format!("metric {name} was not computed")),
        })
        .collect()
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", entries.join(","))
}

fn write_trace(
    workload: Workload,
    tracer: &Tracer,
    metrics: &[(&str, f64, &str)],
) -> Result<(), String> {
    let dir = work_root().join("trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let write = |name: String, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(
        format!("{}.trace.jsonl", workload.name()),
        tracer.to_jsonl(),
    )?;
    write(
        format!("{}.layers.json", workload.name()),
        format!(
            "{{\"workload\":\"{}\",\"note\":\"shares are modeled from isolated per-call costs \
             (calls per op x cost per call / wall per op); server.handle_share is summed from \
             the server's wall-clock step histograms\",\"metrics\":{}}}\n",
            workload.name(),
            metrics_json(metrics)
        ),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let name = args.workload.name();
    for (metric, value, unit) in &report.metrics {
        println!("{name}.{metric} {value} {unit}");
    }
    for line in &report.context {
        println!("{name}.{line}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_line_parses_and_bad_arguments_are_refused() {
        let a = args(&[
            "--workload",
            "mixed",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Mixed, 7, 3, true)
        );
        assert!(!a.quick && args(&["--quick", "--workload", "burst"]).unwrap().quick);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "burst", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn metric_names_and_units_fit_the_benchmark_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (name, unit) in &all {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
        }
        let mut names: Vec<_> = all.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let declared = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(declared(name), "{name} missing from BENCHMARK.json");
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} has another unit in BENCHMARK.json"
            );
        }
        for w in Workload::ALL {
            assert!(declared(w.name()), "workload {} missing", w.name());
        }
        let entries = text.matches("\"name\":").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }

    #[test]
    fn results_serialize_with_every_digit() {
        let json = metrics_json(&[("ops_per_s", 1234.56789012345, "ops/s")]);
        assert_eq!(
            json,
            "{\"ops_per_s\":{\"value\":1234.56789012345,\"unit\":\"ops/s\"}}"
        );
        let values = BTreeMap::from([("ops_per_s", f64::NAN)]);
        assert!(collect(&[("ops_per_s", "ops/s")], &values).is_err());
        assert!(collect(&[("op_p50_us", "us")], &BTreeMap::new()).is_err());
    }
}
