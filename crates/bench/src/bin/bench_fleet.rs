//! Sustained generation throughput of the sharded fleet vs shard count.
//!
//! For every (shard count, user count) cell this bench builds a fresh
//! [`Fleet`] on the calibrated Wifi profile with a small per-shard worker
//! pool, populates it with study-sampled users via the [`LoadGenerator`],
//! then drives a generation-only burst schedule and measures:
//!
//! * **sustained gen/s in simulated time** — the headline. Each shard's
//!   worker pool bounds how much per-request compute it can retire per
//!   simulated second, so once the offered load saturates a single shard,
//!   adding shards grows throughput near-linearly. Coalesced duplicates
//!   are subtracted: only generations that did server work count.
//! * **wall-clock gen/s** — host-side simulation cost, secondary: the
//!   median over the first burst and [`EXTRA_BURSTS`] more on the same
//!   fleet ([`QUICK_EXTRA_BURSTS`] in `--quick`), with its min and max.
//!   One burst spans 0.5–1.1 s of wall time, too short for one reading
//!   to tell a change from the host's noise.
//! * **p50/p99 of the §VI-B generation window** — queue wait inflates the
//!   tail on under-provisioned fleets; the p99 collapse from 1 → 4 shards
//!   is the scaling story.
//! * **per-step p50/p99** (Fig. 1 steps 1–6) from the telemetry
//!   histograms, reset after populate so only the measured burst counts.
//!
//! Every simulated field and the step percentiles come from the first
//! burst alone, so the extra bursts leave them as they were.
//!
//! Writes `BENCH_FLEET.json` (override with `--out`). Default mode runs
//! shard counts {1,2,4,8} at 10k and 100k users; `--full` adds the
//! 1M-user tier (slow, memory-heavy); `--quick` is the verify.sh smoke:
//! 6k users, shards {1,4}. Wave sizes stay comparable to the distinct
//! account pool so duplicate-coalescing doesn't starve the worker pools.
//! In every mode the bench exits nonzero if the 4-shard sustained sim rate
//! fails to reach [`SCALING_GATE`] × the single-shard rate at the largest
//! user tier measured.
//!
//! Default and full runs also run the quick cells and write them as the
//! file's `quick` section. The simulation is deterministic, so every field
//! of a `--quick` run's cells but the `wall_*` ones must equal that
//! section; `scripts/verify.sh` holds them to it.

use amnesia_fleet::{DiurnalSchedule, Fleet, FleetConfig, LoadConfig, LoadGenerator, WorkloadMix};
use amnesia_net::SimDuration;
use amnesia_system::NetProfile;
use std::time::Instant;

const SEED: u64 = 0xF1EE7;

/// Acceptance gate (ISSUE 7): 4-shard aggregate sustained gen/s must be at
/// least this factor of the single-shard figure at the largest user tier.
const SCALING_GATE: f64 = 2.0;

/// Compute workers per shard. Two workers and the Wifi profile's 2 ms of
/// per-generation server compute bound one shard at ~1000 sustained
/// generations per simulated second — small enough that the default op
/// volumes saturate a single shard and the shard-count sweep has teeth.
const SHARD_WORKERS: usize = 2;

/// Bursts timed per cell after the first, for the wall-clock rate only.
const EXTRA_BURSTS: usize = 4;

/// [`EXTRA_BURSTS`] in `--quick` mode.
const QUICK_EXTRA_BURSTS: usize = 2;

struct Options {
    quick: bool,
    full: bool,
    durable: bool,
    out_path: String,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        full: false,
        durable: false,
        out_path: "BENCH_FLEET.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--full" => opts.full = true,
            "--durable" => opts.durable = true,
            "--out" => {
                opts.out_path = args.next().ok_or("--out requires a path argument")?;
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --quick, --full, --durable and/or --out <path>)"
                ));
            }
        }
    }
    if opts.quick && opts.full {
        return Err("--quick and --full are mutually exclusive".into());
    }
    Ok(opts)
}

struct StepStats {
    name: &'static str,
    p50_us: u64,
    p99_us: u64,
}

struct Cell {
    users: usize,
    shards: usize,
    offered: usize,
    completed: usize,
    failed: usize,
    rejected: usize,
    coalesced: usize,
    sim_gens_per_sec: f64,
    /// Median over every timed burst.
    wall_gens_per_sec: f64,
    wall_gens_per_sec_min: f64,
    wall_gens_per_sec_max: f64,
    /// Bursts the wall-clock rate is taken over.
    wall_bursts: usize,
    latency_p50_ms: f64,
    latency_p99_ms: f64,
    sim_elapsed_s: f64,
    /// Wall time of the first burst.
    wall_s: f64,
    steps: Vec<StepStats>,
}

/// The median, min and max of `rates` (zeros when it is empty).
fn median_min_max(mut rates: Vec<f64>) -> (f64, f64, f64) {
    rates.sort_by(f64::total_cmp);
    let at = |i: usize| rates.get(i).copied().unwrap_or(0.0);
    let last = rates.len().saturating_sub(1);
    // The two middle ranks, one and the same for an odd count.
    let median = (at(last / 2) + at(rates.len() / 2)) / 2.0;
    (median, at(0), at(last))
}

/// Builds, populates and drives one (users, shards) cell: the measured
/// burst, then `extra_bursts` more timed for the wall-clock rate.
fn run_cell(
    users: usize,
    shards: usize,
    ops_per_wave: usize,
    waves: usize,
    durable: bool,
    extra_bursts: usize,
) -> Result<Cell, String> {
    let table_size = if users >= 1_000_000 { 8 } else { 16 };
    let mut config = FleetConfig::default()
        .with_seed(SEED)
        .with_shards(shards)
        .with_rendezvous(2)
        .with_profile(NetProfile::wifi())
        .with_table_size(table_size)
        .with_shard_workers(SHARD_WORKERS)
        .with_max_inflight(8192)
        .with_session_timeout(SimDuration::from_micros(120_000_000));
    // Persistence on: every shard write-ahead-logs its user table under a
    // per-cell scratch directory (wiped first so recovery starts clean).
    let durable_dir = std::env::temp_dir().join(format!(
        "amnesia-bench-fleet-wal-{users}-{shards}-{}",
        std::process::id()
    ));
    if durable {
        let _ = std::fs::remove_dir_all(&durable_dir);
        config = config.with_durable_dir(&durable_dir);
    }
    let mut fleet = Fleet::try_new(config).map_err(|e| format!("fleet construction: {e}"))?;
    let mut load = LoadGenerator::new(LoadConfig {
        seed: SEED ^ users as u64,
        mix: WorkloadMix::generate_only(),
        schedule: DiurnalSchedule {
            waves,
            base_ops: ops_per_wave,
            peak_factor: 1.0,
        },
        zipf_exponent: 0.2,
    });

    let populate_start = Instant::now();
    let added = load
        .populate(&mut fleet, users)
        .map_err(|e| format!("populate({users}): {e}"))?;
    if added != users {
        return Err(format!("populate({users}): only {added} users set up"));
    }
    eprintln!(
        "bench_fleet: shards={shards} users={users} populated in {:.1}s",
        populate_start.elapsed().as_secs_f64()
    );

    // Only the measured burst may land in the histograms.
    fleet.telemetry().reset();

    // One timed burst; any failed op fails the cell.
    let burst = |load: &mut LoadGenerator, fleet: &mut Fleet| {
        let wall_start = Instant::now();
        let report = load.run(fleet);
        let wall_s = wall_start.elapsed().as_secs_f64();
        if report.completed == 0 {
            return Err(format!(
                "shards={shards} users={users}: no op completed ({} failed)",
                report.failed
            ));
        }
        if report.failed > 0 {
            return Err(format!(
                "shards={shards} users={users}: {} of {} ops failed",
                report.failed, report.offered
            ));
        }
        // Generations that actually did server work: coalesced duplicates
        // rode an in-flight session and must not inflate the sustained rate.
        let real_gens = report.generations.saturating_sub(report.coalesced);
        Ok((report, real_gens, wall_s))
    };
    let (report, real_gens, wall_s) = burst(&mut load, &mut fleet)?;
    let sim_s = report.sim_elapsed.as_micros() as f64 / 1e6;
    if sim_s <= 0.0 {
        return Err(format!("shards={shards} users={users}: zero sim time"));
    }

    let snapshot = fleet.telemetry().snapshot();
    let steps: Vec<StepStats> = [
        ("step1_request_upload", "steps.step1_request_upload_us"),
        ("step2_server_to_gcm", "steps.step2_server_to_gcm_us"),
        ("step3_push_delivery", "steps.step3_push_delivery_us"),
        ("step4_token_upload", "steps.step4_token_upload_us"),
        ("step5_password_compute", "steps.step5_password_compute_us"),
        (
            "step6_password_download",
            "steps.step6_password_download_us",
        ),
    ]
    .iter()
    .filter_map(|(name, metric)| {
        let h = snapshot.histograms.get(*metric)?;
        Some(StepStats {
            name,
            p50_us: h.quantile(0.50)?,
            p99_us: h.quantile(0.99)?,
        })
    })
    .collect();

    let mut wall_rates = vec![real_gens as f64 / wall_s.max(1e-9)];
    for _ in 0..extra_bursts {
        let (_, gens, secs) = burst(&mut load, &mut fleet)?;
        wall_rates.push(gens as f64 / secs.max(1e-9));
    }
    let wall_bursts = wall_rates.len();
    let (wall_gens_per_sec, wall_gens_per_sec_min, wall_gens_per_sec_max) =
        median_min_max(wall_rates);

    if durable {
        let _ = std::fs::remove_dir_all(&durable_dir);
    }

    Ok(Cell {
        users,
        shards,
        offered: report.offered,
        completed: report.completed,
        failed: report.failed,
        rejected: report.rejected,
        coalesced: report.coalesced,
        sim_gens_per_sec: real_gens as f64 / sim_s,
        wall_gens_per_sec,
        wall_gens_per_sec_min,
        wall_gens_per_sec_max,
        wall_bursts,
        latency_p50_ms: report.latency_quantile(0.50).as_micros() as f64 / 1e3,
        latency_p99_ms: report.latency_quantile(0.99).as_micros() as f64 / 1e3,
        sim_elapsed_s: sim_s,
        wall_s,
        steps,
    })
}

fn cell_json(c: &Cell) -> String {
    let mut steps = String::new();
    for (i, s) in c.steps.iter().enumerate() {
        if i > 0 {
            steps.push(',');
        }
        steps.push_str(&format!(
            "\"{}\":{{\"p50_us\":{},\"p99_us\":{}}}",
            s.name, s.p50_us, s.p99_us
        ));
    }
    format!(
        "{{\"users\":{},\"shards\":{},\"offered\":{},\"completed\":{},\
         \"failed\":{},\"rejected\":{},\"coalesced\":{},\
         \"sim_gens_per_sec\":{:.1},\"wall_gens_per_sec\":{:.1},\
         \"wall_gens_per_sec_min\":{:.1},\"wall_gens_per_sec_max\":{:.1},\
         \"wall_bursts\":{},\"latency_p50_ms\":{:.3},\"latency_p99_ms\":{:.3},\
         \"sim_elapsed_s\":{:.3},\"wall_s\":{:.3},\"steps\":{{{steps}}}}}",
        c.users,
        c.shards,
        c.offered,
        c.completed,
        c.failed,
        c.rejected,
        c.coalesced,
        c.sim_gens_per_sec,
        c.wall_gens_per_sec,
        c.wall_gens_per_sec_min,
        c.wall_gens_per_sec_max,
        c.wall_bursts,
        c.latency_p50_ms,
        c.latency_p99_ms,
        c.sim_elapsed_s,
        c.wall_s,
    )
}

/// The quick tier: 6k users, one flat wave of 12k ops.
const QUICK_TIER: (usize, usize, usize) = (6_000, 12_000, 1);

/// The quick tier's shard counts.
const QUICK_SHARDS: [usize; 2] = [1, 4];

/// Runs every (tier, shard count) cell, tiers outermost.
fn run_cells(
    tiers: &[(usize, usize, usize)],
    shard_counts: &[usize],
    durable: bool,
    extra_bursts: usize,
) -> Result<Vec<Cell>, String> {
    let mut cells: Vec<Cell> = Vec::new();
    for &(users, ops_per_wave, waves) in tiers {
        for &shards in shard_counts {
            let cell = run_cell(users, shards, ops_per_wave, waves, durable, extra_bursts)?;
            eprintln!(
                "bench_fleet: shards={:<2} users={:<8} {:>8.0} gen/s sim  \
                 {:>9.0} gen/s wall ({:.0}-{:.0} over {} bursts)  \
                 p50 {:>8.1} ms  p99 {:>8.1} ms  (coalesced {}, rejected {})",
                cell.shards,
                cell.users,
                cell.sim_gens_per_sec,
                cell.wall_gens_per_sec,
                cell.wall_gens_per_sec_min,
                cell.wall_gens_per_sec_max,
                cell.wall_bursts,
                cell.latency_p50_ms,
                cell.latency_p99_ms,
                cell.coalesced,
                cell.rejected,
            );
            cells.push(cell);
        }
    }
    Ok(cells)
}

/// The cells as JSON rows, one per line.
fn rows_json(cells: &[Cell]) -> String {
    cells
        .iter()
        .map(cell_json)
        .collect::<Vec<_>>()
        .join(",\n    ")
}

fn run(opts: &Options) -> Result<(), String> {
    // (users, ops_per_wave, waves): one big flat wave per tier, sized so
    // the worker-pool queue drain dominates the fixed ~0.85s pipeline
    // latency on a single shard (otherwise every shard count pays the same
    // latency floor and the sweep flattens), while staying comparable to
    // the distinct-account pool so duplicate-coalescing stays bounded.
    let tiers: Vec<(usize, usize, usize)> = if opts.quick {
        vec![QUICK_TIER]
    } else if opts.full {
        vec![
            (10_000, 12_000, 1),
            (100_000, 12_000, 1),
            (1_000_000, 12_000, 1),
        ]
    } else {
        vec![(10_000, 12_000, 1), (100_000, 12_000, 1)]
    };
    let shard_counts: &[usize] = if opts.quick {
        &QUICK_SHARDS
    } else {
        &[1, 2, 4, 8]
    };
    let extra_bursts = if opts.quick {
        QUICK_EXTRA_BURSTS
    } else {
        EXTRA_BURSTS
    };

    let cells = run_cells(&tiers, shard_counts, opts.durable, extra_bursts)?;

    // Scaling gate at the largest user tier with both 1- and 4-shard cells.
    let top_users = cells.iter().map(|c| c.users).max().unwrap_or(0);
    let rate = |shards: usize| {
        cells
            .iter()
            .find(|c| c.users == top_users && c.shards == shards)
            .map(|c| c.sim_gens_per_sec)
    };
    if let (Some(one), Some(four)) = (rate(1), rate(4)) {
        let ratio = four / one;
        if !(ratio.is_finite() && ratio >= SCALING_GATE) {
            return Err(format!(
                "scaling regression at {top_users} users: 4-shard {four:.0} gen/s is only \
                 {ratio:.2}x the 1-shard {one:.0} gen/s (gate {SCALING_GATE}x)"
            ));
        }
        eprintln!(
            "bench_fleet: 4-shard / 1-shard sustained ratio at {top_users} users = \
             {ratio:.2}x (gate {SCALING_GATE}x)"
        );
    } else {
        return Err("missing 1- or 4-shard cell for the scaling gate".into());
    }

    // The committed quick cells a `--quick` run is compared with.
    let quick = if opts.quick {
        String::new()
    } else {
        let cells = run_cells(
            &[QUICK_TIER],
            &QUICK_SHARDS,
            opts.durable,
            QUICK_EXTRA_BURSTS,
        )?;
        format!(",\n  \"quick\": [\n    {}\n  ]", rows_json(&cells))
    };
    let doc = format!(
        "{{\n  \"suite\": \"bench_fleet\",\n  \"mode\": \"{}\",\n  \
         \"profile\": \"wifi\",\n  \"shard_workers\": {SHARD_WORKERS},\n  \
         \"durable\": {},\n  \
         \"scaling_gate\": {SCALING_GATE},\n  \"cells\": [\n    {}\n  ]{quick}\n}}\n",
        if opts.quick {
            "quick"
        } else if opts.full {
            "full"
        } else {
            "default"
        },
        opts.durable,
        rows_json(&cells),
    );
    std::fs::write(&opts.out_path, &doc).map_err(|e| format!("writing {}: {e}", opts.out_path))?;
    eprintln!("bench_fleet: wrote {}", opts.out_path);
    Ok(())
}

fn main() {
    let code = match parse_args().and_then(|opts| run(&opts)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("bench_fleet: error: {e}");
            1
        }
    };
    std::process::exit(code);
}
