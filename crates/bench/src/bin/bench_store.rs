//! Store write-path throughput: snapshot-per-write vs WAL vs group commit.
//!
//! The paper's server rewrites one `(u, d, σ)` row per rotation; persisting
//! that via whole-file snapshots costs O(total DB size) per write, while the
//! WAL costs O(delta). This bench quantifies the gap. For every entry tier
//! it preloads a database with N rows (~64 B values, the size of a stored
//! credential row), then measures writes/s for:
//!
//! * **snapshot_per_write** — the pre-WAL durable path: every `put` is
//!   followed by `Database::save_to` (full re-serialize + fsync + rename).
//! * **wal_per_record** — one writer: every commit pays its own fsync. The
//!   honest lower bound of the WAL path.
//! * **wal_group_commit** — 8 concurrent writers: those that commit while a
//!   flush leader's fsync is in flight share the next one. The coalescing
//!   ratio (records per fsync) is reported alongside.
//!
//! It also measures **recovery wall-time vs log length** (open_durable
//! replaying logs of increasing record counts over an N-row snapshot) and
//! the **snapshot encoding win** from stream-encoding rows instead of
//! double-buffering them through an owned dump.
//!
//! Writes `BENCH_STORE.json` (override with `--out`). Default mode runs
//! the 100k and 1M entry tiers; `--quick` is the verify.sh smoke (20k
//! entries) and must show group commit ≥ [`SPEEDUP_GATE`]× the
//! snapshot-per-write rate; the same gate is enforced at every tier in
//! every mode.

use amnesia_store::{Database, DurabilityConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 0x57A6E;

/// Acceptance gate (ISSUE 9): group-committed WAL writes/s must beat the
/// snapshot-per-write rate by at least this factor at every measured tier.
const SPEEDUP_GATE: f64 = 10.0;

/// Concurrent writer threads in the group-commit mode.
const WRITERS: usize = 8;

struct Options {
    quick: bool,
    full: bool,
    out_path: String,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        full: false,
        out_path: "BENCH_STORE.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--full" => opts.full = true,
            "--out" => {
                opts.out_path = args.next().ok_or("--out requires a path argument")?;
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --quick, --full and/or --out <path>)"
                ));
            }
        }
    }
    if opts.quick && opts.full {
        return Err("--quick and --full are mutually exclusive".into());
    }
    Ok(opts)
}

fn scratch_root() -> PathBuf {
    std::env::temp_dir().join(format!("amnesia-bench-store-{}", std::process::id()))
}

fn fresh_dir(name: &str) -> Result<PathBuf, String> {
    let dir = scratch_root().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A ~64-byte credential-row stand-in: deterministic junk keyed by `i`.
fn row_value(i: u64) -> Vec<u8> {
    let mut v = vec![0u8; 64];
    let seed = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ SEED;
    for (j, b) in v.iter_mut().enumerate() {
        *b = (seed.rotate_left((j % 64) as u32) >> (j % 8)) as u8;
    }
    v
}

/// Preloads `entries` rows into the `rows` table of `db`.
fn preload(db: &Database, entries: u64) -> Result<(), String> {
    let t = db.table::<u64, Vec<u8>>("rows");
    for i in 0..entries {
        t.put(&i, &row_value(i))
            .map_err(|e| format!("preload: {e}"))?;
    }
    Ok(())
}

struct Cell {
    entries: u64,
    snapshot_per_write_wps: f64,
    wal_per_record_wps: f64,
    wal_group_commit_wps: f64,
    group_records_per_fsync: f64,
    snapshot_stream_ms: f64,
    snapshot_dump_ms: f64,
    snapshot_bytes: u64,
}

/// Mode 1: the pre-WAL durable path — one full snapshot per write.
fn bench_snapshot_per_write(entries: u64, writes: u64) -> Result<f64, String> {
    let dir = fresh_dir(&format!("snap-{entries}"))?;
    let db = Database::in_memory();
    preload(&db, entries)?;
    let t = db.table::<u64, Vec<u8>>("rows");
    let path = dir.join("db.adb");
    let start = Instant::now();
    for w in 0..writes {
        let key = entries + w;
        t.put(&key, &row_value(key)).map_err(|e| e.to_string())?;
        db.save_to(&path).map_err(|e| format!("save_to: {e}"))?;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(writes as f64 / elapsed.max(1e-9))
}

/// Builds a durable database with `entries` preloaded rows folded into its
/// snapshot (fsync off during the bulk load, one compaction at the end).
fn durable_with_snapshot(dir: &Path, entries: u64) -> Result<Database, String> {
    {
        let loader = Database::open_durable_with(
            dir,
            DurabilityConfig {
                fsync: false,
                compact_log_bytes: None,
            },
        )
        .map_err(|e| format!("open_durable (load): {e}"))?;
        preload(&loader, entries)?;
        loader.compact().map_err(|e| format!("compact: {e}"))?;
    }
    Database::open_durable_with(
        dir,
        DurabilityConfig {
            compact_log_bytes: None,
            ..DurabilityConfig::default()
        },
    )
    .map_err(|e| format!("open_durable: {e}"))
}

/// Mode 2: WAL with a single writer — every commit is its own fsync.
fn bench_wal_per_record(entries: u64, writes: u64) -> Result<f64, String> {
    let dir = fresh_dir(&format!("wal-{entries}"))?;
    let db = durable_with_snapshot(&dir, entries)?;
    let t = db.table::<u64, Vec<u8>>("rows");
    let start = Instant::now();
    for w in 0..writes {
        let key = entries + w;
        t.put(&key, &row_value(key)).map_err(|e| e.to_string())?;
    }
    let elapsed = start.elapsed().as_secs_f64();
    drop(t);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(writes as f64 / elapsed.max(1e-9))
}

/// Mode 3: WAL with concurrent writers sharing group-committed fsyncs.
fn bench_wal_group_commit(entries: u64, writes: u64) -> Result<(f64, f64), String> {
    let dir = fresh_dir(&format!("group-{entries}"))?;
    let db = Arc::new(durable_with_snapshot(&dir, entries)?);
    let before = db.wal_stats().ok_or("durable db reported no wal stats")?;
    let per_writer = writes / WRITERS as u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for w in 0..WRITERS as u64 {
            let db = Arc::clone(&db);
            handles.push(s.spawn(move || -> Result<(), String> {
                let t = db.table::<u64, Vec<u8>>("rows");
                for i in 0..per_writer {
                    let key = entries + w * per_writer + i;
                    t.put(&key, &row_value(key)).map_err(|e| e.to_string())?;
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join()
                .map_err(|_| "writer thread panicked".to_string())??;
        }
        Ok::<(), String>(())
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    let after = db.wal_stats().ok_or("durable db reported no wal stats")?;
    let records = after
        .appended_records
        .saturating_sub(before.appended_records);
    let fsyncs = after.flushes.saturating_sub(before.flushes).max(1);
    let total = per_writer * WRITERS as u64;
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((
        total as f64 / elapsed.max(1e-9),
        records as f64 / fsyncs as f64,
    ))
}

/// Satellite: stream-encoded snapshot vs the old double-buffered dump.
fn bench_snapshot_encoding(entries: u64) -> Result<(f64, f64, u64), String> {
    let db = Database::in_memory();
    preload(&db, entries)?;
    let start = Instant::now();
    let streamed = db.snapshot_bytes().map_err(|e| e.to_string())?;
    let stream_ms = start.elapsed().as_secs_f64() * 1e3;
    let size = streamed.len() as u64;
    drop(streamed);
    // The pre-satellite shape: clone every row into an owned dump first,
    // then encode the dump (export_tables is that clone, kept public).
    let start = Instant::now();
    let dump = db.export_tables();
    let encoded = amnesia_store::codec::to_bytes(&dump).map_err(|e| e.to_string())?;
    let dump_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(encoded);
    Ok((stream_ms, dump_ms, size))
}

fn run_cell(entries: u64, snap_writes: u64, wal_writes: u64) -> Result<Cell, String> {
    eprintln!("bench_store: tier {entries} entries");
    let snapshot_per_write_wps = bench_snapshot_per_write(entries, snap_writes)?;
    eprintln!("bench_store:   snapshot_per_write {snapshot_per_write_wps:>10.1} writes/s");
    let wal_per_record_wps = bench_wal_per_record(entries, wal_writes)?;
    eprintln!("bench_store:   wal_per_record     {wal_per_record_wps:>10.1} writes/s");
    let (wal_group_commit_wps, group_records_per_fsync) =
        bench_wal_group_commit(entries, wal_writes)?;
    eprintln!(
        "bench_store:   wal_group_commit   {wal_group_commit_wps:>10.1} writes/s \
         ({group_records_per_fsync:.1} records/fsync)"
    );
    let (snapshot_stream_ms, snapshot_dump_ms, snapshot_bytes) = bench_snapshot_encoding(entries)?;
    eprintln!(
        "bench_store:   snapshot encode    stream {snapshot_stream_ms:.1} ms vs \
         dump {snapshot_dump_ms:.1} ms ({snapshot_bytes} bytes)"
    );
    Ok(Cell {
        entries,
        snapshot_per_write_wps,
        wal_per_record_wps,
        wal_group_commit_wps,
        group_records_per_fsync,
        snapshot_stream_ms,
        snapshot_dump_ms,
        snapshot_bytes,
    })
}

struct RecoveryPoint {
    log_records: u64,
    base_entries: u64,
    recover_ms: f64,
}

/// Recovery wall-time vs log length: build a durable DB whose snapshot
/// holds `base_entries` rows and whose log holds `log_records` further
/// mutations, then time `open_durable`.
fn bench_recovery(base_entries: u64, log_records: u64) -> Result<RecoveryPoint, String> {
    let dir = fresh_dir(&format!("recover-{base_entries}-{log_records}"))?;
    {
        let db = Database::open_durable_with(
            &dir,
            DurabilityConfig {
                fsync: false,
                compact_log_bytes: None,
            },
        )
        .map_err(|e| format!("open_durable (build): {e}"))?;
        preload(&db, base_entries)?;
        db.compact().map_err(|e| format!("compact: {e}"))?;
        let t = db.table::<u64, Vec<u8>>("rows");
        for i in 0..log_records {
            let key = i % (base_entries + log_records);
            t.put(&key, &row_value(key ^ 1))
                .map_err(|e| e.to_string())?;
        }
        db.sync().map_err(|e| format!("sync: {e}"))?;
    }
    let start = Instant::now();
    let db = Database::open_durable(&dir).map_err(|e| format!("open_durable (recover): {e}"))?;
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;
    let len = db.table::<u64, Vec<u8>>("rows").len() as u64;
    if len < base_entries {
        return Err(format!(
            "recovery lost rows: {len} < {base_entries} base entries"
        ));
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(RecoveryPoint {
        log_records,
        base_entries,
        recover_ms,
    })
}

fn run(opts: &Options) -> Result<(), String> {
    // (entries, snapshot-mode writes, wal-mode writes) per tier. Snapshot
    // writes are few — each costs a full O(DB) serialize + fsync.
    let tiers: Vec<(u64, u64, u64)> = if opts.quick {
        vec![(20_000, 4, 4_000)]
    } else {
        vec![(100_000, 6, 24_000), (1_000_000, 3, 24_000)]
    };
    // Recovery curve: log length sweep over a fixed base.
    let recovery_points: Vec<(u64, u64)> = if opts.quick {
        vec![(20_000, 5_000), (20_000, 20_000)]
    } else {
        vec![(100_000, 10_000), (100_000, 100_000), (100_000, 1_000_000)]
    };

    let mut cells = Vec::new();
    for &(entries, snap_writes, wal_writes) in &tiers {
        let cell = run_cell(entries, snap_writes, wal_writes)?;
        let speedup = cell.wal_group_commit_wps / cell.snapshot_per_write_wps.max(1e-9);
        if !(speedup.is_finite() && speedup >= SPEEDUP_GATE) {
            return Err(format!(
                "write-path regression at {} entries: group-committed WAL {:.0} writes/s is \
                 only {speedup:.1}x snapshot-per-write {:.0} writes/s (gate {SPEEDUP_GATE}x)",
                cell.entries, cell.wal_group_commit_wps, cell.snapshot_per_write_wps
            ));
        }
        eprintln!(
            "bench_store: {} entries: group commit = {speedup:.0}x snapshot-per-write \
             (gate {SPEEDUP_GATE}x)",
            cell.entries
        );
        cells.push(cell);
    }

    let mut recovery = Vec::new();
    for &(base, log_records) in &recovery_points {
        let point = bench_recovery(base, log_records)?;
        eprintln!(
            "bench_store: recovery of {} log records over {} base entries: {:.1} ms",
            point.log_records, point.base_entries, point.recover_ms
        );
        recovery.push(point);
    }

    let _ = std::fs::remove_dir_all(scratch_root());

    let mut cell_rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            cell_rows.push_str(",\n    ");
        }
        cell_rows.push_str(&format!(
            "{{\"entries\":{},\"snapshot_per_write_wps\":{:.1},\
             \"wal_per_record_wps\":{:.1},\"wal_group_commit_wps\":{:.1},\
             \"group_records_per_fsync\":{:.1},\"snapshot_stream_ms\":{:.2},\
             \"snapshot_dump_ms\":{:.2},\"snapshot_bytes\":{}}}",
            c.entries,
            c.snapshot_per_write_wps,
            c.wal_per_record_wps,
            c.wal_group_commit_wps,
            c.group_records_per_fsync,
            c.snapshot_stream_ms,
            c.snapshot_dump_ms,
            c.snapshot_bytes,
        ));
    }
    let mut recovery_rows = String::new();
    for (i, p) in recovery.iter().enumerate() {
        if i > 0 {
            recovery_rows.push_str(",\n    ");
        }
        recovery_rows.push_str(&format!(
            "{{\"log_records\":{},\"base_entries\":{},\"recover_ms\":{:.2}}}",
            p.log_records, p.base_entries, p.recover_ms,
        ));
    }
    let doc = format!(
        "{{\n  \"suite\": \"bench_store\",\n  \"mode\": \"{}\",\n  \
         \"writers\": {WRITERS},\n  \"speedup_gate\": {SPEEDUP_GATE},\n  \
         \"cells\": [\n    {cell_rows}\n  ],\n  \
         \"recovery\": [\n    {recovery_rows}\n  ]\n}}\n",
        if opts.quick {
            "quick"
        } else if opts.full {
            "full"
        } else {
            "default"
        },
    );
    std::fs::write(&opts.out_path, &doc).map_err(|e| format!("writing {}: {e}", opts.out_path))?;
    eprintln!("bench_store: wrote {}", opts.out_path);
    Ok(())
}

fn main() {
    let code = match parse_args().and_then(|opts| run(&opts)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("bench_store: error: {e}");
            1
        }
    };
    std::process::exit(code);
}
