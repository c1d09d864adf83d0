//! Failure injection: lossy push delivery, malformed traffic, misuse
//! resistance across the deployment, and crash-consistency of the store's
//! durable write path (torn WAL tails, bit flips, ack/fsync ordering).

use amnesia::core::{Domain, PasswordPolicy, Username};
use amnesia::system::{AmnesiaSystem, NetProfile, SystemConfig, GCM_ENDPOINT, SERVER_ENDPOINT};

fn lossy_system(seed: u64, drop_p: f64) -> (AmnesiaSystem, Username, Domain) {
    let mut sys = AmnesiaSystem::new(
        SystemConfig::default()
            .with_seed(seed)
            .with_table_size(64)
            .with_profile(NetProfile::lan().with_push_drop_probability(drop_p)),
    );
    sys.add_browser("browser");
    sys.add_phone("phone", seed + 1);
    sys.setup_user("alice", "mp", "browser", "phone").unwrap();
    let u = Username::new("alice").unwrap();
    let d = Domain::new("lossy.example.com").unwrap();
    sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
        .unwrap();
    (sys, u, d)
}

#[test]
fn dropped_push_fails_one_attempt_and_retry_recovers() {
    // 100% push loss: generation must fail cleanly, not hang or panic.
    let (mut sys, u, d) = lossy_system(1, 1.0);
    let err = sys
        .generate_password("browser", "phone", &u, &d)
        .unwrap_err();
    assert!(err.to_string().contains("PasswordReady"), "{err}");
    assert!(sys.net_mut().dropped_count() >= 1);

    // 50% loss: bounded retry succeeds (deterministic seed).
    let (mut sys, u, d) = lossy_system(2, 0.5);
    let outcome = sys
        .generate_password_with_retry("browser", "phone", &u, &d, 10)
        .unwrap();
    assert_eq!(outcome.password.as_str().len(), 32);
}

#[test]
fn retry_on_reliable_network_is_single_shot() {
    let (mut sys, u, d) = lossy_system(3, 0.0);
    let first = sys
        .generate_password_with_retry("browser", "phone", &u, &d, 5)
        .unwrap();
    let direct = sys.generate_password("browser", "phone", &u, &d).unwrap();
    assert_eq!(first.password, direct.password);
    assert_eq!(sys.net_mut().dropped_count(), 0);
}

#[test]
fn drop_and_retry_converge_under_out_of_order_links() {
    // Jittered wifi links deliver out of order (non-FIFO is now the
    // default) *and* the push leg loses half its frames: bounded retry must
    // still converge on the correct password, with no dispatch faults —
    // the replay window absorbs the reordering, retries absorb the loss.
    let mut sys = AmnesiaSystem::new(
        SystemConfig::default()
            .with_seed(11)
            .with_table_size(64)
            .with_profile(NetProfile::wifi().with_push_drop_probability(0.5)),
    );
    sys.add_browser("browser");
    sys.add_phone("phone", 12);
    sys.setup_user("omar", "mp", "browser", "phone").unwrap();
    let u = Username::new("omar").unwrap();
    let d = Domain::new("jitter.example.com").unwrap();
    sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
        .unwrap();

    let outcome = sys
        .generate_password_with_retry("browser", "phone", &u, &d, 10)
        .unwrap();
    assert_eq!(outcome.password.as_str().len(), 32);
    assert!(sys.faults().is_empty(), "{:?}", sys.faults());

    // Retried requests re-use the same channels; no frame was ever
    // accepted twice (a double acceptance would surface as a second step-6
    // delivery to the browser or a dispatch fault).
    let snapshot = sys.telemetry().snapshot();
    assert_eq!(
        snapshot.histograms["steps.step6_password_download_us"].count(),
        1
    );
}

#[test]
fn garbage_frames_do_not_wedge_any_component() {
    let (mut sys, u, d) = lossy_system(4, 0.0);
    // Hostile neighbor blasting junk at every service endpoint.
    {
        let net = sys.net_mut();
        net.register("hostile");
        net.connect(
            "hostile",
            SERVER_ENDPOINT,
            amnesia::net::LinkProfile::new(amnesia::net::LatencyModel::constant_ms(1.0)),
        );
        net.connect(
            "hostile",
            GCM_ENDPOINT,
            amnesia::net::LinkProfile::new(amnesia::net::LatencyModel::constant_ms(1.0)),
        );
        for i in 0..20u8 {
            net.send("hostile", SERVER_ENDPOINT, vec![i; (i as usize) % 7])
                .unwrap();
            net.send("hostile", GCM_ENDPOINT, vec![0xff; 3]).unwrap();
        }
    }
    sys.pump();
    assert!(!sys.faults().is_empty(), "junk must be recorded as faults");

    // The system still works for legitimate users.
    let outcome = sys.generate_password("browser", "phone", &u, &d).unwrap();
    assert_eq!(outcome.password.as_str().len(), 32);
}

#[test]
fn stale_pending_requests_are_purged_by_recovery() {
    let (mut sys, u, d) = lossy_system(5, 1.0);
    // Request whose push is lost leaves a pending entry server-side…
    let _ = sys.generate_password("browser", "phone", &u, &d);

    // …which phone recovery purges along with the phone pairing.
    sys.remove_phone("phone");
    sys.recover_phone("alice", "mp", "browser", "phone-2", 55)
        .unwrap();
    // A (hypothetical, replayed) token for the stale request is rejected:
    // nothing pending survives recovery.
    assert_eq!(sys.server().stats().tokens_rejected, 0);
    let _ = (u, d);
}

#[test]
fn lockout_protects_against_online_guessing_over_the_wire() {
    let (mut sys, _, _) = lossy_system(6, 0.0);
    // Ten wrong master passwords through the real protocol path.
    for _ in 0..10 {
        let _ = sys.login("browser", "alice", "not the password");
    }
    // Now even the correct password is refused (account locked).
    let err = sys.login("browser", "alice", "mp").unwrap_err();
    assert!(err.to_string().contains("locked"), "{err}");
}

/// ISSUE 7: a rendezvous instance outage mid-generation surfaces a typed
/// timeout (no panic, no secret bytes in the telemetry snapshot), and a
/// restarted instance serves subsequent sessions — its durable device
/// registry survives the outage.
#[test]
fn rendezvous_outage_yields_typed_timeout_and_restart_recovers() {
    use amnesia::fleet::{Fleet, FleetConfig, FleetError};
    use amnesia::net::SimDuration;

    let mut fleet = Fleet::new(
        FleetConfig::default()
            .with_seed(0xdead)
            .with_shards(2)
            .with_rendezvous(2)
            .with_table_size(64)
            .with_session_timeout(SimDuration::from_micros(2_000_000)),
    );
    // Pin alice's home instance to NOT be her shard's local one so the
    // push path crosses instances (the outage hits mid-forwarding).
    let shard_name = fleet.router_mut().shard_for("alice").unwrap().to_string();
    let shard: usize = shard_name.trim_start_matches("shard-").parse().unwrap();
    let local = fleet.shard_local_gcm(shard).unwrap();
    let home = (local + 1) % fleet.rendezvous_count();
    fleet
        .add_user_with_home("alice", "hunter2 master", home)
        .unwrap();
    let u = Username::new("alice-acct0").unwrap();
    let d = Domain::new("outage.example.com").unwrap();
    fleet
        .add_account("alice", u, d, PasswordPolicy::default())
        .unwrap();
    let (_, healthy, _) = fleet.generate("alice", 0).unwrap();

    // Outage on the owning instance: the push is silently lost and the
    // session must convert the silence into a typed timeout.
    fleet.set_rendezvous_online(home, false);
    let err = fleet.generate("alice", 0).unwrap_err();
    match err {
        FleetError::System(ref e) => {
            assert!(e.to_string().contains("PasswordReady"), "{e}");
        }
        other => panic!("expected a typed system timeout, got {other:?}"),
    }

    // No secret material leaks into the deterministic telemetry snapshot.
    let json = fleet.telemetry().snapshot().to_json();
    assert!(!json.contains(healthy.as_str()), "password in telemetry");
    assert!(!json.contains("hunter2"), "master password in telemetry");
    assert!(
        fleet.telemetry().snapshot().counters["fleet.rendezvous.dropped"] > 0,
        "outage must be visible as dropped rendezvous traffic"
    );

    // Restart: the durable registry still knows alice's phone, so the
    // next session completes and produces the same deterministic bytes.
    fleet.set_rendezvous_online(home, true);
    let (_, recovered, _) = fleet.generate("alice", 0).unwrap();
    assert_eq!(recovered.as_str(), healthy.as_str());
}

// ---------------------------------------------------------------------------
// ISSUE 9: crash-consistency of the store's durable write path. A crash may
// tear the last WAL record at any byte, flip bits in unsynced pages, or land
// between a batch's ack and its fsync — recovery must be exact up to the
// last acked LSN and bit-for-bit deterministic.
// ---------------------------------------------------------------------------

mod wal_crash {
    use amnesia::store::wal::{
        scan_segment, DurabilityConfig, Wal, WalFile, FRAME_HEADER_LEN, FRAME_TRAILER_LEN,
        WAL_MAGIC,
    };
    use amnesia::store::{codec, Database};
    use std::path::{Path, PathBuf};
    use std::sync::{Arc, Mutex};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "amnesia-failure-injection-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Copies a flat durable-store directory (snapshot + wal segments).
    fn copy_dir(src: &Path, dst: &Path) {
        let _ = std::fs::remove_dir_all(dst);
        std::fs::create_dir_all(dst).unwrap();
        for entry in std::fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }

    /// The single `wal-*.log` segment in `dir`.
    fn segment_file(dir: &Path) -> PathBuf {
        let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
            })
            .collect();
        assert_eq!(segs.len(), 1, "expected exactly one segment in {dir:?}");
        segs.pop().unwrap()
    }

    /// Walks frame headers to produce `(start, end)` byte bounds per frame.
    fn frame_bounds(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut bounds = Vec::new();
        let mut off = WAL_MAGIC.len();
        while off < bytes.len() {
            let len = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap()) as usize;
            let end = off + FRAME_HEADER_LEN + len + FRAME_TRAILER_LEN;
            bounds.push((off, end));
            off = end;
        }
        assert_eq!(off, bytes.len(), "frame walk must land on the file end");
        bounds
    }

    /// Builds a durable DB with rows `k0..k{n}` in table `rows`, fully
    /// synced, and returns its directory.
    fn build_durable(name: &str, n: usize) -> PathBuf {
        let dir = temp_dir(name);
        let db = Database::open_durable(&dir).unwrap();
        let t = db.table::<String, String>("rows");
        for i in 0..n {
            t.put(&format!("k{i}"), &format!("v{i}")).unwrap();
        }
        db.sync().unwrap();
        dir
    }

    fn assert_rows(db: &Database, n: usize) {
        let t = db.table::<String, String>("rows");
        assert_eq!(t.len(), n);
        for i in 0..n {
            assert_eq!(
                t.get(&format!("k{i}")).unwrap().as_deref(),
                Some(format!("v{i}").as_str()),
                "row k{i} wrong after recovery"
            );
        }
    }

    /// Torn write: the crash may cut the final record at ANY byte offset.
    /// Every cut inside the final frame must recover exactly the first n-1
    /// records; a cut at the frame boundary is a clean shorter log. Both
    /// recoveries of the same torn file must be bit-for-bit identical.
    #[test]
    fn torn_final_record_at_every_byte_offset_recovers_prefix() {
        const N: usize = 6;
        let src = build_durable("torn-src", N);
        let full = std::fs::read(segment_file(&src)).unwrap();
        let bounds = frame_bounds(&full);
        assert_eq!(bounds.len(), N);
        let (last_start, last_end) = bounds[N - 1];
        assert_eq!(last_end, full.len());

        let work = temp_dir("torn-work");
        for cut in last_start..=full.len() {
            copy_dir(&src, &work);
            let seg = segment_file(&work);
            std::fs::write(&seg, &full[..cut]).unwrap();

            let expect = if cut == full.len() { N } else { N - 1 };
            let first = {
                let db = Database::open_durable(&work).unwrap();
                assert_rows(&db, expect);
                db.snapshot_bytes().unwrap()
            };
            // Recovery physically truncated the torn tail: a second open
            // sees a clean log and produces bit-identical state.
            let truncated = std::fs::read(segment_file(&work)).unwrap();
            let scan = scan_segment(&truncated).unwrap();
            assert!(scan.clean, "cut at {cut}: tail not truncated on recovery");
            assert_eq!(scan.records.len(), expect);
            let second = {
                let db = Database::open_durable(&work).unwrap();
                assert_rows(&db, expect);
                db.snapshot_bytes().unwrap()
            };
            assert_eq!(first, second, "cut at {cut}: recovery not deterministic");
        }
        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&work);
    }

    /// A bit flip mid-log (an unsynced page going bad under the tail) stops
    /// replay at the corrupted frame; everything before it is kept and the
    /// damage is truncated away, exactly as the public scanner predicts.
    #[test]
    fn bit_flip_mid_log_truncates_at_corruption_point() {
        const N: usize = 8;
        let dir = build_durable("bitflip", N);
        let seg = segment_file(&dir);
        let mut bytes = std::fs::read(&seg).unwrap();
        let bounds = frame_bounds(&bytes);
        // Flip one bit in the middle of the fourth frame's payload.
        let (start, end) = bounds[3];
        bytes[(start + end) / 2] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();

        let oracle = scan_segment(&bytes).unwrap();
        assert!(!oracle.clean);
        assert_eq!(
            oracle.records.len(),
            3,
            "scan must stop at the flipped frame"
        );

        let db = Database::open_durable(&dir).unwrap();
        assert_rows(&db, 3);
        drop(db);
        // The corrupt suffix is gone from disk; reopening is clean.
        let scan = scan_segment(&std::fs::read(segment_file(&dir)).unwrap()).unwrap();
        assert!(scan.clean);
        assert_eq!(scan.records.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// In-memory [`WalFile`] splitting durable from merely-written bytes,
    /// with optional sync-failure injection: the "disk" after a kill is the
    /// durable half only.
    #[derive(Clone)]
    struct CrashFile {
        state: Arc<Mutex<CrashFileState>>,
    }

    struct CrashFileState {
        durable: Vec<u8>,
        volatile: Vec<u8>,
        syncs_until_failure: Option<u32>,
    }

    impl CrashFile {
        fn new() -> CrashFile {
            CrashFile {
                state: Arc::new(Mutex::new(CrashFileState {
                    // As if created by DiskWalFile::create: magic synced.
                    durable: WAL_MAGIC.to_vec(),
                    volatile: Vec::new(),
                    syncs_until_failure: None,
                })),
            }
        }

        fn fail_after_syncs(&self, n: u32) {
            self.state.lock().unwrap().syncs_until_failure = Some(n);
        }

        fn durable_bytes(&self) -> Vec<u8> {
            self.state.lock().unwrap().durable.clone()
        }
    }

    impl WalFile for CrashFile {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.state.lock().unwrap().volatile.extend_from_slice(bytes);
            Ok(())
        }

        fn sync(&mut self) -> std::io::Result<()> {
            let mut s = self.state.lock().unwrap();
            if let Some(n) = s.syncs_until_failure {
                if n == 0 {
                    return Err(std::io::Error::other("injected fsync failure"));
                }
                s.syncs_until_failure = Some(n - 1);
            }
            let pending = std::mem::take(&mut s.volatile);
            s.durable.extend_from_slice(&pending);
            Ok(())
        }
    }

    fn wal_over(file: &CrashFile) -> Wal {
        Wal::with_file(Box::new(file.clone()), 0, &DurabilityConfig::default())
    }

    fn enc(s: &str) -> Vec<u8> {
        codec::to_bytes(&s.to_string()).unwrap()
    }

    /// The ack/fsync boundary: a record is acked (commit returns Ok) only
    /// once its bytes are durable, so a kill at ANY instant loses only
    /// unacked records. Appended-but-uncommitted records vanish; every
    /// acked LSN survives in the durable bytes.
    #[test]
    fn kill_between_append_and_fsync_loses_only_unacked_records() {
        let file = CrashFile::new();
        let wal = wal_over(&file);
        let mut acked = Vec::new();
        for i in 0..5 {
            let lsn = wal
                .append_put("rows", &enc(&format!("k{i}")), &enc(&format!("v{i}")))
                .unwrap();
            wal.commit(lsn).unwrap();
            acked.push(lsn);
        }
        // Record 6 is appended but the process dies before its commit: the
        // bytes never reached sync and must not survive the kill.
        wal.append_put("rows", &enc("k5"), &enc("v5")).unwrap();
        drop(wal);

        let disk = file.durable_bytes();
        let scan = scan_segment(&disk).unwrap();
        assert!(scan.clean);
        let recovered: Vec<u64> = scan.records.iter().map(|r| r.lsn).collect();
        assert_eq!(
            recovered, acked,
            "disk after kill must hold exactly the acked LSNs"
        );
    }

    /// An fsync failure between a batch's append and its ack: commit errors
    /// (no false ack), the WAL goes sticky-failed, and the durable bytes
    /// still parse cleanly to exactly the previously acked records.
    #[test]
    fn fsync_failure_is_never_acked_and_leaves_durable_prefix_clean() {
        let file = CrashFile::new();
        let wal = wal_over(&file);
        let first = wal.append_put("rows", &enc("a"), &enc("1")).unwrap();
        wal.commit(first).unwrap();

        file.fail_after_syncs(0);
        let doomed = wal.append_put("rows", &enc("b"), &enc("2")).unwrap();
        assert!(
            wal.commit(doomed).is_err(),
            "commit must surface fsync failure"
        );
        // The failure is sticky: later mutations cannot silently succeed.
        let later = wal.append_put("rows", &enc("c"), &enc("3"));
        assert!(
            later.is_err() || wal.commit(later.unwrap()).is_err(),
            "wal must stay failed after an fsync error"
        );
        drop(wal);

        let scan = scan_segment(&file.durable_bytes()).unwrap();
        assert!(scan.clean);
        assert_eq!(
            scan.records.iter().map(|r| r.lsn).collect::<Vec<u64>>(),
            vec![first],
            "only the acked record may be on disk"
        );
    }

    /// Corruption in a SEALED segment (not the tail) is real data loss, not
    /// a torn write: recovery must refuse with a typed error instead of
    /// silently dropping acked records.
    #[test]
    fn corrupt_sealed_segment_is_a_typed_error_not_silent_loss() {
        use amnesia::store::StoreError;

        // Build two segments' bytes through the real encoder.
        let file1 = CrashFile::new();
        let wal1 = wal_over(&file1);
        for i in 0..4 {
            let lsn = wal1
                .append_put("rows", &enc(&format!("k{i}")), &enc(&format!("v{i}")))
                .unwrap();
            wal1.commit(lsn).unwrap();
        }
        drop(wal1);
        let file2 = CrashFile::new();
        let wal2 = Wal::with_file(Box::new(file2.clone()), 4, &DurabilityConfig::default());
        for i in 4..6 {
            let lsn = wal2
                .append_put("rows", &enc(&format!("k{i}")), &enc(&format!("v{i}")))
                .unwrap();
            wal2.commit(lsn).unwrap();
        }
        drop(wal2);

        // Control: intact segments recover all six rows.
        let dir = temp_dir("sealed-ok");
        let seg1 = format!("wal-{:020}.log", 1);
        let seg2 = format!("wal-{:020}.log", 5);
        std::fs::write(dir.join(&seg1), file1.durable_bytes()).unwrap();
        std::fs::write(dir.join(&seg2), file2.durable_bytes()).unwrap();
        let db = Database::open_durable(&dir).unwrap();
        assert_rows(&db, 6);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);

        // Bit flip inside the sealed first segment: typed corruption error.
        let dir = temp_dir("sealed-corrupt");
        let mut sealed = file1.durable_bytes();
        let mid = sealed.len() / 2;
        sealed[mid] ^= 0x04;
        std::fs::write(dir.join(&seg1), sealed).unwrap();
        std::fs::write(dir.join(&seg2), file2.durable_bytes()).unwrap();
        match Database::open_durable(&dir) {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("expected StoreError::Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
