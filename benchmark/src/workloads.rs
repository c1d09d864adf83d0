//! The four workloads: how each builds its deployment and runs one
//! measured unit (one op for the one-client loops, one wave for the fleet
//! bursts). See the crate docs for why each exists.

use crate::check::Checker;
use crate::stats::Probe;
use crate::traffic::{Offered, OpKind, Profile, Rng, Traffic};
use amnesia_core::{Domain, PasswordPolicy, Username};
use amnesia_crypto::KdfPolicy;
use amnesia_fleet::{Fleet, FleetConfig, FleetOp, OpOutcome};
use amnesia_net::SimDuration;
use amnesia_phone::ConfirmPolicy;
use amnesia_system::{AmnesiaSystem, NetProfile, SystemConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    Burst,
    Mixed,
    Signup,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Interactive,
        Workload::Burst,
        Workload::Mixed,
        Workload::Signup,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Burst => "burst",
            Workload::Mixed => "mixed",
            Workload::Signup => "signup",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn kdf_policy(self) -> KdfPolicy {
        match self {
            Workload::Signup => KdfPolicy::INTERACTIVE,
            _ => KdfPolicy::PAPER,
        }
    }

    /// The host-speed probe (`stats::Probe`), after the work that dominates
    /// the workload: HMAC, channel and network model on `interactive` and
    /// `mixed`; cache misses on `burst`, whose host bookkeeping walks the
    /// largest working set, and on `signup`, whose memory-hard KDF walks an
    /// 8 MiB table.
    pub fn probe(self) -> Probe {
        match self {
            Workload::Interactive | Workload::Mixed => Probe::Hash,
            Workload::Burst | Workload::Signup => Probe::romix(),
        }
    }

    /// The workload's sizes; `quick` is the smoke size of the package's own
    /// tests, about 16× smaller.
    pub fn shape(self, quick: bool) -> Shape {
        let (users, unit_ops, max_inflight, prefix_ops, min_units, chunk_units) =
            match (self, quick) {
                (Workload::Interactive, false) => (31, 1, 1, 2_000, 20_000, 1_000),
                (Workload::Interactive, true) => (8, 1, 1, 100, 500, 50),
                (Workload::Burst, false) => (2_000, 1_536, 1_024, 1_536, 3, 1),
                (Workload::Burst, true) => (124, 96, 64, 96, 2, 1),
                (Workload::Mixed, false) => (250, 1_024, 64, 1_024, 16, 1),
                (Workload::Mixed, true) => (31, 128, 16, 128, 2, 1),
                (Workload::Signup, false) => (8, 1, 1, 16, 16, 2),
                (Workload::Signup, true) => (2, 1, 1, 4, 4, 2),
            };
        let setup_repeats = match (self, quick) {
            (_, true) => 2,
            (Workload::Interactive | Workload::Signup, false) => 5,
            (Workload::Burst | Workload::Mixed, false) => 3,
        };
        Shape {
            users,
            unit_ops,
            max_inflight,
            prefix_ops,
            min_units,
            chunk_units,
            setup_repeats,
        }
    }
}

/// Sizes of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Users set up before the measured phase; their account counts come
    /// from the study population (`traffic::profiles`).
    pub users: usize,
    /// Ops per measured unit: one op, or one `run_ops` wave.
    pub unit_ops: usize,
    /// Sessions the fleet admits at once (1 for the one-client loops).
    pub max_inflight: usize,
    /// Ops covered by the digest and the per-layer counts: a prefix of
    /// whole units every run completes, so both repeat exactly for a seed.
    pub prefix_ops: u64,
    /// Units every run completes, even past `--seconds`: they cover the
    /// prefix, and `peak_rss_mib` is read when they are done, so the
    /// program's per-op retention counts the same work on a fast machine
    /// as on a slow one.
    pub min_units: u64,
    /// Units per throughput sample, about 0.1–1 s of work. The host-speed
    /// probe runs between chunks, each chunk is scaled by the probe readings
    /// on either side, and `ops_per_s` is the median over chunks.
    pub chunk_units: u64,
    /// Set-ups per run (`setup_s` is their median): more where set-up is
    /// cheap, so the median has samples enough to be steady.
    pub setup_repeats: usize,
}

/// A fleet session never times out in these workloads: a timeout would be
/// a failed op, and the workloads are chosen so that no op fails.
const FLEET_SESSION_TIMEOUT: SimDuration = SimDuration::from_micros(120_000_000);

/// One Amnesia user as the benchmark addresses it.
#[derive(Debug)]
pub struct User {
    pub id: String,
    /// Browser and phone endpoints (single-host deployment only).
    pub browser: String,
    pub phone: String,
    pub accounts: Vec<(Username, Domain)>,
}

pub enum Host {
    System(Box<AmnesiaSystem>),
    Fleet(Box<Fleet>),
}

/// A directory removed when dropped (the durable fleets' write-ahead logs).
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn fresh(path: PathBuf) -> Result<TempDir, String> {
        if path.exists() {
            std::fs::remove_dir_all(&path)
                .map_err(|e| format!("wiping {}: {e}", path.display()))?;
        }
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one set-up builds.
pub struct Deployment {
    pub host: Host,
    pub users: Vec<User>,
    // Declared after `host`, so the store closes before its directory goes.
    _wal: Option<TempDir>,
}

impl Deployment {
    pub fn fleet(&mut self) -> Result<&mut Fleet, String> {
        match &mut self.host {
            Host::Fleet(fleet) => Ok(fleet),
            Host::System(_) => Err("workload expects a fleet".into()),
        }
    }
}

fn account_names(user: &str, index: usize) -> Result<(Username, Domain), String> {
    let username = Username::new(format!("{user}-a{index}")).map_err(|e| e.to_string())?;
    let domain = Domain::new(format!("s{index}.{user}.example.com")).map_err(|e| e.to_string())?;
    Ok((username, domain))
}

fn master_password(user: &str) -> String {
    format!("mp-{user}")
}

/// Builds the workload's deployment from `seed`, one user per profile; the
/// same arguments build the same deployment.
pub fn setup(
    workload: Workload,
    shape: &Shape,
    profiles: &[Profile],
    seed: u64,
    wal_root: &Path,
) -> Result<Deployment, String> {
    match workload {
        Workload::Interactive => setup_interactive(profiles, seed),
        _ => setup_fleet(workload, shape, profiles, seed, wal_root),
    }
}

fn setup_interactive(profiles: &[Profile], seed: u64) -> Result<Deployment, String> {
    let mut system = AmnesiaSystem::new(
        SystemConfig::default()
            .with_seed(seed)
            .with_profile(NetProfile::wifi())
            .with_kdf_policy(Workload::Interactive.kdf_policy()),
    );
    let mut users = Vec::with_capacity(profiles.len());
    for (i, profile) in profiles.iter().enumerate() {
        let mut user = User {
            id: format!("u{i}"),
            browser: format!("b{i}"),
            phone: format!("p{i}"),
            accounts: Vec::new(),
        };
        system.add_browser(&user.browser);
        system.add_phone(&user.phone, seed ^ (i as u64 + 1));
        system
            .setup_user(
                &user.id,
                &master_password(&user.id),
                &user.browser,
                &user.phone,
            )
            .map_err(|e| format!("setup_user {}: {e}", user.id))?;
        system
            .phone_mut(&user.phone)
            .ok_or("phone missing after setup")?
            .set_confirm_policy(ConfirmPolicy::AutoConfirm);
        for a in 0..profile.accounts {
            let (username, domain) = account_names(&user.id, a)?;
            system
                .add_account(
                    &user.browser,
                    username.clone(),
                    domain.clone(),
                    PasswordPolicy::default(),
                )
                .map_err(|e| format!("add_account {}: {e}", user.id))?;
            user.accounts.push((username, domain));
        }
        users.push(user);
    }
    Ok(Deployment {
        host: Host::System(Box::new(system)),
        users,
        _wal: None,
    })
}

fn setup_fleet(
    workload: Workload,
    shape: &Shape,
    profiles: &[Profile],
    seed: u64,
    wal_root: &Path,
) -> Result<Deployment, String> {
    let shards = if workload == Workload::Burst { 4 } else { 2 };
    let mut config = FleetConfig::default()
        .with_seed(seed)
        .with_shards(shards)
        .with_rendezvous(2)
        .with_shard_workers(2)
        .with_profile(NetProfile::wifi())
        .with_max_inflight(shape.max_inflight)
        .with_session_timeout(FLEET_SESSION_TIMEOUT);
    config.kdf_policy = workload.kdf_policy();
    let wal = match workload {
        Workload::Mixed | Workload::Signup => {
            let dir = TempDir::fresh(wal_root.join(format!(
                "{}-{}",
                workload.name(),
                std::process::id()
            )))?;
            config = config.with_durable_dir(dir.path());
            Some(dir)
        }
        _ => None,
    };
    let mut fleet = Fleet::try_new(config).map_err(|e| format!("fleet: {e}"))?;
    let mut users = Vec::with_capacity(profiles.len());
    for (k, profile) in profiles.iter().enumerate() {
        users.push(onboard(&mut fleet, format!("u{k}"), profile.accounts)?);
    }
    Ok(Deployment {
        host: Host::Fleet(Box::new(fleet)),
        users,
        _wal: wal,
    })
}

/// Registers a fleet user (setup flow: register, login, pair, backup) and
/// adds `count` accounts.
fn onboard(fleet: &mut Fleet, id: String, count: usize) -> Result<User, String> {
    fleet
        .add_user(&id, &master_password(&id))
        .map_err(|e| format!("add_user {id}: {e}"))?;
    let mut accounts = Vec::with_capacity(count);
    for a in 0..count {
        let (username, domain) = account_names(&id, a)?;
        fleet
            .add_account(
                &id,
                username.clone(),
                domain.clone(),
                PasswordPolicy::default(),
            )
            .map_err(|e| format!("add_account {id}: {e}"))?;
        accounts.push((username, domain));
    }
    Ok(User {
        id,
        browser: String::new(),
        phone: String::new(),
        accounts,
    })
}

/// Result of one measured unit.
#[derive(Debug, Default)]
pub struct Unit {
    pub attempted: u64,
    pub failed: u64,
    /// Wall seconds spent inside the program's calls.
    pub program_s: f64,
    /// §VI-B simulated generation windows, ms.
    pub sim_ms: Vec<f64>,
}

/// Drives a deployment with the workload's op stream and checks what
/// comes back.
pub struct Runner {
    workload: Workload,
    shape: Shape,
    traffic: Traffic,
    next_op: u64,
    pub checker: Checker,
}

impl Runner {
    pub fn new(workload: Workload, shape: Shape, profiles: &[Profile], rng: Rng) -> Runner {
        // Sign-ups draw nothing from it: op k onboards user `n<k>`.
        let offered = match workload {
            Workload::Mixed => Offered::All,
            _ => Offered::GenerateOnly,
        };
        let traffic = Traffic::new(rng, profiles, offered);
        Runner {
            workload,
            shape,
            traffic,
            next_op: 0,
            checker: Checker::new(shape.prefix_ops),
        }
    }

    /// Name of one measured unit in the trace.
    pub fn unit_name(&self) -> &'static str {
        match self.workload {
            Workload::Burst | Workload::Mixed => "wave",
            Workload::Interactive | Workload::Signup => "op",
        }
    }

    pub fn ops_offered(&self) -> u64 {
        self.next_op
    }

    pub fn run_unit(&mut self, deployment: &mut Deployment) -> Result<Unit, String> {
        match self.workload {
            Workload::Interactive => self.interactive_op(deployment),
            Workload::Burst | Workload::Mixed => self.fleet_wave(deployment),
            Workload::Signup => self.signup_op(deployment),
        }
    }

    fn interactive_op(&mut self, deployment: &mut Deployment) -> Result<Unit, String> {
        let op = self.traffic.next_op();
        let index = self.next_op;
        self.next_op += 1;
        let Host::System(system) = &mut deployment.host else {
            return Err("interactive expects the single-host deployment".into());
        };
        let user = deployment.users.get(op.user).ok_or("op names no user")?;
        let (username, domain) = user.accounts.get(op.account).ok_or("op names no account")?;
        let started = Instant::now();
        let result = system.generate_password(&user.browser, &user.phone, username, domain);
        let mut unit = Unit {
            attempted: 1,
            program_s: started.elapsed().as_secs_f64(),
            ..Unit::default()
        };
        match result {
            Ok(outcome) => {
                if outcome.account.username != *username || outcome.account.domain != *domain {
                    self.checker
                        .violation(format!("op {index}: password for the wrong account"));
                }
                self.checker
                    .password(index, op.user, op.account, &outcome.password, true);
                unit.sim_ms.push(outcome.latency.as_millis_f64());
            }
            Err(_) => unit.failed = 1,
        }
        Ok(unit)
    }

    fn fleet_wave(&mut self, deployment: &mut Deployment) -> Result<Unit, String> {
        let ops: Vec<_> = (0..self.shape.unit_ops)
            .map(|_| self.traffic.next_op())
            .collect();
        let mut fleet_ops = Vec::with_capacity(ops.len());
        for op in &ops {
            let user = deployment
                .users
                .get(op.user)
                .ok_or("op names no user")?
                .id
                .clone();
            fleet_ops.push(match op.kind {
                OpKind::Login => FleetOp::Login { user },
                OpKind::Generate => FleetOp::Generate {
                    user,
                    account: op.account,
                },
                OpKind::Rotate => FleetOp::Rotate {
                    user,
                    account: op.account,
                },
                OpKind::Recover => FleetOp::Recover { user },
            });
        }
        let fleet = deployment.fleet()?;
        let started = Instant::now();
        let results = fleet.run_ops(&fleet_ops);
        let mut unit = Unit {
            attempted: ops.len() as u64,
            program_s: started.elapsed().as_secs_f64(),
            ..Unit::default()
        };
        if results.len() != ops.len() {
            return Err(format!("{} results for {} ops", results.len(), ops.len()));
        }

        // Accounts whose password changed inside this wave: a generation in
        // the same wave may see either side of the change.
        let mut changed: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (op, result) in ops.iter().zip(&results) {
            match result {
                Ok(OpOutcome::SeedRotated) => {
                    changed.insert((op.user, op.account));
                }
                Ok(OpOutcome::Recovered { .. }) => {
                    let n = deployment
                        .users
                        .get(op.user)
                        .map_or(0, |u| u.accounts.len());
                    changed.extend((0..n).map(|a| (op.user, a)));
                }
                _ => {}
            }
        }

        for (op, result) in ops.iter().zip(results) {
            let index = self.next_op;
            self.next_op += 1;
            let user = deployment.users.get(op.user).ok_or("op names no user")?;
            match (op.kind, result) {
                (
                    OpKind::Generate,
                    Ok(OpOutcome::Password {
                        account,
                        password,
                        latency,
                    }),
                ) => {
                    let expected = user.accounts.get(op.account).ok_or("no such account")?;
                    if account.username != expected.0 || account.domain != expected.1 {
                        self.checker
                            .violation(format!("op {index}: password for the wrong account"));
                    }
                    let settled = !changed.contains(&(op.user, op.account));
                    self.checker
                        .password(index, op.user, op.account, &password, settled);
                    unit.sim_ms.push(latency.as_millis_f64());
                }
                (OpKind::Login, Ok(OpOutcome::LoggedIn)) => self.checker.note(index, "login"),
                (OpKind::Rotate, Ok(OpOutcome::SeedRotated)) => self.checker.note(index, "rotate"),
                (OpKind::Recover, Ok(OpOutcome::Recovered { credentials })) => {
                    if credentials != user.accounts.len() {
                        self.checker.violation(format!(
                            "op {index}: recovery returned {credentials} credentials for {} accounts",
                            user.accounts.len()
                        ));
                    }
                    self.checker.note(index, "recover");
                }
                (_, Err(_)) => unit.failed += 1,
                (kind, Ok(_)) => self.checker.violation(format!(
                    "op {index}: {kind:?} returned another op's outcome"
                )),
            }
        }
        for (user, account) in changed {
            self.checker.changed(user, account);
        }
        Ok(unit)
    }

    /// One sign-up, the study's tasks 1–4: register and pair (KDF), add one
    /// account, and generate its first password.
    fn signup_op(&mut self, deployment: &mut Deployment) -> Result<Unit, String> {
        let index = self.next_op;
        self.next_op += 1;
        let id = format!("n{index}");
        let user_index = deployment.users.len();
        let fleet = deployment.fleet()?;
        let started = Instant::now();
        let onboarded = onboard(fleet, id, 1).and_then(|user| {
            let generated = fleet.generate(&user.id, 0).map_err(|e| e.to_string())?;
            Ok((user, generated))
        });
        let mut unit = Unit {
            attempted: 1,
            program_s: started.elapsed().as_secs_f64(),
            ..Unit::default()
        };
        let Ok((user, (account, password, latency))) = onboarded else {
            unit.failed = 1;
            return Ok(unit);
        };
        let wrong_account = user
            .accounts
            .first()
            .is_none_or(|(u, d)| *u != account.username || *d != account.domain);
        if wrong_account {
            self.checker
                .violation(format!("sign-up {index}: password for the wrong account"));
        }
        if password.len() != PasswordPolicy::default().length() {
            self.checker
                .violation(format!("sign-up {index}: password has the wrong length"));
        }
        self.checker.password(index, user_index, 0, &password, true);
        unit.sim_ms.push(latency.as_millis_f64());
        deployment.users.push(user);
        Ok(unit)
    }
}
