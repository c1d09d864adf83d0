//! The allocation budget of the frame path (DESIGN.md §12, "Who owns a
//! frame's bytes").
//!
//! A counting global allocator pins the allocator calls (`alloc`,
//! `alloc_zeroed` and `realloc`) and the bytes they ask for, per
//! steady-state generation on the single host and per op of one fleet
//! wave. It also keeps a window's net live bytes (`dealloc` and the old
//! size of a `realloc` subtracted), which pins what the fleet keeps on
//! the heap per user it adds and per account. The counters are per thread
//! and armed only around the measured window, so the suite's other tests,
//! which the harness runs on threads of their own, never reach them.
//!
//! A run is deterministic in every allocation but one kind: the server
//! times steps 2 and 5 on the wall clock, and a histogram grows its bucket
//! vector (one `realloc`) when a sample lands in an octave above all it
//! has seen, so a slow step can add a call. Each figure is therefore the
//! minimum over [`RUNS`] identical runs from the same seeds, and it may
//! exceed its pin by at most one such growth per wall-clock histogram
//! ([`WALL_TIMED`]); a debug build, whose steps take tens of
//! microseconds, needs that now and then.
//!
//! To re-pin after a change that moves an allocation on purpose, run
//! `cargo test --release --test alloc_budget -- --nocapture`: each test
//! prints its measured window before comparing it with the pin.

use amnesia_core::{Domain, PasswordPolicy, Username};
use amnesia_fleet::{Fleet, FleetConfig, FleetOp};
use amnesia_net::SecureChannel;
use amnesia_phone::ConfirmPolicy;
use amnesia_server::protocol::{FromServer, Reply, ToServer};
use amnesia_system::{AmnesiaSystem, NetProfile, SystemConfig, SERVER_ENDPOINT};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocator call asking for `bytes` that gives back `freed`
/// (a `realloc`'s old size), or with `call` false, a `dealloc` of `freed`.
fn note(call: bool, bytes: usize, freed: usize) {
    // A thread being torn down has no counters left to arm.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            if call {
                CALLS.with(|calls| calls.set(calls.get() + 1));
                BYTES.with(|total| total.set(total.get() + bytes as u64));
            }
            LIVE.with(|live| live.set(live.get() + bytes as i64 - freed as i64));
        }
    });
}

// SAFETY: every method hands its arguments to `System` unchanged; counting
// touches only this thread's integers and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, 0, layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocator calls, requested bytes and net live bytes over one measured
/// window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Window {
    calls: u64,
    bytes: u64,
    live: i64,
}

impl std::ops::AddAssign for Window {
    fn add_assign(&mut self, other: Window) {
        self.calls += other.calls;
        self.bytes += other.bytes;
        self.live += other.live;
    }
}

/// Runs `f` with this thread's counters armed.
fn count(f: impl FnOnce()) -> Window {
    CALLS.with(|calls| calls.set(0));
    BYTES.with(|total| total.set(0));
    LIVE.with(|live| live.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    Window {
        calls: CALLS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        live: LIVE.with(Cell::get),
    }
}

/// Identical runs per figure; see the module docs.
const RUNS: usize = 3;

/// The wall-clock histograms a generation records into: the server's
/// `step2_derive_request_us` and `step5_assemble_password_us`.
const WALL_TIMED: u64 = 2;

/// The most one histogram growth can ask for: a bucket vector spanning
/// every octave of a `u64` (1 920 buckets of 8 bytes).
const MAX_GROWTH_BYTES: u64 = 1_920 * 8;

/// Checks `window`'s calls and bytes against their pins: equal, but for
/// the growth of the [`WALL_TIMED`] histograms.
fn assert_pinned(window: Window, calls: u64, bytes: u64) {
    let calls = calls..=calls + WALL_TIMED;
    let bytes = bytes..=bytes + WALL_TIMED * MAX_GROWTH_BYTES;
    assert!(
        calls.contains(&window.calls) && bytes.contains(&window.bytes),
        "measured {window:?}, pinned calls {calls:?} and bytes {bytes:?}"
    );
}

/// Checks `window`'s net live bytes against their pin, with the same
/// allowance as [`assert_pinned`].
fn assert_live_pinned(window: Window, live: i64) {
    let growth = (WALL_TIMED * MAX_GROWTH_BYTES) as i64;
    assert!(
        (live..=live + growth).contains(&window.live),
        "measured {window:?}, pinned live bytes {live}"
    );
}

/// The minimum of each figure over [`RUNS`] runs of `run`.
fn least(run: impl Fn() -> Window) -> Window {
    (0..RUNS).map(|_| run()).fold(
        Window {
            calls: u64::MAX,
            bytes: u64::MAX,
            live: i64::MAX,
        },
        |a, b| Window {
            calls: a.calls.min(b.calls),
            bytes: a.bytes.min(b.bytes),
            live: a.live.min(b.live),
        },
    )
}

fn account(user: &str, index: usize) -> (Username, Domain) {
    (
        Username::new(format!("{user}-a{index}")).unwrap(),
        Domain::new(format!("s{index}.{user}.example.com")).unwrap(),
    )
}

/// Generations in the single host's measured window, after as many to
/// warm up.
const GENERATIONS: u64 = 64;

/// The single host of the paper's latency experiment: wifi, channels on,
/// an auto-confirming phone, eight accounts generated round-robin.
fn single_host_window() -> Window {
    let config = SystemConfig::default()
        .with_seed(22)
        .with_profile(NetProfile::wifi())
        .with_table_size(64);
    let mut sys = AmnesiaSystem::new(config);
    sys.add_browser("browser");
    sys.add_phone("phone", 23);
    sys.setup_user("alice", "mp", "browser", "phone").unwrap();
    sys.phone_mut("phone")
        .unwrap()
        .set_confirm_policy(ConfirmPolicy::AutoConfirm);
    let accounts: Vec<_> = (0..8).map(|i| account("alice", i)).collect();
    for (username, domain) in &accounts {
        sys.add_account(
            "browser",
            username.clone(),
            domain.clone(),
            PasswordPolicy::default(),
        )
        .unwrap();
    }
    let mut generate = |i: u64| {
        let (username, domain) = &accounts[i as usize % accounts.len()];
        let outcome = sys.generate_password("browser", "phone", username, domain);
        assert!(outcome.is_ok(), "generation {i}: {outcome:?}");
    };
    for i in 0..GENERATIONS {
        generate(i);
    }
    count(|| {
        for i in GENERATIONS..2 * GENERATIONS {
            generate(i);
        }
    })
}

/// Allocator calls over the single host's window: 21 per generation
/// (DESIGN.md §12 names each).
const SINGLE_HOST_CALLS: u64 = 1_344;
/// Requested bytes over the single host's window: 1 723 per generation.
const SINGLE_HOST_BYTES: u64 = 110_272;

#[test]
fn a_single_host_generation_stays_within_its_allocation_budget() {
    let window = least(single_host_window);
    println!(
        "single host: {window:?} over {GENERATIONS} generations ({:.3} calls, {:.1} bytes each)",
        window.calls as f64 / GENERATIONS as f64,
        window.bytes as f64 / GENERATIONS as f64,
    );
    assert!(window.calls <= 30 * GENERATIONS, "{window:?}");
    assert_pinned(window, SINGLE_HOST_CALLS, SINGLE_HOST_BYTES);
}

/// Fleet users, one generation each per wave.
const FLEET_USERS: usize = 32;

/// Accounts per fleet user, added with the default policy.
const FLEET_ACCOUNTS: usize = 4;

/// What one build of the fleet measures: its users' set-up, their
/// accounts, and one wave.
struct FleetWindows {
    /// The [`FLEET_USERS`] `add_user` calls.
    users: Window,
    /// The `FLEET_USERS * FLEET_ACCOUNTS` `add_account` calls.
    accounts: Window,
    /// The measured wave.
    wave: Window,
}

/// A 4-shard, 2-instance fleet (manual confirmation, the default) whose
/// users and accounts are added one by one, then one wave after two to
/// warm up.
fn fleet_windows() -> FleetWindows {
    let mut fleet = Fleet::new(
        FleetConfig::default()
            .with_seed(31)
            .with_shards(4)
            .with_rendezvous(2)
            .with_table_size(64),
    );
    let users: Vec<String> = (0..FLEET_USERS).map(|u| format!("u{u}")).collect();
    let (mut added_users, mut added_accounts) = (Window::default(), Window::default());
    for user in &users {
        let mut added = Ok(0);
        added_users += count(|| added = fleet.add_user(user, "mp"));
        added.unwrap();
        for index in 0..FLEET_ACCOUNTS {
            let (username, domain) = account(user, index);
            let mut added = Ok(0);
            added_accounts += count(|| {
                added = fleet.add_account(user, username, domain, PasswordPolicy::default())
            });
            added.unwrap();
        }
    }
    let wave = |k: usize| -> Vec<FleetOp> {
        users
            .iter()
            .enumerate()
            .map(|(i, user)| FleetOp::Generate {
                user: user.clone(),
                account: (i + k) % 2,
            })
            .collect()
    };
    for k in 0..2 {
        for result in fleet.run_ops(&wave(k)) {
            result.unwrap();
        }
    }
    let ops = wave(2);
    let mut results = Vec::new();
    let wave = count(|| results = fleet.run_ops(&ops));
    for result in results {
        result.unwrap();
    }
    FleetWindows {
        users: added_users,
        accounts: added_accounts,
        wave,
    }
}

/// Allocator calls over the fleet's measured wave: 22.97 per op.
const FLEET_CALLS: u64 = 735;
/// Requested bytes over the fleet's measured wave: 2 244 per op.
const FLEET_BYTES: u64 = 71_810;

#[test]
fn a_fleet_wave_stays_within_its_allocation_budget() {
    let window = least(|| fleet_windows().wave);
    let ops = FLEET_USERS as u64;
    println!(
        "fleet wave: {window:?} over {ops} ops ({:.3} calls, {:.1} bytes each)",
        window.calls as f64 / ops as f64,
        window.bytes as f64 / ops as f64,
    );
    assert!(window.calls <= 31 * ops, "{window:?}");
    assert_pinned(window, FLEET_CALLS, FLEET_BYTES);
}

/// Net live bytes over the fleet's [`FLEET_USERS`] `add_user` calls:
/// 10 202 per user, with its cloud backup at its exact length, its four
/// channels in the slab and its state in the fleet's and the server's
/// dense vectors.
const FLEET_USER_LIVE: i64 = 326_459;

#[test]
fn a_fleet_user_keeps_its_pinned_live_bytes() {
    let window = least(|| fleet_windows().users);
    println!(
        "fleet users: {window:?} over {FLEET_USERS} users ({:.1} live bytes each)",
        window.live as f64 / FLEET_USERS as f64,
    );
    assert_live_pinned(window, FLEET_USER_LIVE);
}

/// Net live bytes over the fleet's `add_account` calls: 778 per account,
/// none of them a copy of the default character table.
const FLEET_ACCOUNT_LIVE: i64 = 99_552;

#[test]
fn a_fleet_account_keeps_its_pinned_live_bytes() {
    let window = least(|| fleet_windows().accounts);
    let accounts = FLEET_USERS * FLEET_ACCOUNTS;
    println!(
        "fleet accounts: {window:?} over {accounts} accounts ({:.1} live bytes each)",
        window.live as f64 / accounts as f64,
    );
    assert_live_pinned(window, FLEET_ACCOUNT_LIVE);
}

/// The host encodes every message into one reused buffer. A long message
/// and then a short one must each leave as exactly their own encoding,
/// sealed: bytes the long one left behind in the buffer would show here
/// as a longer frame or a frame that fails to decode.
#[test]
fn each_frame_is_exactly_its_message_sealed() {
    let mut sys = AmnesiaSystem::new(SystemConfig::default().with_seed(41).with_table_size(64));
    sys.add_browser("browser");
    let up = sys.net_mut().tap("browser", SERVER_ENDPOINT).unwrap();
    let down = sys.net_mut().tap(SERVER_ENDPOINT, "browser").unwrap();
    let long = "l".repeat(300);
    for user_id in [long.as_str(), "s"] {
        let err = sys.login("browser", user_id, "mp").unwrap_err();
        assert!(err.to_string().contains("unknown user"), "{err}");
    }

    let open = |from: &str, to: &str, sealed: &[u8]| {
        let (enc, mac) = sys.export_channel_keys_for_attack_model(from, to).unwrap();
        SecureChannel::decrypt_with_stolen_keys(&enc, &mac, sealed).unwrap()
    };
    let requests = up.records();
    let replies = down.records();
    assert_eq!((requests.len(), replies.len()), (2, 2));
    for (i, user_id) in [long.as_str(), "s"].into_iter().enumerate() {
        let plaintext = open("browser", SERVER_ENDPOINT, &requests[i].payload);
        let message = ToServer::from_wire(&plaintext).unwrap();
        let ToServer::Login {
            user_id: sent,
            master_password,
            reply_to,
            ..
        } = &message
        else {
            panic!("frame {i} is not a login: {message:?}");
        };
        assert_eq!((sent.as_str(), master_password.as_str()), (user_id, "mp"));
        assert_eq!(reply_to, "browser");
        assert_eq!(message.to_wire().unwrap(), plaintext, "request {i}");
        assert_eq!(requests[i].payload.len(), 8 + plaintext.len() + 32);

        let plaintext = open(SERVER_ENDPOINT, "browser", &replies[i].payload);
        let reply = Reply::from_wire(&plaintext).unwrap();
        let FromServer::Error { message } = &reply.message else {
            panic!("reply {i} is not an error: {reply:?}");
        };
        assert!(message.contains(&format!("{user_id:?}")), "{message}");
        assert_eq!(reply.to_wire().unwrap(), plaintext, "reply {i}");
        assert_eq!(replies[i].payload.len(), 8 + plaintext.len() + 32);
    }
}
