//! Deployment configuration and calibrated network profiles.

use amnesia_crypto::KdfPolicy;
use amnesia_net::{LatencyModel, SimDuration};

/// Per-leg latency models plus component compute times.
///
/// The measured quantity of the paper's Figure 3 is
/// `latency = tend − tstart` where `tstart` is stamped when the server hands
/// `R` to the rendezvous and `tend` after the server computes `P` from the
/// returned token. The legs inside that window are
/// server → GCM, GCM → phone (push), phone compute, phone → server
/// (direct), and the final server compute.
///
/// The [`wifi`](NetProfile::wifi) and [`cellular_4g`](NetProfile::cellular_4g)
/// constructors are calibrated so the end-to-end sum matches the paper's
/// measurements (Wifi x̄ = 785.3 ms, σ = 171.5; 4G x̄ = 978.7 ms,
/// σ = 137.9): means add across legs, and for independent normal legs the
/// variances add. EXPERIMENTS.md records the decomposition.
#[derive(Clone, Debug, PartialEq)]
pub struct NetProfile {
    /// Human-readable name ("wifi", "4g", …).
    pub name: String,
    /// Browser ↔ server HTTPS link (both directions; outside the measured
    /// window but part of user-perceived latency).
    pub browser_server: LatencyModel,
    /// Server → rendezvous upload (EC2 → Google backbone).
    pub server_gcm: LatencyModel,
    /// Rendezvous → phone push delivery (the access network's last mile).
    pub gcm_phone: LatencyModel,
    /// Phone → server direct upload (access network + Internet).
    pub phone_server: LatencyModel,
    /// Server-side time to derive `R` and assemble the push.
    pub request_compute: SimDuration,
    /// Phone-side time to run Algorithm 1 (16 table lookups + SHA-256).
    pub token_compute: SimDuration,
    /// Server-side time to compute `p` and render the password.
    pub password_compute: SimDuration,
    /// Probability that a push frame is lost on the rendezvous → phone leg
    /// (mobile push delivery is best-effort; 0.0 in the calibrated paper
    /// profiles, raised by the failure-injection tests).
    pub push_drop_probability: f64,
}

impl NetProfile {
    /// The paper's Wifi condition (Cox Communications, 30/10 Mbps,
    /// suburban).
    ///
    /// Decomposition: server→GCM `N(90, 25)`, GCM→phone `N(352.3, 120)`,
    /// phone→server `N(340, 120)`, computes 2 ms + 1 ms.
    /// Sum: mean `90 + 352.3 + 340 + 3 = 785.3`,
    /// σ = `√(25² + 120² + 120²) = 171.54`.
    pub fn wifi() -> Self {
        NetProfile {
            name: "wifi".into(),
            browser_server: LatencyModel::normal_ms(25.0, 8.0, 5.0),
            server_gcm: LatencyModel::normal_ms(90.0, 25.0, 20.0),
            gcm_phone: LatencyModel::normal_ms(352.3, 120.0, 50.0),
            phone_server: LatencyModel::normal_ms(340.0, 120.0, 50.0),
            request_compute: SimDuration::from_millis(1),
            token_compute: SimDuration::from_millis(2),
            password_compute: SimDuration::from_millis(1),
            push_drop_probability: 0.0,
        }
    }

    /// The paper's 4G condition (T-Mobile, suburban).
    ///
    /// Decomposition: server→GCM `N(90, 25)`, GCM→phone `N(455, 95.9)`,
    /// phone→server `N(430.7, 95.9)`, computes 2 ms + 1 ms.
    /// Sum: mean `90 + 455 + 430.7 + 3 = 978.7`,
    /// σ = `√(25² + 95.9² + 95.9²) = 137.9`.
    pub fn cellular_4g() -> Self {
        NetProfile {
            name: "4g".into(),
            browser_server: LatencyModel::normal_ms(25.0, 8.0, 5.0),
            server_gcm: LatencyModel::normal_ms(90.0, 25.0, 20.0),
            gcm_phone: LatencyModel::normal_ms(455.0, 95.9, 80.0),
            phone_server: LatencyModel::normal_ms(430.7, 95.9, 80.0),
            request_compute: SimDuration::from_millis(1),
            token_compute: SimDuration::from_millis(2),
            password_compute: SimDuration::from_millis(1),
            push_drop_probability: 0.0,
        }
    }

    /// An idealized fast network for functional tests (1 ms everywhere,
    /// zero compute).
    pub fn lan() -> Self {
        NetProfile {
            name: "lan".into(),
            browser_server: LatencyModel::constant_ms(1.0),
            server_gcm: LatencyModel::constant_ms(1.0),
            gcm_phone: LatencyModel::constant_ms(1.0),
            phone_server: LatencyModel::constant_ms(1.0),
            request_compute: SimDuration::ZERO,
            token_compute: SimDuration::ZERO,
            password_compute: SimDuration::ZERO,
            push_drop_probability: 0.0,
        }
    }

    /// Returns a copy with the push leg made lossy (failure injection).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_push_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.push_drop_probability = p;
        self
    }

    /// The mean of the Figure 3 measured window implied by this profile
    /// (legs inside `tend − tstart` plus compute times).
    pub fn expected_generation_mean_ms(&self) -> f64 {
        self.server_gcm.mean_ms()
            + self.gcm_phone.mean_ms()
            + self.phone_server.mean_ms()
            + self.token_compute.as_millis_f64()
            + self.password_compute.as_millis_f64()
    }
}

/// Top-level deployment parameters.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Seed splitting into per-component deterministic streams.
    pub seed: u64,
    /// Network latency profile.
    pub profile: NetProfile,
    /// KDF hardness policy of the master-password verifier
    /// ([`KdfPolicy::PAPER`] = the paper's salted hash; ladder rungs buy
    /// memory-hardness). The `Pid` verifier is the paper's salted hash at
    /// every rung: a 512-bit random `Pid` needs no per-guess cost.
    pub kdf_policy: KdfPolicy,
    /// Entry-table size `N` for newly installed phones.
    pub table_size: usize,
    /// Whether browser↔server and phone↔server traffic is sealed with the
    /// toy AE channel (HTTPS on) — disable only to demonstrate what a
    /// wiretap sees without HTTPS.
    pub secure_channels: bool,
    /// Per-session timeout armed with every protocol send; an expired
    /// session retries (if its attempt budget allows) or fails with
    /// `SystemError::MissingReply`.
    pub session_timeout: SimDuration,
    /// Bounded in-flight cap for batch drivers
    /// (`generate_passwords_concurrent`): at most this many sessions are
    /// open at once; the rest wait in the batch's backlog. `usize::MAX`
    /// (the default) keeps the historical open-everything behaviour.
    pub max_inflight: usize,
    /// Overrides the server's DRBG seed (normally drawn from the `seed`
    /// stream), so a single host can be the byte-identical ground truth
    /// for one fleet shard.
    pub server_seed: Option<u64>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            seed: 0,
            profile: NetProfile::lan(),
            kdf_policy: KdfPolicy::PAPER,
            table_size: amnesia_core::EntryTable::DEFAULT_SIZE,
            secure_channels: true,
            session_timeout: crate::session::DEFAULT_TIMEOUT,
            max_inflight: usize::MAX,
            server_seed: None,
        }
    }
}

impl SystemConfig {
    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the network profile.
    pub fn with_profile(mut self, profile: NetProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Overrides the phone entry-table size.
    pub fn with_table_size(mut self, table_size: usize) -> Self {
        self.table_size = table_size;
        self
    }

    /// Selects the KDF hardness rung of the master-password verifier.
    pub fn with_kdf_policy(mut self, kdf_policy: KdfPolicy) -> Self {
        self.kdf_policy = kdf_policy;
        self
    }

    /// Enables or disables channel encryption.
    ///
    /// A test fixture: every deployment seals its channels. The §IV-A
    /// ablation `insecure_channels_expose_plaintext` (`system.rs`) turns
    /// them off to show what a wiretap sees without HTTPS, and
    /// `crates/system/tests/dispatch_edges.rs` does so to put its own bytes
    /// on the browser's link (`a_policy_with_no_characters_off_the_wire_is_a_fault_not_an_account`,
    /// `a_username_with_nul_off_the_wire_is_a_fault_not_an_account`).
    pub fn with_secure_channels(mut self, on: bool) -> Self {
        self.secure_channels = on;
        self
    }

    /// Overrides the per-session timeout.
    pub fn with_session_timeout(mut self, timeout: SimDuration) -> Self {
        self.session_timeout = timeout;
        self
    }

    /// Caps how many sessions batch drivers keep open at once.
    ///
    /// A test fixture: no deployment sets it, so a batch opens every
    /// session at once. `tests/concurrency.rs` needs a cap to show the
    /// window slides without losing a request
    /// (`bounded_inflight_cap_slides_without_losing_requests`) and to pin a
    /// windowed timeline (`single_host_timeline_is_pinned`), and
    /// `crates/fleet/tests/fleet_e2e.rs` gives the single host the fleet's
    /// window (`single_host_is_a_one_shard_fleet`).
    pub fn with_max_inflight(mut self, cap: usize) -> Self {
        self.max_inflight = cap.max(1);
        self
    }

    /// Pins the server's DRBG seed instead of drawing it from the system
    /// seed stream.
    ///
    /// A test fixture: no deployment sets it.
    /// `crates/fleet/tests/fleet_e2e.rs`'s
    /// `fleet_passwords_match_single_host_ground_truth` builds each shard's
    /// single-host twin from that shard's server seed.
    pub fn with_server_seed(mut self, server_seed: u64) -> Self {
        self.server_seed = Some(server_seed);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wifi_profile_sums_to_paper_mean() {
        let p = NetProfile::wifi();
        assert!((p.expected_generation_mean_ms() - 785.3).abs() < 0.01);
    }

    #[test]
    fn cellular_profile_sums_to_paper_mean() {
        let p = NetProfile::cellular_4g();
        assert!((p.expected_generation_mean_ms() - 978.7).abs() < 0.01);
    }

    #[test]
    fn leg_sigmas_compose_to_paper_sigma() {
        // Independent normal legs: variances add.
        let sigma = |m: &LatencyModel| match *m {
            LatencyModel::Normal { std_ms, .. } => std_ms,
            _ => panic!("expected normal"),
        };
        let p = NetProfile::wifi();
        let total = (sigma(&p.server_gcm).powi(2)
            + sigma(&p.gcm_phone).powi(2)
            + sigma(&p.phone_server).powi(2))
        .sqrt();
        assert!((total - 171.5).abs() < 0.2, "wifi sigma {total}");

        let p = NetProfile::cellular_4g();
        let total = (sigma(&p.server_gcm).powi(2)
            + sigma(&p.gcm_phone).powi(2)
            + sigma(&p.phone_server).powi(2))
        .sqrt();
        assert!((total - 137.9).abs() < 0.2, "4g sigma {total}");
    }

    #[test]
    fn wifi_is_faster_than_4g() {
        assert!(
            NetProfile::wifi().expected_generation_mean_ms()
                < NetProfile::cellular_4g().expected_generation_mean_ms()
        );
    }

    #[test]
    fn config_builders() {
        let c = SystemConfig::default()
            .with_seed(7)
            .with_table_size(100)
            .with_secure_channels(false)
            .with_profile(NetProfile::wifi());
        assert_eq!(c.seed, 7);
        assert_eq!(c.table_size, 100);
        assert!(!c.secure_channels);
        assert_eq!(c.profile.name, "wifi");
    }
}
