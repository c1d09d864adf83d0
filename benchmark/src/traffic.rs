//! The benchmark's own seeded op stream, shaped by the study population.
//!
//! Every draw comes from [`Rng`], a SplitMix64 generator that lives in this
//! package, so no change to the program's DRBG or load generator can change
//! the traffic a workload offers. The program receives only the generated
//! inputs.
//!
//! Benchmark user `k` copies participant `k mod 31` of the pinned study
//! population (`amnesia_userstudy::population`, §VII of the paper). What the
//! study reports, the benchmark takes from it:
//!
//! * **accounts per user** — the participant's account-count bucket (≤ 10
//!   or 11–20); the count is drawn uniformly inside the bucket, since the
//!   study reports only buckets;
//! * **activity** — the participant's daily hours online, as the bucket's
//!   midpoint (2.5, 6, 10 h; 14 h assumed for the open 12+ bucket);
//! * **rotations** — the participant's password-change frequency (Fig. 4d):
//!   never 0, yearly 1 and monthly 12 changes per account per year; rarely
//!   (0.5) and frequently (52, weekly) are assumed.
//!
//! The study gives no figure for how often a user generates, logs in or
//! recovers, so these rates are assumptions, stated in the constants
//! below: one generation per hour online, one browser login per day, one
//! phone recovery every two years. A user is drawn with weight equal to the sum
//! of its rates for the op kinds the workload offers, then the op kind by
//! those rates, then the account uniformly among the user's.

use amnesia_userstudy::population::{
    AccountCountBucket, ChangeFrequency, HoursOnline, Participant, Population, PARTICIPANTS,
};

/// SplitMix64: small, fast, and fixed here forever so a seed always names
/// the same op stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.next_u64() % n as u64) as usize
    }

    /// An independent stream for a sub-purpose (population, deployment seed).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// Seed of the pinned population the benchmark's users copy: the one the
/// study crate's own tests pin, so its marginals are the paper's.
const POPULATION_SEED: u64 = 1;

// Per-user yearly rates the study gives no figure for (assumptions).
/// Generations per year per daily hour online: one per hour online.
const GENERATIONS_PER_ONLINE_HOUR: f64 = 365.0;
/// Browser logins per year: one a day.
const LOGINS: f64 = 365.0;
/// Phone recoveries per year: one every two years.
const RECOVERIES: f64 = 0.5;

/// Daily hours online: the bucket's midpoint; 14 h for the open 12+ bucket.
fn hours_online(h: HoursOnline) -> f64 {
    match h {
        HoursOnline::H1To4 => 2.5,
        HoursOnline::H4To8 => 6.0,
        HoursOnline::H8To12 => 10.0,
        HoursOnline::H12Plus => 14.0,
    }
}

/// Password changes per account per year (Fig. 4d's answers).
fn changes_per_year(c: ChangeFrequency) -> f64 {
    match c {
        ChangeFrequency::Never => 0.0,
        ChangeFrequency::Rarely => 0.5,
        ChangeFrequency::Yearly => 1.0,
        ChangeFrequency::Monthly => 12.0,
        ChangeFrequency::Frequently => 52.0,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Login,
    Generate,
    Rotate,
    Recover,
}

/// One benchmark user's traffic, copied from a study participant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Profile {
    pub accounts: usize,
    /// Yearly rates of login, generate, rotate and recover, in that order.
    rates: [f64; 4],
}

impl Profile {
    fn of(participant: &Participant, rng: &mut Rng) -> Profile {
        let accounts = match participant.accounts {
            AccountCountBucket::UpTo10 => 1 + rng.below(10),
            AccountCountBucket::From11To20 => 11 + rng.below(10),
        };
        Profile {
            accounts,
            rates: [
                LOGINS,
                GENERATIONS_PER_ONLINE_HOUR * hours_online(participant.hours_online),
                accounts as f64 * changes_per_year(participant.change),
                RECOVERIES,
            ],
        }
    }
}

/// Profiles of `count` users; user `k` copies participant `k mod 31`.
pub fn profiles(count: usize, rng: &mut Rng) -> Vec<Profile> {
    let population = Population::generate(POPULATION_SEED);
    let participants: Vec<&Participant> = population.iter().collect();
    (0..count)
        .map(|k| Profile::of(participants[k % PARTICIPANTS], rng))
        .collect()
}

const KINDS: [OpKind; 4] = [
    OpKind::Login,
    OpKind::Generate,
    OpKind::Rotate,
    OpKind::Recover,
];

/// Which op kinds a workload offers.
#[derive(Clone, Copy, Debug)]
pub enum Offered {
    GenerateOnly,
    /// Every kind, at the population's rates.
    All,
}

impl Offered {
    fn includes(self, kind: OpKind) -> bool {
        matches!(self, Offered::All) || kind == OpKind::Generate
    }
}

/// An index drawn in proportion to the weights whose running totals are
/// `cumulative`.
fn draw(cumulative: &[f64], rng: &mut Rng) -> usize {
    let total = cumulative.last().copied().unwrap_or(0.0);
    let target = rng.unit() * total;
    cumulative
        .partition_point(|c| *c <= target)
        .min(cumulative.len().saturating_sub(1))
}

fn running_total(weights: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut total = 0.0;
    weights
        .map(|w| {
            total += w;
            total
        })
        .collect()
}

/// One offered operation, by user and account index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub user: usize,
    pub account: usize,
}

/// A seeded op generator over a fixed set of users.
#[derive(Clone, Debug)]
pub struct Traffic {
    rng: Rng,
    /// Running totals of each user's offered rate.
    users: Vec<f64>,
    /// Each user's running totals of offered rates over [`KINDS`], and
    /// account count.
    kinds: Vec<(Vec<f64>, usize)>,
}

impl Traffic {
    pub fn new(rng: Rng, profiles: &[Profile], offered: Offered) -> Self {
        let kinds: Vec<(Vec<f64>, usize)> = profiles
            .iter()
            .map(|p| {
                let rates = p.rates.into_iter().zip(KINDS).map(|(rate, kind)| {
                    if offered.includes(kind) {
                        rate
                    } else {
                        0.0
                    }
                });
                (running_total(rates), p.accounts)
            })
            .collect();
        Traffic {
            rng,
            users: running_total(
                kinds
                    .iter()
                    .map(|(totals, _)| totals.last().copied().unwrap_or(0.0)),
            ),
            kinds,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let user = draw(&self.users, &mut self.rng);
        let (kind, accounts) = match self.kinds.get(user) {
            Some((totals, accounts)) => (KINDS[draw(totals, &mut self.rng)], *accounts),
            None => (OpKind::Generate, 1),
        };
        Op {
            kind,
            user,
            account: self.rng.below(accounts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles_for(seed: u64, count: usize) -> Vec<Profile> {
        profiles(count, &mut Rng::new(seed))
    }

    #[test]
    fn same_seed_same_stream_and_different_seed_differs() {
        let users = profiles_for(1, 62);
        let stream = |seed| {
            let mut t = Traffic::new(Rng::new(seed), &users, Offered::All);
            (0..200).map(|_| t.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        assert_eq!(profiles_for(3, 31), profiles_for(3, 31));
    }

    #[test]
    fn accounts_follow_the_study_buckets() {
        let users = profiles_for(2, 31 * 40);
        let population = Population::generate(POPULATION_SEED);
        for (k, p) in users.iter().enumerate() {
            let bucket = population.iter().nth(k % PARTICIPANTS).map(|x| x.accounts);
            let range = match bucket {
                Some(AccountCountBucket::UpTo10) => 1..=10,
                _ => 11..=20,
            };
            assert!(range.contains(&p.accounts), "user {k}: {}", p.accounts);
        }
        // 17 participants with ≤ 10 accounts (mean 5.5), 14 with 11–20 (15.5).
        let mean = users.iter().map(|p| p.accounts as f64).sum::<f64>() / users.len() as f64;
        assert!((9.5..10.9).contains(&mean), "{mean}");
    }

    #[test]
    fn ops_follow_the_population_rates() {
        let users = profiles_for(4, 31);
        let mut t = Traffic::new(Rng::new(5), &users, Offered::All);
        let draws = 200_000;
        let mut kinds = [0usize; 4];
        let mut per_user = vec![0usize; users.len()];
        for _ in 0..draws {
            let op = t.next_op();
            assert!(op.account < users[op.user].accounts);
            kinds[KINDS.iter().position(|k| *k == op.kind).unwrap()] += 1;
            per_user[op.user] += 1;
        }
        let total_rate: f64 = users.iter().flat_map(|p| p.rates).sum();
        for (i, count) in kinds.iter().enumerate() {
            let expected = users.iter().map(|p| p.rates[i]).sum::<f64>() / total_rate;
            let seen = *count as f64 / draws as f64;
            assert!(
                (seen - expected).abs() < 0.005,
                "kind {i}: {seen} vs {expected}"
            );
        }
        assert!(kinds[3] > 0, "recoveries are rare but present");
        // A 12+ h user is offered about 14 / 2.5 times the generations of
        // a 1–4 h user.
        let mut t = Traffic::new(Rng::new(6), &users, Offered::GenerateOnly);
        let population = Population::generate(POPULATION_SEED);
        let hours: Vec<HoursOnline> = population.iter().map(|p| p.hours_online).collect();
        let mut by_hours = [0usize; 2];
        for _ in 0..draws {
            let op = t.next_op();
            assert_eq!(op.kind, OpKind::Generate);
            match hours[op.user] {
                HoursOnline::H1To4 => by_hours[0] += 1,
                HoursOnline::H12Plus => by_hours[1] += 1,
                _ => {}
            }
        }
        // 4 participants at 1–4 h, 6 at 12+ h.
        let ratio = (by_hours[1] as f64 / 6.0) / (by_hours[0] as f64 / 4.0);
        assert!((5.0..6.2).contains(&ratio), "{ratio}");
    }
}
