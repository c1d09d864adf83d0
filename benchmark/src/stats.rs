//! Small measurement helpers: quantiles, process memory, host-speed probe.

use std::time::{Duration, Instant};

/// Nearest-rank quantile of `(value, weight)` samples; `weight` counts how
/// many ops saw `value`. `None` when there are no samples.
pub fn weighted_quantile(samples: &[(f64, u64)], q: f64) -> Option<f64> {
    let mut sorted: Vec<(f64, u64)> = samples.iter().copied().filter(|s| s.1 > 0).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = sorted.iter().map(|s| s.1).sum();
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (value, weight) in &sorted {
        seen += weight;
        if seen >= rank {
            return Some(*value);
        }
    }
    sorted.last().map(|s| s.0)
}

pub fn median(values: &[f64]) -> Option<f64> {
    let samples: Vec<(f64, u64)> = values.iter().map(|v| (*v, 1)).collect();
    weighted_quantile(&samples, 0.5)
}

/// `VmHWM` (peak) and `VmRSS` (current) of this process, in KiB.
pub fn memory_kib() -> Result<(u64, u64), String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let field = |name: &str| -> Result<u64, String> {
        status
            .lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{name} missing from /proc/self/status"))
    };
    Ok((field("VmHWM:")?, field("VmRSS:")?))
}

/// Wall and CPU time since it started. The program runs on the benchmark's
/// one thread, so wall time the thread spent off the CPU is time the
/// program waited (fsync, the group-commit window).
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Result<Stopwatch, String> {
        Ok(Stopwatch {
            wall: Instant::now(),
            cpu_s: thread_cpu_s()?,
        })
    }

    /// Wall seconds since the start, and how many of them were spent off
    /// the CPU.
    pub fn read(&self) -> Result<(f64, f64), String> {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = thread_cpu_s()? - self.cpu_s;
        Ok((wall, (wall - cpu).max(0.0)))
    }
}

/// `wall` seconds of the program scaled to the reference host: the time
/// spent computing runs at the host's `speed` (`Probe::speed`), so it is
/// multiplied by it; the `waited` seconds are kept as measured.
pub fn scaled_s(wall: f64, waited: f64, speed: f64) -> f64 {
    let waited = waited.clamp(0.0, wall);
    (wall - waited) * speed + waited
}

/// CPU time of the calling thread, seconds.
fn thread_cpu_s() -> Result<f64, String> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through a pointer to a live, aligned value.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err("clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed".into());
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// How long the probe kernel runs per reading.
const PROBE_WINDOW: Duration = Duration::from_millis(10);

/// Kernel rates of the reference host (2-vCPU Intel Xeon VM, quiet), MiB/s.
const HASH_REF_MIB_S: f64 = 220.0;
const ROMIX_REF_MIB_S: f64 = 1000.0;

/// Blocks in the ROMix-shaped kernel's table: 8 MiB of 1 KiB blocks, the
/// working set of `KdfPolicy::INTERACTIVE`.
const ROMIX_BLOCKS: usize = 1 << 13;
const ROMIX_WORDS: usize = 256;

/// How fast the shared host runs at a moment, relative to the reference
/// host, read from a small kernel that lives in this package (so no change
/// to the program can move it) and is shaped like the work that dominates a
/// workload. A reading is 1.0 on the quiet reference host and 0.6 when the
/// host runs the kernel at 60% of that speed.
pub enum Probe {
    /// A SHA-256-shaped compression (message schedule and 64
    /// rotate/xor/add rounds): the ALU-bound work of HMAC, the channel and
    /// the network model.
    Hash,
    /// A ROMix-shaped walk (xor a random 1 KiB block of an 8 MiB table into
    /// the state, then Salsa-style rounds over it): the cache-missing work
    /// of a memory-hard KDF or of a large working set. Holds the table.
    Romix(Vec<u32>),
}

impl Probe {
    pub fn romix() -> Probe {
        let mut rng = crate::traffic::Rng::new(0x0b5e_55ed);
        Probe::Romix(
            (0..ROMIX_BLOCKS * ROMIX_WORDS)
                .map(|_| rng.next_u64() as u32)
                .collect(),
        )
    }

    pub fn speed(&self) -> f64 {
        match self {
            Probe::Hash => hash_mib_s(PROBE_WINDOW) / HASH_REF_MIB_S,
            Probe::Romix(table) => romix_mib_s(table, PROBE_WINDOW) / ROMIX_REF_MIB_S,
        }
    }
}

/// Rate of the SHA-256-shaped kernel, MiB of 64-byte blocks per second.
fn hash_mib_s(window: Duration) -> f64 {
    let mut rng = crate::traffic::Rng::new(0x6a09_e667);
    let k: Vec<u32> = (0..64).map(|_| rng.next_u64() as u32).collect();
    let mut state: [u32; 8] = std::array::from_fn(|_| rng.next_u64() as u32);
    let mut w = [0u32; 64];
    let mut blocks = 0u64;
    let started = Instant::now();
    while started.elapsed() < window {
        for _ in 0..64 {
            for (t, word) in w.iter_mut().take(16).enumerate() {
                *word = state[t % 8] ^ t as u32;
            }
            for t in 16..64 {
                let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
                let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
                w[t] = w[t - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[t - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
            for (kt, wt) in k.iter().zip(&w) {
                let t1 = h
                    .wrapping_add(e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25))
                    .wrapping_add((e & f) ^ (!e & g))
                    .wrapping_add(*kt)
                    .wrapping_add(*wt);
                let t2 = (a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22))
                    .wrapping_add((a & b) ^ (a & c) ^ (b & c));
                (h, g, f, e, d, c, b, a) =
                    (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
            }
            for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *s = s.wrapping_add(v);
            }
            std::hint::black_box(&mut state);
        }
        blocks += 64;
    }
    blocks as f64 * 64.0 / (1u64 << 20) as f64 / started.elapsed().as_secs_f64()
}

/// Rate of the ROMix-shaped kernel, MiB of 1 KiB table blocks mixed per
/// second.
fn romix_mib_s(table: &[u32], window: Duration) -> f64 {
    let mut x = [0x9e37_79b9u32; ROMIX_WORDS];
    let mut steps = 0u64;
    let started = Instant::now();
    while started.elapsed() < window {
        for _ in 0..16 {
            let j = x[ROMIX_WORDS - 16] as usize % ROMIX_BLOCKS;
            let block = table
                .get(j * ROMIX_WORDS..(j + 1) * ROMIX_WORDS)
                .unwrap_or_default();
            for (xi, vi) in x.iter_mut().zip(block) {
                *xi ^= vi;
            }
            for sub in x.chunks_exact_mut(16) {
                salsa_rounds(sub);
            }
            std::hint::black_box(&mut x);
        }
        steps += 16;
    }
    steps as f64 / 1024.0 / started.elapsed().as_secs_f64()
}

/// Eight Salsa-style rounds (column and row quarter-rounds) over 16 words.
fn salsa_rounds(s: &mut [u32]) {
    let mut quarter = |a: usize, b: usize, c: usize, d: usize| {
        s[b] ^= s[a].wrapping_add(s[d]).rotate_left(7);
        s[c] ^= s[b].wrapping_add(s[a]).rotate_left(9);
        s[d] ^= s[c].wrapping_add(s[b]).rotate_left(13);
        s[a] ^= s[d].wrapping_add(s[c]).rotate_left(18);
    };
    for _ in 0..4 {
        quarter(0, 4, 8, 12);
        quarter(5, 9, 13, 1);
        quarter(10, 14, 2, 6);
        quarter(15, 3, 7, 11);
        quarter(0, 1, 2, 3);
        quarter(5, 6, 7, 4);
        quarter(10, 11, 8, 9);
        quarter(15, 12, 13, 14);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank_with_weights() {
        let samples = [(3.0, 1), (1.0, 1), (2.0, 1), (4.0, 1)];
        assert_eq!(weighted_quantile(&samples, 0.5), Some(2.0));
        assert_eq!(weighted_quantile(&samples, 0.99), Some(4.0));
        assert_eq!(weighted_quantile(&samples, 0.0), Some(1.0));
        // A wave of 10 ops at 5.0 outweighs two single ops.
        let waves = [(1.0, 1), (5.0, 10), (9.0, 1)];
        assert_eq!(weighted_quantile(&waves, 0.5), Some(5.0));
        assert_eq!(weighted_quantile(&[], 0.5), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn computing_is_scaled_and_waiting_is_not() {
        let watch = Stopwatch::start().unwrap();
        assert!(hash_mib_s(Duration::from_millis(20)) > 0.0);
        std::thread::sleep(Duration::from_millis(20));
        let (wall, waited) = watch.read().unwrap();
        assert!(
            waited >= 0.015 && wall - waited >= 0.015,
            "{waited} of {wall}"
        );
        assert_eq!(scaled_s(3.0, 1.0, 0.5), 2.0);
        assert_eq!(scaled_s(3.0, 4.0, 0.5), 3.0);
        assert_eq!(scaled_s(3.0, 0.0, 0.5), 1.5);
    }

    #[test]
    fn both_probes_read_a_positive_speed() {
        for probe in [Probe::Hash, Probe::romix()] {
            let speed = probe.speed();
            assert!(speed.is_finite() && speed > 0.0, "{speed}");
        }
    }

    #[test]
    fn memory_is_readable_and_peak_bounds_current() {
        let (peak, current) = memory_kib().unwrap();
        assert!(peak >= current && current > 0);
    }
}
