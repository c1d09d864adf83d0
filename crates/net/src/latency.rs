//! Stochastic per-hop latency models.
//!
//! The Figure 3 experiment models each network leg (server → GCM → phone,
//! phone → server) with a truncated normal distribution; summing independent
//! normal legs yields an approximately normal end-to-end latency whose mean
//! and standard deviation are calibrated against the paper's measurements.

use crate::time::SimDuration;
use amnesia_crypto::SecretRng;

/// A distribution over per-hop latencies.
///
/// ```
/// use amnesia_net::LatencyModel;
/// use amnesia_crypto::SecretRng;
///
/// let mut rng = SecretRng::seeded(1);
/// let model = LatencyModel::normal_ms(100.0, 10.0, 50.0);
/// let sample = model.sample(&mut rng);
/// assert!(sample.as_millis_f64() >= 50.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum LatencyModel {
    /// A fixed latency.
    Constant {
        /// Latency in milliseconds.
        millis: f64,
    },
    /// Normal with mean `mean_ms` and standard deviation `std_ms`, truncated
    /// below at `min_ms` (re-sampled, not clamped, to avoid a point mass).
    Normal {
        /// Mean in milliseconds.
        mean_ms: f64,
        /// Standard deviation in milliseconds.
        std_ms: f64,
        /// Truncation floor in milliseconds.
        min_ms: f64,
    },
}

impl LatencyModel {
    /// A fixed latency of `millis` milliseconds.
    pub fn constant_ms(millis: f64) -> Self {
        LatencyModel::Constant { millis }
    }

    /// Truncated-normal latency.
    ///
    /// # Panics
    ///
    /// Panics if `std_ms` is negative or `min_ms` is negative.
    pub fn normal_ms(mean_ms: f64, std_ms: f64, min_ms: f64) -> Self {
        assert!(std_ms >= 0.0, "standard deviation must be non-negative");
        assert!(min_ms >= 0.0, "truncation floor must be non-negative");
        LatencyModel::Normal {
            mean_ms,
            std_ms,
            min_ms,
        }
    }

    /// Draws one latency sample.
    pub fn sample(&self, rng: &mut SecretRng) -> SimDuration {
        let ms = match *self {
            LatencyModel::Constant { millis } => millis,
            LatencyModel::Normal {
                mean_ms,
                std_ms,
                min_ms,
            } => {
                // Re-sample until above the floor; the experiments keep the
                // floor ≳3σ below the mean so this terminates immediately in
                // practice. Bail out to the floor after a bounded number of
                // tries to guarantee termination for degenerate parameters.
                let mut value = min_ms;
                for _ in 0..64 {
                    let candidate = mean_ms + std_ms * standard_normal(rng);
                    if candidate >= min_ms {
                        value = candidate;
                        break;
                    }
                }
                value
            }
        };
        SimDuration::from_millis_f64(ms)
    }

    /// The distribution's mean latency in milliseconds (ignoring
    /// truncation, which the experiments keep negligible).
    pub fn mean_ms(&self) -> f64 {
        match *self {
            LatencyModel::Constant { millis } => millis,
            LatencyModel::Normal { mean_ms, .. } => mean_ms,
        }
    }
}

/// A uniform draw in `[0, 1)` with 53 bits of precision.
fn unit_f64(rng: &mut SecretRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A standard-normal draw via the Box–Muller transform.
fn standard_normal(rng: &mut SecretRng) -> f64 {
    // Avoid ln(0) by nudging u1 away from zero.
    let u1 = (unit_f64(rng)).max(f64::MIN_POSITIVE);
    let u2 = unit_f64(rng);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(model: &LatencyModel, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = SecretRng::seeded(seed);
        let samples: Vec<f64> = (0..n)
            .map(|_| model.sample(&mut rng).as_millis_f64())
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::constant_ms(12.5);
        let mut rng = SecretRng::seeded(1);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng).as_millis_f64(), 12.5);
        }
    }

    #[test]
    fn normal_matches_parameters() {
        let m = LatencyModel::normal_ms(100.0, 15.0, 0.0);
        let (mean, std) = stats(&m, 50_000, 4);
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
        assert!((std - 15.0).abs() < 0.5, "std {std}");
    }

    #[test]
    fn normal_respects_floor() {
        let m = LatencyModel::normal_ms(10.0, 20.0, 5.0);
        let mut rng = SecretRng::seeded(5);
        for _ in 0..5000 {
            assert!(m.sample(&mut rng).as_millis_f64() >= 5.0);
        }
    }

    #[test]
    fn degenerate_normal_terminates_at_floor() {
        // Mean far below the floor: must not loop forever.
        let m = LatencyModel::normal_ms(-1000.0, 1.0, 50.0);
        let mut rng = SecretRng::seeded(6);
        assert_eq!(m.sample(&mut rng).as_millis_f64(), 50.0);
    }

    #[test]
    fn mean_ms_reports_distribution_mean() {
        assert_eq!(LatencyModel::constant_ms(7.0).mean_ms(), 7.0);
        assert_eq!(LatencyModel::normal_ms(42.0, 5.0, 0.0).mean_ms(), 42.0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = LatencyModel::normal_ms(100.0, 10.0, 0.0);
        let mut a = SecretRng::seeded(8);
        let mut b = SecretRng::seeded(8);
        for _ in 0..100 {
            assert_eq!(m.sample(&mut a), m.sample(&mut b));
        }
    }
}
