//! Simulated time.
//!
//! All latency experiments run on simulated time so they are deterministic
//! and take microseconds of wall-clock time regardless of how many seconds
//! of simulated latency they model.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration of simulated time with microsecond resolution.
///
/// ```
/// use amnesia_net::SimDuration;
/// let d = SimDuration::from_millis_f64(1.5);
/// assert_eq!(d.as_micros(), 1500);
/// assert_eq!(d.as_millis_f64(), 1.5);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration {
    micros: u64,
}
amnesia_store::record_struct! { SimDuration { micros } }

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration { micros: 0 };

    /// Constructs from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration { micros }
    }

    /// Constructs from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration {
            micros: millis * 1000,
        }
    }

    /// Constructs from fractional milliseconds (negative values clamp to
    /// zero — latency samples cannot be negative).
    pub fn from_millis_f64(millis: f64) -> Self {
        let micros = (millis * 1000.0).round();
        SimDuration {
            micros: if micros.is_finite() && micros > 0.0 {
                micros as u64
            } else {
                0
            },
        }
    }

    /// The duration in whole microseconds.
    pub fn as_micros(&self) -> u64 {
        self.micros
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.micros as f64 / 1000.0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros + rhs.micros,
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.micros += rhs.micros;
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// An instant of simulated time, measured from the simulation epoch.
///
/// ```
/// use amnesia_net::{SimDuration, SimInstant};
/// let t0 = SimInstant::EPOCH;
/// let t1 = t0 + SimDuration::from_millis(5);
/// assert_eq!((t1 - t0).as_millis_f64(), 5.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimInstant {
    micros: u64,
}
amnesia_store::record_struct! { SimInstant { micros } }

impl SimInstant {
    /// The simulation epoch (time zero).
    pub const EPOCH: SimInstant = SimInstant { micros: 0 };

    /// Microseconds since the epoch.
    pub fn as_micros(&self) -> u64 {
        self.micros
    }

    /// Milliseconds since the epoch, fractional.
    pub fn as_millis_f64(&self) -> f64 {
        self.micros as f64 / 1000.0
    }

    /// The duration elapsed since `earlier`, clamped at zero.
    ///
    /// Simulated time never runs backwards, so the clamp is inert in a
    /// correct harness; saturating keeps a latency measurement from
    /// aborting a whole simulation if an instant is ever misordered.
    pub fn duration_since(&self, earlier: SimInstant) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_sub(earlier.micros),
        }
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant {
            micros: self.micros + rhs.as_micros(),
        }
    }
}

impl Sub for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}ms", self.as_millis_f64())
    }
}

/// The simulation's clock.
///
/// Owned by [`SimNet`](crate::SimNet); advanced monotonically as delivery
/// events are processed. Clones share the same underlying counter, so a
/// handle obtained before a simulation run observes the advanced time — this
/// is what lets `amnesia-telemetry` spans measure simulated durations while
/// the network is driven through a mutable reference.
///
/// ```
/// use amnesia_net::{SimClock, SimDuration};
/// let mut clock = SimClock::new();
/// let observer = clock.clone();
/// clock.advance(SimDuration::from_millis(3));
/// assert_eq!(observer.now().as_millis_f64(), 3.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    micros: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl SimClock {
    /// A clock at the epoch.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimInstant {
        SimInstant {
            micros: self.micros.load(std::sync::atomic::Ordering::SeqCst),
        }
    }

    /// Advances the clock by `d`.
    pub fn advance(&mut self, d: SimDuration) {
        self.micros
            .fetch_add(d.as_micros(), std::sync::atomic::Ordering::SeqCst);
    }

    /// Advances the clock to `t` if `t` is in the future; a no-op otherwise
    /// (events may be processed at identical timestamps).
    pub fn advance_to(&mut self, t: SimInstant) {
        self.micros
            .fetch_max(t.as_micros(), std::sync::atomic::Ordering::SeqCst);
    }
}

/// Simulated time doubles as a telemetry time source: spans opened against a
/// [`SimClock`] handle measure simulated microseconds, in the same unit that
/// [`WallClock`](amnesia_telemetry::WallClock) spans measure real ones.
impl amnesia_telemetry::Clock for SimClock {
    fn now_micros(&self) -> u64 {
        self.now().as_micros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_millis(2).as_micros(), 2000);
        assert_eq!(SimDuration::from_millis_f64(0.25).as_micros(), 250);
        assert_eq!(SimDuration::from_millis_f64(-5.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimInstant::EPOCH + SimDuration::from_millis(10);
        assert_eq!(t.as_millis_f64(), 10.0);
        assert_eq!((t - SimInstant::EPOCH).as_millis_f64(), 10.0);
    }

    #[test]
    fn negative_elapsed_clamps_to_zero() {
        let later = SimInstant::EPOCH + SimDuration::from_millis(1);
        assert_eq!(SimInstant::EPOCH.duration_since(later), SimDuration::ZERO);
    }

    #[test]
    fn clock_is_monotonic() {
        let mut c = SimClock::new();
        c.advance_to(SimInstant::EPOCH + SimDuration::from_millis(5));
        c.advance_to(SimInstant::EPOCH + SimDuration::from_millis(3));
        assert_eq!(c.now().as_millis_f64(), 5.0);
        c.advance(SimDuration::from_millis(1));
        assert_eq!(c.now().as_millis_f64(), 6.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimDuration::from_millis(1).to_string(), "1.000ms");
        assert_eq!(
            (SimInstant::EPOCH + SimDuration::from_micros(1500)).to_string(),
            "t+1.500ms"
        );
    }

    #[test]
    fn ordering() {
        let a = SimInstant::EPOCH + SimDuration::from_micros(1);
        let b = SimInstant::EPOCH + SimDuration::from_micros(2);
        assert!(a < b);
        assert!(SimDuration::from_micros(1) < SimDuration::from_micros(2));
    }
}
