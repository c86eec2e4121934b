//! Simulated time.
//!
//! Every duration the tool flow reports — interpreter runtimes, CAD stage
//! runtimes, break-even times — is a [`SimTime`]: an exact number of
//! nanoseconds. The paper reports values spanning nine orders of magnitude
//! (1.44 ms candidate search up to 5149-day break-even points), which fits
//! comfortably in a `u64` of nanoseconds (~584 years).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An exact simulated duration with nanosecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero duration.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Constructs a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60 * 1_000_000_000)
    }

    /// Constructs a duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600 * 1_000_000_000)
    }

    /// Constructs a duration from fractional seconds, rounding to the
    /// nearest nanosecond. Negative or non-finite inputs saturate to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3_600.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Scales the duration by a non-negative float factor (rounds to the
    /// nearest nanosecond). Used for "30 % faster CAD tools" style
    /// extrapolations (Table IV).
    pub fn scale(self, factor: f64) -> SimTime {
        SimTime::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Formats as the paper's Table II `m:s` style: total minutes and
    /// seconds, e.g. `87:52` for 87 min 52 s.
    pub fn fmt_min_sec(self) -> String {
        let total_secs = self.0 / 1_000_000_000;
        format!("{}:{:02}", total_secs / 60, total_secs % 60)
    }

    /// Formats as the paper's Table IV `h:m:s` style, e.g. `01:59:55`.
    pub fn fmt_hms(self) -> String {
        let total_secs = self.0 / 1_000_000_000;
        format!(
            "{:02}:{:02}:{:02}",
            total_secs / 3_600,
            (total_secs % 3_600) / 60,
            total_secs % 60
        )
    }

    /// Formats as the paper's break-even `d:h:m:s` style, e.g.
    /// `206:22:15:50` for 206 days 22 h 15 m 50 s.
    pub fn fmt_dhms(self) -> String {
        let total_secs = self.0 / 1_000_000_000;
        format!(
            "{}:{:02}:{:02}:{:02}",
            total_secs / 86_400,
            (total_secs % 86_400) / 3_600,
            (total_secs % 3_600) / 60,
            total_secs % 60
        )
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    /// Human-oriented adaptive display: picks the most readable unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s < 1e-6 {
            write!(f, "{}ns", self.0)
        } else if s < 1e-3 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if s < 1.0 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else if s < 120.0 {
            write!(f, "{s:.2}s")
        } else if s < 2.0 * 3_600.0 {
            write!(f, "{}", self.fmt_min_sec())
        } else if s < 48.0 * 3_600.0 {
            write!(f, "{}", self.fmt_hms())
        } else {
            write!(f, "{}", self.fmt_dhms())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
    }

    #[test]
    fn float_roundtrip() {
        let t = SimTime::from_secs_f64(3.25);
        assert_eq!(t.as_nanos(), 3_250_000_000);
        assert!((t.as_secs_f64() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_saturates_bad_input() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(90);
        let b = SimTime::from_secs(30);
        assert_eq!(a + b, SimTime::from_secs(120));
        assert_eq!(a - b, SimTime::from_secs(60));
        assert_eq!(a * 2, SimTime::from_secs(180));
        assert_eq!(a / 3, SimTime::from_secs(30));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn scale_matches_table_iv_semantics() {
        // A 30 % faster tool flow runs in 70 % of the time.
        let t = SimTime::from_secs(1000);
        assert_eq!(t.scale(0.7), SimTime::from_secs(700));
    }

    #[test]
    fn formatting_matches_paper_styles() {
        // Table II sum column style: 87 min 52 s -> "87:52".
        let t = SimTime::from_mins(87) + SimTime::from_secs(52);
        assert_eq!(t.fmt_min_sec(), "87:52");
        // Table IV style: 1 h 59 m 55 s -> "01:59:55".
        let t = SimTime::from_hours(1) + SimTime::from_mins(59) + SimTime::from_secs(55);
        assert_eq!(t.fmt_hms(), "01:59:55");
        // Break-even style: 206 d 22 h 15 m 50 s.
        let t =
            SimTime::from_hours(206 * 24 + 22) + SimTime::from_mins(15) + SimTime::from_secs(50);
        assert_eq!(t.fmt_dhms(), "206:22:15:50");
    }

    #[test]
    fn sum_iterator() {
        let total: SimTime = (1..=4).map(SimTime::from_secs).sum();
        assert_eq!(total, SimTime::from_secs(10));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(250).to_string(), "250.00us");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.00s");
        assert_eq!(SimTime::from_mins(10).to_string(), "10:00");
    }
}
