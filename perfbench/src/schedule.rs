//! Open-loop schedule arithmetic.
//!
//! Request `k` of a phase at `rate` requests per second is due at
//! `k / rate` seconds after the phase starts, whatever happened to
//! earlier requests. Latency is measured from that due time, so a stall
//! in the system (or in the generator) is charged to every request it
//! delays instead of silently lowering the offered load.

use std::time::Duration;

/// A fixed-rate arrival schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    period_ns: f64,
}

impl Schedule {
    /// A schedule offering `rate` requests per second.
    ///
    /// # Panics
    /// If `rate` is not positive and finite.
    pub fn new(rate: f64) -> Schedule {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Schedule {
            period_ns: 1e9 / rate,
        }
    }

    /// Offset of request `k`'s due time from the phase start.
    pub fn due(&self, k: u64) -> Duration {
        Duration::from_nanos((k as f64 * self.period_ns).round() as u64)
    }

    /// How many requests are due by `elapsed` (requests `0..n` have
    /// `due(k) <= elapsed`).
    pub fn due_by(&self, elapsed: Duration) -> u64 {
        let mut n = (elapsed.as_nanos() as f64 / self.period_ns).floor() as u64 + 1;
        // Guard the float division against landing one off at an exact
        // boundary: the definition is `due(k) <= elapsed`.
        while n > 0 && self.due(n - 1) > elapsed {
            n -= 1;
        }
        while self.due(n) <= elapsed {
            n += 1;
        }
        n
    }

    /// Requests in a phase of length `span`: those due strictly before
    /// its end.
    pub fn count_in(&self, span: Duration) -> u64 {
        let mut n = (span.as_nanos() as f64 / self.period_ns).ceil() as u64;
        while n > 0 && self.due(n - 1) >= span {
            n -= 1;
        }
        while self.due(n) < span {
            n += 1;
        }
        n
    }
}

/// The largest backlog (requests sent, not yet answered) a system can
/// hold at `rate` while its requests still meet `limit`: by Little's
/// law a queue whose waits stay under `limit` holds at most
/// `rate · limit` requests, plus the `in_service` ones being worked on.
pub fn backlog_bound(rate: f64, limit: Duration, in_service: u64) -> u64 {
    (rate * limit.as_secs_f64()).ceil() as u64 + in_service
}

/// Interpolates the rate at which a tail percentile crosses `limit`,
/// between the highest passing probe `(rate, tail)` and the lowest
/// failing one. A failing probe whose tail met the limit failed on its
/// backlog, and one without a usable tail is passed as `None`: the
/// crossing is then the passing rate.
pub fn crossing_rate(pass: (f64, f64), fail: Option<(f64, f64)>, limit: f64) -> f64 {
    match fail {
        Some((fail_rate, fail_tail)) if fail_tail > pass.1 && fail_tail >= limit => {
            let share = ((limit - pass.1) / (fail_tail - pass.1)).clamp(0.0, 1.0);
            pass.0 + (fail_rate - pass.0) * share
        }
        _ => pass.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let s = Schedule::new(20_000.0);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_micros(50));
        assert_eq!(s.due(20_000), Duration::from_secs(1));
        let odd = Schedule::new(3.0);
        assert_eq!(odd.due(1), Duration::from_nanos(333_333_333));
        assert_eq!(odd.due(3), Duration::from_secs(1));
    }

    #[test]
    fn due_by_counts_requests_at_or_before_elapsed() {
        let s = Schedule::new(1000.0);
        assert_eq!(s.due_by(Duration::ZERO), 1);
        assert_eq!(s.due_by(Duration::from_micros(999)), 1);
        assert_eq!(s.due_by(Duration::from_millis(1)), 2);
        assert_eq!(s.due_by(Duration::from_millis(10)), 11);
        let odd = Schedule::new(3.0);
        for k in 0..50 {
            assert_eq!(odd.due_by(odd.due(k)), k + 1);
        }
    }

    #[test]
    fn phase_counts_exclude_the_end_instant() {
        let s = Schedule::new(150.0);
        assert_eq!(s.count_in(Duration::from_secs(2)), 300);
        assert_eq!(s.count_in(Duration::from_secs(1)), 150);
        assert_eq!(Schedule::new(7.0).count_in(Duration::from_millis(1)), 1);
    }

    #[test]
    fn backlog_bound_is_littles_law_plus_requests_in_service() {
        assert_eq!(backlog_bound(20_000.0, Duration::from_millis(1), 8), 28);
        assert_eq!(backlog_bound(150.0, Duration::from_millis(50), 2), 10);
    }

    #[test]
    fn crossing_interpolates_between_probes() {
        let r = crossing_rate((100.0, 10.0), Some((200.0, 30.0)), 20.0);
        assert!((r - 150.0).abs() < 1e-9);
        assert_eq!(crossing_rate((100.0, 10.0), None, 20.0), 100.0);
        // A failing probe whose tail met the limit failed on backlog.
        assert_eq!(
            crossing_rate((100.0, 10.0), Some((200.0, 15.0)), 20.0),
            100.0
        );
    }
}
