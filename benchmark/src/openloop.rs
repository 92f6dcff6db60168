//! Open-loop load generation arithmetic: when each request is due, how
//! late the generator ran, whether a backlog grew, and whether a rate met
//! the latency limit. The sender thread in the serve workload only sleeps
//! and writes; everything it decides is decided here.

use crate::stats;

/// The latency limit of the serve workload: p99 of due → `Report`.
pub const LATENCY_LIMIT_MS: f64 = 250.0;

/// A backlog is growing when the outstanding count at the end of a rung
/// exceeds the count at its midpoint by more than this.
pub const BACKLOG_SLACK: i64 = 10;

/// Due time of request `i` at `rate` requests per second, in ns since the
/// rung started. Arrivals are evenly spaced: the schedule never looks at
/// when earlier requests were actually sent or answered.
pub fn due_ns(i: u64, rate: f64) -> u64 {
    ((i as f64) * 1e9 / rate) as u64
}

/// Number of requests due strictly before `duration_s` at `rate`.
pub fn requests_in(duration_s: f64, rate: f64) -> u64 {
    (duration_s * rate).ceil().max(1.0) as u64
}

/// What the sender should do at time `now_ns` about a request due at
/// `due`: wait that long, or send now and account this much lateness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Not due yet; this many ns remain.
    Wait(u64),
    /// Due (or overdue by this many ns); send immediately. Latency is
    /// still timed from the due instant, so a stalled sender charges its
    /// stall to every request it delayed.
    Send {
        /// How late the generator is for this request.
        late_ns: u64,
    },
}

/// Decides between waiting and sending.
pub fn pace(now_ns: u64, due: u64) -> Pace {
    if now_ns < due {
        Pace::Wait(due - now_ns)
    } else {
        Pace::Send {
            late_ns: now_ns - due,
        }
    }
}

/// Outstanding-request growth between a rung's midpoint and its end.
pub fn backlog_growth(outstanding_mid: u64, outstanding_end: u64) -> i64 {
    outstanding_end as i64 - outstanding_mid as i64
}

/// Whether the backlog counts as growing.
pub fn backlog_grows(outstanding_mid: u64, outstanding_end: u64) -> bool {
    backlog_growth(outstanding_mid, outstanding_end) > BACKLOG_SLACK
}

/// What one rate rung measured.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    /// The fixed offered rate, requests per second.
    pub rate: f64,
    /// Due → `Report` latency of every completed request, ms.
    pub latencies_ms: Vec<f64>,
    /// Requests that were refused, lost, or answered wrongly.
    pub failed: u64,
    /// Outstanding requests at the rung's midpoint.
    pub outstanding_mid: u64,
    /// Outstanding requests when the last request had been sent.
    pub outstanding_end: u64,
}

impl Rung {
    /// p99 of due → `Report`, with every failed request counted as an
    /// infinitely slow one (a failure misses every latency limit).
    pub fn p99_ms(&self) -> f64 {
        let mut all = self.latencies_ms.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.failed as usize));
        stats::percentile_sorted(&stats::sorted(all), 0.99)
    }

    /// Median of due → `Report` over completed requests.
    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.latencies_ms)
    }

    /// Whether this rate is sustainable: latency limit met, no failure
    /// pushed past it, backlog not growing.
    pub fn meets_limit(&self) -> bool {
        !self.latencies_ms.is_empty()
            && self.p99_ms() <= LATENCY_LIMIT_MS
            && !backlog_grows(self.outstanding_mid, self.outstanding_end)
    }
}

/// The highest offered rate whose rung met the limit, or 0.
pub fn max_rate_ok(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.meets_limit())
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_and_independent_of_progress() {
        assert_eq!(due_ns(0, 200.0), 0);
        assert_eq!(due_ns(1, 200.0), 5_000_000);
        assert_eq!(due_ns(200, 200.0), 1_000_000_000);
        assert_eq!(requests_in(7.0, 200.0), 1400);
        assert_eq!(requests_in(0.001, 1.0), 1);
    }

    #[test]
    fn a_stalled_sender_is_charged_to_the_requests_it_delayed() {
        // 100 req/s: due every 10 ms. The sender stalls until t = 35 ms.
        let rate = 100.0;
        let stall_until = 35_000_000u64;
        let mut now = stall_until;
        let mut late = Vec::new();
        for i in 0..6 {
            let due = due_ns(i, rate);
            match pace(now, due) {
                Pace::Send { late_ns } => late.push(late_ns),
                Pace::Wait(ns) => {
                    // On time again: wait, then send exactly at the due time.
                    now += ns;
                    assert_eq!(pace(now, due), Pace::Send { late_ns: 0 });
                    late.push(0);
                }
            }
        }
        // Requests 0..=3 were due at 0, 10, 20, 30 ms and all go out at
        // 35 ms; 4 and 5 are on time. A closed-loop clock would have
        // hidden the first three delays.
        assert_eq!(
            late,
            vec![35_000_000, 25_000_000, 15_000_000, 5_000_000, 0, 0]
        );
        // Latency is measured from due, so a reply at 36 ms to request 0
        // counts as 36 ms even though it was on the wire for 1 ms.
        let reply_at = 36_000_000u64;
        assert_eq!(reply_at - due_ns(0, rate), 36_000_000);
    }

    #[test]
    fn backlog_growth_needs_more_than_the_slack() {
        assert_eq!(backlog_growth(5, 3), -2);
        assert!(!backlog_grows(5, 15));
        assert!(backlog_grows(5, 16));
        assert!(!backlog_grows(400, 200));
    }

    fn rung(rate: f64, latency_ms: f64, n: usize) -> Rung {
        Rung {
            rate,
            latencies_ms: vec![latency_ms; n],
            ..Rung::default()
        }
    }

    #[test]
    fn a_failed_request_misses_the_limit() {
        let mut r = rung(100.0, 5.0, 1000);
        assert!(r.meets_limit());
        // 1 % failures put an infinite latency at p99 + 1 → still inside…
        r.failed = 10;
        assert!(r.meets_limit());
        // …one more pushes a failure onto the p99 rank.
        r.failed = 11;
        assert!(!r.meets_limit());
        assert!(r.p99_ms().is_infinite());
        assert_eq!(r.p50_ms(), 5.0);
    }

    #[test]
    fn max_rate_ok_is_the_highest_passing_rung() {
        let lo = rung(100.0, 4.0, 700);
        let mid = rung(200.0, 9.0, 1400);
        let mut hi = rung(400.0, 900.0, 2800);
        hi.outstanding_mid = 300;
        hi.outstanding_end = 700;
        assert_eq!(max_rate_ok(&[lo.clone(), mid.clone(), hi.clone()]), 200.0);
        let mut slow_mid = mid;
        slow_mid.latencies_ms = vec![251.0; 1400];
        assert_eq!(max_rate_ok(&[lo, slow_mid, hi]), 100.0);
        assert_eq!(max_rate_ok(&[rung(50.0, 300.0, 100)]), 0.0);
        assert_eq!(max_rate_ok(&[Rung::default()]), 0.0);
    }
}
