//! Pieces every workload shares: the seeded generator, the timed loop, the
//! repeated set-up, and the progress counters the watchdog reads.

use crate::machine::Flavour;
use crate::stats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// SplitMix64: the one source of randomness. Inputs are a pure function of
/// `--seed`; the program under test only ever sees the generated inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two uses of
    /// one seed never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Operations begun, for the result line and the watchdog.
pub static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
/// Operations that failed a check.
pub static FAILED: AtomicU64 = AtomicU64::new(0);
/// Operations begun and not yet finished; the watchdog counts these as
/// failed when it aborts a hung run.
pub static IN_FLIGHT: AtomicU64 = AtomicU64::new(0);

/// Marks one operation begun.
pub fn begin_op() {
    ATTEMPTED.fetch_add(1, Ordering::SeqCst);
    IN_FLIGHT.fetch_add(1, Ordering::SeqCst);
}

/// Marks one operation finished, failed or not.
pub fn end_op(ok: bool) {
    IN_FLIGHT.fetch_sub(1, Ordering::SeqCst);
    if !ok {
        FAILED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Forgets warm-up operations so the counters cover the measured part.
pub fn reset_ops() {
    ATTEMPTED.store(0, Ordering::SeqCst);
    FAILED.store(0, Ordering::SeqCst);
    IN_FLIGHT.store(0, Ordering::SeqCst);
}

/// `(attempted, failed, in flight)` right now.
pub fn ops() -> (u64, u64, u64) {
    (
        ATTEMPTED.load(Ordering::SeqCst),
        FAILED.load(Ordering::SeqCst),
        IN_FLIGHT.load(Ordering::SeqCst),
    )
}

/// Performs set-up `passes` times and returns the last pass's product
/// with the median pass time in seconds at reference speed (`setup_s`).
/// The first pass is timed from `process_start`, so what precedes it
/// (argument parsing, dynamic loading) is inside `setup_s` as the
/// definition asks; the kernel readings that bracket a pass are not.
pub fn repeated_setup<T>(
    process_start: Instant,
    passes: usize,
    flavour: Flavour,
    mut pass: impl FnMut() -> T,
) -> (T, f64) {
    let mut times = Vec::with_capacity(passes);
    let mut product = None;
    let mut preamble = process_start.elapsed().as_secs_f64();
    let mut before = flavour.read_us();
    for _ in 0..passes.max(1) {
        // Drop the previous pass's product first: set-up never holds two.
        drop(product.take());
        let from = Instant::now();
        product = Some(std::hint::black_box(pass()));
        let raw = from.elapsed().as_secs_f64() + preamble;
        let after = flavour.read_us();
        times.push(raw * flavour.speed(before, after));
        before = after;
        preamble = 0.0;
    }
    (
        product.expect("at least one set-up pass"),
        stats::median(&times),
    )
}

/// What a timed loop measured.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Time of each iteration at reference speed, ms (README, "Reference speed").
    pub samples_ms: Vec<f64>,
    /// Wall time of each iteration as measured, ms.
    pub raw_ms: Vec<f64>,
    /// Host speed beside each iteration (1.0 = the quiet reference host).
    pub speeds: Vec<f64>,
    /// Wall time of the whole loop, kernel readings included, s.
    pub wall_s: f64,
    /// Process CPU time spent in the loop, ms.
    pub cpu_ms: f64,
}

impl Timed {
    /// Median iteration time at reference speed, ms.
    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.samples_ms)
    }

    /// Median iteration time as measured, ms.
    pub fn raw_p50_ms(&self) -> f64 {
        stats::median(&self.raw_ms)
    }

    /// Time spent inside iterations, at reference speed, s: what a
    /// throughput divides by.
    pub fn busy_s(&self) -> f64 {
        self.samples_ms.iter().sum::<f64>() / 1e3
    }

    /// Median host speed over the loop.
    pub fn speed_p50(&self) -> f64 {
        stats::median(&self.speeds)
    }

    /// A note with the sample count, the highest percentile that many
    /// samples support, and the figures as measured beside the figures at
    /// reference speed.
    pub fn note(&self, what: &str) -> String {
        let n = self.samples_ms.len();
        let sorted = stats::sorted(self.samples_ms.clone());
        let tail = match stats::highest_supported_percentile(n) {
            Some(p) if p > 0.5 => format!(
                ", p{} {:.3} ms",
                p * 100.0,
                stats::percentile_sorted(&sorted, p)
            ),
            _ => String::new(),
        };
        format!(
            "{what}: {n} samples in {:.2} s; at reference speed p50 {:.3} ms{tail}, min {:.3} ms, max {:.3} ms; as measured p50 {:.3} ms at host speed {:.3}",
            self.wall_s,
            stats::median_sorted(&sorted),
            sorted.first().copied().unwrap_or(0.0),
            sorted.last().copied().unwrap_or(0.0),
            self.raw_p50_ms(),
            self.speed_p50(),
        )
    }
}

/// Runs `iteration` back to back until `seconds` have passed (at least
/// once), timing each call and reading the reference kernel between
/// calls. `iteration` returns whether its checks passed.
pub fn timed_loop(
    seconds: f64,
    flavour: Flavour,
    mut iteration: impl FnMut(usize) -> bool,
) -> Timed {
    let budget = Duration::from_secs_f64(seconds);
    let cpu_before = crate::procfs::cpu_ms();
    let started = Instant::now();
    let mut timed = Timed::default();
    let mut before = flavour.read_us();
    loop {
        begin_op();
        let t = Instant::now();
        let ok = iteration(timed.raw_ms.len());
        let raw = t.elapsed().as_secs_f64() * 1e3;
        end_op(ok);
        let after = flavour.read_us();
        let speed = flavour.speed(before, after);
        timed.raw_ms.push(raw);
        timed.samples_ms.push(raw * speed);
        timed.speeds.push(speed);
        before = after;
        if started.elapsed() >= budget {
            break;
        }
    }
    timed.wall_s = started.elapsed().as_secs_f64();
    timed.cpu_ms = crate::procfs::cpu_ms() - cpu_before;
    timed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 1), draw(42, 1));
        assert_ne!(draw(42, 1), draw(42, 2));
        assert_ne!(draw(42, 1), draw(7, 1));
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(10) < 10));
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn shuffle_permutes_without_losing_items() {
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(9, 0).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn timed_loop_runs_at_least_once_and_times_every_iteration() {
        let t = timed_loop(0.000_001, Flavour::Maps, |_| true);
        assert_eq!(t.samples_ms.len(), 1);
        // The budget is checked after each iteration and its kernel
        // reading, so a second iteration is guaranteed only if the first
        // pair fits: the reading takes ~10 ms optimised, ~0.1 s in a
        // debug build.
        let t = timed_loop(1.0, Flavour::Maps, |_| {
            std::thread::sleep(Duration::from_millis(2));
            true
        });
        assert!(t.raw_ms.len() >= 2);
        assert!(t.raw_ms.iter().all(|&ms| ms >= 2.0));
        assert!(t.wall_s >= 1.0);
        // Each sample is its raw time scaled by the speed beside it.
        for ((raw, scaled), speed) in t.raw_ms.iter().zip(&t.samples_ms).zip(&t.speeds) {
            assert!((raw * speed - scaled).abs() < 1e-9 && *speed > 0.0);
        }
        assert!((t.busy_s() * 1e3 - t.samples_ms.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn setup_reports_the_median_pass() {
        let mut calls = 0;
        let (last, secs) = repeated_setup(Instant::now(), 3, Flavour::Maps, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (3, 3));
        assert!(secs >= 0.0);
    }
}
