//! The host's speed, measured beside everything that is timed.
//!
//! The benchmark runs on a shared VM whose speed drifts by more than 2×
//! over minutes (README, "Reference speed"): neighbours evict its caches and the same
//! campaign takes 215 ms, then 560 ms, then 240 ms. No statistic over one
//! 20-second run removes that, so every timed iteration is bracketed by a
//! small fixed *reference kernel* and its time is scaled to what it would
//! have been at the reference speed:
//!
//! ```text
//! speed   = NOMINAL_US / mean(kernel before, kernel after)     (1.0 = quiet host)
//! time at reference speed = measured time × speed
//! ```
//!
//! The kernels use only the standard library, so a change to the
//! repository cannot move them, and they are written in the flavour of
//! the workload they stand beside — interference mostly hits the memory
//! system, and a pure-ALU loop slows by a third of what a campaign does.
//! Over 13 minutes of one trace the raw 20-second medians of a `grid`
//! campaign spread 28 % (252–431 ms); scaled by the `Maps` kernel they
//! spread 3 % (343–370 ms), with a window-level log–log slope of 0.95.
//!
//! The kernels run in a **process of their own** ([`start_kernel_process`]).
//! Run in the benchmark's process, the `Maps` kernel read 25 % slower after
//! a ladder campaign than after the plain campaign it mirrors: its small
//! allocations land in whatever state the program's last iteration left
//! the heap in. A reading that depends on the measured code's allocation
//! pattern would hand part of any change in that pattern back as "host
//! speed"; a separate heap cannot see it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// The argument that turns this executable into the kernel process.
pub const KERNEL_PROCESS_FLAG: &str = "--reference-kernel";

/// The kernel process and the pipes to it.
struct KernelProcess {
    child: Child,
    requests: ChildStdin,
    replies: BufReader<ChildStdout>,
}

/// Started once per run by [`start_kernel_process`]; `None` in unit tests
/// and in the kernel process itself, where readings are taken in-process.
static KERNEL_PROCESS: Mutex<Option<KernelProcess>> = Mutex::new(None);

/// Starts the kernel process: this executable again, answering one line
/// per request on its standard streams. It ends when its input closes.
pub fn start_kernel_process() -> std::io::Result<()> {
    let mut child = Command::new(std::env::current_exe()?)
        .arg(KERNEL_PROCESS_FLAG)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let requests = child.stdin.take().expect("piped stdin");
    let replies = BufReader::new(child.stdout.take().expect("piped stdout"));
    *KERNEL_PROCESS.lock().expect("kernel process lock") = Some(KernelProcess {
        child,
        requests,
        replies,
    });
    Ok(())
}

/// Closes the kernel process's input and waits for it to end.
pub fn stop_kernel_process() {
    if let Some(KernelProcess {
        mut child,
        requests,
        replies,
    }) = KERNEL_PROCESS.lock().expect("kernel process lock").take()
    {
        drop(requests);
        drop(replies);
        let _ = child.wait();
    }
}

/// Kills the kernel process and waits for it to end, for the watchdog:
/// the run is being aborted, so a reading in progress does not matter.
/// Does nothing when a reading that never returned still holds the lock.
pub fn kill_kernel_process() {
    if let Ok(mut process) = KERNEL_PROCESS.try_lock() {
        if let Some(mut kernel) = process.take() {
            let _ = kernel.child.kill();
            let _ = kernel.child.wait();
        }
    }
}

/// The kernel process's main loop: `<maps|stream> <threads> <n>` in, the
/// median reading in µs out, until end of input.
pub fn serve_kernel_requests() {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let mut words = line.split_whitespace();
        let flavour = match words.next() {
            Some("maps") => Flavour::Maps,
            Some("stream") => Flavour::Stream,
            _ => break,
        };
        let mut number = || {
            words
                .next()
                .and_then(|w| w.parse::<usize>().ok())
                .unwrap_or(1)
        };
        let (threads, n) = (number(), number());
        let reading = flavour.read_in_process_us(threads, n);
        if writeln!(stdout, "{reading}")
            .and_then(|()| stdout.flush())
            .is_err()
        {
            break;
        }
    }
}

/// Which reference kernel stands beside a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavour {
    /// String keys in ordered maps, `format!`, many small allocations:
    /// what a row campaign, a hunt and a served campaign spend their time
    /// on.
    Maps,
    /// Typed buffers varint-encoded into a byte buffer, copied, decoded
    /// and compared: what a bulk campaign spends its time on.
    Stream,
}

impl Flavour {
    /// The kernel's time in the kernel process on the quiet reference
    /// host, µs. Only the scale of the reported figures depends on it.
    pub fn nominal_us(self) -> f64 {
        match self {
            Flavour::Maps => 9_700.0,
            Flavour::Stream => 23_400.0,
        }
    }

    fn word(self) -> &'static str {
        match self {
            Flavour::Maps => "maps",
            Flavour::Stream => "stream",
        }
    }

    /// One reading, µs: the kernel's wall time, run once.
    pub fn read_us(self) -> f64 {
        self.read_median_us(1, 1)
    }

    /// The median of `n` readings taken on `threads` threads at once, µs.
    /// More than one thread is for the bursts of `serve`: they cannot be
    /// interleaved with the kernel, so they are bracketed as a whole, and
    /// they keep every core busy, so the kernel is read on as many. Asks
    /// the kernel process when one is running.
    pub fn read_median_us(self, threads: usize, n: usize) -> f64 {
        let mut process = KERNEL_PROCESS.lock().expect("kernel process lock");
        let Some(kernel) = process.as_mut() else {
            return self.read_in_process_us(threads, n);
        };
        let mut reply = String::new();
        let asked = writeln!(kernel.requests, "{} {threads} {n}", self.word())
            .and_then(|()| kernel.requests.flush())
            .and_then(|()| kernel.replies.read_line(&mut reply));
        match (asked, reply.trim().parse::<f64>()) {
            (Ok(_), Ok(reading)) if reading > 0.0 => reading,
            // The kernel process is gone: report the nominal speed rather
            // than mix in-process readings into a run.
            _ => self.nominal_us(),
        }
    }

    fn read_in_process_us(self, threads: usize, n: usize) -> f64 {
        let once = || {
            let started = Instant::now();
            match self {
                Flavour::Maps => {
                    std::hint::black_box(maps_kernel(std::hint::black_box(4_000)));
                }
                Flavour::Stream => {
                    std::hint::black_box(stream_kernel(std::hint::black_box(600_000)));
                }
            }
            started.elapsed().as_secs_f64() * 1e6
        };
        let readings: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.max(1))
                .map(|_| scope.spawn(|| (0..n.max(1)).map(|_| once()).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("kernel thread"))
                .collect()
        });
        crate::stats::median(&readings)
    }

    /// Host speed relative to the reference, from the kernel readings on
    /// either side of a measurement.
    pub fn speed(self, before_us: f64, after_us: f64) -> f64 {
        let mean = (before_us + after_us) / 2.0;
        if mean > 0.0 {
            self.nominal_us() / mean
        } else {
            1.0
        }
    }
}

/// See [`Flavour::Maps`]. Returns a checksum so the work cannot be elided.
pub fn maps_kernel(n: usize) -> usize {
    let mut tables: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut files: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut total = 0usize;
    for i in 0..n {
        let name = format!("t_ss_sparksqldataframe_orc_{}", (i * 7919) % n.max(1));
        let statement = format!("CREATE TABLE {name} (c DECIMAL(10,2)) STORED AS ORC");
        let tokens: Vec<String> = statement.split(' ').map(str::to_string).collect();
        total += tokens.len();
        tables.insert(name.clone(), tokens);
        let path = format!("/user/hive/warehouse/{name}/part-{i:05}.orc");
        files.insert(path.clone(), statement.as_bytes().to_vec());
        total += tables.get(&name).map_or(0, |t| t[2].len());
        total += files.get(&path).map_or(0, Vec::len);
    }
    total + tables.len() + files.len()
}

/// See [`Flavour::Stream`]. Returns a checksum so the work cannot be
/// elided.
pub fn stream_kernel(n: usize) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let values: Vec<u64> = (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> (x & 31)
        })
        .collect();
    let mut bytes: Vec<u8> = Vec::with_capacity(n * 5);
    for &value in &values {
        let mut v = value;
        while v >= 0x80 {
            bytes.push((v as u8) | 0x80);
            v >>= 7;
        }
        bytes.push(v as u8);
    }
    let copy = bytes.clone();
    let mut decoded: Vec<u64> = Vec::with_capacity(n);
    let mut at = 0;
    while at < copy.len() {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = copy[at];
            at += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
            shift += 7;
        }
        decoded.push(v);
    }
    values
        .iter()
        .zip(&decoded)
        .fold(decoded.len() as u64, |h, (a, b)| {
            h.wrapping_mul(31).wrapping_add(a ^ b)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic_and_round_trip() {
        assert_eq!(maps_kernel(200), maps_kernel(200));
        assert_ne!(maps_kernel(200), maps_kernel(201));
        // Every value decodes to itself, so each a ^ b term is 0 and the
        // checksum is 31^n * n (mod 2^64).
        let n = 1000u64;
        let expect = (0..n).fold(n, |h, _| h.wrapping_mul(31));
        assert_eq!(stream_kernel(n as usize), expect);
        assert_eq!(maps_kernel(0), 0);
        assert_eq!(stream_kernel(0), 0);
    }

    #[test]
    fn speed_is_nominal_over_the_mean_reading() {
        let f = Flavour::Maps;
        let nominal = f.nominal_us();
        assert_eq!(f.speed(nominal, nominal), 1.0);
        // A host at half speed takes twice as long for the kernel…
        assert_eq!(f.speed(2.0 * nominal, 2.0 * nominal), 0.5);
        // …so a campaign that took 500 ms there counts as 250 ms.
        assert_eq!(500.0 * f.speed(2.0 * nominal, 2.0 * nominal), 250.0);
        assert_eq!(f.speed(nominal, 3.0 * nominal), 0.5);
        assert_eq!(f.speed(0.0, 0.0), 1.0);
    }

    #[test]
    fn readings_are_positive() {
        assert!(Flavour::Maps.read_us() > 0.0);
        assert!(Flavour::Stream.read_median_us(2, 3) > 0.0);
    }
}
