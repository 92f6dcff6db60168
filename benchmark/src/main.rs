//! The repository's benchmark. `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload once, checks its outputs, prints every
//! metric by name and unit, and ends with one JSON result line. See
//! `README.md` beside this crate for the workloads, the metrics and how
//! they interact.

mod args;
mod bulk;
#[cfg(test)]
mod contract;
mod explore;
mod grid;
mod harness;
mod json;
mod ladder;
mod machine;
mod metrics;
mod openloop;
mod procfs;
mod repeat;
mod serve;
mod stats;
mod trace;

use args::{Args, Mode};
use metrics::RunResult;
use std::io::Write;
use std::time::{Duration, Instant};

/// Exit code of a run whose checks failed.
const EXIT_INCORRECT: i32 = 1;
/// Exit code for a bad command line.
const EXIT_USAGE: i32 = 2;
/// Exit code when the watchdog aborted a hung workload.
const EXIT_WATCHDOG: i32 = 3;

/// Aborts the process when a workload hangs (ROADMAP item 0's lock-order
/// deadlock parks every thread at zero CPU): prints a result line that
/// counts every in-flight operation as failed, then exits non-zero, so a
/// pipeline sees a failed run in minutes instead of stalling.
fn arm_watchdog(args: &Args) {
    let limit = Duration::from_secs_f64(args.watchdog_seconds);
    let traced = args.trace;
    let workload = args.workload.clone().unwrap_or_default();
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        let (attempted, failed, in_flight) = harness::ops();
        eprintln!(
            "watchdog: workload {workload} still running after {:.0} s; {in_flight} in-flight operation(s) counted as failed",
            limit.as_secs_f64()
        );
        let aborted = RunResult {
            correct: false,
            attempted,
            failed: failed + in_flight.max(1),
            ..RunResult::default()
        };
        println!("{}", aborted.json_line(traced));
        machine::kill_kernel_process();
        std::process::exit(EXIT_WATCHDOG);
    });
}

fn run_one(args: &Args, process_start: Instant) -> i32 {
    arm_watchdog(args);
    if let Err(e) = machine::start_kernel_process() {
        eprintln!("cannot start the reference-kernel process: {e}");
        return EXIT_USAGE;
    }
    let code = measure_and_print(args, process_start);
    machine::stop_kernel_process();
    code
}

fn measure_and_print(args: &Args, process_start: Instant) -> i32 {
    let workload = args.workload.as_deref().expect("checked by parse");
    let (result, tracer) = match (workload, args.trace) {
        ("grid", false) => (grid::run(args, process_start), None),
        ("bulk", false) => (bulk::run(args, process_start), None),
        ("explore", false) => (explore::run(args, process_start), None),
        ("serve", false) => (serve::run(args, process_start), None),
        ("grid", true) => wrap(grid::run_traced(args, process_start)),
        ("bulk", true) => wrap(bulk::run_traced(args, process_start)),
        ("explore", true) => wrap(explore::run_traced(args, process_start)),
        ("serve", true) => wrap(serve::run_traced(args, process_start)),
        _ => unreachable!("workload names are checked by parse"),
    };
    if let (Some(tracer), Some(path)) = (&tracer, &args.trace_out) {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            tracer.write_jsonl(&mut out)?;
            out.flush()
        });
        if let Err(e) = written {
            eprintln!("cannot write spans to {path}: {e}");
            return EXIT_USAGE;
        }
    }
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &result.notes {
        println!("# {note}");
    }
    print!("{}", result.table(args.trace));
    println!(
        "attempted {} failed {} correct {}",
        result.attempted, result.failed, result.correct
    );
    let line = result.json_line(args.trace);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("cannot write result to {path}: {e}");
            return EXIT_USAGE;
        }
    }
    println!("{line}");
    if result.correct {
        0
    } else {
        EXIT_INCORRECT
    }
}

fn wrap((result, tracer): (RunResult, trace::Tracer)) -> (RunResult, Option<trace::Tracer>) {
    (result, Some(tracer))
}

/// glibc's allocator moves its mmap and trim thresholds as a program frees
/// large blocks, and where they settle differs from run to run of one
/// binary (address-space layout decides which free comes first): `bulk`,
/// whose tables are ~10 MB buffers, then runs in one of two modes 20 %
/// apart — the buffers either stay in the heap or are mapped, zeroed and
/// unmapped on every use — and ten runs spread 17 % on a steady host.
/// Pinning both thresholds at start-up leaves one mode (6 measured 7 %
/// apart). They are read once, before the first allocation, so the only
/// way to set them without `unsafe` is the environment of a fresh process.
const ALLOCATOR_PINS: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "1073741824"),
];

/// Runs this same command line again with [`ALLOCATOR_PINS`] set, unless
/// it already is that second process, and returns its exit code.
fn rerun_pinned(argv: &[String]) -> Option<i32> {
    if ALLOCATOR_PINS
        .iter()
        .all(|(key, _)| std::env::var_os(key).is_some())
    {
        return None;
    }
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(argv)
            .envs(ALLOCATOR_PINS)
            .status()
    });
    Some(match status {
        Ok(status) => status.code().unwrap_or(EXIT_INCORRECT),
        Err(e) => {
            eprintln!("cannot restart with pinned allocator thresholds: {e}");
            EXIT_USAGE
        }
    })
}

fn main() {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(machine::KERNEL_PROCESS_FLAG) {
        machine::serve_kernel_requests();
        return;
    }
    let args = match args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", args::usage());
            std::process::exit(EXIT_USAGE);
        }
    };
    if let Some(code) = rerun_pinned(&argv) {
        std::process::exit(code);
    }
    let code = match args.mode {
        Mode::Run => run_one(&args, process_start),
        Mode::Repeat(sets) => repeat::repeat(&args, sets),
        Mode::Smoke => repeat::smoke(&args),
        Mode::Calibrate => {
            if let Err(e) = machine::start_kernel_process() {
                eprintln!("cannot start the reference-kernel process: {e}");
                std::process::exit(EXIT_USAGE);
            }
            let code = serve::calibrate(&args);
            machine::stop_kernel_process();
            code
        }
    };
    std::process::exit(code);
}
