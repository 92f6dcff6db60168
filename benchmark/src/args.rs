//! Command-line arguments. One command line runs one workload at one
//! seed; the extra modes (`--repeat`, `--smoke`, `--calibrate`) drive that
//! same command line as child processes.

use crate::metrics::WORKLOADS;

/// What the process was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Run one workload once and print its result line.
    Run,
    /// Run `n` sets of every workload and compare the sets.
    Repeat(usize),
    /// Every workload, briefly, with all correctness checks on.
    Smoke,
    /// Measure the serve workload's capacity and print suggested rates.
    Calibrate,
}

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The mode.
    pub mode: Mode,
    /// Workload name (one of [`WORKLOADS`]); required in [`Mode::Run`].
    pub workload: Option<String>,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// `true` runs the traced (per-layer) variant.
    pub trace: bool,
    /// Where to write the spans of a traced run, as JSON lines.
    pub trace_out: Option<String>,
    /// Where to also write the result line.
    pub out: Option<String>,
    /// Abort a workload that has not finished after this many seconds.
    pub watchdog_seconds: f64,
    /// How many times set-up is performed (`setup_s` is the median);
    /// `--smoke` uses 1 to stay short.
    pub setup_passes: usize,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            mode: Mode::Run,
            workload: None,
            seed: 42,
            seconds: 20.0,
            trace: false,
            trace_out: None,
            out: None,
            watchdog_seconds: 170.0,
            setup_passes: 5,
        }
    }
}

/// The usage text.
pub fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: csi-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      [--trace-out FILE] [--out FILE] [--watchdog-seconds S] [--setup-passes N]\n\
         \x20  or: csi-benchmark --repeat N [--seed N] [--seconds S]\n\
         \x20  or: csi-benchmark --smoke\n\
         \x20  or: csi-benchmark --calibrate [--seed N] [--seconds S]",
        names.join("|")
    )
}

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot read {text:?} as a number"))
}

/// Parses the arguments after the program name.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(flag, &mut it)?.to_string()),
            "--seed" => args.seed = number(flag, value(flag, &mut it)?)?,
            "--seconds" => args.seconds = number(flag, value(flag, &mut it)?)?,
            "--trace" => {
                args.trace = match value(flag, &mut it)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value(flag, &mut it)?.to_string()),
            "--out" => args.out = Some(value(flag, &mut it)?.to_string()),
            "--watchdog-seconds" => args.watchdog_seconds = number(flag, value(flag, &mut it)?)?,
            "--setup-passes" => args.setup_passes = number(flag, value(flag, &mut it)?)?,
            "--repeat" => args.mode = Mode::Repeat(number(flag, value(flag, &mut it)?)?),
            "--smoke" => args.mode = Mode::Smoke,
            "--calibrate" => args.mode = Mode::Calibrate,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if !(args.watchdog_seconds.is_finite() && args.watchdog_seconds > 0.0) {
        return Err("--watchdog-seconds must be positive".to_string());
    }
    if !(1..=9).contains(&args.setup_passes) {
        return Err("--setup-passes must be 1 to 9".to_string());
    }
    match (&args.mode, &args.workload) {
        (Mode::Run, None) => Err("--workload is required".to_string()),
        (Mode::Run, Some(w)) if !WORKLOADS.iter().any(|(n, _)| n == w) => {
            Err(format!("unknown workload {w:?}"))
        }
        (Mode::Repeat(n), _) if *n < 2 => Err("--repeat needs at least 2 sets".to_string()),
        _ => Ok(args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&argv("--workload serve --seed 7 --seconds 20 --trace 1")).expect("valid");
        assert_eq!(a.workload.as_deref(), Some("serve"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert_eq!(a.mode, Mode::Run);
    }

    #[test]
    fn bad_command_lines_are_refused_with_a_reason() {
        for bad in [
            "",
            "--workload nope",
            "--workload grid --trace yes",
            "--workload grid --seconds 0",
            "--workload grid --seed",
            "--workload grid --bogus 1",
            "--repeat 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} should be refused");
        }
        assert_eq!(
            parse(&argv("--repeat 2")).expect("valid").mode,
            Mode::Repeat(2)
        );
        assert_eq!(parse(&argv("--smoke")).expect("valid").mode, Mode::Smoke);
    }
}
