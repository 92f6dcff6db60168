//! `--repeat N` and `--smoke`: drive the one-workload command line as
//! child processes (so `setup_s` and `peak_rss_mb` stay per-process
//! figures) and judge the results against the benchmark's own bounds.

use crate::args::Args;
use crate::json::{as_f64, field};
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use serde::Content;
use std::collections::BTreeMap;
use std::process::Command;

/// A parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// The run's verdict on its own outputs.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: f64,
    /// Operations failed.
    pub failed: f64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses the JSON result line a run prints last.
pub fn parse_result_line(line: &str) -> Result<Parsed, String> {
    let root = crate::json::parse(line)?;
    let get = |key: &str| field(&root, key).ok_or_else(|| format!("result line lacks {key:?}"));
    let correct = matches!(get("correct")?, Content::Bool(true));
    let attempted = as_f64(get("attempted")?).ok_or("attempted is not a number")?;
    let failed = as_f64(get("failed")?).ok_or("failed is not a number")?;
    let Content::Map(entries) = get("metrics")? else {
        return Err("metrics is not an object".to_string());
    };
    let mut metrics = BTreeMap::new();
    for (name, body) in entries {
        let Content::Str(name) = name else { continue };
        let value = field(body, "value")
            .and_then(as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        metrics.insert(name.clone(), value);
    }
    Ok(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Runs this executable on one workload and parses its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    extra: &[&str],
) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(extra)
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!(
            "{workload} printed nothing (exit {:?})",
            output.status.code()
        )
    })?;
    let parsed = parse_result_line(line)?;
    if !output.status.success() || !parsed.correct || parsed.failed > 0.0 {
        return Err(format!(
            "{workload} seed {seed} trace {}: exit {:?}, correct {}, failed {} of {}",
            u8::from(traced),
            output.status.code(),
            parsed.correct,
            parsed.failed,
            parsed.attempted
        ));
    }
    Ok(parsed)
}

/// The largest amount by which any set is worse than any other, as a
/// share of the better one.
pub fn max_pairwise_worse(values: &[f64], better: Better) -> f64 {
    let mut worst: f64 = 0.0;
    for &a in values {
        for &b in values {
            worst = worst.max(stats::worse_by(a, b, better == Better::Lower));
        }
    }
    worst
}

/// `--repeat N`: N sets of every workload, untraced and traced. Prints per
/// end-to-end metric the median, quartiles, spread (interquartile range
/// over median, the acceptance statistic) and largest disagreement
/// against its bound; checks that per-layer counts marked exact repeat
/// exactly. Non-zero exit when two sets disagree by more than a bound,
/// an exact count moved, or any run failed.
pub fn repeat(args: &Args, sets: usize) -> i32 {
    let mut verdict = 0;
    for (workload, _) in WORKLOADS {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        for set in 0..sets {
            for (is_traced, into) in [(false, &mut untraced), (true, &mut traced)] {
                match child(workload, args.seed, args.seconds, is_traced, &[]) {
                    Ok(parsed) => into.push(parsed),
                    Err(e) => {
                        println!("FAIL set {set}: {e}");
                        verdict = 1;
                    }
                }
            }
        }
        println!("== {workload}: {sets} sets at seed {} ==", args.seed);
        for m in END_TO_END {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|p| p.metrics.get(m.name).copied())
                .collect();
            if values.len() < 2 {
                continue;
            }
            let q = stats::quartiles(&values).expect("two or more values");
            let disagreement = max_pairwise_worse(&values, m.better);
            let ok = disagreement <= m.bound;
            println!(
                "{:<18} {:>5} median {:>14.4} q1 {:>14.4} q3 {:>14.4} spread {:>6.2} % {:<6} max disagreement {:>6.2} % of bound {:>4.0} % {}",
                m.name,
                m.unit,
                stats::median(&values),
                q[0],
                q[2],
                stats::spread(&values) * 100.0,
                m.better.word(),
                disagreement * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
            if !ok {
                verdict = 1;
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|p| p.metrics.get(m.name).copied())
                .collect();
            if values.windows(2).any(|w| w[0] != w[1]) {
                println!("{:<40} exact count moved between sets: {values:?}", m.name);
                verdict = 1;
            }
        }
    }
    println!(
        "{}",
        if verdict == 0 {
            "repeat: sets agree"
        } else {
            "repeat: sets DISAGREE"
        }
    );
    verdict
}

/// `--smoke`: every workload untraced for a tenth of the usual time with
/// one set-up pass, all correctness checks on.
pub fn smoke(args: &Args) -> i32 {
    let started = std::time::Instant::now();
    let mut verdict = 0;
    for (workload, _) in WORKLOADS {
        match child(workload, args.seed, 2.0, false, &["--setup-passes", "1"]) {
            Ok(parsed) => println!(
                "smoke {workload}: ok, {} operations, {:.1} s so far",
                parsed.attempted,
                started.elapsed().as_secs_f64()
            ),
            Err(e) => {
                println!("smoke FAIL: {e}");
                verdict = 1;
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunResult;

    #[test]
    fn the_line_a_run_prints_parses_back() {
        let mut r = RunResult {
            correct: true,
            attempted: 60,
            failed: 0,
            ..RunResult::default()
        };
        r.values.set("campaign_p50_ms", 212.5);
        r.values.set("setup_s", 0.75);
        let parsed = parse_result_line(&r.json_line(false)).expect("own output parses");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (60.0, 0.0));
        assert_eq!(parsed.metrics["campaign_p50_ms"], 212.5);
        assert_eq!(parsed.metrics["peak_rss_mb"], 0.0);
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        let traced = parse_result_line(&r.json_line(true)).expect("own output parses");
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert!(parse_result_line("{\"correct\": true}").is_err());
        assert!(parse_result_line("not json").is_err());
    }

    #[test]
    fn disagreement_is_the_worst_pair_in_the_metrics_direction() {
        // Lower is better: 110 is 10 % worse than 100.
        let d = max_pairwise_worse(&[100.0, 110.0, 105.0], Better::Lower);
        assert!((d - 0.10).abs() < 1e-12);
        // Higher is better: 90 is 10 % worse than 100.
        let d = max_pairwise_worse(&[100.0, 90.0], Better::Higher);
        assert!((d - 0.10).abs() < 1e-12);
        assert_eq!(max_pairwise_worse(&[5.0, 5.0], Better::Lower), 0.0);
    }
}
