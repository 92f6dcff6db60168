//! Perf-trajectory files: committed `BENCH_*.json` logs at the repo root.
//!
//! Each bench binary appends its JSON summary as **one line** to the
//! trajectory file it owns, so measured performance accumulates in-repo
//! alongside the code that produced it:
//!
//! - `BENCH_campaign.json` — the `fault_matrix` binary (and, historically,
//!   the `campaign` binary that `benchmark/`'s `grid` workload replaced);
//! - `BENCH_explore.json` — the `explore` and `kfault_explore` binaries;
//! - `BENCH_scale.json` — the `cluster_scale` binary (interned/sharded
//!   substrates at production shape);
//! - `BENCH_corpus.json` — the `corpus_explore` binary (corpus-seeded vs
//!   catalogue-only exploration coverage).
//!
//! Every line is a JSON object tagged with a `bin` key. `ci.sh reports`
//! runs [`check_all`] (via the `trajectory_check` binary) and refuses any
//! line that is not valid JSON or drops one of its file's required keys,
//! so the schema cannot drift silently as the binaries evolve.

use serde::{Content, Serialize};
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Required keys per trajectory file. A line may carry more (and the
/// binaries do), but never fewer — dropping one is schema drift.
pub const SCHEMAS: &[(&str, &[&str])] = &[
    ("BENCH_campaign.json", &["bin", "reports_identical"]),
    (
        "BENCH_explore.json",
        &[
            "bin",
            "seed",
            "budget",
            "executed",
            "signatures",
            "reports_identical",
        ],
    ),
    (
        "BENCH_scale.json",
        &[
            "bin",
            "hdfs_files",
            "kafka_partitions",
            "yarn_apps",
            "sim_events_per_sec",
            "vacuum_identical",
            "slab_recycled",
        ],
    ),
    (
        "BENCH_corpus.json",
        &[
            "bin",
            "seed",
            "budget",
            "corpus_inputs",
            "signatures_catalogue",
            "signatures_corpus",
            "corpus_only_signatures",
            "novel_from_corpus",
            "unattributed",
            "reports_identical",
        ],
    ),
];

/// A raw JSON value: lets this module serialize and reparse arbitrary
/// summaries through the vendored serde stack, which has no `Value` type.
struct Raw(Content);

impl Serialize for Raw {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

impl serde::Deserialize for Raw {
    fn from_content(c: &Content) -> Result<Raw, String> {
        Ok(Raw(c.clone()))
    }
}

/// The repository root, resolved from this crate's manifest directory so
/// the binaries find the trajectory files no matter where they run from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Validates one trajectory line against its file's required keys.
pub fn validate_line(file: &str, line: &str) -> Result<(), String> {
    let required = SCHEMAS
        .iter()
        .find(|(f, _)| *f == file)
        .map(|(_, keys)| *keys)
        .ok_or_else(|| format!("{file}: not a known trajectory file"))?;
    let raw: Raw =
        serde_json::from_str(line).map_err(|e| format!("{file}: invalid JSON line: {e}"))?;
    let Content::Map(entries) = &raw.0 else {
        return Err(format!("{file}: line is not a JSON object"));
    };
    for key in required {
        let present = entries
            .iter()
            .any(|(k, _)| matches!(k, Content::Str(s) if s == key));
        if !present {
            return Err(format!("{file}: line is missing required key `{key}`"));
        }
    }
    Ok(())
}

/// Appends `summary` as one line to `file` at the repo root (tagged with
/// the producing binary's name), refusing the write if the line would not
/// pass [`validate_line`]. Binaries call this after printing their
/// summary so a schema bug fails the run itself, not a later CI stage.
pub fn append<T: Serialize>(file: &str, bin: &str, summary: &T) -> Result<(), String> {
    let Content::Map(mut entries) = summary.to_content() else {
        return Err(format!("{file}: summary must serialize to a JSON object"));
    };
    entries.insert(0, (Content::Str("bin".into()), Content::Str(bin.into())));
    let line =
        serde_json::to_string(&Raw(Content::Map(entries))).map_err(|e| format!("{file}: {e}"))?;
    validate_line(file, &line)?;
    let path = repo_root().join(file);
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}

/// Validates every line of every trajectory file that exists at the repo
/// root. Returns the number of lines checked, or the first error. Missing
/// files are fine (a fresh clone before any bench run); empty or
/// malformed lines are not.
pub fn check_all() -> Result<usize, String> {
    let root = repo_root();
    let mut checked = 0;
    for (file, _) in SCHEMAS {
        let path = root.join(file);
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            validate_line(file, line).map_err(|e| format!("{e} (line {})", i + 1))?;
            checked += 1;
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_lines_pass() {
        validate_line(
            "BENCH_campaign.json",
            r#"{"bin":"campaign","reports_identical":true,"observations":1266}"#,
        )
        .expect("valid line");
        validate_line(
            "BENCH_explore.json",
            r#"{"bin":"explore","seed":42,"budget":400,"executed":400,"signatures":36,"reports_identical":true}"#,
        )
        .expect("valid line");
    }

    #[test]
    fn schema_drift_is_refused() {
        let err =
            validate_line("BENCH_campaign.json", r#"{"bin":"campaign"}"#).expect_err("missing key");
        assert!(err.contains("reports_identical"), "{err}");
        validate_line("BENCH_campaign.json", "not json").expect_err("invalid JSON");
        validate_line("BENCH_other.json", "{}").expect_err("unknown file");
    }

    #[test]
    fn committed_trajectories_validate() {
        check_all().expect("committed trajectory files validate");
    }
}
