//! Tests that pin the benchmark to the files around it: `BENCHMARK.json`
//! must declare exactly the tables in `metrics.rs`, and this crate's
//! release profile must equal the root manifest's, so the measured code
//! is built the way tier-1 builds it.

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use serde::Content;
use std::collections::BTreeMap;
use std::path::Path;

fn object(c: &Content) -> BTreeMap<String, &Content> {
    match c {
        Content::Map(entries) => entries
            .iter()
            .filter_map(|(k, v)| match k {
                Content::Str(s) => Some((s.clone(), v)),
                _ => None,
            })
            .collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn array(c: &Content) -> &[Content] {
    match c {
        Content::Seq(items) => items,
        other => panic!("expected an array, found {other:?}"),
    }
}

fn string(c: &Content) -> &str {
    match c {
        Content::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn number(c: &Content) -> f64 {
    crate::json::as_f64(c).unwrap_or_else(|| panic!("expected a number, found {c:?}"))
}

/// The `key = value` lines of one TOML table, whitespace-normalised;
/// empty when the table is absent (cargo's defaults).
fn toml_table(manifest: &str, header: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn release_profile_matches_root() {
    let own = std::fs::read_to_string(manifest_dir().join("Cargo.toml")).expect("own manifest");
    let root =
        std::fs::read_to_string(manifest_dir().join("../Cargo.toml")).expect("root manifest");
    assert_eq!(
        toml_table(&own, "[profile.release]"),
        toml_table(&root, "[profile.release]"),
        "benchmark/Cargo.toml must carry the root manifest's [profile.release]"
    );
    // Only vendored or in-repo path dependencies: nothing from a registry.
    for line in toml_table(&own, "[dependencies]") {
        assert!(
            line.contains("path=\"../crates/") || line.contains("path=\"../vendor/"),
            "dependency is not an in-repo path: {line}"
        );
    }
}

#[test]
fn toml_table_reads_present_and_absent_tables() {
    let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# tuned\nlto = true\nopt-level = 3\n\n[dependencies]\n";
    assert_eq!(
        toml_table(manifest, "[profile.release]"),
        vec!["lto=true".to_string(), "opt-level=3".to_string()]
    );
    assert!(toml_table(manifest, "[profile.bench]").is_empty());
}

#[test]
fn benchmark_json_declares_exactly_the_metric_tables() {
    let text =
        std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    assert!(text.len() <= 64 * 1024);
    let root = crate::json::parse(&text).expect("BENCHMARK.json is JSON");
    let root = object(&root);
    let keys: Vec<&str> = root.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let paths: Vec<&str> = array(root["paths"]).iter().map(string).collect();
    let dir = manifest_dir()
        .file_name()
        .and_then(|n| n.to_str())
        .expect("crate directory name");
    assert_eq!(paths, [dir]);
    let command: Vec<&str> = array(root["command"]).iter().map(string).collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(command.contains(&format!("{dir}/Cargo.toml").as_str()));
    let seconds = number(root["run_seconds"]);
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads: Vec<(String, String)> = array(root["workloads"])
        .iter()
        .map(|w| {
            let w = object(w);
            assert_eq!(w.len(), 2);
            (string(w["name"]).to_string(), string(w["why"]).to_string())
        })
        .collect();
    let expected: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(workloads, expected);

    let end_to_end: Vec<(String, String, String, f64)> = array(root["end_to_end"])
        .iter()
        .map(|m| {
            let m = object(m);
            assert_eq!(m.len(), 4);
            (
                string(m["name"]).to_string(),
                string(m["unit"]).to_string(),
                string(m["better"]).to_string(),
                number(m["bound"]),
            )
        })
        .collect();
    let expected: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.word().to_string(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(end_to_end, expected);

    let per_layer: Vec<(String, String, String)> = array(root["per_layer"])
        .iter()
        .map(|m| {
            let m = object(m);
            assert_eq!(m.len(), 3);
            (
                string(m["name"]).to_string(),
                string(m["unit"]).to_string(),
                string(m["better"]).to_string(),
            )
        })
        .collect();
    let expected: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.word().to_string(),
            )
        })
        .collect();
    assert_eq!(per_layer, expected);
}
