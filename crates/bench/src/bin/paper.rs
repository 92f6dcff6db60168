//! Regenerates the paper's artefacts, one per subcommand: `paper table1` …
//! `paper table9`, `paper figure1` … `paper figure3`, the artifact's
//! three experiment scripts (`paper spark_e2e`, `paper spark_hive_oneway`,
//! `paper hive_spark_oneway`), and `paper findings`, `paper incidents`,
//! `paper dataset`, `paper section8`. Each prints the artefact beside
//! "paper vs measured" lines; see DESIGN.md's per-experiment index.

use csi_bench::tables::{compare, header, run_artifact_experiment};
use csi_core::boundary::CrossingContext;
use csi_study::incidents::{load_incidents, median_csi_duration};
use csi_study::{analyze, render, Dataset};
use csi_test::{active_ids, generate_inputs, Campaign, CrossTestConfig, Experiment};
use miniflink::yarn_driver::{
    capacity_scheduler, check_allocation_consistency, fair_scheduler, flink_predicted_allocation,
    run_driver, DriverMode, DriverRun,
};
use minihdfs::{HdfsPath, MiniHdfs};
use minispark::connectors::hdfs::{read_file, LengthCheck};
use miniyarn::config::default_yarn_config;
use miniyarn::Resource;

const USAGE: &str = "usage: paper <table1..table9 | figure1..figure3 | \
                     spark_e2e | spark_hive_oneway | hive_spark_oneway | \
                     findings | incidents | dataset | section8>";

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    match name.as_str() {
        "table1" => table1(&Dataset::load()),
        "table2" => table2(&Dataset::load()),
        "table3" => table3(&Dataset::load()),
        "table4" => table4(&Dataset::load()),
        "table5" => table5(&Dataset::load()),
        "table6" => table6(&Dataset::load()),
        "table7" => table7(&Dataset::load()),
        "table8" => table8(&Dataset::load()),
        "table9" => table9(&Dataset::load()),
        "figure1" => figure1(),
        "figure2" => figure2(),
        "figure3" => figure3(),
        "spark_e2e" => run_artifact_experiment(Experiment::SparkToSpark),
        "spark_hive_oneway" => run_artifact_experiment(Experiment::SparkToHive),
        "hive_spark_oneway" => run_artifact_experiment(Experiment::HiveToSpark),
        "findings" => findings(&Dataset::load()),
        "incidents" => incidents(),
        "dataset" => dataset(&Dataset::load()),
        "section8" => section8(),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Table 1: target systems, interactions, and CSI failure counts.
fn table1(ds: &Dataset) {
    print!("{}", render::table1(ds));
    compare("total CSI failures", 120, ds.cases.len());
}

/// Table 2: CSI failures by plane.
fn table2(ds: &Dataset) {
    print!("{}", render::table2(ds));
    for ((plane, measured), paper) in analyze::plane_table(ds).into_iter().zip([20usize, 61, 39]) {
        compare(&format!("{plane} plane failures"), paper, measured);
    }
}

/// Table 3: failure symptoms.
fn table3(ds: &Dataset) {
    print!("{}", render::table3(ds));
    compare(
        "crashing failures (Finding 3)",
        89,
        analyze::crashing_count(ds),
    );
    compare("total failures", 120, ds.cases.len());
}

/// Table 4: data properties behind data-plane failures.
fn table4(ds: &Dataset) {
    let rows = analyze::data_property_table(ds);
    for (property, n) in &rows {
        println!("{property:<22} {n}");
    }
    let paper = [10usize, 14, 18, 8, 11];
    for ((property, measured), paper) in rows.into_iter().zip(paper) {
        compare(&property.to_string(), paper, measured);
    }
    let (metadata, typical, custom, other) = analyze::metadata_split(ds);
    compare("metadata-caused (Finding 4)", 50, metadata);
    compare("  typical metadata", 42, typical);
    compare("  custom metadata", 8, custom);
    compare("  non-metadata", 11, other);
}

/// Table 5: data abstraction × property matrix.
fn table5(ds: &Dataset) {
    print!("{}", render::table5(ds));
    let m = analyze::abstraction_matrix(ds);
    let paper: [[usize; 5]; 4] = [
        [1, 13, 16, 0, 5],
        [8, 0, 0, 8, 2],
        [1, 1, 2, 0, 4],
        [0, 0, 0, 0, 0],
    ];
    for (r, name) in ["Table", "File", "Stream", "KV Tuple"].iter().enumerate() {
        compare(
            &format!("{name} row total"),
            paper[r].iter().sum::<usize>(),
            m[r].iter().sum::<usize>(),
        );
    }
}

/// Table 6: data-plane discrepancy patterns.
fn table6(ds: &Dataset) {
    print!("{}", render::table6(ds));
    let paper = [12usize, 15, 9, 7, 18];
    for ((pattern, measured), paper) in analyze::data_pattern_table(ds).into_iter().zip(paper) {
        compare(&pattern.to_string(), paper, measured);
    }
    compare(
        "serialization-rooted (Finding 6)",
        15,
        analyze::serialization_rooted_count(ds),
    );
}

/// Table 7: configuration discrepancy patterns.
fn table7(ds: &Dataset) {
    print!("{}", render::table7(ds));
    let paper = [12usize, 6, 10, 2];
    for ((pattern, measured), paper) in analyze::config_pattern_table(ds).into_iter().zip(paper) {
        compare(&pattern.to_string(), paper, measured);
    }
    let (param, comp) = analyze::config_scope_split(ds);
    compare("parameter-scoped (Finding 8)", 21, param);
    compare("component-scoped (Finding 8)", 9, comp);
}

/// Table 8: control-plane discrepancy patterns.
fn table8(ds: &Dataset) {
    print!("{}", render::table8(ds));
    let (api, state, feature) = analyze::control_pattern_table(ds);
    compare("API semantic violation", 13, api);
    compare("state/resource inconsistency", 5, state);
    compare("feature inconsistency", 2, feature);
    let (implicit, context) = analyze::api_misuse_split(ds);
    compare("  implicit-semantics misuse (Finding 11)", 8, implicit);
    compare("  wrong-context misuse (Finding 11)", 5, context);
}

/// Table 9: fix patterns, plus Findings 12 and 13.
fn table9(ds: &Dataset) {
    print!("{}", render::table9(ds));
    let paper = [38usize, 8, 69, 5];
    for ((pattern, measured), paper) in analyze::fix_table(ds).into_iter().zip(paper) {
        compare(&pattern.to_string(), paper, measured);
    }
    compare(
        "checking/error-handling fixes (Finding 12)",
        46,
        analyze::checking_or_error_handling_fixes(ds),
    );
    let loc = analyze::fix_locations(ds);
    compare("failures with merged fixes", 115, loc.fixed);
    compare(
        "upstream downstream-specific fixes (Finding 13)",
        79,
        loc.upstream_specific,
    );
    compare("  of which in connector modules", 68, loc.in_connectors);
}

/// Figure 1 (and Figure 5): the FLINK-12342 container storm and its fixes, as a time series of requested/pending/started containers.
fn figure1() {
    let base = DriverRun {
        target: 200,
        interval_ms: 500,
        alloc_service_ms: 100,
        start_latency_ms: 5,
        deadline_ms: 60_000,
        mode: DriverMode::BuggySync,
    };
    header("Figure 1: shipped (synchronous) request loop, C=200, 500 ms heartbeat");
    let buggy = run_driver(base);
    println!("  t(ms)    requested   pending   started");
    for s in buggy.history.iter().step_by(6) {
        println!(
            "  {:>6}   {:>9}   {:>7}   {:>7}",
            s.at_ms, s.total_requested, s.pending, s.started
        );
    }
    compare(
        "requests explode past 4000 (paper: '4000+ requested')",
        "true",
        buggy.total_requested > 4000,
    );

    header("Figure 5: the two workarounds and the async resolution");
    for (label, mode) in [
        (
            "workaround #1: configurable (longer) interval",
            DriverMode::LongerInterval,
        ),
        (
            "workaround #2: eager request removal",
            DriverMode::EagerRemove,
        ),
        ("resolution #3: NMClientAsync", DriverMode::AsyncClient),
    ] {
        let stats = run_driver(DriverRun { mode, ..base });
        println!(
            "  {label:<48} requested={:<6} max_pending={:<6} done_at={:?}",
            stats.total_requested, stats.max_pending, stats.completed_at
        );
    }
    let fixed = run_driver(DriverRun {
        mode: DriverMode::AsyncClient,
        ..base
    });
    compare(
        "async client requests exactly C",
        200,
        fixed.total_requested,
    );
}

/// Figure 2 (and Figure 4): SPARK-27239 — the `-1` file length assertion and its checking fix.
fn figure2() {
    let mut fs = MiniHdfs::with_datanodes(3);
    let path = HdfsPath::parse("/warehouse/events.gz").expect("static path");
    fs.create_compressed(&path, b"compressed job input")
        .expect("write");
    let status = fs.get_file_status(&path).expect("status");
    let off = CrossingContext::disabled();

    header("Figure 2: Spark reads a compressed file from HDFS");
    println!(
        "  HDFS reports length = {} (documented sentinel for compressed data)",
        status.len
    );
    match read_file(&fs, &path, LengthCheck::Shipped, &off) {
        Err(e) => println!("  shipped Spark: {e}"),
        Ok(_) => println!("  shipped Spark: unexpectedly succeeded"),
    }
    compare(
        "shipped Spark job fails on the assertion",
        "true",
        read_file(&fs, &path, LengthCheck::Shipped, &off).is_err(),
    );

    header("Figure 4: the fix accepts -1 as a valid length");
    let fixed = read_file(&fs, &path, LengthCheck::Fixed, &off);
    println!(
        "  fixed Spark: read {} bytes",
        fixed.as_ref().map(|b| b.len()).unwrap_or(0)
    );
    compare("fixed Spark reads the file", "true", fixed.is_ok());
}

/// Figure 3: FLINK-19141 — Flink and YARN interpreting resource-allocation configuration inconsistently across schedulers.
fn figure3() {
    let conf = default_yarn_config();
    let ask = Resource::new(1536, 1);
    header("Figure 3: one ask, one configuration, two schedulers");
    println!(
        "  Flink predicts (from yarn.scheduler.minimum-allocation-*): {}",
        flink_predicted_allocation(ask, &conf)
    );
    let capacity = check_allocation_consistency(ask, &conf, &capacity_scheduler());
    println!("  CapacityScheduler deployment: {capacity:?}");
    let fair = check_allocation_consistency(ask, &conf, &fair_scheduler());
    match &fair {
        Err(e) => println!("  FairScheduler deployment: {e}"),
        Ok(r) => println!("  FairScheduler deployment: {r}"),
    }
    compare(
        "capacity deployment is consistent",
        "true",
        capacity.is_ok(),
    );
    compare(
        "fair deployment reproduces 'Could not allocate the required resource'",
        "true",
        matches!(&fair, Err(e) if e.to_string().contains("Could not allocate")),
    );
}

/// Findings 1–13 and the CBS comparison, recomputed.
fn findings(ds: &Dataset) {
    for f in csi_study::findings::all_findings(ds) {
        let verdict = if f.holds { "HOLDS" } else { "FAILS" };
        println!("Finding {:>2} [{verdict}] {}", f.number, f.statement);
        println!("            measured: {}", f.evidence);
    }
    println!("\n{}", csi_study::findings::cbs_comparison());
    println!(
        "Section 5.3: {}% of Spark's integration tests cross-test dependent systems",
        csi_study::cbs::sampling::SPARK_CROSS_TEST_PERCENT
    );
}

/// Section 3: the cloud-incident statistics.
fn incidents() {
    let incidents = load_incidents();
    let csi: Vec<_> = incidents.iter().filter(|i| i.is_csi).collect();
    for i in &csi {
        println!(
            "{:<12} {:?}  {:>5} min  cascading={:<5}  {}",
            i.id,
            i.provider,
            i.duration_minutes.unwrap_or(0),
            i.impaired_external,
            &i.summary[..i.summary.len().min(80)]
        );
    }
    compare("incidents studied", 55, incidents.len());
    compare("CSI-failure-induced incidents", 11, csi.len());
    compare(
        "median CSI incident duration (min)",
        106,
        median_csi_duration(&incidents),
    );
    compare(
        "CSI incidents impairing external services",
        8,
        csi.iter().filter(|i| i.impaired_external).count(),
    );
    compare(
        "reports mentioning interaction code fixes",
        4,
        csi.iter().filter(|i| i.mentions_interaction_fix).count(),
    );
}

/// The reconstructed 120-case dataset as JSON (artifact parity with the
/// paper's CSV/notebook data release).
fn dataset(ds: &Dataset) {
    println!(
        "{}",
        serde_json::to_string_pretty(ds).expect("dataset serializes")
    );
}

/// Section 8: the Spark–Hive cross-testing case study — the 422-input
/// catalogue, the 15 discrepancies, their category totals, and the
/// custom-configuration resolution.
fn section8() {
    let inputs = generate_inputs();
    let valid = inputs
        .iter()
        .filter(|i| i.validity == csi_test::Validity::Valid)
        .count();
    header("Section 8.1: test inputs");
    compare("generated inputs", 422, inputs.len());
    compare("valid inputs", 210, valid);
    compare("invalid inputs", 212, inputs.len() - valid);

    header("Section 8.2: cross-testing under the default configuration");
    let outcome = Campaign::new(&inputs).run();
    print!("{}", outcome.report.render());
    compare("distinct discrepancies", 15, outcome.report.distinct());
    let paper_counts = [2usize, 2, 5, 7, 8];
    for ((category, measured), paper) in outcome
        .report
        .category_counts()
        .into_iter()
        .zip(paper_counts)
    {
        compare(&category.to_string(), paper, measured);
    }
    compare(
        "unattributed oracle failures",
        0,
        outcome.report.unattributed.len(),
    );

    header("Section 8.2: custom (non-default) configuration resolves 8 discrepancies");
    let custom = Campaign::new(&inputs)
        .spark_overrides(CrossTestConfig::custom_resolving_overrides())
        .run();
    let before = active_ids(&outcome.report);
    let after = active_ids(&custom.report);
    let resolved: Vec<&String> = before.iter().filter(|d| !after.contains(d)).collect();
    println!("  active before: {before:?}");
    println!("  active after:  {after:?}");
    println!("  resolved:      {resolved:?}");
    compare(
        "discrepancies resolved by custom configuration",
        8,
        resolved.len(),
    );
}
