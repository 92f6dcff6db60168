//! Regenerates the paper's artefacts and prints the campaigns, one per
//! subcommand (`paper nope` lists them all; see DESIGN.md's per-experiment
//! index). The study subcommands print each table beside "paper vs
//! measured" lines; the campaign subcommands (`matrix`, `explore`,
//! `kfault`, `corpus`) build one [`Campaign`], run it once and print
//! `outcome.render()`. Nothing here asserts — that is `cargo test`'s job —
//! and nothing here is a stopwatch — that is `benchmark/`'s
//! (`BENCHMARK.json`).

use csi_core::boundary::CrossingContext;
use csi_core::oracle::OracleKind;
use csi_study::incidents::{load_incidents, median_csi_duration};
use csi_study::{analyze, render, Dataset};
use csi_test::contracts::{check_observations, documented_contracts, naive_contracts};
use csi_test::{
    active_ids, custom_resolving_overrides, generate_inputs, Campaign, CorpusShape, Experiment,
};
use miniflink::yarn_driver::{
    capacity_scheduler, check_allocation_consistency, fair_scheduler, flink_predicted_allocation,
    run_driver, DriverMode, DriverRun,
};
use minihdfs::{HdfsPath, MiniHdfs};
use minihive::metastore::StorageFormat;
use minispark::config;
use minispark::connectors::hdfs::{read_file, LengthCheck};
use miniyarn::config::default_yarn_config;
use miniyarn::Resource;

/// A subcommand: its positional arguments (everything after the name).
type Command = fn(&[String]);

/// The one subcommand list. The usage string and the dispatch in `main`
/// are both derived from it, so a subcommand cannot be runnable yet
/// missing from the usage.
const COMMANDS: &[(&str, Command)] = &[
    ("table1", |_| table1(&Dataset::load())),
    ("table2", |_| table2(&Dataset::load())),
    ("table3", |_| table3(&Dataset::load())),
    ("table4", |_| table4(&Dataset::load())),
    ("table5", |_| table5(&Dataset::load())),
    ("table6", |_| table6(&Dataset::load())),
    ("table7", |_| table7(&Dataset::load())),
    ("table8", |_| table8(&Dataset::load())),
    ("table9", |_| table9(&Dataset::load())),
    ("figure1", |_| figure1()),
    ("figure2", |_| figure2()),
    ("figure3", |_| figure3()),
    ("spark_e2e", |_| {
        run_artifact_experiment(Experiment::SparkToSpark)
    }),
    ("spark_hive_oneway", |_| {
        run_artifact_experiment(Experiment::SparkToHive)
    }),
    ("hive_spark_oneway", |_| {
        run_artifact_experiment(Experiment::HiveToSpark)
    }),
    ("findings", |_| findings(&Dataset::load())),
    ("incidents", |_| incidents()),
    ("dataset", |_| dataset(&Dataset::load())),
    ("section8", |_| section8()),
    ("lattice", lattice),
    ("ablation", |_| ablation()),
    ("contracts", |_| contracts()),
    ("matrix", matrix),
    ("explore", explore),
    ("kfault", kfault),
    ("corpus", corpus),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    match COMMANDS.iter().find(|(n, _)| *n == name) {
        Some((_, run)) => run(&args[1..]),
        None => {
            let names: Vec<&str> = COMMANDS.iter().map(|(n, _)| *n).collect();
            eprintln!("usage: paper <{}>", names.join(" | "));
            std::process::exit(2);
        }
    }
}

/// Prints a "paper vs measured" comparison line.
fn compare(label: &str, paper: impl std::fmt::Display, measured: impl std::fmt::Display) {
    let p = paper.to_string();
    let m = measured.to_string();
    let verdict = if p == m { "MATCH" } else { "DIFFERS" };
    println!("{label:<58} paper={p:<12} measured={m:<12} [{verdict}]");
}

/// Prints a section header.
fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// The `i`-th positional argument, or `default` when absent or unparsable.
fn arg<T: std::str::FromStr>(args: &[String], i: usize, default: T) -> T {
    args.get(i).and_then(|a| a.parse().ok()).unwrap_or(default)
}

/// The `[workers]` argument at position `i`: defaults to the machine's
/// available parallelism.
fn workers(args: &[String], i: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
    arg(args, i, cores)
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
        .spark_overrides(custom_resolving_overrides())
        .run();
    let before = active_ids(&outcome.report);
    let after = active_ids(&custom.report);
    let resolved: Vec<&String> = before.iter().filter(|d| !after.contains(d)).collect();
    println!("  active before: {before:?}");
    println!("  active after:  {after:?}");
    println!("  resolved:      {resolved:?}");
    println!(
        "  unattributed:  {} (default configuration: {})",
        custom.report.unattributed.len(),
        outcome.report.unattributed.len()
    );
    compare(
        "discrepancies resolved by custom configuration",
        8,
        resolved.len(),
    );
}

/// The six data-plane keys of `minispark::config`, each with its values,
/// the default first: the axes of `paper lattice`.
const LATTICE: [(&str, &[&str]); 6] = [
    (
        config::STORE_ASSIGNMENT_POLICY,
        &["ANSI", "LEGACY", "STRICT"],
    ),
    (config::CHAR_VARCHAR_AS_STRING, &["false", "true"]),
    (config::INTERVAL_AS_STRING, &["false", "true"]),
    (config::DATAFRAME_DATE_RANGE_CHECK, &["false", "true"]),
    (
        config::CASE_SENSITIVE_INFERENCE,
        &["INFER_AND_SAVE", "INFER_ONLY", "NEVER_INFER"],
    ),
    (
        config::PARQUET_REBASE_MODE,
        &["CORRECTED", "EXCEPTION", "LEGACY"],
    ),
];

/// `paper lattice [keys] [workers]` — the default grid under every
/// configuration of the first `keys` (default all six) of [`LATTICE`]'s
/// keys, the rest at their defaults: per configuration the active set and
/// the unattributed count, then the smallest override set that resolves
/// each discrepancy, and the §8.2 tally.
fn lattice(args: &[String]) {
    let keys = arg(args, 0, LATTICE.len()).min(LATTICE.len());
    let shards = workers(args, 1);
    let inputs = generate_inputs();
    let run = |overrides: Vec<(String, String)>| {
        let report = Campaign::new(&inputs)
            .spark_overrides(overrides)
            .shards(shards)
            .run()
            .report;
        (active_ids(&report), report.unattributed.len())
    };
    header(&format!(
        "Section 8.2: the default grid under {keys} data-plane keys"
    ));
    println!(
        "  \"resolved\" is active_ids' rule: a discrepancy is active while its primary oracle has \
         evidence"
    );
    // Each configuration as the overrides it sets, the defaults left out,
    // in mixed-radix order with the first key slowest.
    let axes = &LATTICE[..keys];
    let configurations = axes
        .iter()
        .map(|(_, values)| values.len())
        .product::<usize>();
    let mut rows = Vec::with_capacity(configurations);
    for mut n in 0..configurations {
        let mut overrides = Vec::new();
        for (key, values) in axes.iter().rev() {
            let value = values[n % values.len()];
            n /= values.len();
            if value != values[0] {
                overrides.push((key.to_string(), value.to_string()));
            }
        }
        overrides.reverse();
        let size = overrides.len();
        let label: Vec<String> = overrides
            .iter()
            .map(|(k, v)| format!("{}={v}", k.rsplit('.').next().unwrap_or(k)))
            .collect();
        let label = if label.is_empty() {
            "(default)".to_string()
        } else {
            label.join(" ")
        };
        let (active, unattributed) = run(overrides);
        println!(
            "  active {:>2}  unattributed {unattributed:>4}  {label}: {}",
            active.len(),
            active.join(" ")
        );
        rows.push((label, size, active));
    }

    header("the smallest override set that resolves each discrepancy");
    let default_active = &rows[0].2;
    let mut resolvable = 0;
    for id in default_active {
        let best = rows
            .iter()
            .filter(|(_, _, active)| !active.contains(id))
            .min_by_key(|(_, size, _)| *size);
        match best {
            Some((label, _, _)) => {
                resolvable += 1;
                println!("  {id}: {label}");
            }
            None => println!("  {id}: no configuration"),
        }
    }
    let (custom, _) = run(custom_resolving_overrides());
    let by_paper = default_active
        .iter()
        .filter(|id| !custom.contains(id))
        .count();
    println!(
        "  resolved by some configuration: {resolvable}/{}; by the paper's one: {by_paper}/{}",
        default_active.len(),
        default_active.len()
    );
}

/// Runs one of the artifact's three experiments and writes per-oracle
/// failure logs (`<exp>_wr_failed.json`, `<exp>_eh_failed.json`,
/// `<exp>_difft_failed.json`) into `logs/<exp>/`, mirroring the artifact's
/// `logs/<script_name>/<timestamp>` layout.
fn run_artifact_experiment(experiment: Experiment) {
    let inputs = generate_inputs();
    let outcome = Campaign::new(&inputs).experiments(vec![experiment]).run();
    let dir = std::path::PathBuf::from("logs").join(experiment.short());
    std::fs::create_dir_all(&dir).expect("create log dir");
    for (oracle, suffix) in [
        (OracleKind::WriteRead, "wr"),
        (OracleKind::ErrorHandling, "eh"),
        (OracleKind::Differential, "difft"),
    ] {
        let failed: Vec<_> = outcome
            .report
            .raw_failures
            .iter()
            .filter(|f| f.oracle == oracle)
            .collect();
        let path = dir.join(format!("{}_{suffix}_failed.json", experiment.short()));
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&failed).expect("serialize"),
        )
        .expect("write log");
        println!(
            "{}: {} failures -> {}",
            format_args!("{}_{suffix}", experiment.short()),
            failed.len(),
            path.display()
        );
    }
    println!(
        "{} distinct discrepancies in this experiment: {:?}",
        outcome.report.distinct(),
        outcome
            .report
            .discrepancies
            .iter()
            .map(|d| d.id.as_str())
            .collect::<Vec<_>>()
    );
}

/// Design-choice ablations for the cross-testing harness:
///
/// 1. **Oracle ablation** — how many of the 15 discrepancies each oracle
///    finds on its own (the design choice of running all three).
/// 2. **Experiment ablation** — how many survive with only one of the
///    Figure 6 experiments enabled (the choice of testing all directions).
/// 3. **Format ablation** — how many survive with a single backend format
///    (the choice of testing ORC, Parquet, and Avro together).
fn ablation() {
    let inputs = generate_inputs();
    let full = Campaign::new(&inputs).run();
    println!(
        "full harness: {} discrepancies from {} raw failures",
        full.report.distinct(),
        full.report.raw_failures.len()
    );

    header("oracle ablation: discrepancies with evidence from each oracle alone");
    for oracle in [
        OracleKind::WriteRead,
        OracleKind::ErrorHandling,
        OracleKind::Differential,
    ] {
        let found = full
            .report
            .discrepancies
            .iter()
            .filter(|d| d.evidence.iter().any(|f| f.oracle == oracle))
            .count();
        println!("  {oracle:<8} alone evidences {found:>2}/15 discrepancies");
    }

    header("experiment ablation: single direction only");
    for exp in Experiment::ALL {
        let outcome = Campaign::new(&inputs).experiments(vec![exp]).run();
        println!(
            "  {:<14} ({}) finds {:>2}/15 discrepancies",
            exp,
            exp.short(),
            outcome.report.distinct()
        );
    }

    header("format ablation: single backend format only");
    for format in StorageFormat::ALL {
        let outcome = Campaign::new(&inputs).formats(vec![format]).run();
        println!(
            "  {:<8} only finds {:>2}/15 discrepancies",
            format.name(),
            outcome.report.distinct()
        );
    }
    println!(
        "\nNo single oracle, direction, or format covers the full surface —\n\
         the composition is what reaches all 15 (the Figure 6 design)."
    );
}

/// Specification-driven checking (the Section 10 direction): the same
/// observations, judged against the naive everything-round-trips contract
/// versus the documented per-channel contracts.
fn contracts() {
    let inputs = generate_inputs();
    let outcome = Campaign::new(&inputs).run();

    header("contract checking over the full 422-input campaign");
    let naive = check_observations(&inputs, &outcome.observations, naive_contracts);
    let documented = check_observations(&inputs, &outcome.observations, documented_contracts);
    println!(
        "  violations of the naive contract (everything exact): {}",
        naive.len()
    );
    println!(
        "  violations of the documented contracts:              {}",
        documented.len()
    );
    println!(
        "  explained by documentation alone:                    {}",
        naive.len() - documented.len()
    );

    header("a sample of what only machine-checkable specs surface");
    let mut seen = std::collections::BTreeSet::new();
    for v in &documented {
        let key = format!("{}/{}", v.channel, v.data_type);
        if seen.insert(key) && seen.len() <= 8 {
            println!("  {v}");
        }
    }
    println!(
        "\nThe residue above is the paper's point: conventions that no\n\
         documentation covers, checkable only by executing the interaction."
    );
}

/// `paper matrix [seed] [workers]` — the standard fault matrix with the
/// online detector on: every cell, the per-kind and per-channel detection
/// totals, and the detector's agreement with the offline §9 oracle, then
/// the taxonomy bucket totals (`Render` lists cells, not totals).
fn matrix(args: &[String]) {
    let seed = arg(args, 0, 42);
    let outcome = Campaign::new(&[])
        .fault_matrix(seed)
        .detect(true)
        .shards(workers(args, 1))
        .run();
    print!("{}", outcome.render());
    let matrix = outcome.matrix.expect("matrix mode");
    let buckets: Vec<String> = matrix
        .outcomes
        .iter()
        .map(|(bucket, n)| format!("{bucket} {n}"))
        .collect();
    println!(
        "outcome totals over {} cells: {}",
        matrix.cases.len(),
        buckets.join(", ")
    );
}

/// `paper explore [seed] [budget] [workers]` — coverage-guided
/// exploration over the full input catalogue.
fn explore(args: &[String]) {
    let outcome = Campaign::new(&generate_inputs())
        .seed(arg(args, 0, 42))
        .explore(arg(args, 1, 1500))
        .shards(workers(args, 2))
        .run();
    print!("{}", outcome.render());
}

/// `paper kfault [seed] [budget] [workers]` — the compound (fault-set ×
/// interleaving) search at k ≤ 3 with its co-failure clusters.
fn kfault(args: &[String]) {
    let outcome = Campaign::new(&[])
        .seed(arg(args, 0, 42))
        .kfaults(3)
        .explore(arg(args, 1, 96))
        .shards(workers(args, 2))
        .run();
    print!("{}", outcome.render());
}

/// `paper corpus [seed] [budget] [workers]` — exploration seeded with a
/// synthesized real-shaped corpus above the catalogue, then how many of
/// its coverage signatures a catalogue-only run at the same seed and
/// budget never reaches.
fn corpus(args: &[String]) {
    let (seed, budget, shards) = (arg(args, 0, 42), arg(args, 1, 400), workers(args, 2));
    let explore = |campaign: Campaign| campaign.seed(seed).explore(budget).shards(shards).run();
    let signatures = |outcome: csi_test::CampaignOutcome| {
        outcome.exploration.expect("explore mode").signatures_seen
    };
    let corpus = explore(Campaign::new(&[]).corpus(CorpusShape::default(), seed));
    print!("{}", corpus.render());
    let seen = signatures(corpus);
    let base = signatures(explore(Campaign::new(&generate_inputs())));
    println!(
        "corpus-only signatures: {} ({} with the corpus, {} from the catalogue alone)",
        seen.iter().filter(|fp| !base.contains(fp)).count(),
        seen.len(),
        base.len()
    );
}
