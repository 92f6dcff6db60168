//! Discrepancy reports produced by cross-system testing.
//!
//! The raw output of the oracles ([`crate::oracle::OracleFailure`]) contains
//! many test failures per underlying discrepancy (Section 8.2: "There will
//! be many more test failures produced than the ones listed, but they
//! correspond to the same discrepancies"). A [`Discrepancy`] is the
//! deduplicated unit the paper reports — 15 of them on the Spark–Hive data
//! plane — and a [`DiscrepancyReport`] is the full run summary, serializable
//! to JSON like the artifact's `*failed.json` files.

use crate::boundary::InteractionTrace;
use crate::detect::{Detection, DetectorAgreement};
use crate::error::InteractionError;
use crate::fault::{FaultOutcome, FaultSpec, InjectedFault};
use crate::oracle::OracleFailure;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The five problem categories of Section 8.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProblemCategory {
    /// "Cannot read what was written" (2/15).
    CannotReadWritten,
    /// "Type violations" (2/15).
    TypeViolation,
    /// "Exposing internal configurations of the downstream to the upstream"
    /// (5/15).
    InternalConfigExposure,
    /// "Inconsistent error behavior across interfaces" (7/15).
    InconsistentErrorBehavior,
    /// "Relying on custom (non-default) configurations" (8/15).
    CustomConfigReliance,
}

impl ProblemCategory {
    /// All categories in the order used by Section 8.2.
    pub const ALL: [ProblemCategory; 5] = [
        ProblemCategory::CannotReadWritten,
        ProblemCategory::TypeViolation,
        ProblemCategory::InternalConfigExposure,
        ProblemCategory::InconsistentErrorBehavior,
        ProblemCategory::CustomConfigReliance,
    ];
}

impl fmt::Display for ProblemCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProblemCategory::CannotReadWritten => "Cannot read what was written",
            ProblemCategory::TypeViolation => "Type violations",
            ProblemCategory::InternalConfigExposure => {
                "Exposing internal configurations of the downstream to the upstream"
            }
            ProblemCategory::InconsistentErrorBehavior => {
                "Inconsistent error behavior across interfaces"
            }
            ProblemCategory::CustomConfigReliance => {
                "Relying on custom (non-default) configurations"
            }
        };
        f.write_str(s)
    }
}

/// One distinct discrepancy between the interacting systems.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Discrepancy {
    /// Stable identifier, e.g. `"D01"`.
    pub id: String,
    /// The real-world issue key(s) this corresponds to, e.g. `SPARK-39075`.
    pub issue_keys: Vec<String>,
    /// One-line description.
    pub title: String,
    /// Problem categories (a discrepancy can belong to several).
    pub categories: Vec<ProblemCategory>,
    /// The test failures that evidence this discrepancy.
    pub evidence: Vec<OracleFailure>,
    /// Compact causal crossing sequence of a representative failing
    /// observation (empty when tracing was disabled).
    pub trace: Vec<String>,
}

impl Discrepancy {
    /// Whether the discrepancy belongs to a category.
    pub fn has_category(&self, c: ProblemCategory) -> bool {
        self.categories.contains(&c)
    }
}

/// Full result of a cross-testing run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiscrepancyReport {
    /// Total inputs exercised.
    pub inputs_total: usize,
    /// How many inputs were valid.
    pub inputs_valid: usize,
    /// How many inputs were invalid.
    pub inputs_invalid: usize,
    /// Total observations (input × plan × format runs).
    pub observations: usize,
    /// Raw oracle failures before deduplication.
    pub raw_failures: Vec<OracleFailure>,
    /// Distinct discrepancies after classification.
    pub discrepancies: Vec<Discrepancy>,
    /// Oracle failures the classifier could not attribute (should be empty
    /// once the discrepancy catalogue is complete).
    pub unattributed: Vec<OracleFailure>,
    /// Total boundary crossings per channel across the whole campaign
    /// (empty when tracing was disabled).
    pub trace_totals: BTreeMap<String, usize>,
    /// Whether the online detector ran during the campaign. Distinguishes
    /// "detection off" from "detection on, nothing flagged".
    pub detector_enabled: bool,
    /// Online detections per channel across the whole campaign (a
    /// detection spanning several channels counts once per channel).
    pub detection_totals: BTreeMap<String, usize>,
    /// Online detections per detection kind.
    pub detection_kinds: BTreeMap<String, usize>,
    /// Agreement with the offline §9 oracle over fault-bearing
    /// observations; `None` when no observation had a fired fault.
    pub detector_agreement: Option<DetectorAgreement>,
}

impl DiscrepancyReport {
    /// Number of distinct discrepancies found.
    pub fn distinct(&self) -> usize {
        self.discrepancies.len()
    }

    /// Count of discrepancies per category (categories overlap).
    pub fn category_counts(&self) -> Vec<(ProblemCategory, usize)> {
        ProblemCategory::ALL
            .iter()
            .map(|&c| {
                (
                    c,
                    self.discrepancies
                        .iter()
                        .filter(|d| d.has_category(c))
                        .count(),
                )
            })
            .collect()
    }

    /// All issue keys covered by the found discrepancies, sorted.
    pub fn issue_keys(&self) -> Vec<String> {
        let set: BTreeSet<String> = self
            .discrepancies
            .iter()
            .flat_map(|d| d.issue_keys.iter().cloned())
            .collect();
        set.into_iter().collect()
    }

    /// Renders the standard human-readable summary: every section that has
    /// something to say, through the single [`Render`] path.
    pub fn render(&self) -> String {
        Render::standard(self).to_string()
    }
}

/// One cell of the fault matrix: a fault crossed with a scenario, defined
/// here so that [`Render`] reads the matrix directly.
#[derive(Debug, Clone, Serialize)]
pub struct FaultCase {
    /// The fault under test.
    pub fault: FaultSpec,
    /// The scenario the fault was exercised against (e.g.
    /// `"sh:spark-sql->hiveql:ORC"` or `"yarn:flink-driver"`).
    pub scenario: String,
    /// The faults that actually fired during the cell, read from its trace.
    pub fired: Vec<InjectedFault>,
    /// The error the caller saw, if any.
    pub surfaced: Option<InteractionError>,
    /// Taxonomy bucket; `None` when the fault never fired in this cell.
    pub outcome: Option<FaultOutcome>,
    /// Deterministic human-readable cell summary.
    pub detail: String,
    /// The boundary-crossing sequence recorded while the cell ran.
    pub trace: InteractionTrace,
    /// Online detections the cell produced (empty when detection is off).
    pub detections: Vec<Detection>,
}

/// The full fault-matrix report.
#[derive(Debug, Clone, Serialize)]
pub struct FaultMatrixReport {
    /// The campaign seed.
    pub seed: u64,
    /// Whether the online detector ran over the cells.
    pub detector_enabled: bool,
    /// Every cell, in canonical (catalogue × scenario) order.
    pub cases: Vec<FaultCase>,
    /// Cell count per taxonomy bucket (key `"unfired"` counts cells whose
    /// fault never fired).
    pub outcomes: BTreeMap<String, usize>,
    /// Detection count per [`crate::detect::DetectionKind`].
    pub detection_kinds: BTreeMap<String, usize>,
    /// Detection count per channel involved.
    pub detection_totals: BTreeMap<String, usize>,
    /// Online-vs-offline agreement over fired cells; `None` when detection
    /// is off or no cell fired.
    pub agreement: Option<DetectorAgreement>,
}

/// One corpus entry of a coverage-guided campaign: an input whose
/// observation produced a signature never seen before.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusRow {
    /// The input's id in the (grown) input pool.
    pub input_id: usize,
    /// The input's human-readable label.
    pub label: String,
    /// `"grid"` for catalogue inputs, `"corpus"` for synthesized corpus
    /// seeds, `"mutation"` for corpus mutants.
    pub origin: String,
    /// Execution count at which the input entered the corpus.
    pub executed: usize,
}

/// First discovery of one discrepancy class during exploration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscoveryRow {
    /// The discrepancy id, e.g. `"D05"`.
    pub id: String,
    /// Observations executed when the class first had evidence.
    pub executed: usize,
    /// `"grid"` when the evidencing input came from the seed catalogue,
    /// `"corpus"` when a synthesized corpus seed produced it,
    /// `"mutation"` when a corpus mutant produced it.
    pub origin: String,
}

/// One shrunk reproducer: the minimal 1-row/1-column scenario that still
/// triggers its discrepancy class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShrinkRow {
    /// The discrepancy id the reproducer preserves.
    pub id: String,
    /// Compact scenario, e.g. `"ss:SparkSQL->DataFrame:AVRO"`.
    pub scenario: String,
    /// The shrunk input's label.
    pub label: String,
    /// Rows in the reproducer's table (always 1).
    pub rows: usize,
    /// Columns in the reproducer's table (always 1).
    pub columns: usize,
    /// Accepted shrink steps.
    pub steps: usize,
    /// Reproducer re-executions the shrinker spent.
    pub checks: usize,
}

/// One co-failure cluster of a compound (k-fault × interleaving) campaign:
/// discrepancies grouped by shared causal-trace prefix, plus the minimal
/// reproducer the cluster ddmin-shrank to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterRow {
    /// Hex fingerprint of the shared causal prefix (the cluster key).
    pub fingerprint: String,
    /// Number of member discrepancies.
    pub members: usize,
    /// `channel/op` of the first faulted crossing inside the witness job's
    /// turns — the crossing the cluster failed through (`hdfs/read`).
    pub crack: String,
    /// Depth of the shared prefix, in crossings.
    pub prefix_len: usize,
    /// Fault-set id of the shrunk reproducer (member ids joined with `+`).
    pub fault_set: String,
    /// Number of faults in the shrunk reproducer.
    pub faults: usize,
    /// Interleave-schedule id of the shrunk reproducer.
    pub schedule: String,
    /// Scenario of the shrunk reproducer's discrepant job.
    pub scenario: String,
}

/// Headline stats of a compound (k-fault × interleaving) exploration pass,
/// rendered alongside its [`ClusterRow`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompoundStats {
    /// The pass seed.
    pub seed: u64,
    /// Maximum faults armed simultaneously (k).
    pub kfaults: usize,
    /// Concurrent jobs sharing one deployment per trial.
    pub jobs: usize,
    /// Trials executed.
    pub executed: usize,
    /// Size of the enumerated (fault-set × interleaving) product space.
    pub space: usize,
    /// Distinct compound coverage signatures seen.
    pub signatures: usize,
    /// Member discrepancies across all clusters.
    pub discrepancies: usize,
    /// Shrink re-executions spent across all clusters.
    pub shrink_checks: usize,
}

/// Summary of a coverage-guided exploration campaign, rendered through
/// [`Render::exploration`] and serialized alongside the report.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExplorationStats {
    /// The exploration seed.
    pub seed: u64,
    /// The observation budget the campaign was given.
    pub budget: usize,
    /// Size of the exhaustive (experiment × plan × format × input) grid
    /// the budget is measured against.
    pub grid_cells: usize,
    /// Observations actually executed.
    pub executed: usize,
    /// Observations drawn fresh from the exhaustive grid.
    pub fresh: usize,
    /// Observations of mutated corpus entries (including corpus sweeps).
    pub mutated: usize,
    /// Observations executed under a fault overlay.
    pub faulted: usize,
    /// Distinct coverage signatures seen.
    pub signatures: usize,
    /// Signatures first produced by a mutated input — coverage the
    /// exhaustive seed grid cannot reach.
    pub novel_from_mutation: usize,
    /// Signatures first produced by a synthesized corpus seed — coverage
    /// the hand-built catalogue alone never reaches.
    pub novel_from_corpus: usize,
    /// Hex fingerprints of every signature seen, in canonical order, so
    /// two runs can be diffed by *which* coverage they reached.
    pub signatures_seen: Vec<String>,
    /// The corpus, in admission order.
    pub corpus: Vec<CorpusRow>,
    /// First discovery per discrepancy class, in catalogue order.
    pub discoveries: Vec<DiscoveryRow>,
    /// Shrunk reproducers, in catalogue order.
    pub shrinks: Vec<ShrinkRow>,
}

/// The single rendering path for campaign reports. A block renders when
/// its data is present: the summary, discrepancies and category totals
/// always; crossings per channel when the campaign traced; detections when
/// the detector ran; matrix cells, exploration stats and co-failure
/// clusters when supplied; the unattributed warning when anything went
/// unattributed.
///
/// ```
/// use csi_core::report::{DiscrepancyReport, Render};
/// let report = DiscrepancyReport::default();
/// let text = Render::standard(&report).to_string();
/// assert!(text.starts_with("cross-testing:"));
/// ```
#[derive(Debug, Clone)]
pub struct Render<'a> {
    report: &'a DiscrepancyReport,
    cases: &'a [FaultCase],
    exploration: Option<&'a ExplorationStats>,
    compound: Option<(&'a CompoundStats, &'a [ClusterRow])>,
}

impl<'a> Render<'a> {
    /// The renderer of a report, with no mode-specific rows supplied.
    pub fn standard(report: &'a DiscrepancyReport) -> Render<'a> {
        Render {
            report,
            cases: &[],
            exploration: None,
            compound: None,
        }
    }

    /// Supplies the fault matrix, if any, rendered one line per cell.
    pub fn matrix(mut self, matrix: Option<&'a FaultMatrixReport>) -> Self {
        self.cases = matrix.map_or(&[], |m| &m.cases);
        self
    }

    /// Supplies exploration stats, if any.
    pub fn exploration(mut self, stats: Option<&'a ExplorationStats>) -> Self {
        self.exploration = stats;
        self
    }

    /// Supplies compound-pass stats, if any, and co-failure cluster rows.
    pub fn clusters(mut self, stats: Option<&'a CompoundStats>, rows: &'a [ClusterRow]) -> Self {
        self.compound = stats.map(|s| (s, rows));
        self
    }
}

impl fmt::Display for Render<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.report;
        writeln!(
            f,
            "cross-testing: {} inputs ({} valid, {} invalid), {} observations",
            r.inputs_total, r.inputs_valid, r.inputs_invalid, r.observations
        )?;
        writeln!(
            f,
            "{} raw oracle failures -> {} distinct discrepancies",
            r.raw_failures.len(),
            r.distinct()
        )?;
        for d in &r.discrepancies {
            writeln!(
                f,
                "  {} [{}] {} ({} failures)",
                d.id,
                d.issue_keys.join(", "),
                d.title,
                d.evidence.len()
            )?;
            for line in &d.trace {
                writeln!(f, "      {line}")?;
            }
        }
        writeln!(f, "category totals:")?;
        for (c, n) in r.category_counts() {
            writeln!(f, "  {n:2} x {c}")?;
        }
        if !r.trace_totals.is_empty() {
            writeln!(f, "boundary crossings per channel:")?;
            for (channel, n) in &r.trace_totals {
                writeln!(f, "  {n:6} x {channel}")?;
            }
        }
        if r.detector_enabled {
            if r.detection_totals.is_empty() {
                writeln!(f, "online detections: none")?;
            } else {
                writeln!(f, "online detections per channel:")?;
                for (channel, n) in &r.detection_totals {
                    writeln!(f, "  {n:6} x {channel}")?;
                }
                writeln!(f, "online detections per kind:")?;
                for (kind, n) in &r.detection_kinds {
                    writeln!(f, "  {n:6} x {kind}")?;
                }
            }
            if let Some(a) = &r.detector_agreement {
                writeln!(
                    f,
                    "detector vs offline oracle: {} fault-bearing observations, \
                     precision {:.3}, recall {:.3} (tp {} fp {} fn {} tn {})",
                    a.total(),
                    a.precision(),
                    a.recall(),
                    a.true_positives,
                    a.false_positives,
                    a.false_negatives,
                    a.true_negatives
                )?;
            }
        }
        if !self.cases.is_empty() {
            writeln!(f, "fault matrix cells:")?;
            for case in self.cases {
                let outcome = case.outcome.map_or("unfired".into(), |o| o.to_string());
                writeln!(
                    f,
                    "  {} x {}: {outcome} ({} detections) {}",
                    case.fault.id,
                    case.scenario,
                    case.detections.len(),
                    case.detail
                )?;
            }
        }
        if let Some(s) = self.exploration {
            writeln!(
                f,
                "exploration: seed {}, budget {} over a {}-cell grid",
                s.seed, s.budget, s.grid_cells
            )?;
            writeln!(
                f,
                "  executed {} observations ({} fresh, {} mutated, {} fault-overlay)",
                s.executed, s.fresh, s.mutated, s.faulted
            )?;
            writeln!(
                f,
                "  coverage: {} signatures ({} novel from mutation, {} novel from \
                 corpus), corpus {} entries",
                s.signatures,
                s.novel_from_mutation,
                s.novel_from_corpus,
                s.corpus.len()
            )?;
            for d in &s.discoveries {
                writeln!(
                    f,
                    "  discovered {} after {} executions ({})",
                    d.id, d.executed, d.origin
                )?;
            }
            for sh in &s.shrinks {
                writeln!(
                    f,
                    "  shrunk {} -> {} [{}] ({} row x {} col, {} steps, {} checks)",
                    sh.id, sh.scenario, sh.label, sh.rows, sh.columns, sh.steps, sh.checks
                )?;
            }
        }
        if let Some((s, clusters)) = self.compound {
            writeln!(
                f,
                "compound pass: seed {}, k<={} faults x {} jobs, {} trials over a \
                 {}-point product space",
                s.seed, s.kfaults, s.jobs, s.executed, s.space
            )?;
            writeln!(
                f,
                "  {} signatures, {} discrepancies -> {} co-failure clusters \
                 ({} shrink checks)",
                s.signatures,
                s.discrepancies,
                clusters.len(),
                s.shrink_checks
            )?;
            for c in clusters {
                writeln!(
                    f,
                    "  cluster {} ({} members, prefix depth {}): cracks at {}",
                    c.fingerprint, c.members, c.prefix_len, c.crack
                )?;
                writeln!(
                    f,
                    "    reproducer: faults [{}] ({}), schedule {}, job {}",
                    c.fault_set, c.faults, c.schedule, c.scenario
                )?;
            }
        }
        if !r.unattributed.is_empty() {
            writeln!(f, "WARNING: {} unattributed failures", r.unattributed.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleKind;

    fn failure(input_id: usize) -> OracleFailure {
        OracleFailure {
            oracle: OracleKind::Differential,
            input_id,
            plans: vec!["A->B".into()],
            formats: vec!["ORC".into()],
            detail: "diverged".into(),
        }
    }

    fn report() -> DiscrepancyReport {
        DiscrepancyReport {
            inputs_total: 10,
            inputs_valid: 6,
            inputs_invalid: 4,
            observations: 240,
            raw_failures: vec![failure(1), failure(2)],
            discrepancies: vec![
                Discrepancy {
                    id: "D01".into(),
                    issue_keys: vec!["SPARK-39075".into()],
                    title: "BYTE/SHORT via Avro cannot be read back".into(),
                    categories: vec![
                        ProblemCategory::CannotReadWritten,
                        ProblemCategory::InternalConfigExposure,
                    ],
                    evidence: vec![failure(1)],
                    trace: vec!["#0 Spark->Hive metastore:get_table [Data] @0ms ok".into()],
                },
                Discrepancy {
                    id: "D05".into(),
                    issue_keys: vec!["SPARK-40439".into()],
                    title: "decimal overflow: exception vs NULL".into(),
                    categories: vec![
                        ProblemCategory::InconsistentErrorBehavior,
                        ProblemCategory::CustomConfigReliance,
                    ],
                    evidence: vec![failure(2)],
                    trace: vec![],
                },
            ],
            unattributed: vec![],
            trace_totals: BTreeMap::from([("metastore".to_string(), 4)]),
            detector_enabled: false,
            detection_totals: BTreeMap::new(),
            detection_kinds: BTreeMap::new(),
            detector_agreement: None,
        }
    }

    #[test]
    fn category_counts_allow_overlap() {
        let r = report();
        let counts: Vec<usize> = r.category_counts().iter().map(|(_, n)| *n).collect();
        assert_eq!(counts, vec![1, 0, 1, 1, 1]);
        assert_eq!(r.distinct(), 2);
    }

    #[test]
    fn issue_keys_are_sorted_and_deduped() {
        let r = report();
        assert_eq!(r.issue_keys(), vec!["SPARK-39075", "SPARK-40439"]);
    }

    #[test]
    fn render_mentions_every_discrepancy() {
        let text = report().render();
        assert!(text.contains("D01"));
        assert!(text.contains("D05"));
        assert!(text.contains("2 distinct discrepancies"));
        assert!(text.contains("#0 Spark->Hive metastore:get_table"));
        assert!(text.contains("boundary crossings per channel:"));
    }

    #[test]
    fn detections_section_reports_none_and_totals() {
        let mut r = report();
        r.detector_enabled = true;
        let text = r.render();
        assert!(text.contains("online detections: none"), "{text}");
        r.detection_totals.insert("metastore".into(), 3);
        r.detection_kinds.insert("swallowed-error".into(), 3);
        let mut agreement = DetectorAgreement::default();
        agreement.score(true, true);
        agreement.score(false, false);
        r.detector_agreement = Some(agreement);
        let text = r.render();
        assert!(text.contains("online detections per channel:"), "{text}");
        assert!(text.contains("3 x metastore"), "{text}");
        assert!(text.contains("3 x swallowed-error"), "{text}");
        assert!(
            text.contains("precision 1.000, recall 1.000 (tp 1 fp 0 fn 0 tn 1)"),
            "{text}"
        );
    }

    #[test]
    fn fault_matrix_cells_render_through_the_same_path() {
        use crate::fault::{Channel, FaultKind, Trigger};
        let r = report();
        let case = FaultCase {
            fault: FaultSpec {
                id: "ms-unavail-get".into(),
                channel: Channel::Metastore,
                op: "get_table".into(),
                kind: FaultKind::Unavailable,
                trigger: Trigger::Always,
            },
            scenario: "sh:spark-sql->hiveql:orc".into(),
            fired: vec![],
            surfaced: None,
            outcome: Some(FaultOutcome::Swallowed),
            detail: "no error surfaced".into(),
            trace: InteractionTrace::default(),
            detections: vec![],
        };
        let unfired = FaultCase {
            outcome: None,
            ..case.clone()
        };
        let matrix = FaultMatrixReport {
            seed: 1,
            detector_enabled: false,
            cases: vec![case, unfired],
            outcomes: BTreeMap::new(),
            detection_kinds: BTreeMap::new(),
            detection_totals: BTreeMap::new(),
            agreement: None,
        };
        let text = Render::standard(&r).matrix(Some(&matrix)).to_string();
        assert!(text.contains("fault matrix cells:"), "{text}");
        assert!(
            text.contains(
                "ms-unavail-get x sh:spark-sql->hiveql:orc: swallowed (0 detections) \
                 no error surfaced"
            ),
            "{text}"
        );
        assert!(
            text.contains("ms-unavail-get x sh:spark-sql->hiveql:orc: unfired (0 detections)"),
            "{text}"
        );
    }

    #[test]
    fn exploration_stats_render_through_the_same_path() {
        let r = report();
        let stats = ExplorationStats {
            seed: 42,
            budget: 600,
            grid_cells: 10_128,
            executed: 600,
            fresh: 420,
            mutated: 150,
            faulted: 30,
            signatures: 37,
            novel_from_mutation: 4,
            novel_from_corpus: 2,
            signatures_seen: vec!["00deadbeef001234".into()],
            corpus: vec![CorpusRow {
                input_id: 3,
                label: "a tinyint".into(),
                origin: "grid".into(),
                executed: 12,
            }],
            discoveries: vec![DiscoveryRow {
                id: "D01".into(),
                executed: 64,
                origin: "grid".into(),
            }],
            shrinks: vec![ShrinkRow {
                id: "D01".into(),
                scenario: "ss:SparkSQL->DataFrame:AVRO".into(),
                label: "a tinyint".into(),
                rows: 1,
                columns: 1,
                steps: 2,
                checks: 9,
            }],
        };
        let text = Render::standard(&r).exploration(Some(&stats)).to_string();
        assert!(
            text.contains("exploration: seed 42, budget 600 over a 10128-cell grid"),
            "{text}"
        );
        assert!(
            text.contains(
                "37 signatures (4 novel from mutation, 2 novel from corpus), corpus 1 entries"
            ),
            "{text}"
        );
        assert!(
            text.contains("discovered D01 after 64 executions (grid)"),
            "{text}"
        );
        assert!(
            text.contains("shrunk D01 -> ss:SparkSQL->DataFrame:AVRO [a tinyint] (1 row x 1 col, 2 steps, 9 checks)"),
            "{text}"
        );
        let json = serde_json::to_string(&stats).unwrap();
        let back: ExplorationStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn cluster_rows_render_through_the_same_path() {
        let r = report();
        let stats = CompoundStats {
            seed: 42,
            kfaults: 3,
            jobs: 2,
            executed: 120,
            space: 480,
            signatures: 19,
            discrepancies: 7,
            shrink_checks: 23,
        };
        let rows = vec![ClusterRow {
            fingerprint: "00deadbeef001234".into(),
            members: 4,
            crack: "hdfs/read".into(),
            prefix_len: 3,
            fault_set: "ms-unavail-get+hdfs-corrupt-read".into(),
            faults: 2,
            schedule: "identity".into(),
            scenario: "ss:SparkSQL->SparkSQL:ORC".into(),
        }];
        let text = Render::standard(&r)
            .clusters(Some(&stats), &rows)
            .to_string();
        assert!(
            text.contains("compound pass: seed 42, k<=3 faults x 2 jobs"),
            "{text}"
        );
        assert!(
            text.contains("7 discrepancies -> 1 co-failure clusters"),
            "{text}"
        );
        assert!(
            text.contains("cluster 00deadbeef001234 (4 members, prefix depth 3)"),
            "{text}"
        );
        assert!(
            text.contains(
                "reproducer: faults [ms-unavail-get+hdfs-corrupt-read] (2), schedule identity"
            ),
            "{text}"
        );
        let json = serde_json::to_string(&rows).unwrap();
        let back: Vec<ClusterRow> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rows);
        let json = serde_json::to_string(&stats).unwrap();
        let back: CompoundStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn report_serializes_to_json() {
        let r = report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: DiscrepancyReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
