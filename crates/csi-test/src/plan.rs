//! Test plans: the interface matrix of Figure 6.

use minihive::metastore::StorageFormat;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write};

/// A data-plane interface of the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Interface {
    /// Spark's SQL interface.
    SparkSql,
    /// Spark's DataFrame interface.
    DataFrame,
    /// Hive's HiveQL interface.
    HiveQl,
}

impl Interface {
    /// The lowercase name a table of this interface's plans carries,
    /// e.g. `sparksql` in `t_sh_sparksqlhiveql_orc_17`.
    pub(crate) fn slug(&self) -> &'static str {
        match self {
            Interface::SparkSql => "sparksql",
            Interface::DataFrame => "dataframe",
            Interface::HiveQl => "hiveql",
        }
    }
}

impl fmt::Display for Interface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Interface::SparkSql => "SparkSQL",
            Interface::DataFrame => "DataFrame",
            Interface::HiveQl => "HiveQL",
        };
        f.write_str(s)
    }
}

/// One write-interface/read-interface pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TestPlan {
    /// The interface that creates the table and writes the value.
    pub write: Interface,
    /// The interface that reads it back.
    pub read: Interface,
}

impl fmt::Display for TestPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.write, self.read)
    }
}

/// The three experiments of the artifact (`spark_e2e`,
/// `spark_hive_oneway`, `hive_spark_oneway`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Experiment {
    /// Spark to Spark: SparkSQL/DataFrame × SparkSQL/DataFrame.
    SparkToSpark,
    /// Spark to Hive: SparkSQL/DataFrame → HiveQL.
    SparkToHive,
    /// Hive to Spark: HiveQL → SparkSQL/DataFrame.
    HiveToSpark,
}

impl Experiment {
    /// All experiments.
    pub const ALL: [Experiment; 3] = [
        Experiment::SparkToSpark,
        Experiment::SparkToHive,
        Experiment::HiveToSpark,
    ];

    /// The artifact's short name.
    pub fn short(&self) -> &'static str {
        match self {
            Experiment::SparkToSpark => "ss",
            Experiment::SparkToHive => "sh",
            Experiment::HiveToSpark => "hs",
        }
    }

    /// The label an observation of `plan` carries under this experiment,
    /// e.g. `"sh:SparkSQL->HiveQL"`.
    pub(crate) fn plan_label(&self, plan: TestPlan) -> String {
        // `ss:DataFrame->DataFrame`, the longest label, is 23 bytes: one
        // allocation.
        let mut label = String::with_capacity(24);
        let _ = write!(label, "{}:{plan}", self.short());
        label
    }

    /// The plans this experiment runs (Figure 6's right column).
    pub fn plans(&self) -> Vec<TestPlan> {
        use Interface::*;
        match self {
            Experiment::SparkToSpark => vec![
                TestPlan {
                    write: SparkSql,
                    read: SparkSql,
                },
                TestPlan {
                    write: SparkSql,
                    read: DataFrame,
                },
                TestPlan {
                    write: DataFrame,
                    read: SparkSql,
                },
                TestPlan {
                    write: DataFrame,
                    read: DataFrame,
                },
            ],
            Experiment::SparkToHive => vec![
                TestPlan {
                    write: SparkSql,
                    read: HiveQl,
                },
                TestPlan {
                    write: DataFrame,
                    read: HiveQl,
                },
            ],
            Experiment::HiveToSpark => vec![
                TestPlan {
                    write: HiveQl,
                    read: SparkSql,
                },
                TestPlan {
                    write: HiveQl,
                    read: DataFrame,
                },
            ],
        }
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Experiment::SparkToSpark => "Spark to Spark",
            Experiment::SparkToHive => "Spark to Hive",
            Experiment::HiveToSpark => "Hive to Spark",
        };
        f.write_str(s)
    }
}

/// Every (experiment index, experiment, plan, format) cell of
/// `experiments` crossed with their plans and `formats`, in the canonical
/// nesting order: experiment, then plan, then format. The index is the
/// experiment's position in `experiments`. This is the one walk of the
/// cell space: the grid's shards, the matrix's probe cells, explore's
/// combos and the compound roster are all read off it.
pub(crate) fn cells<'a>(
    experiments: &'a [Experiment],
    formats: &'a [StorageFormat],
) -> impl Iterator<Item = (usize, Experiment, TestPlan, StorageFormat)> + 'a {
    experiments
        .iter()
        .enumerate()
        .flat_map(move |(i, &experiment)| {
            experiment.plans().into_iter().flat_map(move |plan| {
                formats
                    .iter()
                    .map(move |&format| (i, experiment, plan, format))
            })
        })
}

/// The scenario key of one cross-test cell, from the labels its
/// observation carries: `sh:SparkSQL->HiveQL:ORC` names a fault-matrix
/// probe cell or a compound job; with an input (`…:ORC:17`) it is the
/// scenario of a detecting grid observation's detections.
pub(crate) fn scenario_key(plan_label: &str, format: &str, input_id: Option<usize>) -> String {
    let mut key = format!("{plan_label}:{format}");
    if let Some(id) = input_id {
        let _ = write!(key, ":{id}");
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_6_has_eight_plans() {
        let total: usize = Experiment::ALL.iter().map(|e| e.plans().len()).sum();
        assert_eq!(total, 8);
        assert_eq!(Experiment::SparkToSpark.plans().len(), 4);
        assert_eq!(Experiment::SparkToHive.plans().len(), 2);
        assert_eq!(Experiment::HiveToSpark.plans().len(), 2);
    }

    #[test]
    fn cells_walk_the_nested_loop_in_order() {
        let mut nested = Vec::new();
        for (i, &experiment) in Experiment::ALL.iter().enumerate() {
            for plan in experiment.plans() {
                for format in StorageFormat::ALL {
                    nested.push((i, experiment, plan, format));
                }
            }
        }
        let walked: Vec<_> = cells(&Experiment::ALL, &StorageFormat::ALL).collect();
        assert_eq!(walked.len(), 24);
        assert_eq!(walked, nested);
    }

    #[test]
    fn plan_display_matches_artifact_style() {
        let p = TestPlan {
            write: Interface::SparkSql,
            read: Interface::HiveQl,
        };
        assert_eq!(p.to_string(), "SparkSQL->HiveQL");
        assert_eq!(Experiment::SparkToHive.short(), "sh");
    }
}
