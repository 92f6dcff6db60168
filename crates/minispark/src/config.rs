//! Spark's configuration plane.
//!
//! SparkSQL alone exposes hundreds of parameters (Section 8.2 notes 350+);
//! this module implements the ones that govern the studied discrepancies,
//! plus the `hive-site.xml` overlay of the management-plane failures:
//! Spark layers its own values onto Hive's, and the layering can silently
//! override them (SPARK-16901). The Hive connector's SPARK-10181 drops
//! them instead (`connectors::hive`).

use csi_core::config::{ConfigMap, MergePolicy, MergeReport};

/// `spark.sql.storeAssignmentPolicy` — how INSERT values are cast to column
/// types: `ANSI` (raise on overflow; the default), `LEGACY` (Hive-style
/// silent NULL/truncation), or `STRICT`.
pub const STORE_ASSIGNMENT_POLICY: &str = "spark.sql.storeAssignmentPolicy";
/// `spark.sql.legacy.charVarcharAsString` — treat CHAR/VARCHAR as plain
/// STRING (no padding, no length checks).
pub const CHAR_VARCHAR_AS_STRING: &str = "spark.sql.legacy.charVarcharAsString";
/// `spark.sql.legacy.intervalAsString` — store INTERVAL columns in Hive
/// tables as STRING instead of failing (resolves D10/D11).
pub const INTERVAL_AS_STRING: &str = "spark.sql.legacy.intervalAsString";
/// `spark.sql.dataframe.dateRangeCheck` — make the DataFrame writer validate
/// dates against the supported 0001..9999 range (resolves D15).
pub const DATAFRAME_DATE_RANGE_CHECK: &str = "spark.sql.dataframe.dateRangeCheck";
/// `spark.sql.hive.caseSensitiveInferenceMode` — infer and save a
/// case-preserving schema; only effective for ORC and Parquet tables.
pub const CASE_SENSITIVE_INFERENCE: &str = "spark.sql.hive.caseSensitiveInferenceMode";
/// `spark.sql.parquet.datetimeRebaseModeInRead` — honor Julian-calendar
/// markers in Parquet files (`CORRECTED` ignores them; `LEGACY` honors).
pub const PARQUET_REBASE_MODE: &str = "spark.sql.parquet.datetimeRebaseModeInRead";
/// `spark.yarn.keytab` — Kerberos keytab forwarded to Hive (SPARK-10181).
pub const YARN_KEYTAB: &str = "spark.yarn.keytab";
/// `spark.yarn.principal` — Kerberos principal forwarded to Hive.
pub const YARN_PRINCIPAL: &str = "spark.yarn.principal";
/// `spark.executor.memory` (MB).
pub const EXECUTOR_MEMORY_MB: &str = "spark.executor.memory";
/// `spark.executor.memoryOverhead` (MB; default `max(384, 0.10 * memory)`).
pub const EXECUTOR_MEMORY_OVERHEAD_MB: &str = "spark.executor.memoryOverhead";
/// `spark.executor.cores`.
pub const EXECUTOR_CORES: &str = "spark.executor.cores";

/// Store-assignment policy values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAssignmentPolicy {
    /// Raise on overflow / invalid input (the default since Spark 3).
    Ansi,
    /// Hive-style silent coercion to NULL.
    Legacy,
    /// Only exact type matches.
    Strict,
}

/// Spark's effective configuration.
#[derive(Debug, Clone)]
pub struct SparkConfig {
    map: ConfigMap,
}

impl Default for SparkConfig {
    fn default() -> SparkConfig {
        SparkConfig::new()
    }
}

impl SparkConfig {
    /// Builds the default configuration (`spark-defaults.conf`).
    pub fn new() -> SparkConfig {
        let mut map = ConfigMap::new("spark");
        let src = "spark-defaults.conf";
        map.set(STORE_ASSIGNMENT_POLICY, "ANSI", src);
        map.set(CHAR_VARCHAR_AS_STRING, "false", src);
        map.set(INTERVAL_AS_STRING, "false", src);
        map.set(DATAFRAME_DATE_RANGE_CHECK, "false", src);
        map.set(CASE_SENSITIVE_INFERENCE, "INFER_AND_SAVE", src);
        map.set(PARQUET_REBASE_MODE, "CORRECTED", src);
        map.set(EXECUTOR_MEMORY_MB, "1024", src);
        map.set(EXECUTOR_CORES, "1", src);
        // A sampling of the wider surface, for realism.
        map.set("spark.sql.shuffle.partitions", "200", src);
        map.set("spark.sql.session.timeZone", "UTC", src);
        map.set("spark.sql.sources.default", "parquet", src);
        map.set(
            "spark.serializer",
            "org.apache.spark.serializer.KryoSerializer",
            src,
        );
        map.set("spark.dynamicAllocation.enabled", "false", src);
        SparkConfig { map }
    }

    /// Raw access to the underlying provenance-tracked map.
    pub fn map(&self) -> &ConfigMap {
        &self.map
    }

    /// Sets a key from user code (`SparkSession.conf.set`).
    pub fn set(&mut self, key: &str, value: &str) {
        self.map.set(key, value, "session");
    }

    /// Reads a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key)
    }

    /// The effective store-assignment policy; unknown values fall back to
    /// ANSI.
    pub(crate) fn store_assignment_policy(&self) -> StoreAssignmentPolicy {
        match self.map.get(STORE_ASSIGNMENT_POLICY) {
            Some(v) if v.eq_ignore_ascii_case("LEGACY") => StoreAssignmentPolicy::Legacy,
            Some(v) if v.eq_ignore_ascii_case("STRICT") => StoreAssignmentPolicy::Strict,
            _ => StoreAssignmentPolicy::Ansi,
        }
    }

    fn flag(&self, key: &str) -> bool {
        matches!(self.map.get_bool(key), Some(Ok(true)))
    }

    /// Whether CHAR/VARCHAR are treated as plain STRING.
    pub fn char_varchar_as_string(&self) -> bool {
        self.flag(CHAR_VARCHAR_AS_STRING)
    }

    /// Whether INTERVAL columns are stored as STRING in Hive tables.
    pub(crate) fn interval_as_string(&self) -> bool {
        self.flag(INTERVAL_AS_STRING)
    }

    /// Whether the DataFrame writer validates date ranges.
    pub(crate) fn dataframe_date_range_check(&self) -> bool {
        self.flag(DATAFRAME_DATE_RANGE_CHECK)
    }

    /// Whether Parquet reads honor Julian-calendar markers.
    pub(crate) fn parquet_rebase_legacy(&self) -> bool {
        self.map
            .get(PARQUET_REBASE_MODE)
            .is_some_and(|mode| mode.eq_ignore_ascii_case("LEGACY"))
    }

    /// Whether Spark saves a case-preserving schema for a storage format.
    ///
    /// Per the configuration's documentation, inference "only works with
    /// ORC and Parquet, but not Avro" — the internal-configuration-exposure
    /// problem of Section 8.2.
    pub(crate) fn case_preserving_schema_for(&self, format: &str) -> bool {
        let never_infer = self
            .map
            .get(CASE_SENSITIVE_INFERENCE)
            .is_some_and(|mode| mode.eq_ignore_ascii_case("NEVER_INFER"));
        !never_infer
            && (format.eq_ignore_ascii_case("ORC") || format.eq_ignore_ascii_case("PARQUET"))
    }

    /// Merges `hive-site.xml` the way SPARK-16901 did: **Spark's values
    /// overwrite Hive's silently**, even for Hive-owned keys. The merge
    /// report (and the config provenance) records every override, which is
    /// how the study's traceability implication would surface the bug.
    pub fn overlay_onto_hive_site(&self, hive_site: &mut ConfigMap) -> MergeReport {
        hive_site.merge(
            &self.map,
            MergePolicy::TheirsWin,
            "spark overlay (SPARK-16901)",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_select_ansi_policy() {
        let c = SparkConfig::new();
        assert_eq!(c.store_assignment_policy(), StoreAssignmentPolicy::Ansi);
        assert!(!c.char_varchar_as_string());
        assert!(!c.interval_as_string());
        assert!(!c.parquet_rebase_legacy());
    }

    #[test]
    fn policy_switches_via_config() {
        let mut c = SparkConfig::new();
        c.set(STORE_ASSIGNMENT_POLICY, "legacy");
        assert_eq!(c.store_assignment_policy(), StoreAssignmentPolicy::Legacy);
        c.set(STORE_ASSIGNMENT_POLICY, "STRICT");
        assert_eq!(c.store_assignment_policy(), StoreAssignmentPolicy::Strict);
        c.set(STORE_ASSIGNMENT_POLICY, "garbage");
        assert_eq!(c.store_assignment_policy(), StoreAssignmentPolicy::Ansi);
    }

    #[test]
    fn case_preserving_schema_excludes_avro() {
        let c = SparkConfig::new();
        assert!(c.case_preserving_schema_for("orc"));
        assert!(c.case_preserving_schema_for("PARQUET"));
        assert!(!c.case_preserving_schema_for("AVRO"));
        let mut c2 = SparkConfig::new();
        c2.set(CASE_SENSITIVE_INFERENCE, "NEVER_INFER");
        assert!(!c2.case_preserving_schema_for("orc"));
    }

    #[test]
    fn hive_site_overlay_records_silent_overrides() {
        let mut hive_site = ConfigMap::new("hive");
        hive_site.set("hive.exec.dynamic.partition", "true", "hive-site.xml");
        hive_site.set("spark.sql.session.timeZone", "PST", "hive-site.xml");
        let spark = SparkConfig::new();
        let report = spark.overlay_onto_hive_site(&mut hive_site);
        // Spark silently overwrote Hive's timezone choice.
        assert_eq!(report.overridden, vec!["spark.sql.session.timeZone"]);
        assert_eq!(hive_site.get("spark.sql.session.timeZone"), Some("UTC"));
        // The provenance trail records what happened.
        assert!(hive_site
            .trace("spark.sql.session.timeZone")
            .contains("OVERRIDDEN"));
    }
}
