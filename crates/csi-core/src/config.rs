//! Provenance-tracking configuration plane.
//!
//! Section 6.2.1 finds that most configuration-related CSI failures are not
//! erroneous values but *coherence* failures: values silently ignored,
//! unexpectedly overridden, or lost while merging configuration from several
//! systems (Table 7). The paper's implication is that "traceability of how
//! configuration values are applied across systems could be useful" — this
//! module implements exactly that.
//!
//! A [`ConfigMap`] stores string key/value pairs together with the full
//! history of how each key reached its current value ([`Provenance`]). Merges
//! take an explicit [`MergePolicy`] and record overrides and ignores, so the
//! silent-override pattern of SPARK-16901 becomes *observable* rather than
//! silent — without changing the (faithfully discrepant) behavior itself.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// What happened to a key during one configuration operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfigAction {
    /// The key was set to a value by a source.
    Set {
        /// New value.
        value: String,
    },
    /// An existing value was overridden by a merge.
    Overridden {
        /// Value before the merge.
        old: String,
        /// Value after the merge.
        new: String,
    },
    /// An incoming value was ignored because the existing one won.
    Ignored {
        /// The incoming value that was dropped.
        incoming: String,
        /// The value that was kept.
        kept: String,
    },
    /// The key was explicitly removed.
    Removed {
        /// Value at removal time.
        value: String,
    },
}

/// One step in the history of a configuration key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Provenance {
    /// Which system or file performed the operation (e.g. "hive-site.xml",
    /// "minispark session", "hadoop defaults").
    pub source: String,
    /// What happened.
    pub action: ConfigAction,
}

/// Conflict resolution when merging two configuration maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MergePolicy {
    /// Incoming values win; existing values are recorded as overridden.
    /// This is the (failure-prone) behavior of naive config merging.
    TheirsWin,
    /// Existing values win; incoming values are recorded as ignored.
    OursWin,
}

#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Entry {
    value: Option<String>,
    history: Vec<Provenance>,
}

/// A configuration map with per-key provenance.
///
/// # Examples
///
/// ```
/// use csi_core::config::{ConfigMap, MergePolicy};
///
/// let mut spark = ConfigMap::new("spark");
/// spark.set("hive.metastore.uris", "thrift://a:9083", "spark-defaults.conf");
///
/// let mut hive = ConfigMap::new("hive");
/// hive.set("hive.metastore.uris", "thrift://b:9083", "hive-site.xml");
///
/// // Spark merges Hive's configuration; Spark's value silently wins.
/// let report = spark.merge(&hive, MergePolicy::OursWin, "merge hive-site");
/// assert_eq!(report.ignored, vec!["hive.metastore.uris".to_string()]);
/// assert_eq!(spark.get("hive.metastore.uris"), Some("thrift://a:9083"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigMap {
    name: String,
    entries: BTreeMap<String, Entry>,
}

/// Summary of a merge: which keys were overridden or ignored.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeReport {
    /// Keys whose existing values were replaced.
    pub overridden: Vec<String>,
    /// Keys whose incoming values were dropped.
    pub ignored: Vec<String>,
    /// Keys that were newly added.
    pub added: Vec<String>,
}

impl ConfigMap {
    /// Creates an empty map owned by `name` (used in provenance records).
    pub fn new(name: impl Into<String>) -> ConfigMap {
        ConfigMap {
            name: name.into(),
            entries: BTreeMap::new(),
        }
    }

    /// The owning system's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets a key, recording the source.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>, source: &str) {
        let value = value.into();
        let e = self.entries.entry(key.into()).or_default();
        e.history.push(Provenance {
            source: source.to_string(),
            action: ConfigAction::Set {
                value: value.clone(),
            },
        });
        e.value = Some(value);
    }

    /// Removes a key, recording the removal; returns the old value.
    pub fn remove(&mut self, key: &str, source: &str) -> Option<String> {
        let e = self.entries.get_mut(key)?;
        let old = e.value.take()?;
        e.history.push(Provenance {
            source: source.to_string(),
            action: ConfigAction::Removed { value: old.clone() },
        });
        Some(old)
    }

    /// Gets the current value of a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key)?.value.as_deref()
    }

    /// Parses a key as a boolean (`true`/`false`, case-insensitive).
    pub fn get_bool(&self, key: &str) -> Option<Result<bool, ConfigValueError>> {
        self.get(key).map(|v| match v {
            _ if v.eq_ignore_ascii_case("true") => Ok(true),
            _ if v.eq_ignore_ascii_case("false") => Ok(false),
            _ => Err(ConfigValueError {
                key: key.to_string(),
                value: v.to_string(),
                expected: "boolean",
            }),
        })
    }

    /// Parses a key as an integer.
    pub fn get_i64(&self, key: &str) -> Option<Result<i64, ConfigValueError>> {
        self.get(key).map(|v| {
            v.trim().parse().map_err(|_| ConfigValueError {
                key: key.to_string(),
                value: v.to_string(),
                expected: "integer",
            })
        })
    }

    /// Parses a duration with optional unit suffix (`ms`, `s`, `m`, `h`);
    /// a bare number is interpreted as milliseconds.
    pub fn get_duration_ms(&self, key: &str) -> Option<Result<u64, ConfigValueError>> {
        self.get(key).map(|v| {
            let t = v.trim();
            let (num, mult) = if let Some(n) = t.strip_suffix("ms") {
                (n, 1u64)
            } else if let Some(n) = t.strip_suffix('s') {
                (n, 1000)
            } else if let Some(n) = t.strip_suffix('m') {
                (n, 60_000)
            } else if let Some(n) = t.strip_suffix('h') {
                (n, 3_600_000)
            } else {
                (t, 1)
            };
            num.trim()
                .parse::<u64>()
                .map(|n| n * mult)
                .map_err(|_| ConfigValueError {
                    key: key.to_string(),
                    value: v.to_string(),
                    expected: "duration",
                })
        })
    }

    /// All current key/value pairs, sorted by key.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries
            .iter()
            .filter_map(|(k, e)| Some((k.as_str(), e.value.as_deref()?)))
    }

    /// Number of keys with a current value.
    pub fn len(&self) -> usize {
        self.entries.values().filter(|e| e.value.is_some()).count()
    }

    /// Whether no key currently has a value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full history of one key.
    pub fn provenance(&self, key: &str) -> &[Provenance] {
        self.entries
            .get(key)
            .map(|e| e.history.as_slice())
            .unwrap_or(&[])
    }

    /// Merges another map into this one under a policy, recording every
    /// override and ignore in both the provenance and the returned report.
    pub fn merge(&mut self, other: &ConfigMap, policy: MergePolicy, source: &str) -> MergeReport {
        let mut report = MergeReport::default();
        for (key, incoming) in other.iter() {
            match self.get(key).map(str::to_string) {
                None => {
                    self.set(key, incoming, source);
                    report.added.push(key.to_string());
                }
                Some(existing) if existing == incoming => {}
                Some(existing) => match policy {
                    MergePolicy::TheirsWin => {
                        let e = self.entries.get_mut(key).expect("key exists");
                        e.history.push(Provenance {
                            source: source.to_string(),
                            action: ConfigAction::Overridden {
                                old: existing,
                                new: incoming.to_string(),
                            },
                        });
                        e.value = Some(incoming.to_string());
                        report.overridden.push(key.to_string());
                    }
                    MergePolicy::OursWin => {
                        let e = self.entries.get_mut(key).expect("key exists");
                        e.history.push(Provenance {
                            source: source.to_string(),
                            action: ConfigAction::Ignored {
                                incoming: incoming.to_string(),
                                kept: existing,
                            },
                        });
                        report.ignored.push(key.to_string());
                    }
                },
            }
        }
        report
    }

    /// Renders a human-readable trace of how `key` got its value — the
    /// cross-system traceability tool the paper calls for.
    pub fn trace(&self, key: &str) -> String {
        let mut out = format!("{} / {key}:\n", self.name);
        let history = self.provenance(key);
        if history.is_empty() {
            out.push_str("  (never set)\n");
            return out;
        }
        for p in history {
            let line = match &p.action {
                ConfigAction::Set { value } => format!("set to {value:?}"),
                ConfigAction::Overridden { old, new } => {
                    format!("OVERRIDDEN {old:?} -> {new:?}")
                }
                ConfigAction::Ignored { incoming, kept } => {
                    format!("IGNORED incoming {incoming:?}, kept {kept:?}")
                }
                ConfigAction::Removed { value } => format!("removed (was {value:?})"),
            };
            out.push_str(&format!("  [{}] {line}\n", p.source));
        }
        out
    }
}

/// A configuration value that failed to parse as the requested type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigValueError {
    /// The key.
    pub key: String,
    /// The raw value.
    pub value: String,
    /// What the caller expected.
    pub expected: &'static str,
}

impl fmt::Display for ConfigValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "config {}={:?} is not a valid {}",
            self.key, self.value, self.expected
        )
    }
}

impl std::error::Error for ConfigValueError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_typed_getters() {
        let mut c = ConfigMap::new("t");
        c.set("a.flag", "TRUE", "test");
        c.set("a.n", "42", "test");
        c.set("a.dur", "2s", "test");
        c.set("a.bad", "wat", "test");
        assert_eq!(c.get_bool("a.flag"), Some(Ok(true)));
        assert_eq!(c.get_i64("a.n"), Some(Ok(42)));
        assert_eq!(c.get_duration_ms("a.dur"), Some(Ok(2000)));
        assert!(c.get_bool("a.bad").unwrap().is_err());
        assert_eq!(c.get_bool("missing"), None);
    }

    #[test]
    fn duration_units() {
        let mut c = ConfigMap::new("t");
        for (raw, ms) in [
            ("500", 500u64),
            ("500ms", 500),
            ("3m", 180_000),
            ("1h", 3_600_000),
        ] {
            c.set("k", raw, "test");
            assert_eq!(c.get_duration_ms("k"), Some(Ok(ms)), "{raw}");
        }
    }

    #[test]
    fn merge_theirs_win_records_override() {
        let mut a = ConfigMap::new("a");
        a.set("k", "1", "init");
        let mut b = ConfigMap::new("b");
        b.set("k", "2", "init");
        b.set("only-b", "x", "init");
        let report = a.merge(&b, MergePolicy::TheirsWin, "merge-b");
        assert_eq!(a.get("k"), Some("2"));
        assert_eq!(a.get("only-b"), Some("x"));
        assert_eq!(report.overridden, vec!["k"]);
        assert_eq!(report.added, vec!["only-b"]);
        assert!(matches!(
            a.provenance("k").last().unwrap().action,
            ConfigAction::Overridden { .. }
        ));
    }

    #[test]
    fn merge_ours_win_records_ignore() {
        let mut a = ConfigMap::new("a");
        a.set("k", "1", "init");
        let mut b = ConfigMap::new("b");
        b.set("k", "2", "init");
        let report = a.merge(&b, MergePolicy::OursWin, "merge-b");
        assert_eq!(a.get("k"), Some("1"));
        assert_eq!(report.ignored, vec!["k"]);
        let trace = a.trace("k");
        assert!(trace.contains("IGNORED"), "{trace}");
    }

    #[test]
    fn merge_equal_values_is_silent() {
        let mut a = ConfigMap::new("a");
        a.set("k", "same", "init");
        let mut b = ConfigMap::new("b");
        b.set("k", "same", "init");
        let report = a.merge(&b, MergePolicy::TheirsWin, "m");
        assert!(report.overridden.is_empty() && report.ignored.is_empty());
        assert_eq!(a.provenance("k").len(), 1);
    }

    #[test]
    fn remove_keeps_history() {
        let mut c = ConfigMap::new("t");
        c.set("k", "v", "s1");
        assert_eq!(c.remove("k", "s2"), Some("v".to_string()));
        assert_eq!(c.get("k"), None);
        assert_eq!(c.provenance("k").len(), 2);
        assert_eq!(c.remove("k", "s3"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn trace_of_unset_key() {
        let c = ConfigMap::new("t");
        assert!(c.trace("nope").contains("never set"));
    }
}
