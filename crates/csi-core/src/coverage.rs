//! Coverage signatures extracted from boundary-crossing traces.
//!
//! The coverage-guided campaign mode (`csi_test::explore`) treats each
//! observation's [`InteractionTrace`] as a feedback signal: the set of
//! (channel, op, plane, outcome-class) tuples it crossed, plus a small set
//! of classifier tags (error codes, oracle verdicts, §9 taxonomy buckets),
//! forms a [`CoverageSignature`]. An input whose observation produces a
//! signature never seen before is *novel* and earns a place in the
//! exploration corpus.
//!
//! Signatures are canonical: tuples and tags are kept deduplicated and in
//! byte order, so two observations that crossed the same boundaries in
//! different interleavings or multiplicities collapse to the same
//! signature. The fingerprint is a plain FNV-1a over the canonical text,
//! streamed from the parts, and the map keys on it: the whole map is
//! deterministic, the property the explore mode's serial-vs-sharded
//! byte-identity rests on.
//!
//! A signature is judged far more often than it is read, so it is built
//! from its parts: one text buffer holds every distinct tuple and tag, and
//! two sorted range lists index it. Nothing renders the canonical text
//! except [`CoverageSignature::canonical`].

use crate::boundary::{CrossingOutcome, InteractionTrace};
use crate::fault::FaultKind;
use crate::hash::Fnv1a;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// The coverage signature of one observation: canonical crossing tuples
/// plus classifier tags.
#[derive(Clone, Default)]
pub struct CoverageSignature {
    /// The text of every distinct tuple and tag, in first-insertion order.
    text: String,
    /// `channel|op|plane|outcome-class` tuples: ranges into `text`,
    /// deduplicated and sorted by the bytes they cover.
    tuples: Vec<(u32, u32)>,
    /// Classifier tags (error codes, oracle verdicts, taxonomy buckets,
    /// input-shape markers), kept like `tuples`.
    tags: Vec<(u32, u32)>,
}

/// The outcome class of a crossing, independent of fault parameters: a
/// `Timeout {{ ms: 12_345 }}` and a `Timeout {{ ms: 17 }}` cover the same
/// class.
fn outcome_class(outcome: &CrossingOutcome) -> &'static str {
    match outcome {
        CrossingOutcome::Clean => "ok",
        CrossingOutcome::Faulted { fault } => match fault.kind {
            FaultKind::Unavailable => "fault-unavailable",
            FaultKind::Timeout { .. } => "fault-timeout",
            FaultKind::CorruptPayload => "fault-corrupt",
            FaultKind::Latency { .. } => "fault-latency",
        },
        CrossingOutcome::Noted { .. } => "note",
    }
}

/// Files `text[start..]`, just appended, into the sorted range list `set`,
/// or drops it from `text` when `set` already covers the same bytes.
fn insert_sorted(text: &mut String, set: &mut Vec<(u32, u32)>, start: usize) {
    let part = &text[start..];
    let found = set.binary_search_by(|&(a, b)| text[a as usize..b as usize].cmp(part));
    match found {
        Ok(_) => text.truncate(start),
        Err(at) => set.insert(at, (start as u32, text.len() as u32)),
    }
}

impl CoverageSignature {
    /// Extracts the crossing tuples of a trace; tags start empty.
    pub fn from_trace(trace: &InteractionTrace) -> CoverageSignature {
        // Sized so a typical signature never regrows: a tuple renders to
        // 19–36 bytes, and a trial adds a handful of short tags.
        let n = trace.crossings.len();
        let mut sig = CoverageSignature {
            text: String::with_capacity(32 * n + 64),
            tuples: Vec::with_capacity(n),
            tags: Vec::with_capacity(8),
        };
        for c in &trace.crossings {
            let start = sig.text.len();
            for part in [
                c.call.channel.name(),
                &c.call.op,
                c.call.plane.name(),
                outcome_class(&c.outcome),
            ] {
                sig.text.push_str(part);
                sig.text.push('|');
            }
            sig.text.pop();
            insert_sorted(&mut sig.text, &mut sig.tuples, start);
        }
        sig
    }

    /// Adds a classifier tag (idempotent). Pass `format_args!` to write a
    /// composite tag from its parts.
    pub fn tag(&mut self, tag: impl fmt::Display) {
        let start = self.text.len();
        write!(self.text, "{tag}").expect("writing to a String cannot fail");
        insert_sorted(&mut self.text, &mut self.tags, start);
    }

    /// Feeds the canonical rendering to `sink`, part by part: the tuples
    /// joined by `;`, then `##`, then the tags joined by `;`.
    fn stream(&self, mut sink: impl FnMut(&str)) {
        for (k, set) in [&self.tuples, &self.tags].into_iter().enumerate() {
            if k > 0 {
                sink("##");
            }
            for (i, &(a, b)) in set.iter().enumerate() {
                if i > 0 {
                    sink(";");
                }
                sink(&self.text[a as usize..b as usize]);
            }
        }
    }

    /// The canonical one-line rendering the fingerprint hashes.
    pub fn canonical(&self) -> String {
        let mut out = String::with_capacity(self.text.len() + self.tuples.len() + self.tags.len());
        self.stream(|part| out.push_str(part));
        out
    }

    /// FNV-1a 64-bit fingerprint of the canonical rendering, streamed
    /// from the parts instead of building it.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::new();
        self.stream(|part| hash.bytes(part.as_bytes()));
        hash.finish()
    }
}

impl fmt::Debug for CoverageSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CoverageSignature")
            .field(&self.canonical())
            .finish()
    }
}

/// FNV-1a 64-bit fingerprint of an *ordered* causal-trace prefix (see
/// [`InteractionTrace::causal_prefix`]).
///
/// Unlike [`CoverageSignature::fingerprint`], which hashes a deduplicated
/// set, this hash is order-sensitive: the co-failure clustering of compound
/// fault campaigns groups discrepancies by the exact causal path up to the
/// first fault, so `A then B` and `B then A` must land in different
/// clusters.
pub fn prefix_fingerprint(prefix: &[String]) -> u64 {
    let mut hash = Fnv1a::new();
    for step in prefix {
        hash.bytes(step.as_bytes());
        // Step separator, so ["ab","c"] and ["a","bc"] differ.
        hash.byte(b'\n');
    }
    hash.finish()
}

/// The set of coverage signatures a campaign has seen, with the execution
/// index each was first observed at.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    first_seen: BTreeMap<u64, usize>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Records a signature observed at execution index `executed`.
    /// Returns `true` when the signature is novel (first occurrence).
    pub fn observe(&mut self, signature: &CoverageSignature, executed: usize) -> bool {
        match self.first_seen.entry(signature.fingerprint()) {
            Entry::Vacant(slot) => {
                slot.insert(executed);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Whether the signature has been seen.
    pub fn contains(&self, signature: &CoverageSignature) -> bool {
        self.first_seen.contains_key(&signature.fingerprint())
    }

    /// Number of distinct signatures seen.
    pub fn distinct(&self) -> usize {
        self.first_seen.len()
    }

    /// The hex fingerprints of every signature seen, in canonical
    /// (lexicographic) order. Exploration reports expose this so two runs
    /// can be compared by *which* signatures they reached, not just how
    /// many — the corpus-vs-catalogue set difference is computed on it.
    /// Fixed-width lowercase hex sorts like the integer it renders.
    pub fn fingerprints(&self) -> Vec<String> {
        self.first_seen
            .keys()
            .map(|fp| format!("{fp:016x}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{BoundaryCall, CrossingContext};
    use crate::fault::{Channel, FaultSpec, Trigger};
    use crate::hash::fnv1a;
    use crate::InteractionError;
    use std::collections::BTreeSet;

    fn trace_with(ops: &[&'static str]) -> InteractionTrace {
        let ctx = CrossingContext::new();
        for op in ops {
            let _: Result<(), InteractionError> =
                ctx.cross(BoundaryCall::new(Channel::Metastore, op));
        }
        ctx.trace()
    }

    #[test]
    fn repeated_and_reordered_crossings_collapse_to_one_signature() {
        let a = CoverageSignature::from_trace(&trace_with(&["get_table", "create_table"]));
        let b =
            CoverageSignature::from_trace(&trace_with(&["create_table", "get_table", "get_table"]));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.tuples.len(), 2);
    }

    #[test]
    fn fault_parameters_do_not_split_the_outcome_class() {
        let mut traces = Vec::new();
        for ms in [100u64, 90_000] {
            let ctx = CrossingContext::new();
            ctx.arm(FaultSpec {
                id: format!("t-{ms}"),
                channel: Channel::Metastore,
                op: "get_table".into(),
                kind: FaultKind::Timeout { ms },
                trigger: Trigger::Always,
            });
            let _: Result<(), InteractionError> =
                ctx.cross(BoundaryCall::new(Channel::Metastore, "get_table"));
            traces.push(ctx.trace());
        }
        let a = CoverageSignature::from_trace(&traces[0]);
        let b = CoverageSignature::from_trace(&traces[1]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.canonical().contains("fault-timeout"), "{}", a.canonical());
    }

    #[test]
    fn tags_distinguish_otherwise_identical_traces() {
        let base = trace_with(&["get_table"]);
        let plain = CoverageSignature::from_trace(&base);
        let mut tagged = CoverageSignature::from_trace(&base);
        tagged.tag("code:CAST_OVERFLOW");
        assert_ne!(plain.fingerprint(), tagged.fingerprint());
        // Tagging is idempotent.
        let fp = tagged.fingerprint();
        tagged.tag("code:CAST_OVERFLOW");
        assert_eq!(tagged.fingerprint(), fp);
    }

    #[test]
    fn the_fingerprint_hashes_exactly_the_canonical_bytes() {
        let tuples = CoverageSignature::from_trace(&trace_with(&["get_table", "create_table"]));
        let mut tags_only = CoverageSignature::default();
        tags_only.tag("valid");
        let mut many = CoverageSignature::from_trace(&trace_with(&[
            "get_table",
            "create_table",
            "alter_table",
            "drop_table",
        ]));
        for k in 0..40 {
            many.tag(format_args!("d:D{k:02}"));
        }
        for sig in [CoverageSignature::default(), tuples, tags_only, many] {
            assert_eq!(
                sig.fingerprint(),
                fnv1a(sig.canonical().as_bytes()),
                "{sig:?}"
            );
        }
    }

    #[test]
    fn prefix_fingerprints_are_order_sensitive() {
        let ab = prefix_fingerprint(&["a".to_string(), "b".to_string()]);
        let ba = prefix_fingerprint(&["b".to_string(), "a".to_string()]);
        assert_ne!(ab, ba);
        // Step boundaries matter: ["ab"] != ["a","b"].
        assert_ne!(prefix_fingerprint(&["ab".to_string()]), ab);
        assert_eq!(ab, prefix_fingerprint(&["a".to_string(), "b".to_string()]));
    }

    #[test]
    fn causal_prefix_stops_at_the_first_fault() {
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "mid".into(),
            channel: Channel::Metastore,
            op: "create_table".into(),
            kind: FaultKind::Unavailable,
            trigger: Trigger::Always,
        });
        for op in ["get_table", "create_table", "drop_table"] {
            let _: Result<(), InteractionError> =
                ctx.cross(BoundaryCall::new(Channel::Metastore, op));
        }
        let prefix = ctx.trace().causal_prefix();
        assert_eq!(prefix.len(), 2, "{prefix:?}");
        assert!(prefix[1].contains("fault:unavailable"), "{prefix:?}");
    }

    #[test]
    fn map_reports_novelty_exactly_once() {
        let mut map = CoverageMap::new();
        let sig = CoverageSignature::from_trace(&trace_with(&["get_table"]));
        assert!(map.observe(&sig, 1));
        assert!(!map.observe(&sig, 2));
        assert!(map.contains(&sig));
        assert_eq!(map.distinct(), 1);
        assert_eq!(map.fingerprints(), [format!("{:016x}", sig.fingerprint())]);
    }

    /// The signature as it was built before it kept its parts: every
    /// tuple and tag rendered to its own `String` in a `BTreeSet`. Kept
    /// as the reference the part-built signature is checked against.
    fn reference_canonical(trace: &InteractionTrace, tags: &[&str]) -> String {
        let tuples: BTreeSet<String> = trace
            .crossings
            .iter()
            .map(|c| {
                format!(
                    "{}|{}|{}|{}",
                    c.call.channel,
                    c.call.op,
                    c.call.plane,
                    outcome_class(&c.outcome)
                )
            })
            .collect();
        let tags: BTreeSet<String> = tags.iter().map(|t| t.to_string()).collect();
        let tuples: Vec<&str> = tuples.iter().map(String::as_str).collect();
        let tags: Vec<&str> = tags.iter().map(String::as_str).collect();
        format!("{}##{}", tuples.join(";"), tags.join(";"))
    }

    proptest::proptest! {
        /// Random crossings and tags, in random order and multiplicity,
        /// with ops and tags that share prefixes (`get_table` sorts after
        /// `get_table_x` because `'|'` > `'_'`), canonicalize and
        /// fingerprint exactly like the `BTreeSet<String>` reference.
        #[test]
        fn part_built_signatures_match_the_string_set_reference(
            crossings in proptest::collection::vec(
                (0usize..5, 0usize..5, 0usize..3, proptest::prelude::any::<bool>()),
                0..24,
            ),
            tags in proptest::collection::vec(
                proptest::sample::select(vec![
                    "", "d:D01", "d:D0", "d:D01x", "code:A_B", "code:A|B", "code:A",
                    "valid", "ty:int", "ty:int_x", "decl:INT",
                ]),
                0..16,
            ),
        ) {
            const OPS: [&str; 5] = ["get", "get_table", "get_table_x", "get_tables", "create"];
            let ctx = CrossingContext::new();
            for (op, channel, plane, noted) in crossings {
                let call = BoundaryCall::new(Channel::ALL[channel], OPS[op])
                    .with_plane(crate::plane::Plane::ALL[plane]);
                if noted {
                    ctx.note(call, "info");
                } else {
                    let _: Result<(), InteractionError> = ctx.cross(call);
                }
            }
            let trace = ctx.trace();
            let mut sig = CoverageSignature::from_trace(&trace);
            for tag in &tags {
                sig.tag(tag);
            }
            let reference = reference_canonical(&trace, &tags);
            proptest::prop_assert_eq!(sig.canonical(), reference.clone());
            proptest::prop_assert_eq!(sig.fingerprint(), fnv1a(reference.as_bytes()));
        }
    }
}
