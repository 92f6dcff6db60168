//! The instrumented cross-system boundary layer.
//!
//! Every interaction the paper studies is a *crossing*: one system's call
//! entering another system through a Table 1 channel. This module gives
//! that crossing a single choke point. A [`BoundaryCall`] describes the
//! crossing (channel, endpoints, plane, operation, payload digest); a
//! [`CrossingContext`] is the one object behind it: the armed faults with
//! their per-observation call counters, a virtual latency clock, and an
//! append-only [`InteractionTrace`] — the one record of what crossed,
//! fired faults included — all under a single lock. Connector layers call
//! [`CrossingContext::cross`] at the entry of every interaction-facing
//! operation instead of hand-rolling the interpose-then-materialize
//! pattern, so fault injection and tracing happen in exactly one place —
//! and wiring a new channel is one
//! [`FaultPoint`] impl plus `cross(...)` calls. The code that counts a
//! call and picks the fault that fires is private to this module: no
//! connector can interpose any other way.
//!
//! Everything is deterministic: triggers count calls per `(channel, op)`
//! pair, counters are reset per observation by the executor, and no wall
//! clock or OS randomness is involved, so fault campaigns replay
//! byte-identically across runs and worker counts.
//!
//! Tracing is side-effect-free: a disabled context counts and fires
//! identically (same counters, same faults, same virtual delay) and
//! merely skips the trace — pinned by
//! `disabled_context_counts_and_fires_identically`. Callers that want no
//! record (the connectors' pure functions, the bulk path) use one; every
//! campaign observation is traced. Payload digests mask
//! runs of ASCII digits before hashing, so generated artifact names
//! (`part-00017.csv`) digest identically however many tables the
//! deployment built and dropped before — the property that keeps traces
//! byte-identical between serial and sharded runs.

use crate::fault::{Channel, FaultKind, FaultPoint, FaultSpec, InjectedFault, Trigger};
use crate::hash::Fnv1a;
use crate::plane::{InteractionKind, Plane, SystemId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// One cross-system call descriptor: everything Table 1 records about an
/// interaction, as observed at the boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryCall {
    /// The interaction channel being crossed.
    pub channel: Channel,
    /// The system issuing the call.
    pub upstream: SystemId,
    /// The system serving the call.
    pub downstream: SystemId,
    /// The interaction kind (Table 1's "Interaction" column).
    pub kind: InteractionKind,
    /// The plane the crossing runs on (§2.2).
    pub plane: Plane,
    /// The operation name at the downstream system's interface: a
    /// literal at every call site, owned only when deserialized.
    pub op: Cow<'static, str>,
    /// Digit-masked FNV-1a digest of the payload summary (0 when none).
    pub payload_digest: u64,
}

impl BoundaryCall {
    /// Describes a crossing on `channel` with that channel's canonical
    /// endpoints and interaction kind; refine with the builder methods.
    pub fn new(channel: Channel, op: &'static str) -> BoundaryCall {
        let (upstream, downstream, kind) = match channel {
            Channel::Metastore => (SystemId::Spark, SystemId::Hive, InteractionKind::DataTables),
            Channel::Hdfs => (SystemId::Spark, SystemId::Hdfs, InteractionKind::DataFiles),
            Channel::Kafka => (
                SystemId::Spark,
                SystemId::Kafka,
                InteractionKind::DataStreaming,
            ),
            Channel::Yarn => (
                SystemId::Flink,
                SystemId::Yarn,
                InteractionKind::ControlResources,
            ),
            Channel::HBase => (
                SystemId::Hive,
                SystemId::HBase,
                InteractionKind::DataKeyValue,
            ),
        };
        BoundaryCall {
            channel,
            upstream,
            downstream,
            kind,
            plane: kind.native_plane(),
            op: Cow::Borrowed(op),
            payload_digest: 0,
        }
    }

    /// Attaches a payload summary (a path, a table name, a topic/partition
    /// label) as a digit-masked digest.
    pub fn with_payload(self, payload: &str) -> BoundaryCall {
        self.with_payload_fmt(format_args!("{payload}"))
    }

    /// [`with_payload`](BoundaryCall::with_payload) for a summary made of
    /// parts (`format_args!("{db}.{name}")`, a path's `Display`): the
    /// parts are digested as they are formatted, so the summary is never
    /// built. The digest is that of the rendered text.
    pub fn with_payload_fmt(mut self, payload: fmt::Arguments<'_>) -> BoundaryCall {
        let mut digest = PayloadDigest {
            hash: Fnv1a::new(),
            in_digits: false,
        };
        digest
            .write_fmt(payload)
            .expect("a Display implementation returned an error unexpectedly");
        self.payload_digest = digest.hash.finish();
        self
    }

    /// Overrides the upstream (calling) system.
    pub fn from_upstream(mut self, upstream: SystemId) -> BoundaryCall {
        self.upstream = upstream;
        self
    }

    /// Overrides the plane (e.g. [`Plane::Management`] for configuration
    /// forwarding or metrics crossings).
    pub fn with_plane(mut self, plane: Plane) -> BoundaryCall {
        self.plane = plane;
        self
    }
}

/// Digit-masked FNV-1a 64-bit digest: every maximal run of ASCII digits
/// collapses to a single `#` before hashing, so counters embedded in
/// generated names (`part-00017.csv`) never make two equivalent payloads
/// digest differently across table recycling. A sink, so
/// a payload arrives in as many chunks as its formatting produces;
/// `in_digits` carries a digit run across chunk boundaries.
struct PayloadDigest {
    hash: Fnv1a,
    in_digits: bool,
}

impl fmt::Write for PayloadDigest {
    fn write_str(&mut self, chunk: &str) -> fmt::Result {
        for byte in chunk.bytes() {
            if byte.is_ascii_digit() {
                if !self.in_digits {
                    self.hash.byte(b'#');
                }
                self.in_digits = true;
            } else {
                self.in_digits = false;
                self.hash.byte(byte);
            }
        }
        Ok(())
    }
}

/// What happened at one crossing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrossingOutcome {
    /// The call crossed cleanly.
    Clean,
    /// An armed fault fired at the boundary (latency faults included —
    /// the call still proceeds, only slower).
    Faulted {
        /// The fault that fired.
        fault: Box<InjectedFault>,
    },
    /// An annotated decision point (e.g. which replica served a
    /// redundant read).
    Noted {
        /// The annotation.
        info: Box<String>,
    },
}

/// One recorded crossing: sequence number, virtual time, call, outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Crossing {
    /// 0-based position in the observation's crossing sequence.
    pub seq: u64,
    /// Virtual time the crossing started at, in milliseconds.
    pub at_ms: u64,
    /// The call descriptor.
    pub call: BoundaryCall,
    /// What happened.
    pub outcome: CrossingOutcome,
}

impl Crossing {
    /// One-line rendering for compact trace summaries.
    pub fn compact(&self) -> String {
        let status = match &self.outcome {
            CrossingOutcome::Clean => "ok".to_string(),
            CrossingOutcome::Faulted { fault } => {
                format!("fault:{} ({})", fault.spec_id, fault.kind)
            }
            CrossingOutcome::Noted { info } => format!("note:{info}"),
        };
        format!(
            "#{} {}->{} {}:{} [{}] @{}ms {}",
            self.seq,
            self.call.upstream,
            self.call.downstream,
            self.call.channel,
            self.call.op,
            self.call.plane,
            self.at_ms,
            status
        )
    }
}

/// The crossings of `crossings` at which an armed fault fired, in order,
/// each with the fault that fired — the one reading of "what fired" the
/// §9 oracle, the detector, the agreement score and the compound pass's
/// per-job attribution share.
pub fn faulted(crossings: &[Crossing]) -> impl Iterator<Item = (&Crossing, &InjectedFault)> {
    crossings.iter().filter_map(|c| match &c.outcome {
        CrossingOutcome::Faulted { fault } => Some((c, &**fault)),
        _ => None,
    })
}

/// Crossing count per channel over every trace of `traces`, keyed by the
/// name of each channel crossed at least once. Counts land in an array;
/// only the totals are named.
pub fn channel_totals<'a>(
    traces: impl IntoIterator<Item = &'a InteractionTrace>,
) -> BTreeMap<String, usize> {
    let mut counts = [0usize; Channel::ALL.len()];
    for trace in traces {
        for c in &trace.crossings {
            counts[c.call.channel as usize] += 1;
        }
    }
    Channel::ALL
        .into_iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .map(|(channel, n)| (channel.to_string(), n))
        .collect()
}

/// The append-only causal crossing sequence of one observation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InteractionTrace {
    /// The crossings, in causal order.
    pub crossings: Vec<Crossing>,
}

impl InteractionTrace {
    /// Number of recorded crossings.
    pub fn len(&self) -> usize {
        self.crossings.len()
    }

    /// Whether no crossing was recorded.
    pub fn is_empty(&self) -> bool {
        self.crossings.is_empty()
    }

    /// Compact one-line-per-crossing rendering.
    pub fn compact(&self) -> Vec<String> {
        self.crossings.iter().map(Crossing::compact).collect()
    }

    /// The *causal prefix* of the trace: the ordered crossing tuples from
    /// the start up to and including the first faulted crossing (the whole
    /// trace when nothing faulted). Two discrepancies that share this
    /// prefix failed through the same causal path — the co-failure
    /// clustering key of compound fault campaigns (the flakiness study's
    /// shared-root-cause grouping, computed on `InteractionTrace`s).
    ///
    /// Tuples are `channel|op|plane|status`, deliberately free of sequence
    /// numbers, timestamps, and payload digests so recycling and
    /// table-name differences never split a cluster.
    pub fn causal_prefix(&self) -> Vec<String> {
        let mut prefix = Vec::new();
        for crossing in &self.crossings {
            let status = match &crossing.outcome {
                CrossingOutcome::Clean => "ok".to_string(),
                CrossingOutcome::Faulted { fault } => format!("fault:{}", fault.kind),
                CrossingOutcome::Noted { info } => format!("note:{info}"),
            };
            prefix.push(format!(
                "{}|{}|{}|{}",
                crossing.call.channel, crossing.call.op, crossing.call.plane, status
            ));
            if matches!(crossing.outcome, CrossingOutcome::Faulted { .. }) {
                break;
            }
        }
        prefix
    }
}

impl fmt::Display for InteractionTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in self.compact() {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct ContextState {
    enabled: bool,
    armed: Vec<FaultSpec>,
    calls: BTreeMap<(Channel, Cow<'static, str>), u64>,
    delay_ms: u64,
    clock_ms: u64,
    next_seq: u64,
    trace: InteractionTrace,
}

impl ContextState {
    /// Clears everything one observation accumulates; the armed faults
    /// stay.
    fn reset(&mut self) {
        self.calls.clear();
        self.delay_ms = 0;
        self.clock_ms = 0;
        self.next_seq = 0;
        self.trace.crossings.clear();
    }

    /// Counts `call` on its `(channel, op)` against the armed faults and
    /// returns the fault that fires on it, if any: the first armed match
    /// wins. A latency fault raises the virtual delay. With nothing armed
    /// the call is not even counted.
    fn fire(&mut self, call: &BoundaryCall) -> Option<InjectedFault> {
        if self.armed.is_empty() {
            return None;
        }
        let (channel, op) = (call.channel, &call.op);
        let counter = self.calls.entry((channel, op.clone())).or_insert(0);
        let nth = *counter;
        *counter += 1;
        let spec = self.armed.iter().find(|s| {
            s.channel == channel
                && s.op == *op
                && match s.trigger {
                    Trigger::Always => true,
                    Trigger::OnCall(n) => n == nth,
                }
        })?;
        let fault = InjectedFault {
            spec_id: spec.id.clone(),
            channel,
            op: op.to_string(),
            kind: spec.kind,
            call: nth,
        };
        if let FaultKind::Latency { ms } = fault.kind {
            self.delay_ms = self.delay_ms.max(ms);
        }
        Some(fault)
    }
}

/// The per-deployment crossing context: the single choke point every
/// connector-layer operation routes through.
///
/// One state behind one lock: the armed faults, their per-observation
/// call counters and accumulated delay, the virtual latency clock, and
/// the [`InteractionTrace`]. Cloned into every mini-system a deployment
/// wires together — clones share that state — so all connector
/// layers of one deployment observe the same call counters and all
/// crossings of one observation land in one causally ordered trace.
#[derive(Debug, Clone)]
pub struct CrossingContext {
    state: Arc<Mutex<ContextState>>,
}

impl Default for CrossingContext {
    fn default() -> CrossingContext {
        CrossingContext::new()
    }
}

impl CrossingContext {
    fn with_enabled(enabled: bool) -> CrossingContext {
        CrossingContext {
            state: Arc::new(Mutex::new(ContextState {
                enabled,
                ..ContextState::default()
            })),
        }
    }

    /// A tracing context with nothing armed.
    pub fn new() -> CrossingContext {
        CrossingContext::with_enabled(true)
    }

    /// A context that counts and fires identically but records no trace —
    /// for pinning that tracing is side-effect-free.
    pub fn disabled() -> CrossingContext {
        CrossingContext::with_enabled(false)
    }

    /// Arms one fault.
    pub fn arm(&self, spec: FaultSpec) {
        self.state.lock().armed.push(spec);
    }

    /// Resets per-observation state, as [`reset`](CrossingContext::reset)
    /// does, and arms exactly `faults`, disarming whatever was armed
    /// before: how a run arms its own faults on a deployment that outlives
    /// it. Members on distinct `(channel, op)` pairs all fire
    /// independently; on a shared pair the first armed match wins.
    pub fn rearm(&self, faults: &[FaultSpec]) {
        let mut state = self.state.lock();
        state.reset();
        state.armed.clear();
        state.armed.extend_from_slice(faults);
    }

    /// The current injected service latency, in virtual milliseconds — the
    /// largest [`FaultKind::Latency`] that fired since the last
    /// [`reset`](CrossingContext::reset).
    pub fn virtual_delay_ms(&self) -> u64 {
        self.state.lock().delay_ms
    }

    /// Resets per-observation state: call counters, the accumulated delay,
    /// the virtual clock, and the trace. Armed faults stay. A campaign run
    /// calls [`rearm`](CrossingContext::rearm) instead, which resets the
    /// same state and sets the run's own faults, so faults and `OnCall`
    /// triggers are scoped to one observation — the property that makes
    /// fault campaigns byte-identical across worker counts (workers reuse
    /// deployments differently, but every observation starts from counter
    /// zero with exactly its faults armed).
    pub fn reset(&self) {
        self.state.lock().reset();
    }

    /// A snapshot of the trace recorded since the last reset.
    pub fn trace(&self) -> InteractionTrace {
        self.state.lock().trace.clone()
    }

    /// The number of crossings recorded since the last reset: the length
    /// of [`trace`](CrossingContext::trace), without copying it.
    pub fn trace_len(&self) -> usize {
        self.state.lock().trace.len()
    }

    /// The one path a crossing takes, under the single lock: counts the
    /// call and picks the fault (unless the caller has `given` the
    /// outcome — records and notes have no fault point), charges the
    /// virtual clock, appends to the trace. Returns the fault the caller
    /// must act on; a latency fault is traced and charged but not returned,
    /// because the call proceeds, only slower — exactly how timing faults
    /// like FLINK-12342 manifest.
    fn push(&self, call: BoundaryCall, given: Option<CrossingOutcome>) -> Option<InjectedFault> {
        let mut state = self.state.lock();
        let fired = match given {
            Some(_) => None,
            None => state.fire(&call),
        };
        let (cost_ms, acted_on) = match &fired {
            None => (0, None),
            Some(fault) => match fault.kind {
                FaultKind::Latency { ms } => (ms, None),
                FaultKind::Timeout { ms } => (ms, Some(fault.clone())),
                FaultKind::Unavailable | FaultKind::CorruptPayload => (0, Some(fault.clone())),
            },
        };
        let outcome = match fired {
            Some(fault) => CrossingOutcome::Faulted {
                fault: Box::new(fault),
            },
            None => given.unwrap_or(CrossingOutcome::Clean),
        };
        let at_ms = state.clock_ms;
        state.clock_ms += 1 + cost_ms;
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.enabled {
            state.trace.crossings.push(Crossing {
                seq,
                at_ms,
                call,
                outcome,
            });
        }
        acted_on
    }

    /// Routes one crossing: counts the call against armed faults, records
    /// it in the trace, advances the virtual clock, and materializes any
    /// non-latency fault into the downstream system's native error.
    ///
    /// This is the one-liner every connector layer calls at the entry of
    /// an interaction-facing operation.
    pub fn cross<E: FaultPoint>(&self, call: BoundaryCall) -> Result<(), E> {
        match self.push(call, None) {
            Some(fault) => Err(E::materialize(&fault)),
            None => Ok(()),
        }
    }

    /// Like [`cross`](CrossingContext::cross), but hands the fired fault
    /// back to the caller instead of materializing it — for crossings
    /// whose fault response is not an error (deterministically garbled
    /// bytes, a poisoned location) rather than a native error.
    pub fn intercept(&self, call: BoundaryCall) -> Option<InjectedFault> {
        self.push(call, None)
    }

    /// Records a crossing that has no fault point (pure connector logic,
    /// e.g. Spark-side configuration forwarding): trace only, armed
    /// faults are not consulted.
    pub fn record(&self, call: BoundaryCall) {
        self.push(call, Some(CrossingOutcome::Clean));
    }

    /// Records an annotated decision at a crossing (e.g. which replica a
    /// redundant read was actually served by).
    pub fn note(&self, call: BoundaryCall, info: &str) {
        self.push(
            call,
            Some(CrossingOutcome::Noted {
                info: Box::new(info.to_string()),
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{ErrorKind, InteractionError};
    use crate::fault::{FaultPlan, FaultSet};

    impl FaultPoint for InteractionError {
        const CHANNEL: Channel = Channel::Metastore;
        fn materialize(fault: &InjectedFault) -> Self {
            InteractionError::new(
                "test",
                ErrorKind::Unavailable,
                "TEST_FAULT",
                fault.spec_id.clone(),
            )
        }
    }

    fn call(op: &'static str) -> BoundaryCall {
        BoundaryCall::new(Channel::Metastore, op)
    }

    fn spec(id: &str, op: &str, kind: FaultKind, trigger: Trigger) -> FaultSpec {
        FaultSpec {
            id: id.into(),
            channel: Channel::Metastore,
            op: op.into(),
            kind,
            trigger,
        }
    }

    fn hit(ctx: &CrossingContext, channel: Channel, op: &'static str) -> Option<InjectedFault> {
        ctx.intercept(BoundaryCall::new(channel, op))
    }

    /// The faults `ctx`'s trace shows fired since its last reset.
    fn fired(ctx: &CrossingContext) -> Vec<InjectedFault> {
        faulted(&ctx.trace().crossings)
            .map(|(_, fault)| fault.clone())
            .collect()
    }

    #[test]
    fn always_trigger_fires_on_every_matching_call() {
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "a",
            "get_table",
            FaultKind::Unavailable,
            Trigger::Always,
        ));
        assert!(hit(&ctx, Channel::Metastore, "get_table").is_some());
        assert!(hit(&ctx, Channel::Metastore, "get_table").is_some());
        // Other ops and channels are untouched.
        assert!(hit(&ctx, Channel::Metastore, "create_table").is_none());
        assert!(hit(&ctx, Channel::Hdfs, "get_table").is_none());
        assert_eq!(fired(&ctx).len(), 2);
    }

    #[test]
    fn on_call_trigger_fires_exactly_once_per_reset() {
        let ctx = CrossingContext::new();
        ctx.arm(spec(
            "a",
            "read",
            FaultKind::Unavailable,
            Trigger::OnCall(1),
        ));
        assert!(hit(&ctx, Channel::Metastore, "read").is_none()); // call 0
        let f = hit(&ctx, Channel::Metastore, "read").unwrap(); // call 1
        assert_eq!(f.call, 1);
        assert!(hit(&ctx, Channel::Metastore, "read").is_none()); // call 2
        ctx.reset();
        assert!(fired(&ctx).is_empty());
        assert!(hit(&ctx, Channel::Metastore, "read").is_none()); // call 0 again
        assert!(hit(&ctx, Channel::Metastore, "read").is_some()); // call 1 again
    }

    #[test]
    fn latency_faults_record_delay_but_do_not_error() {
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "slow".into(),
            channel: Channel::Yarn,
            op: "allocate".into(),
            kind: FaultKind::Latency { ms: 700 },
            trigger: Trigger::Always,
        });
        assert!(hit(&ctx, Channel::Yarn, "allocate").is_none());
        assert_eq!(ctx.virtual_delay_ms(), 700);
        assert_eq!(fired(&ctx).len(), 1);
        ctx.reset();
        assert_eq!(ctx.virtual_delay_ms(), 0);
    }

    #[test]
    fn empty_plan_is_inert() {
        let ctx = CrossingContext::new();
        ctx.rearm(&FaultPlan::empty(42).faults);
        assert!(hit(&ctx, Channel::Metastore, "get_table").is_none());
        // With nothing armed, a crossing does not even count calls.
        assert!(fired(&ctx).is_empty());
        assert!(ctx.state.lock().calls.is_empty());
    }

    #[test]
    fn arming_a_set_fires_each_member_independently() {
        let ctx = CrossingContext::new();
        let set = FaultSet::new(vec![
            spec("a", "get_table", FaultKind::Unavailable, Trigger::Always),
            spec("b", "create_table", FaultKind::Unavailable, Trigger::Always),
        ]);
        assert_eq!(set.id, "a+b");
        ctx.rearm(&set.faults);
        assert!(hit(&ctx, Channel::Metastore, "get_table").is_some());
        assert!(hit(&ctx, Channel::Metastore, "create_table").is_some());
        assert_eq!(fired(&ctx).len(), 2);
        // Rearming resets the observation and replaces the armed set: only
        // `b` is left, and the trace starts over.
        ctx.rearm(&set.faults[1..]);
        assert!(ctx.trace().is_empty());
        assert!(hit(&ctx, Channel::Metastore, "get_table").is_none());
        assert!(hit(&ctx, Channel::Metastore, "create_table").is_some());
        // Rearming with nothing disarms everything.
        ctx.rearm(&[]);
        assert!(hit(&ctx, Channel::Metastore, "create_table").is_none());
        assert!(fired(&ctx).is_empty());
    }

    #[test]
    fn clones_share_one_state() {
        // A deployment hands one clone to its metastore, one to its
        // filesystem, and keeps one to read the results back.
        let metastore = CrossingContext::new();
        let filesystem = metastore.clone();
        let executor = metastore.clone();
        metastore.arm(spec(
            "a",
            "read",
            FaultKind::Unavailable,
            Trigger::OnCall(1),
        ));
        assert!(hit(&filesystem, Channel::Metastore, "read").is_none()); // call 0
        let f = hit(&metastore, Channel::Metastore, "read").expect("call 1 fires");
        assert_eq!(f.call, 1);
        assert_eq!(fired(&executor), vec![f]);
        assert_eq!(executor.trace().len(), 2);
        assert_eq!(executor.trace(), filesystem.trace());
        filesystem.reset();
        for ctx in [&metastore, &filesystem, &executor] {
            assert!(fired(ctx).is_empty());
            assert!(ctx.trace().is_empty());
        }
        // Counters went too: call 0 is clean again, call 1 fires again.
        assert!(hit(&executor, Channel::Metastore, "read").is_none());
        assert!(hit(&filesystem, Channel::Metastore, "read").is_some());
    }

    #[test]
    fn canonical_endpoints_follow_the_channel() {
        let c = BoundaryCall::new(Channel::Yarn, "allocate");
        assert_eq!(c.upstream, SystemId::Flink);
        assert_eq!(c.downstream, SystemId::Yarn);
        assert_eq!(c.plane, Plane::Control);
        let c = BoundaryCall::new(Channel::HBase, "route");
        assert_eq!(c.kind, InteractionKind::DataKeyValue);
        assert_eq!(c.plane, Plane::Data);
    }

    #[test]
    fn payload_digest_masks_digit_runs() {
        let a = call("create").with_payload("/wh/t/part-00017.csv");
        let b = call("create").with_payload("/wh/t/part-31337.csv");
        let c = call("create").with_payload("/wh/t/part-x.csv");
        assert_eq!(a.payload_digest, b.payload_digest);
        assert_ne!(a.payload_digest, c.payload_digest);
    }

    #[test]
    fn clean_crossings_are_traced_with_advancing_clock() {
        let ctx = CrossingContext::new();
        let r: Result<(), InteractionError> = ctx.cross(call("get_table"));
        assert!(r.is_ok());
        let r: Result<(), InteractionError> = ctx.cross(call("create_table"));
        assert!(r.is_ok());
        let trace = ctx.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.crossings[0].seq, 0);
        assert_eq!(trace.crossings[0].at_ms, 0);
        assert_eq!(trace.crossings[1].at_ms, 1);
        assert_eq!(channel_totals([&trace])["metastore"], 2);
    }

    #[test]
    fn channel_totals_sum_every_trace_under_each_channel_name() {
        // The counting array is indexed by discriminant.
        for (i, channel) in Channel::ALL.into_iter().enumerate() {
            assert_eq!(channel as usize, i);
        }
        let ctx = CrossingContext::new();
        for channel in Channel::ALL {
            ctx.record(BoundaryCall::new(channel, "op"));
        }
        let every = ctx.trace();
        ctx.record(call("get_table"));
        let totals = channel_totals([&every, &ctx.trace(), &InteractionTrace::default()]);
        let names: Vec<&str> = totals.keys().map(String::as_str).collect();
        assert_eq!(names, ["hbase", "hdfs", "kafka", "metastore", "yarn"]);
        assert_eq!(totals["metastore"], 3);
        assert_eq!(totals["yarn"], 2);
        assert!(channel_totals([&InteractionTrace::default()]).is_empty());
    }

    #[test]
    fn faulted_crossings_materialize_and_charge_the_clock() {
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "ms-timeout".into(),
            channel: Channel::Metastore,
            op: "get_table".into(),
            kind: FaultKind::Timeout { ms: 500 },
            trigger: Trigger::Always,
        });
        let err: Result<(), InteractionError> = ctx.cross(call("get_table"));
        assert_eq!(err.unwrap_err().message, "ms-timeout");
        let ok: Result<(), InteractionError> = ctx.cross(call("create_table"));
        assert!(ok.is_ok());
        let trace = ctx.trace();
        assert!(matches!(
            trace.crossings[0].outcome,
            CrossingOutcome::Faulted { .. }
        ));
        // The second crossing starts after the timeout's 500 virtual ms.
        assert_eq!(trace.crossings[1].at_ms, 501);
        assert_eq!(fired(&ctx).len(), 1);
    }

    #[test]
    fn latency_faults_trace_but_do_not_error() {
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "slow".into(),
            channel: Channel::Metastore,
            op: "get_table".into(),
            kind: FaultKind::Latency { ms: 300 },
            trigger: Trigger::Always,
        });
        let r: Result<(), InteractionError> = ctx.cross(call("get_table"));
        assert!(r.is_ok());
        assert_eq!(ctx.virtual_delay_ms(), 300);
        assert!(matches!(
            ctx.trace().crossings[0].outcome,
            CrossingOutcome::Faulted { .. }
        ));
    }

    #[test]
    fn disabled_context_counts_and_fires_identically() {
        let traced = CrossingContext::new();
        let silent = CrossingContext::disabled();
        let results = [&traced, &silent].map(|ctx| {
            ctx.arm(FaultSpec {
                id: "u".into(),
                channel: Channel::Metastore,
                op: "get_table".into(),
                kind: FaultKind::Unavailable,
                trigger: Trigger::OnCall(1),
            });
            [(); 2].map(|()| ctx.cross::<InteractionError>(call("get_table")))
        });
        assert_eq!(results[0], results[1]);
        assert!(results[0][0].is_ok() && results[0][1].is_err());
        assert_eq!(traced.trace().len(), 2);
        assert!(silent.trace().is_empty());
        assert_eq!([traced.trace_len(), silent.trace_len()], [2, 0]);
    }

    #[test]
    fn reset_clears_trace_clock_and_counters() {
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "u".into(),
            channel: Channel::Metastore,
            op: "get_table".into(),
            kind: FaultKind::Unavailable,
            trigger: Trigger::OnCall(0),
        });
        let first: Result<(), InteractionError> = ctx.cross(call("get_table"));
        assert!(first.is_err());
        ctx.reset();
        assert!(ctx.trace().is_empty());
        assert!(fired(&ctx).is_empty());
        // OnCall(0) is scoped per reset: it fires again.
        let again: Result<(), InteractionError> = ctx.cross(call("get_table"));
        assert!(again.is_err());
        assert_eq!(ctx.trace().crossings[0].at_ms, 0);
    }

    #[test]
    fn notes_and_records_land_in_the_trace() {
        let ctx = CrossingContext::new();
        ctx.record(call("forward_config").with_plane(Plane::Management));
        ctx.note(call("read"), "served-by=primary");
        let lines = ctx.trace().compact();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("[Management]"), "{}", lines[0]);
        assert!(lines[1].ends_with("note:served-by=primary"), "{}", lines[1]);
    }

    /// A trace keeps every crossing of every retained observation, nearly
    /// all of them `Clean`: the rare variants' payloads sit behind a box,
    /// so a crossing is not sized for an `InjectedFault`.
    #[test]
    fn a_crossing_is_not_sized_for_its_rare_outcomes() {
        assert!(std::mem::size_of::<CrossingOutcome>() <= 16);
        assert!(std::mem::size_of::<Crossing>() <= 72);
    }

    /// A clean, a faulted and a noted crossing. The JSON is pinned: served
    /// reports and journals carry these bytes. It reads back equal, the op
    /// then owned — `Cow` compares by content.
    #[test]
    fn traces_round_trip_through_serde() {
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "fs-timeout".into(),
            channel: Channel::Hdfs,
            op: "read".into(),
            kind: FaultKind::Timeout { ms: 500 },
            trigger: Trigger::Always,
        });
        let _: Result<(), InteractionError> =
            ctx.cross(call("get_table").with_payload("default.t1"));
        let fired = ctx.intercept(
            BoundaryCall::new(Channel::Hdfs, "read").with_payload("/wh/t1/part-00017.orc"),
        );
        assert!(fired.is_some());
        ctx.note(
            BoundaryCall::new(Channel::Metastore, "redundant_read")
                .from_upstream(SystemId::Flink)
                .with_plane(Plane::Management)
                .with_payload("t1"),
            "served-by=primary",
        );
        let trace = ctx.trace();
        let json = serde_json::to_string(&trace).unwrap();
        assert_eq!(
            json,
            concat!(
                r#"{"crossings":[{"seq":0,"at_ms":0,"call":{"channel":"Metastore","#,
                r#""upstream":"Spark","downstream":"Hive","kind":"DataTables","plane":"Data","#,
                r#""op":"get_table","payload_digest":15862017404119869469},"outcome":"Clean"},"#,
                r#"{"seq":1,"at_ms":1,"call":{"channel":"Hdfs","upstream":"Spark","#,
                r#""downstream":"Hdfs","kind":"DataFiles","plane":"Data","op":"read","#,
                r#""payload_digest":6932802262471849681},"outcome":{"Faulted":{"fault":{"#,
                r#""spec_id":"fs-timeout","channel":"Hdfs","op":"read","#,
                r#""kind":{"Timeout":{"ms":500}},"call":0}}}},"#,
                r#"{"seq":2,"at_ms":502,"call":{"channel":"Metastore","upstream":"Flink","#,
                r#""downstream":"Hive","kind":"DataTables","plane":"Management","#,
                r#""op":"redundant_read","payload_digest":632734890033037184},"#,
                r#""outcome":{"Noted":{"info":"served-by=primary"}}}]}"#,
            )
        );
        let back: InteractionTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
        assert!(matches!(back.crossings[0].call.op, Cow::Owned(_)));
    }

    proptest::proptest! {
        /// Digesting a payload part by part is digesting its rendering:
        /// a digit run that spans two parts still masks to one `#`.
        #[test]
        fn payload_parts_digest_like_the_rendered_payload(
            a in "[a-c0-9/.é-]{0,6}",
            b in "[a-c0-9/.é-]{0,6}",
            n in proptest::prelude::any::<u32>(),
        ) {
            let (dotted, joined) = (format!("{a}.{b}{n:03}"), format!("{a}{b}"));
            let parts = call("op").with_payload_fmt(format_args!("{a}.{b}{n:03}"));
            let whole = call("op").with_payload(&dotted);
            proptest::prop_assert_eq!(parts.payload_digest, whole.payload_digest);
            let parts = call("op").with_payload_fmt(format_args!("{a}{b}"));
            let whole = call("op").with_payload(&joined);
            proptest::prop_assert_eq!(parts.payload_digest, whole.payload_digest);
        }
    }

    #[test]
    fn a_digit_run_split_across_parts_masks_once() {
        let (a, b) = ("t1", "2x");
        let split = call("op").with_payload_fmt(format_args!("{a}{b}"));
        assert_eq!(
            split.payload_digest,
            call("op").with_payload("t12x").payload_digest
        );
        assert_eq!(
            split.payload_digest,
            call("op").with_payload("t#x").payload_digest
        );
        assert_ne!(
            split.payload_digest,
            call("op").with_payload("t##x").payload_digest
        );
    }
}
