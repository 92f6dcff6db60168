#!/usr/bin/env bash
# Staged CI gate. Each stage is individually invocable so failures
# attribute to a stage instead of one monolithic log:
#
#   ./ci.sh lint          # cargo fmt --check + clippy -D warnings + rustdoc -D warnings + the one-write-per-frame, digest-from-parts, tag-from-parts, one-judge (the trace is the one record of what fired), trace (every campaign observation is traced), hash, glue, one-varint (any 7f/80 mask outside wire.rs), case-without-a-copy, buffer-by-value (an engine hands HDFS its encoded file, never a borrow of it), spec (a mode reads the CampaignSpec, no per-mode config struct in csi-test), outcome (a mode fills CampaignOutcome, no per-mode result struct in csi-test), cell (plan::cells walks the cell space, no loop over an experiment's plans in csi-test outside plan.rs) calibration (a detecting run's baseline is its fault-free twin's trace, no learned baseline set), arming (a run arms its own faults with CrossingContext::rearm; no arm_plan or arm_set under crates/) deployment (every stack is built by Deployment::new, which takes the spec's spark_overrides: no Deployment::configured), scenario (a fault's scenarios are read off inject.rs's scenario table: no match arm or matches! pattern naming a Channel:: variant in csi-test) block (a stored block owns no heap: minihdfs has one replicas: Vec<, the public BlockInfo's), codec thread (a codec's helper thread is scoped to the call: no thread::spawn or thread::Builder in miniformats), executor thread (the harness spawns threads in shard::run_ordered only: no thread::spawn, thread::scope or thread::Builder in csi-test outside shard.rs) and design-history (DESIGN.md describes the design as it stands: no "PR <n>" reference) guards
#   ./ci.sh build         # release build of the whole workspace + `cargo check --locked` of benchmark/
#   ./ci.sh test          # full test suite, once: every assertion about a campaign lives here
#   ./ci.sh bench-smoke   # the benchmark's own --smoke (all four workloads, every output check on)
#   ./ci.sh all           # everything above, in order (the default), then checks the work tree is as it was found
#
# The usage string, `all`, and the dispatch below are all derived from the
# single STAGES list, so a new stage cannot be invocable yet silently
# missing from `all` (the drift `bench-smoke` once had).
#
# Everything runs offline against the vendored dependency stubs, and every
# stage runs under `timeout`, so a hung test fails its stage in minutes
# instead of stalling the job.
set -euo pipefail
cd "$(dirname "$0")"

# Wall-clock cap per stage, in seconds. The slowest stage (`test`, cold)
# takes a few minutes; a deadlock takes forever.
STAGE_TIMEOUT=900

# The one stage list. A stage named `foo-bar` is implemented by a
# function `stage_foo_bar`.
STAGES=(lint build test bench-smoke)

stage_lint() {
  echo "==> fmt (check only)"
  cargo fmt --all --check
  echo "==> clippy (deny warnings)"
  cargo clippy --workspace --all-targets -- -D warnings
  # A doc link to a deleted or private item is a rustdoc warning, and
  # nothing else notices it.
  echo "==> rustdoc (deny warnings: no broken or private intra-doc links)"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
  # Split from its frame on a socket, a newline waits for the peer's ACK
  # (Nagle) and the frame arrives an inter-arrival gap late.
  echo "==> wire guard (a frame's terminator is never its own write)"
  if grep -rnF --include='*.rs' 'write_all(b"\n")' crates/; then
    echo "a line and its newline must leave in one write: push the '\\n' onto the buffer, then write_all once" >&2
    exit 1
  fi
  # A crossing is the non-intrusive vantage point only while it allocates
  # nothing: a payload rendered to a String exists only to be hashed.
  echo "==> boundary guard (a payload is digested from its parts, never rendered first)"
  if grep -rnE --include='*.rs' 'with_payload\(&(format!|.*\.to_string\(\))' crates/; then
    echo "hash the parts instead: .with_payload_fmt(format_args!(..)) digests the same bytes without building them" >&2
    exit 1
  fi
  # A coverage tag is compared and hashed, never read: a tag rendered to a
  # String first is one allocation per tag per trial.
  echo "==> coverage guard (a tag is written from its parts, never rendered first)"
  if grep -rnE --include='*.rs' '\.tag\(format!' crates/; then
    echo "write the tag from its parts: \`.tag(format_args!(..))\`" >&2
    exit 1
  fi
  # How a trial is judged is one module's decision: a mode that runs an
  # oracle or reads a crossing's outcome itself is a second copy of it.
  echo "==> judge guard (oracles run in classify.rs; fired faults are read from the trace by csi_core::boundary::faulted, and detection is a function of it)"
  if grep -rnE --include='*.rs' '(check_(differential|write_read|error_handling)|differential_of)\(' crates/csi-test/src/ | grep -v '^crates/csi-test/src/classify\.rs:'; then
    echo "hand the observation to classify::Classifier (absorb / discoveries / finish) instead of running its oracle here" >&2
    exit 1
  fi
  if grep -rnF --include='*.rs' 'CrossingOutcome::Faulted' crates/csi-test/src/; then
    echo "ask csi_core::boundary::faulted(&trace.crossings) which faults fired, and csi_core::detect::DetectionTally to score them" >&2
    exit 1
  fi
  # Detection is a function of the trace: a live copy of the crossing
  # stream beside it is a second record that can disagree with it.
  if grep -rnE --include='*.rs' 'CrossingSink|set_sink|clear_sink|\.fired\(\)' crates/; then
    echo "read what fired from the trace (csi_core::boundary::faulted) and judge it with DetectorSpec::detect; nothing streams crossings beside it" >&2
    exit 1
  fi
  # Explaining a finding and scoring a detector both start from the
  # crossing trace, so no campaign path may build a context that skips it.
  # The bulk path crosses no observation and keeps the silent context.
  echo "==> trace guard (no CrossingContext::disabled in csi-test outside bulk.rs)"
  if grep -rnF --include='*.rs' 'CrossingContext::disabled' crates/csi-test/src/ | grep -v '^crates/csi-test/src/bulk\.rs:'; then
    echo "every campaign observation carries its trace: build the deployment on CrossingContext::new()" >&2
    exit 1
  fi
  # Hash iteration order differs run to run, and every report is a pure
  # function of (spec, seed). No crate hashes.
  echo "==> hash guard (no HashMap/HashSet under crates/)"
  if grep -rnE --include='*.rs' 'Hash(Map|Set)' crates/; then
    echo "use a BTreeMap/BTreeSet or a sorted Vec, or show the BENCHMARK.json rung that needs the hash" >&2
    exit 1
  fi
  # The harness's own bookkeeping goes through the session API: a statement
  # it formats and parses only to clean up is cost, not a test.
  echo "==> glue guard (the harness drops tables without SQL text)"
  if grep -rnF 'DROP TABLE' crates/csi-test/src/; then
    echo "drop through \`SparkSession::drop_table\`; statement text is for the interfaces under test" >&2
    exit 1
  fi
  # A case check asks the bytes: a lowered or uppered copy built only to be
  # compared with the original is one allocation per check, per DDL.
  echo "==> case guard (a name's case is checked in place, never against a folded copy)"
  if grep -rnE --include='*.rs' '(==|!=) *[A-Za-z_][A-Za-z0-9_.]*\.to_ascii_(lower|upper)case\(\)' crates/; then
    echo "check the bytes instead: \`name.bytes().any(|b| b.is_ascii_uppercase())\`, or \`eq_ignore_ascii_case\`" >&2
    exit 1
  fi
  # HDFS keeps the buffer a writer hands it by value and copies one it
  # only borrows: an engine that lends its encoded file pays a copy of the
  # whole file per write.
  echo "==> buffer guard (an engine hands HDFS its encoded file by value)"
  if grep -rnE --include='*.rs' '\.create(_with|_compressed)?\([^,]*, *&' crates/minispark/src crates/minihive/src crates/minihbase/src; then
    echo "pass the encoded Vec<u8> itself: \`fs.create(&path, bytes)\`, not \`&bytes\`" >&2
    exit 1
  fi
  # The row reference codec and the batch codec agree byte for byte
  # because they read and write integers with the same code. A group mask
  # carries 7f or 80 anywhere in the literal (0x007F_007F_..., 0x8080...).
  echo "==> varint guard (a hex literal holding 7f or 80 is spelled in miniformats' wire.rs only)"
  if grep -rnEi --include='*.rs' '0x[0-9a-f_]*(7f|80)' crates/miniformats/src/ | grep -v '^crates/miniformats/src/wire\.rs:'; then
    echo "a kernel calls the shared primitive (wire::tagged_varint64_word, Reader::varint64, Reader::fast_int, ...) instead of spelling a second varint" >&2
    exit 1
  fi
  # A campaign is its spec: every mode reads `CampaignSpec` itself, so a
  # per-mode config struct filled from it is a second place a field can
  # be dropped on the way.
  echo "==> spec guard (a mode reads the CampaignSpec; no *Config struct in csi-test)"
  if grep -rnE --include='*.rs' 'struct [A-Za-z]*Config\b' crates/csi-test/src/; then
    echo "read the field from the \`CampaignSpec\` the mode is handed; add a spec field (and its validation) if it is new" >&2
    exit 1
  fi
  # The spec guard's twin on the output side: every mode fills one
  # `CampaignOutcome` and pushes its findings there, so a per-mode result
  # struct is a second container a finding can be dropped from on the way.
  echo "==> outcome guard (a mode fills CampaignOutcome; no *Result struct in csi-test)"
  if grep -rnE --include='*.rs' 'struct [A-Za-z]*Result\b' crates/csi-test/src/; then
    echo "a mode fills CampaignOutcome" >&2
    exit 1
  fi
  # The cell space has one order: a mode that loops over an experiment's
  # plans itself is a second copy of it, free to drift from the grid's.
  echo "==> cell guard (plan::cells walks the cells; no loop over .plans() in csi-test outside plan.rs)"
  if grep -rnE --include='*.rs' 'for .* in .*\.plans\(\)' crates/csi-test/src/ | grep -v '^crates/csi-test/src/plan\.rs:'; then
    echo "walk the cells with \`plan::cells(&experiments, &formats)\`, which yields (experiment index, experiment, plan, format) in the canonical order" >&2
    exit 1
  fi
  # A detecting observation is judged against the trace its fault-free
  # twin left: a learned, keyed baseline store is a second calibration
  # design beside it, and a second campaign to feed it.
  echo "==> calibration guard (no learned baseline set under crates/)"
  if grep -rnE --include='*.rs' 'BaselineSet|ScenarioProfile|learn_baselines' crates/; then
    echo "a detecting run's baseline is its fault-free twin's trace" >&2
    exit 1
  fi
  # Which faults are live is an argument of a run, not a property of a
  # deployment: arming a context for good is how a mode came to build a
  # second stack to change them.
  echo "==> arming guard (no arm_plan or arm_set under crates/)"
  if grep -rnE --include='*.rs' 'arm_plan|arm_set' crates/; then
    echo "a run arms its own faults: CrossingContext::rearm" >&2
    exit 1
  fi
  # A stack built without the spec's overrides runs the default Spark
  # configuration whatever the spec says: every mode builds its stacks
  # through the one constructor, whose overrides parameter is required.
  echo "==> deployment guard (one stack constructor; no Deployment::configured)"
  if grep -rnF --include='*.rs' 'Deployment::configured' crates/; then
    echo "build the stack with Deployment::new(crossing, &spec.spark_overrides); a unit test calls exec::test_stack()" >&2
    exit 1
  fi
  # Which scenarios a fault reaches is one table in inject.rs: a match on
  # a fault's channel is a second copy of it, free to drift from the cell
  # set the matrix runs.
  echo "==> scenario guard (no match arm or matches! pattern naming a Channel:: variant in csi-test)"
  if grep -rnE --include='*.rs' 'Channel::[A-Za-z]+[^;]*=>|matches!\(.*Channel::' crates/csi-test/src/; then
    echo "a fault's scenarios are read off the scenario table" >&2
    exit 1
  fi
  # A stored block owns no heap: its replicas are an inline set as large
  # as the replication factor. A Vec per block is an allocation per 128
  # bytes of file, 78,125 for a 10 MB one; only the public BlockInfo that
  # `blocks()` builds on request carries one.
  echo "==> block guard (one replicas: Vec< in minihdfs, the public BlockInfo's)"
  hits=$(grep -rnF --include='*.rs' 'replicas: Vec<' crates/minihdfs/src/ || true)
  if [ "$(grep -c . <<<"$hits")" -ne 1 ] || ! grep -qF 'pub replicas: Vec<DataNodeId>' <<<"$hits"; then
    printf '%s\n' "$hits"
    echo "a stored block keeps its replicas inline (fs.rs's Replicas); only the public BlockInfo carries a Vec" >&2
    exit 1
  fi
  # The codec's helper thread reads or writes half of one file's rows and
  # borrows the caller's lanes: scoped to the call, it cannot outlive an
  # encode or decode, and a detached one could.
  echo "==> codec thread guard (no thread::spawn or thread::Builder in miniformats)"
  if grep -rnE --include='*.rs' 'thread::(spawn|Builder)' crates/miniformats/src/; then
    echo "a codec's helper thread is scoped to the call" >&2
    exit 1
  fi
  # Every mode's jobs run on the one executor (shard::run_merging, which
  # run_ordered collects): a thread started anywhere else is a second pool,
  # with an order and a panic rule of its own.
  echo "==> executor thread guard (no thread::spawn, thread::scope or thread::Builder in csi-test outside shard.rs)"
  if grep -rnE --include='*.rs' 'thread::(spawn|scope|Builder)' crates/csi-test/src/ | grep -v '^crates/csi-test/src/shard\.rs:'; then
    echo "the harness spawns threads in shard::run_ordered only" >&2
    exit 1
  fi
  # DESIGN.md says how the system works now; which change made it so is
  # CHANGES.md's and git's record, and a design that cites its history
  # goes stale with every change after it.
  echo "==> design-history guard (no \"PR <n>\" reference in DESIGN.md)"
  if grep -nE '\bPRs? #?[0-9]' DESIGN.md; then
    echo "describe the design as it stands; the history is in CHANGES.md and git log" >&2
    exit 1
  fi
}

stage_build() {
  echo "==> release build"
  cargo build --release --workspace
  # --locked: benchmark/Cargo.lock is off limits to a PR, so one that
  # changes the dependency list of a crate benchmark/ links must fail
  # here instead of having cargo rewrite the lock.
  echo "==> benchmark/ still compiles against the crates, lock file untouched (it is outside the workspace)"
  cargo check --release --locked --offline --manifest-path benchmark/Cargo.toml
}

stage_test() {
  echo "==> tests"
  cargo test -q --workspace
}

stage_bench_smoke() {
  echo "==> benchmark smoke (grid, bulk, explore, serve: every output check on, ~2 s each)"
  cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke
}

# Stages are shell functions and `timeout` needs a process: run the
# function in a child bash. `timeout` signals the child's whole process
# group, so a wedged cargo or test binary dies with it. Each stage's wall
# time is printed when it ends — the cost of the suite is a number a
# reader of the log sees, and nothing is written to the tree.
run_stage() {
  local fn="stage_${1//-/_}" started=$SECONDS
  export -f "$fn"
  timeout "$STAGE_TIMEOUT" bash -euo pipefail -c "$fn" || {
    local rc=$?
    [ "$rc" = 124 ] && echo "stage $1 timed out after ${STAGE_TIMEOUT}s" >&2
    exit "$rc"
  }
  echo "==> stage $1 took $((SECONDS - started))s"
}

# No stage may write to a tracked file or leave an unignored one behind:
# the same checkout must give the same verdict and the same tree twice.
# (Outside a git checkout both snapshots are empty and the check is void.)
stage_all() {
  local s before after started=$SECONDS
  before="$(git status --porcelain 2>/dev/null || true)"
  for s in "${STAGES[@]}"; do
    run_stage "$s"
  done
  echo "==> all stages took $((SECONDS - started))s"
  after="$(git status --porcelain 2>/dev/null || true)"
  if [ "$before" != "$after" ]; then
    echo "ci.sh changed the work tree:" >&2
    diff <(printf '%s\n' "$before") <(printf '%s\n' "$after") >&2 || true
    exit 1
  fi
}

usage() {
  local IFS='|'
  echo "usage: $0 [${STAGES[*]}|all]" >&2
}

stage="${1:-all}"
if [ "$stage" = "all" ]; then
  stage_all
else
  known=0
  for s in "${STAGES[@]}"; do
    [ "$stage" = "$s" ] && known=1
  done
  if [ "$known" = 1 ]; then
    run_stage "$stage"
  else
    usage
    exit 2
  fi
fi

echo "CI OK (${stage})"
