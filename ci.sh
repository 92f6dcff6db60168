#!/usr/bin/env bash
# Staged CI gate. Each stage is individually invocable so failures
# attribute to a stage instead of one monolithic log:
#
#   ./ci.sh lint          # cargo fmt --check + clippy -D warnings + the one-write-per-frame guard
#   ./ci.sh build         # release build of the whole workspace + `cargo check --locked` of benchmark/
#   ./ci.sh test          # full test suite
#   ./ci.sh determinism   # serial-vs-sharded byte-identity suites
#   ./ci.sh reports       # report bins (boundary trace summary, online detector vs offline oracle)
#   ./ci.sh golden        # golden campaign report drift check
#   ./ci.sh explore       # coverage-guided explore smoke (small budget)
#   ./ci.sh corpus        # corpus synthesis/inference tests + corpus-seeded explore smoke, run twice
#   ./ci.sh bench-smoke   # cluster-scale substrate smoke + the benchmark's own smoke (all four workloads)
#   ./ci.sh serve         # csi-serve daemon tests
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
STAGES=(lint build test determinism reports golden explore corpus bench-smoke serve)

stage_lint() {
  echo "==> fmt (check only)"
  cargo fmt --all --check
  echo "==> clippy (deny warnings)"
  cargo clippy --workspace --all-targets -- -D warnings
  # Split from its frame on a socket, a newline waits for the peer's ACK
  # (Nagle) and the frame arrives an inter-arrival gap late.
  echo "==> wire guard (a frame's terminator is never its own write)"
  if grep -rnF --include='*.rs' 'write_all(b"\n")' crates/; then
    echo "a line and its newline must leave in one write: push the '\\n' onto the buffer, then write_all once" >&2
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

stage_determinism() {
  echo "==> determinism (serial vs parallel campaign)"
  cargo test -q -p csi-test --test determinism
  echo "==> fault matrix (injection determinism + taxonomy coverage)"
  cargo test -q -p csi-test --test fault_matrix
  echo "==> boundary traces (side-effect-free, serial == sharded)"
  cargo test -q -p csi-test --test trace
  echo "==> shared-deployment lock order (200x stress loop under a 30 s watchdog)"
  cargo test -q -p csi-test --test concurrent_metastore
}

stage_reports() {
  echo "==> boundary trace summary (per-channel crossing counts)"
  cargo run -q --release -p csi-bench --bin trace_summary
  echo "==> online detector vs offline oracle (recall 1.0, serial == sharded)"
  cargo run -q --release -p csi-bench --bin detector_report
}

stage_golden() {
  echo "==> golden campaign report"
  cargo test -q -p csi-test --test golden_report
}

stage_explore() {
  echo "==> coverage-guided explore smoke (asserts novel signatures beyond the seed grid)"
  cargo run -q --release -p csi-bench --bin explore -- 42 400 4
  echo "==> k-fault compound smoke (asserts a shrunk multi-fault cross-job cluster, serial == sharded)"
  cargo run -q --release -p csi-bench --bin kfault_explore -- 42 96 4
}

stage_corpus() {
  echo "==> corpus synthesis + schema-inference round-trip tests"
  cargo test -q -p csi-test corpus
  echo "==> corpus-seeded explore smoke, run twice with byte-compared summaries (flakiness guard)"
  local first second
  first="$(cargo run -q --release -p csi-bench --bin corpus_explore -- 42 160 4)"
  second="$(cargo run -q --release -p csi-bench --bin corpus_explore -- 42 160 4)"
  if [ "$first" != "$second" ]; then
    echo "corpus explore smoke is not byte-deterministic across back-to-back runs:" >&2
    diff <(printf '%s\n' "$first") <(printf '%s\n' "$second") >&2 || true
    exit 1
  fi
  echo "    two runs byte-identical"
}

stage_bench_smoke() {
  echo "==> cluster-scale substrate smoke (interning/vacuum/slab invariants + sim event-rate floor)"
  cargo run -q --release -p csi-bench --bin cluster_scale -- --smoke
  echo "==> benchmark smoke (grid, bulk, explore, serve: every output check on, ~2 s each)"
  cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke
}

stage_serve() {
  echo "==> csi-serve daemon (protocol, scheduler, tenant, end-to-end determinism, idle round trip under the delayed-ACK timer)"
  cargo test -q -p csi-serve
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
