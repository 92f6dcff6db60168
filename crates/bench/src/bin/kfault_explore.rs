//! Compound (fault-set × interleaving) exploration summary: runs a
//! k-fault multi-job campaign (serially and sharded), checks the two runs
//! are byte-identical, and prints a JSON summary — trials executed,
//! product-space size, coverage signatures, discrepancies, co-failure
//! clusters, and shrink totals. The assertions double as the CI kfault
//! smoke: at least one multi-member cluster must be found and shrunk to a
//! reproducer of at most two faults, and the sharded run must not diverge
//! from the serial one.
//!
//! Usage: `kfault_explore [seed] [budget] [workers]` — seed defaults to
//! 42, budget to 96, workers to the machine's available parallelism.

use csi_test::Campaign;
use serde::Serialize;

/// The JSON document this binary prints.
#[derive(Serialize)]
struct Summary {
    /// Campaign seed.
    seed: u64,
    /// Trial budget of the coverage-guided search.
    budget: usize,
    /// Maximum fault-set arity.
    kfaults: usize,
    /// Jobs sharing each trial's deployment.
    jobs: usize,
    /// Size of the (fault-set × interleaving) product space.
    space: usize,
    /// Trials actually executed.
    executed: usize,
    /// Distinct coverage signatures over the shared traces.
    signatures: usize,
    /// Oracle-positive job outcomes across all trials.
    discrepancies: usize,
    /// Co-failure clusters (distinct causal-prefix fingerprints).
    clusters: usize,
    /// Clusters with more than one member (co-failures, not singletons).
    multi_member_clusters: usize,
    /// Smallest shrunk reproducer, in faults.
    min_reproducer_faults: usize,
    /// Extra trials spent by the per-cluster ddmin shrinker.
    shrink_checks: usize,
    /// Whether the sharded run serialized identically to the serial one.
    reports_identical: bool,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let budget: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(96);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
    });
    let kfaults = 3;

    let run = |shards: usize| {
        Campaign::new(&[])
            .seed(seed)
            .kfaults(kfaults)
            .explore(budget)
            .shards(shards)
            .run()
    };
    let serial = run(1);
    let sharded = run(workers);
    let identical = serde_json::to_string(&serial.compound).expect("serializable")
        == serde_json::to_string(&sharded.compound).expect("serializable")
        && serde_json::to_string(&serial.clusters).expect("serializable")
            == serde_json::to_string(&sharded.clusters).expect("serializable")
        && serial.render() == sharded.render();

    let stats = serial.compound.as_ref().expect("compound pass ran");
    let summary = Summary {
        seed,
        budget,
        kfaults: stats.kfaults,
        jobs: stats.jobs,
        space: stats.space,
        executed: stats.executed,
        signatures: stats.signatures,
        discrepancies: stats.discrepancies,
        clusters: serial.clusters.len(),
        multi_member_clusters: serial.clusters.iter().filter(|c| c.members > 1).count(),
        min_reproducer_faults: serial
            .clusters
            .iter()
            .map(|c| c.faults)
            .min()
            .unwrap_or(usize::MAX),
        shrink_checks: stats.shrink_checks,
        reports_identical: identical,
    };
    println!(
        "BENCH_kfault_explore {}",
        serde_json::to_string(&summary).expect("serializable")
    );
    assert!(identical, "sharded compound run diverged from serial");
    assert!(
        summary.executed <= summary.budget,
        "compound search overran its trial budget"
    );
    assert!(
        summary.multi_member_clusters >= 1,
        "no multi-member co-failure cluster found"
    );
    assert!(
        summary.min_reproducer_faults <= 2,
        "no cluster shrank to a reproducer of at most two faults"
    );
}
