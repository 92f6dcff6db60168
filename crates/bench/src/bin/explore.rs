//! Coverage-guided exploration summary: runs `Campaign::explore` over the
//! full input catalogue (serially and sharded), checks the two runs are
//! byte-identical, and prints a JSON summary — executed observations,
//! signature and corpus counts, per-class discovery points, and shrink
//! totals. The assertions double as the CI explore smoke: mutation must
//! contribute at least one novel signature beyond the seed grid, and the
//! sharded run must not diverge from the serial one.
//!
//! Usage: `explore [seed] [budget] [workers]` — seed defaults to 42,
//! budget to 1500, workers to the machine's available parallelism.

use csi_test::{generate_inputs, Campaign};
use serde::Serialize;
use std::collections::BTreeMap;

/// The JSON document this binary prints.
#[derive(Serialize)]
struct Summary {
    /// Exploration seed.
    seed: u64,
    /// Observation budget.
    budget: usize,
    /// Cells of the exhaustive grid this budget competes against.
    grid_cells: usize,
    /// Observations actually executed.
    executed: usize,
    /// Distinct coverage signatures.
    signatures: usize,
    /// Signatures first produced by a mutated input.
    novel_from_mutation: usize,
    /// Corpus entries.
    corpus: usize,
    /// Discrepancy classes in the final report.
    classes: usize,
    /// Executions-to-first-discovery per class.
    discovered_at: BTreeMap<String, usize>,
    /// Shrunk reproducers (all 1 row × 1 column by construction).
    shrunk: usize,
    /// Whether the sharded run serialized identically to the serial one.
    reports_identical: bool,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let budget: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1500);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
    });

    let inputs = generate_inputs();
    let serial = Campaign::new(&inputs).seed(seed).explore(budget).run();
    let sharded = Campaign::new(&inputs)
        .seed(seed)
        .explore(budget)
        .shards(workers)
        .run();
    let identical = serde_json::to_string(&serial.report).expect("serializable")
        == serde_json::to_string(&sharded.report).expect("serializable")
        && serde_json::to_string(&serial.exploration).expect("serializable")
            == serde_json::to_string(&sharded.exploration).expect("serializable")
        && serial.render() == sharded.render();

    let stats = serial.exploration.as_ref().expect("explore mode");
    let summary = Summary {
        seed,
        budget,
        grid_cells: stats.grid_cells,
        executed: stats.executed,
        signatures: stats.signatures,
        novel_from_mutation: stats.novel_from_mutation,
        corpus: stats.corpus.len(),
        classes: serial.report.discrepancies.len(),
        discovered_at: stats
            .discoveries
            .iter()
            .map(|d| (d.id.clone(), d.executed))
            .collect(),
        shrunk: stats.shrinks.len(),
        reports_identical: identical,
    };
    println!(
        "BENCH_explore {}",
        serde_json::to_string(&summary).expect("serializable")
    );
    assert!(identical, "sharded explore run diverged from serial");
    assert!(
        summary.novel_from_mutation >= 1,
        "mutation contributed no novel coverage signature beyond the seed grid"
    );
    assert!(
        summary.executed <= summary.budget,
        "explore overran its observation budget"
    );
}
