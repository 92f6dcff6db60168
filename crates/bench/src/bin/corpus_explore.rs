//! Corpus-seeded exploration vs the catalogue alone: runs
//! `Campaign::explore` twice at the same seed and budget — once over the
//! 422-input catalogue, once with a synthesized real-shaped corpus region
//! appended (`InputSelection::Corpus`) — and diffs the coverage-signature
//! sets. The corpus run is executed serially and sharded and must be
//! byte-identical; the signature diff must be non-empty (the corpus's
//! declared precisions, widths, and encodings reach coverage the
//! hand-built catalogue never does). The summary also reports how many
//! oracle failures fell outside the D01–D15 catalogue (`unattributed`) —
//! the "discrepancy classes beyond the catalogue" signal of the corpus's
//! precision/encoding/scale edges.
//!
//! Usage: `corpus_explore [seed] [budget] [workers]` — seed defaults to
//! 42, budget to 400, workers to the machine's available parallelism.

use csi_test::{generate_inputs, Campaign, CorpusShape, InputSelection};
use serde::Serialize;

/// The JSON document this binary prints.
#[derive(Serialize)]
struct Summary {
    /// Exploration and corpus-synthesis seed.
    seed: u64,
    /// Observation budget (per run).
    budget: usize,
    /// Synthesized corpus inputs appended above the catalogue.
    corpus_inputs: usize,
    /// Distinct signatures of the catalogue-only run.
    signatures_catalogue: usize,
    /// Distinct signatures of the corpus-seeded run.
    signatures_corpus: usize,
    /// Signatures the corpus-seeded run reached that the catalogue-only
    /// run did not — the corpus's coverage contribution.
    corpus_only_signatures: usize,
    /// Signatures first produced by a corpus-origin input.
    novel_from_corpus: usize,
    /// Corpus entries admitted with `corpus` origin.
    corpus_origin_admissions: usize,
    /// Discrepancy classes in the corpus-seeded report.
    classes: usize,
    /// Oracle failures matching no D01–D15 predicate in the corpus-seeded
    /// report — candidate discrepancy classes beyond the catalogue.
    unattributed: usize,
    /// Whether the sharded corpus run serialized identically to the
    /// serial one.
    reports_identical: bool,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let budget: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(400);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
    });

    let shape = CorpusShape::default();
    let selection = InputSelection::Corpus {
        shape: shape.clone(),
        seed,
    };
    let corpus_inputs =
        selection.resolve().len() - selection.corpus_floor().expect("corpus selection");

    let catalogue = Campaign::new(&generate_inputs())
        .seed(seed)
        .explore(budget)
        .run();
    let corpus = |shards: usize| {
        Campaign::new(&[])
            .corpus(shape.clone(), seed)
            .seed(seed)
            .explore(budget)
            .shards(shards)
            .run()
    };
    let serial = corpus(1);
    let sharded = corpus(workers);
    let identical = serde_json::to_string(&serial.report).expect("serializable")
        == serde_json::to_string(&sharded.report).expect("serializable")
        && serde_json::to_string(&serial.exploration).expect("serializable")
            == serde_json::to_string(&sharded.exploration).expect("serializable")
        && serial.render() == sharded.render();

    let base = catalogue.exploration.as_ref().expect("explore mode");
    let stats = serial.exploration.as_ref().expect("explore mode");
    let corpus_only = stats
        .signatures_seen
        .iter()
        .filter(|fp| !base.signatures_seen.contains(fp))
        .count();
    let summary = Summary {
        seed,
        budget,
        corpus_inputs,
        signatures_catalogue: base.signatures,
        signatures_corpus: stats.signatures,
        corpus_only_signatures: corpus_only,
        novel_from_corpus: stats.novel_from_corpus,
        corpus_origin_admissions: stats.corpus.iter().filter(|r| r.origin == "corpus").count(),
        classes: serial.report.discrepancies.len(),
        unattributed: serial.report.unattributed.len(),
        reports_identical: identical,
    };
    println!(
        "BENCH_corpus {}",
        serde_json::to_string(&summary).expect("serializable")
    );
    assert!(identical, "sharded corpus explore run diverged from serial");
    assert!(
        summary.corpus_only_signatures >= 1,
        "the corpus reached no coverage signature the catalogue alone did not"
    );
    assert!(
        summary.novel_from_corpus >= 1,
        "no signature was first produced by a corpus-origin input"
    );
    assert!(
        stats.executed <= budget,
        "corpus explore overran its observation budget"
    );
}
