//! Exploration-mode invariants: determinism across runs and worker
//! counts, shrunk reproducers preserving their discrepancy class, exact
//! zero-budget degradation, and the headline acceptance property — the
//! coverage-guided mode rediscovers every discrepancy class the exhaustive
//! catalogue reports, in fewer executed observations.

use csi_core::detect::DetectionTap;
use csi_core::hash::{fnv1a, Fnv1a};
use csi_test::{
    custom_resolving_overrides, generate_inputs, reproducer_triggers, Campaign, CampaignOutcome,
    CorpusShape,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable")
}

/// Everything explore-mode output that must be stable: the classified
/// report, the exploration stats (corpus, discoveries, shrinks included),
/// and the rendered text.
fn fingerprint(outcome: &CampaignOutcome) -> (String, String, String) {
    (
        json(&outcome.report),
        json(&outcome.exploration),
        outcome.render(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// (a) A fixed seed produces an identical corpus and report across
    /// repeated runs and across worker counts.
    #[test]
    fn fixed_seed_is_identical_across_runs_and_workers(
        start in 0usize..400,
        seed in any::<u64>(),
        workers in 2usize..5,
    ) {
        let inputs = generate_inputs();
        let slice = &inputs[start..(start + 12).min(inputs.len())];
        let run = |shards: usize| {
            Campaign::new(slice).seed(seed).explore(96).shards(shards).run()
        };
        let serial = run(1);
        let again = run(1);
        let sharded = run(workers);
        prop_assert_eq!(fingerprint(&serial), fingerprint(&again));
        prop_assert_eq!(fingerprint(&serial), fingerprint(&sharded));
    }

    /// (c) A zero-budget explore degrades to the standard exhaustive
    /// catalogue exactly — same report, same rendering.
    #[test]
    fn zero_budget_explore_is_exactly_the_standard_catalogue(
        start in 0usize..410,
        seed in any::<u64>(),
    ) {
        let inputs = generate_inputs();
        let slice = &inputs[start..(start + 8).min(inputs.len())];
        let explored = Campaign::new(slice).seed(seed).explore(0).run();
        let standard = Campaign::new(slice).run();
        prop_assert_eq!(json(&explored.report), json(&standard.report));
        prop_assert_eq!(explored.render(), standard.render());
        prop_assert!(explored.exploration.is_none());
        prop_assert!(explored.reproducers.is_empty());
    }
}

/// (b) Every shrunk reproducer still triggers the same discrepancy class
/// as its parent, at 1 row × 1 column.
#[test]
fn shrunk_reproducers_preserve_their_discrepancy_class() {
    let inputs = generate_inputs();
    let outcome = Campaign::new(&inputs[..40]).seed(42).explore(600).run();
    let stats = outcome.exploration.as_ref().expect("explore mode");
    assert!(
        !outcome.reproducers.is_empty(),
        "no discrepancy was shrunk at this budget"
    );
    assert_eq!(stats.shrinks.len(), outcome.reproducers.len());
    for (row, shrunk) in stats.shrinks.iter().zip(&outcome.reproducers) {
        assert_eq!(row.id, shrunk.id);
        assert_eq!((row.rows, row.columns), (1, 1), "{} is not minimal", row.id);
        assert!(
            reproducer_triggers(&shrunk.id, &shrunk.reproducer),
            "shrunk reproducer for {} no longer triggers it",
            shrunk.id
        );
    }
}

/// FNV-1a over what a hunt hands its caller beside the exploration
/// stats: the report JSON, the rendered text and the compound stats.
fn hunt_digest(outcome: &CampaignOutcome) -> u64 {
    let mut digest = Fnv1a::new();
    digest.bytes(json(&outcome.report).as_bytes());
    digest.bytes(outcome.render().as_bytes());
    digest.bytes(json(&outcome.compound).as_bytes());
    digest.finish()
}

/// Discovery rows, corpus, signatures, shrinks, reports and renderings do
/// not move across commits. Per seed, three hunts: the catalogue and the
/// corpus-seeded hunt at the benchmark's budget, and a k-fault compound
/// pass. Each pins FNV-1a of its exploration stats' JSON and
/// [`hunt_digest`], against values computed on earlier commits: the
/// catalogue and corpus stats before the discovery tracker went
/// incremental, the rest before coverage signatures were built from their
/// parts. Every other explore test compares one build with itself.
#[test]
fn discovery_rows_hold_their_committed_values() {
    let budget = 3200;
    for (seed, committed) in [
        (
            42,
            [
                (0x8925_3240_dd9d_040f_u64, 0xe56e_ceca_4b0a_3c64_u64),
                (0x736a_c4c1_8e32_118d, 0xe7bf_b9e8_6fbc_474a),
                (0x2b2b_a0d8_4d49_538c, 0x3e34_1dbf_2650_043c),
            ],
        ),
        (
            7,
            [
                (0xd0e4_196b_9485_2416, 0xd523_7709_4a94_3b3f),
                (0x2555_808a_79f7_414d, 0xaaba_3ded_c7e6_f070),
                (0x77b1_9c9e_72a3_568d, 0x6e68_793c_aac1_dafd),
            ],
        ),
    ] {
        let catalogue = generate_inputs();
        let hunts = [
            Campaign::new(&catalogue).seed(seed).explore(budget),
            Campaign::new(&[])
                .corpus(CorpusShape::default(), seed)
                .seed(seed)
                .explore(budget),
            Campaign::new(&catalogue)
                .seed(seed)
                .kfaults(3)
                .jobs(3)
                .explore(400),
        ];
        let mut got = Vec::new();
        for (k, campaign) in hunts.into_iter().enumerate() {
            let outcome = campaign.run();
            let stats = outcome.exploration.as_ref().expect("explore mode");
            if k < 2 {
                assert_eq!(stats.discoveries.len(), 15, "seed {seed}");
            }
            got.push((fnv1a(json(stats).as_bytes()), hunt_digest(&outcome)));
        }
        assert_eq!(got, committed, "seed {seed}: {got:#018x?}");
    }
}

/// The acceptance property: with the full catalogue and a budget well
/// under the exhaustive grid, explore rediscovers every class the
/// exhaustive catalogue reports (all 15), sharded byte-identical to
/// serial. The executions-to-first-discovery numbers behind
/// EXPERIMENTS.md are printed by `paper explore`.
#[test]
fn explore_rediscovers_all_classes_in_fewer_observations() {
    let inputs = generate_inputs();
    let budget = 4000;
    let serial = Campaign::new(&inputs).seed(42).explore(budget).run();
    let sharded = Campaign::new(&inputs)
        .seed(42)
        .explore(budget)
        .shards(4)
        .run();
    assert_eq!(fingerprint(&serial), fingerprint(&sharded));

    let stats = serial.exploration.as_ref().expect("explore mode");
    let exhaustive_grid = 422 * 24;
    assert!(stats.executed <= budget && budget < exhaustive_grid);
    let explored_ids: Vec<&str> = serial
        .report
        .discrepancies
        .iter()
        .map(|d| d.id.as_str())
        .collect();
    assert_eq!(
        explored_ids.len(),
        15,
        "explore missed classes, found {explored_ids:?}"
    );
    // Every class was tracked to a first-discovery point within budget.
    assert_eq!(stats.discoveries.len(), 15);
    for d in &stats.discoveries {
        assert!(d.executed <= stats.executed);
    }
    // Mutation earned its keep: novel signatures beyond the seed grid.
    assert!(stats.novel_from_mutation >= 1);
}

/// Explore runs the configuration its spec names. Under the paper's
/// custom configuration a hunt stops reporting D05 and D09, as the grid
/// does, and every reproducer it shrinks carries that configuration and
/// replays under it.
#[test]
fn explore_hunts_in_the_spec_configuration() {
    let hunt = |overrides: Vec<(String, String)>| {
        Campaign::new(&generate_inputs())
            .seed(42)
            .explore(1500)
            .shards(2)
            .spark_overrides(overrides)
            .run()
    };
    let ids = |outcome: &CampaignOutcome| -> Vec<String> {
        let ids = outcome.report.discrepancies.iter().map(|d| d.id.clone());
        ids.collect()
    };
    assert_eq!(ids(&hunt(Vec::new())), ["D01", "D02", "D03", "D05", "D09"]);
    let custom = hunt(custom_resolving_overrides());
    assert_eq!(ids(&custom), ["D01", "D02", "D03"]);
    assert!(!custom.reproducers.is_empty());
    for shrunk in &custom.reproducers {
        assert_eq!(
            shrunk.reproducer.spark_overrides,
            custom_resolving_overrides()
        );
        assert!(
            reproducer_triggers(&shrunk.id, &shrunk.reproducer),
            "{}",
            shrunk.id
        );
    }
}

/// With `detect`, explore judges each fault-overlay trial against its
/// fault-free twin. The report gains the overlay trials' detection tally,
/// scored against the §9 oracle, and nothing else changes; the tally is
/// the same at any worker count, and the tap hears every detection in it.
#[test]
fn a_detecting_hunt_scores_its_overlay_trials() {
    let inputs = generate_inputs();
    let hunt = |detect: bool, shards: usize| {
        Campaign::new(&inputs[..24])
            .seed(7)
            .explore(400)
            .detect(detect)
            .shards(shards)
    };
    let plain = hunt(false, 1).run();
    let streamed = Arc::new(AtomicUsize::new(0));
    let heard = streamed.clone();
    let serial = hunt(true, 1)
        .detection_tap(DetectionTap::new(move |_| {
            heard.fetch_add(1, Ordering::SeqCst);
        }))
        .run();
    let sharded = hunt(true, 3).run();
    assert_eq!(fingerprint(&serial), fingerprint(&sharded));
    let report = &serial.report;
    assert!(report.detector_enabled);
    assert!(
        report.detector_agreement.is_some(),
        "no overlay fault fired"
    );
    let tallied: usize = report.detection_kinds.values().sum();
    assert!(tallied > 0, "the hunt detected nothing");
    assert_eq!(streamed.load(Ordering::SeqCst), tallied);
    assert_eq!(
        json(&report.discrepancies),
        json(&plain.report.discrepancies)
    );
    assert_eq!(json(&serial.exploration), json(&plain.exploration));
    assert!(!plain.report.detector_enabled);
}
