//! Determinism and coverage properties of the fault-matrix campaign.
//!
//! The contract mirrors `tests/determinism.rs` for the fault dimension:
//! same seed → byte-identical report (serial, sharded at any worker
//! count, and across repeated runs), a fault-free `FaultPlan` is
//! indistinguishable from no plan at all, every fired fault lands in
//! exactly one taxonomy bucket, and every interaction channel of the
//! catalogue actually fires somewhere.

use csi_core::fault::{Channel, FaultPlan};
use csi_test::{
    fault_catalogue, generate_inputs, small_fault_catalogue, Campaign, CampaignOutcome, Experiment,
};
use minihive::metastore::StorageFormat;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable")
}

/// The standard matrix campaign (full catalogue, full experiment × format
/// cross) at the given seed and worker count, through the builder.
fn standard_matrix(seed: u64, shards: usize) -> CampaignOutcome {
    Campaign::new(&[]).fault_matrix(seed).shards(shards).run()
}

/// The smoke matrix campaign (small catalogue, one experiment, one
/// format) at the given seed and worker count, through the builder.
fn smoke_matrix(seed: u64, shards: usize) -> CampaignOutcome {
    Campaign::new(&[])
        .fault_matrix(seed)
        .experiments(vec![Experiment::ALL[0]])
        .formats(vec![StorageFormat::Orc])
        .faults(small_fault_catalogue(seed))
        .shards(shards)
        .run()
}

#[test]
fn sharded_matrix_is_identical_to_serial_at_any_worker_count() {
    let serial = standard_matrix(42, 1);
    for workers in [1, 2, 5] {
        let sharded = standard_matrix(42, workers);
        assert_eq!(
            json(&serial.matrix),
            json(&sharded.matrix),
            "report diverges at {workers} workers"
        );
        assert_eq!(serial.render(), sharded.render());
    }
}

#[test]
fn every_fired_fault_is_classified_and_every_channel_fires() {
    let report = standard_matrix(42, 1).matrix.expect("matrix mode");
    let mut fired_channels = BTreeSet::new();
    for case in &report.cases {
        assert_eq!(
            case.outcome.is_some(),
            !case.fired.is_empty(),
            "cell {}/{} must be classified iff its fault fired",
            case.fault.id,
            case.scenario
        );
        for fired in &case.fired {
            fired_channels.insert(fired.channel);
        }
    }
    for channel in Channel::ALL {
        assert!(fired_channels.contains(&channel), "{channel} never fired");
    }
    // The standard catalogue exercises the whole taxonomy: the paper's
    // four outcome buckets all occur.
    for bucket in [
        "swallowed",
        "mistranslated",
        "propagated-with-context",
        "crash",
    ] {
        assert!(
            report.outcomes.contains_key(bucket),
            "bucket {bucket} missing from {:?}",
            report.outcomes
        );
    }
}

#[test]
fn catalogue_has_at_least_one_fault_per_channel() {
    let plan = fault_catalogue(42);
    for channel in Channel::ALL {
        assert!(plan.faults.iter().any(|f| f.channel == channel));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Replaying the same seeded plan — serially or sharded — yields a
    /// byte-identical fault-matrix report.
    #[test]
    fn same_seed_replay_is_byte_identical(seed in any::<u64>()) {
        let first = smoke_matrix(seed, 1);
        let again = smoke_matrix(seed, 1);
        let sharded = smoke_matrix(seed, 3);
        prop_assert_eq!(json(&first.matrix), json(&again.matrix));
        prop_assert_eq!(json(&first.matrix), json(&sharded.matrix));
        prop_assert_eq!(first.render(), sharded.render());
    }

    /// A fault-free `FaultPlan` is inert: the campaign report is exactly
    /// the report of a run with no plan at all, for any seed.
    #[test]
    fn fault_free_plan_reproduces_the_seed_campaign(seed in any::<u64>()) {
        let inputs = generate_inputs();
        let inputs = &inputs[..12];
        let baseline = Campaign::new(inputs).run();
        let with_empty_plan = Campaign::new(inputs).faults(FaultPlan::empty(seed)).run();
        prop_assert_eq!(json(&baseline.report), json(&with_empty_plan.report));
        prop_assert_eq!(
            baseline.observations.len(),
            with_empty_plan.observations.len()
        );
        for (b, w) in baseline.observations.iter().zip(&with_empty_plan.observations) {
            prop_assert_eq!(b.0, w.0);
            prop_assert_eq!(json(&b.1), json(&w.1));
        }
    }
}
