//! Determinism, clustering, and shrinking properties of the compound
//! (k-fault × interleaving) campaign.
//!
//! The contract extends `tests/determinism.rs` to the compound dimension:
//! a fixed-seed k-fault explore run is byte-identical serial vs sharded
//! and across repeat runs; every clustered discrepancy's shrunk
//! reproducer still triggers a discrepancy in the same cluster; the
//! compound pass is strictly additive (`kfaults(0)` — the default —
//! reproduces the plain explore report exactly); and the k = 1 single-job
//! slice agrees with the fault matrix's probe cells.

use csi_core::fault::{fault_combinations, Channel, FaultSet};
use csi_test::multi::{
    default_jobs, run_compound, run_compound_trial, InterleaveSchedule, TURNS_PER_JOB,
};
use csi_test::{
    fault_catalogue, generate_inputs, Campaign, CampaignOutcome, CampaignSpec, Experiment,
};
use minihive::metastore::StorageFormat;
use proptest::prelude::*;

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable")
}

/// The standard compound pass at `seed` and arity `kfaults`: two jobs,
/// the 96-trial budget, one worker.
fn compound(seed: u64, kfaults: usize) -> CampaignSpec {
    CampaignSpec {
        seed,
        kfaults,
        ..CampaignSpec::default()
    }
}

/// `spec`'s compound pass on its own, into an otherwise empty outcome.
fn compound_pass(spec: &CampaignSpec) -> CampaignOutcome {
    let mut outcome = CampaignOutcome::default();
    run_compound(spec, &mut outcome);
    outcome
}

/// The metastore/HDFS slice of the catalogue — the faults that can fire
/// inside a cross-testing deployment.
fn deployment_faults(seed: u64) -> Vec<csi_core::fault::FaultSpec> {
    fault_catalogue(seed)
        .faults
        .into_iter()
        .filter(|f| matches!(f.channel, Channel::Metastore | Channel::Hdfs))
        .collect()
}

#[test]
fn compound_campaign_is_identical_serial_vs_sharded_and_across_runs() {
    let run = |shards: usize| {
        compound_pass(&CampaignSpec {
            shards,
            ..compound(7, 3)
        })
    };
    let serial = run(1);
    let again = run(1);
    let sharded = run(4);
    assert_eq!(json(&serial.compound), json(&again.compound));
    assert_eq!(json(&serial.clusters), json(&again.clusters));
    assert_eq!(json(&serial.compound), json(&sharded.compound));
    assert_eq!(json(&serial.clusters), json(&sharded.clusters));
    assert_eq!(
        json(&serial.compound.map(|s| s.discrepancies)),
        json(&sharded.compound.map(|s| s.discrepancies))
    );
}

#[test]
fn at_least_one_multi_fault_cross_job_cluster_is_found_and_shrinks() {
    let result = compound_pass(&compound(42, 3));
    assert!(
        result.compound.as_ref().unwrap().executed <= 96,
        "budget overrun"
    );
    assert!(!result.clusters.is_empty(), "no co-failure clusters found");
    // A cross-job co-failure: two jobs of one trial misbehaving together,
    // grouped under one causal-prefix fingerprint.
    assert!(
        result.clusters.iter().any(|c| c.members > 1),
        "no multi-member cluster: {:?}",
        result.clusters
    );
    // And the acceptance bar: at least one cluster whose reproducer
    // shrank to two faults or fewer.
    assert!(
        result.clusters.iter().any(|c| c.faults <= 2),
        "no cluster shrank to <=2 faults: {:?}",
        result.clusters
    );
}

#[test]
fn every_shrunk_reproducer_still_triggers_in_its_own_cluster() {
    let result = compound_pass(&compound(42, 2));
    let jobs = default_jobs(2);
    let faults = deployment_faults(42);
    assert!(!result.clusters.is_empty());
    for cluster in &result.clusters {
        // Rebuild the shrunk reproducer from its row: the fault set from
        // the member ids, the schedule from its id.
        let members: Vec<_> = faults
            .iter()
            .filter(|f| cluster.fault_set.split('+').any(|id| id == f.id))
            .cloned()
            .collect();
        assert!(
            !members.is_empty(),
            "unknown fault set {}",
            cluster.fault_set
        );
        let set = FaultSet::new(members);
        assert_eq!(set.id, cluster.fault_set, "reproducer set id round-trip");
        let schedule = if cluster.schedule == "identity" {
            InterleaveSchedule::identity(jobs.len(), TURNS_PER_JOB)
        } else {
            let seed = u64::from_str_radix(cluster.schedule.trim_start_matches("ilv-"), 16)
                .expect("seeded schedule id");
            InterleaveSchedule::seeded(jobs.len(), TURNS_PER_JOB, seed)
        };
        let report = run_compound_trial(&jobs, &set, &schedule);
        let expected: u64 = u64::from_str_radix(&cluster.fingerprint, 16).expect("hex fingerprint");
        assert!(
            report
                .discrepancies
                .iter()
                .any(|d| d.fingerprint == expected),
            "shrunk reproducer of cluster {} no longer triggers in it",
            cluster.fingerprint
        );
    }
}

#[test]
fn shared_deployment_co_clusters_but_isolated_jobs_do_not() {
    let faults = deployment_faults(1);
    let ms = faults
        .iter()
        .find(|f| f.channel == Channel::Metastore && f.id == "ms-corrupt-get")
        .expect("catalogue metastore fault")
        .clone();
    let hdfs = faults
        .iter()
        .find(|f| f.channel == Channel::Hdfs && f.id == "hdfs-corrupt-read")
        .expect("catalogue hdfs fault")
        .clone();
    let jobs = default_jobs(2);
    let identity = InterleaveSchedule::identity(2, TURNS_PER_JOB);

    // Two jobs share one deployment, one metastore fault plus one HDFS
    // fault armed together: both jobs misbehave, and because the trace is
    // shared their discrepancies carry the same causal-prefix fingerprint.
    let shared = run_compound_trial(
        &jobs,
        &FaultSet::new(vec![ms.clone(), hdfs.clone()]),
        &identity,
    );
    let shared_jobs: Vec<usize> = shared.discrepancies.iter().map(|d| d.job).collect();
    assert!(
        shared_jobs.contains(&0) && shared_jobs.contains(&1),
        "both jobs must misbehave on the shared deployment: {shared_jobs:?}"
    );
    let fingerprints: Vec<u64> = shared.discrepancies.iter().map(|d| d.fingerprint).collect();
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "shared-deployment discrepancies must co-cluster: {fingerprints:?}"
    );

    // The same faults on *isolated* jobs — each job alone on its own
    // deployment, armed with only its own fault — do not co-cluster: the
    // causal paths to the crack differ, so the fingerprints differ.
    let single = InterleaveSchedule::identity(1, TURNS_PER_JOB);
    let iso_ms = run_compound_trial(&jobs[..1], &FaultSet::new(vec![ms]), &single);
    let iso_hdfs = run_compound_trial(&jobs[1..], &FaultSet::new(vec![hdfs]), &single);
    let a = iso_ms.discrepancies.first().expect("metastore discrepancy");
    let b = iso_hdfs.discrepancies.first().expect("hdfs discrepancy");
    assert_ne!(
        a.fingerprint, b.fingerprint,
        "isolated jobs must not co-cluster"
    );
    // The cascade context moves job 1's discrepancy into job 0's cluster:
    // on the shared deployment its fingerprint is the shared prefix, not
    // the one it gets when it runs alone.
    let shared_j1 = shared
        .discrepancies
        .iter()
        .find(|d| d.job == 1)
        .expect("job 1 shared discrepancy");
    assert_ne!(shared_j1.fingerprint, b.fingerprint);
}

#[test]
fn k1_single_job_slice_agrees_with_the_fault_matrix() {
    // Every singleton fault set, run as a one-job compound trial on the
    // matrix's probe scenario, lands in the same §9 bucket as the fault
    // matrix's probe cell for that (fault, scenario).
    let matrix = Campaign::new(&[])
        .fault_matrix(42)
        .run()
        .matrix
        .expect("matrix mode");
    let jobs = default_jobs(1);
    let scenario = jobs[0].scenario();
    let singletons = fault_combinations(&deployment_faults(42), 1, 42, 0);
    assert_eq!(singletons.len(), deployment_faults(42).len());
    let identity = InterleaveSchedule::identity(1, TURNS_PER_JOB);
    let mut checked = 0;
    for set in &singletons {
        let report = run_compound_trial(&jobs, set, &identity);
        let cell = matrix
            .cases
            .iter()
            .find(|c| c.fault.id == set.faults[0].id && c.scenario == scenario);
        let Some(cell) = cell else { continue };
        checked += 1;
        match &cell.outcome {
            None => assert!(
                report.discrepancies.is_empty(),
                "unfired matrix cell {} produced a compound discrepancy",
                set.id
            ),
            Some(outcome) => {
                let oracle_positive = matches!(
                    outcome,
                    csi_core::fault::FaultOutcome::Swallowed
                        | csi_core::fault::FaultOutcome::Mistranslated
                        | csi_core::fault::FaultOutcome::Crash
                );
                assert_eq!(
                    report.discrepancies.first().map(|d| d.outcome),
                    oracle_positive.then_some(*outcome),
                    "k=1 slice diverges from matrix cell {}/{scenario}",
                    set.id
                );
            }
        }
    }
    assert!(
        checked >= 4,
        "too few matrix probe cells matched: {checked}"
    );
}

#[test]
fn kfaults_zero_reproduces_the_plain_explore_report_exactly() {
    // The compound pass is opt-in: the default (`kfaults(0)`) leaves the
    // explore mode byte-identical to its pre-compound behaviour, with no
    // cluster section in the render.
    let inputs = generate_inputs();
    let run = |campaign: Campaign| campaign.seed(42).explore(40).run();
    let plain = run(Campaign::new(&inputs[..6])
        .experiments(vec![Experiment::ALL[0]])
        .formats(vec![StorageFormat::Orc]));
    let explicit_zero = run(Campaign::new(&inputs[..6])
        .experiments(vec![Experiment::ALL[0]])
        .formats(vec![StorageFormat::Orc])
        .kfaults(0));
    assert_eq!(json(&plain.report), json(&explicit_zero.report));
    assert_eq!(json(&plain.exploration), json(&explicit_zero.exploration));
    assert_eq!(plain.render(), explicit_zero.render());
    assert!(plain.compound.is_none() && explicit_zero.compound.is_none());
    assert!(plain.clusters.is_empty());
    assert!(!plain.render().contains("compound pass:"));

    // Turning the knob on is additive: the base exploration is unchanged,
    // and the render gains the cluster section.
    let compound = run(Campaign::new(&inputs[..6])
        .experiments(vec![Experiment::ALL[0]])
        .formats(vec![StorageFormat::Orc])
        .kfaults(2));
    assert_eq!(json(&plain.report), json(&compound.report));
    assert_eq!(json(&plain.exploration), json(&compound.exploration));
    assert!(compound.compound.is_some());
    assert!(compound.render().contains("compound pass:"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Fixed-seed compound explore runs are byte-identical serial vs
    /// sharded and across repeat runs, for any seed.
    #[test]
    fn compound_explore_replay_is_byte_identical(seed in any::<u64>()) {
        let run = |shards: usize| {
            compound_pass(&CampaignSpec {
                explore_budget: Some(24),
                shards,
                ..compound(seed, 2)
            })
        };
        let first = run(1);
        let again = run(1);
        let sharded = run(3);
        prop_assert_eq!(json(&first.compound), json(&again.compound));
        prop_assert_eq!(json(&first.clusters), json(&again.clusters));
        prop_assert_eq!(json(&first.compound), json(&sharded.compound));
        prop_assert_eq!(json(&first.clusters), json(&sharded.clusters));
    }

    /// Seeded fault combinations are deterministic, bounded by arity, and
    /// always contain every singleton.
    #[test]
    fn fault_combinations_are_seeded_and_bounded(seed in any::<u64>(), k in 1usize..=3) {
        let faults = deployment_faults(seed);
        let sets = fault_combinations(&faults, k, seed, 4);
        let again = fault_combinations(&faults, k, seed, 4);
        prop_assert_eq!(json(&sets), json(&again));
        for f in &faults {
            prop_assert!(sets.iter().any(|s| s.len() == 1 && s.faults[0] == *f));
        }
        for s in &sets {
            prop_assert!(!s.is_empty() && s.len() <= k);
        }
    }
}
