//! Properties of the boundary-crossing trace.
//!
//! Every campaign observation carries its trace, and the traces are
//! *deterministic* (same seed, serial or sharded, byte-identical crossing
//! sequences) and *complete* (every reported discrepancy carries a
//! non-empty causal crossing sequence), and every finding resolves to the
//! trace evidence it names. That recording a crossing changes
//! nothing else is a property of the crossing context, pinned in
//! `csi_core::boundary`.

use csi_core::boundary::{faulted, Crossing};
use csi_core::fault::{Channel, FaultOutcome, Trigger};
use csi_test::{generate_inputs, small_fault_catalogue, Campaign, CampaignOutcome, Evidence};
use proptest::prelude::*;

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable")
}

#[test]
fn every_discrepancy_carries_a_nonempty_trace() {
    let inputs = generate_inputs();
    let outcome = Campaign::new(&inputs).run();
    assert_eq!(outcome.report.distinct(), 15);
    for d in &outcome.report.discrepancies {
        assert!(
            !d.trace.is_empty(),
            "discrepancy {} reported without a crossing trace",
            d.id
        );
    }
    assert!(!outcome.report.trace_totals.is_empty());
}

/// `channel/op` of the first faulted crossing, as a finding names it.
fn first_crack(crossings: &[Crossing]) -> Option<String> {
    faulted(crossings)
        .next()
        .map(|(c, _)| format!("{}/{}", c.call.channel, c.call.op))
}

/// Every finding of a campaign resolves to the proof it names: a grid
/// discrepancy to the observations its failures name, a misbehaving
/// matrix cell to its case, a co-failure cluster to its row. And the
/// findings do not depend on the worker count.
#[test]
fn every_finding_resolves_to_its_evidence() {
    let inputs: Vec<_> = generate_inputs().into_iter().step_by(10).collect();
    let both = |campaign: &dyn Fn(usize) -> CampaignOutcome| {
        let serial = campaign(1);
        assert_eq!(
            serial.findings,
            campaign(3).findings,
            "findings depend on shards"
        );
        serial
    };

    // The grid: one finding per discrepancy, in report order.
    let grid = both(&|shards| Campaign::new(&inputs).shards(shards).run());
    assert!(grid.report.distinct() >= 3, "{}", grid.render());
    assert_eq!(grid.findings.len(), grid.report.discrepancies.len());
    for (finding, d) in grid.findings.iter().zip(&grid.report.discrepancies) {
        assert_eq!(finding.id, d.id);
        let Evidence::Observations(named) = &finding.evidence else {
            panic!("{} names no observations", d.id);
        };
        let first = &grid.observations[named[0]].1;
        assert_eq!(first.trace.compact(), d.trace, "{}", d.id);
        assert_eq!(finding.crack, first_crack(&first.trace.crossings));
        let mut seen = std::collections::BTreeSet::new();
        for &at in named {
            assert!(seen.insert(at), "{} names observation {at} twice", d.id);
            let obs = &grid.observations[at].1;
            assert!(
                d.evidence.iter().any(|f| f.input_id == obs.input_id
                    && f.plans.contains(&obs.plan)
                    && f.formats.contains(&obs.format)),
                "{}: observation {at} is named by none of its failures",
                d.id
            );
        }
    }

    // The matrix: one finding per misbehaving cell, in cell order. The
    // small catalogue fires in every cell, so one HBase fault that waits
    // for a call that never comes adds two unfired cells.
    let mut plan = small_fault_catalogue(5);
    let mut never = plan.faults.last().expect("an HBase fault").clone();
    assert_eq!(never.channel, Channel::HBase);
    never.id = "hbase-never".into();
    never.trigger = Trigger::OnCall(1_000);
    plan.faults.push(never);
    let matrix = both(&|shards| {
        Campaign::new(&[])
            .fault_matrix(5)
            .faults(plan.clone())
            .shards(shards)
            .run()
    });
    let cases = &matrix.matrix.as_ref().expect("matrix mode").cases;
    let misbehaving: Vec<usize> = (0..cases.len())
        .filter(|&at| {
            matches!(
                cases[at].outcome,
                Some(FaultOutcome::Swallowed | FaultOutcome::Mistranslated | FaultOutcome::Crash)
            )
        })
        .collect();
    assert!(!misbehaving.is_empty());
    assert!(
        cases.iter().any(|case| case.outcome.is_none()),
        "no unfired cell"
    );
    assert_eq!(matrix.findings.len(), misbehaving.len());
    for (finding, &at) in matrix.findings.iter().zip(&misbehaving) {
        let case = &cases[at];
        assert_eq!(finding.evidence, Evidence::Case(at));
        assert_eq!(finding.id, format!("{} x {}", case.fault.id, case.scenario));
        assert_eq!(finding.crack, first_crack(&case.trace.crossings));
        assert!(finding.crack.is_some());
    }

    // The compound pass: one finding per co-failure cluster.
    let compound = both(&|shards| Campaign::new(&[]).kfaults(1).shards(shards).run());
    assert!(!compound.clusters.is_empty());
    assert_eq!(compound.findings.len(), compound.clusters.len());
    for (at, row) in compound.clusters.iter().enumerate() {
        let of_row: Vec<_> = compound
            .findings
            .iter()
            .filter(|f| f.evidence == Evidence::Cluster(at))
            .collect();
        assert_eq!(of_row.len(), 1, "cluster {}", row.fingerprint);
        assert_eq!(of_row[0].id, row.fingerprint);
        assert_eq!(of_row[0].crack.as_deref(), Some(row.crack.as_str()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Serial and sharded runs of the same catalogue window record
    /// byte-identical crossing sequences, observation by observation —
    /// table recycling included.
    #[test]
    fn serial_and_sharded_traces_are_byte_identical(
        start in 0usize..380,
        workers in 1usize..5,
    ) {
        let inputs = generate_inputs();
        let inputs = &inputs[start..start + 16];
        let serial = Campaign::new(inputs).run();
        let parallel = Campaign::new(inputs).shards(workers).chunk_size(5).run();
        prop_assert_eq!(serial.observations.len(), parallel.observations.len());
        for (i, ((se, so), (pe, po))) in serial
            .observations
            .iter()
            .zip(&parallel.observations)
            .enumerate()
        {
            prop_assert_eq!(se, pe);
            prop_assert!(!so.trace.is_empty(), "observation {} recorded no crossings", i);
            prop_assert_eq!(
                json(&so.trace),
                json(&po.trace),
                "trace diverges at observation {}",
                i
            );
            prop_assert_eq!(so.trace.compact(), po.trace.compact());
        }
        prop_assert_eq!(json(&serial.report), json(&parallel.report));
    }
}
