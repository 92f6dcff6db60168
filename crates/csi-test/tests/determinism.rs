//! Serial/parallel determinism: the sharded campaign must produce a
//! byte-identical `DiscrepancyReport` — same observations, same failure
//! ordering, same classification — as the serial campaign on the full
//! 422-input catalogue.
//!
//! Comparisons go through the serialized form: `Value` floats follow IEEE
//! `NaN != NaN` semantics under `PartialEq`, so direct struct equality
//! would reject even two identical serial runs of the NaN inputs. The JSON
//! rendering is canonical (NaN serializes as the string `"NaN"`), making
//! "byte-identical" literal.

use csi_core::hash::Fnv1a;
use csi_test::{
    custom_resolving_overrides, generate_inputs, small_fault_catalogue, Campaign, CampaignOutcome,
};

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable")
}

/// FNV-1a over everything a campaign hands its caller: the rendered
/// report, the report JSON, and every (experiment, observation) JSON.
fn outcome_digest(outcome: &CampaignOutcome) -> u64 {
    let mut digest = Fnv1a::new();
    digest.bytes(outcome.render().as_bytes());
    digest.bytes(json(&outcome.report).as_bytes());
    for tagged in &outcome.observations {
        digest.bytes(json(tagged).as_bytes());
    }
    digest.finish()
}

/// Four grid shapes — serial, sharded, fault-armed with detection, and
/// under the resolving Spark overrides — pinned to committed digests.
/// The values were computed while every table stayed in the namespace
/// until its deployment was dropped, and hold unchanged now that each
/// observation drops its own.
#[test]
fn grid_outcomes_hold_their_committed_digests() {
    let inputs = generate_inputs();
    let shapes = [
        ("catalogue", Campaign::new(&inputs), 0x1476_d0f5_3737_9211),
        (
            "catalogue sharded",
            Campaign::new(&inputs).shards(3).chunk_size(50),
            0x1476_d0f5_3737_9211,
        ),
        (
            "faulted prefix with detection",
            Campaign::new(&inputs[..60])
                .faults(small_fault_catalogue(7))
                .detect(true),
            0x70d5_7068_bca1_ac0c,
        ),
        (
            "catalogue under resolving overrides",
            Campaign::new(&inputs).spark_overrides(custom_resolving_overrides()),
            0x8cc8_d788_e526_040c,
        ),
    ];
    let (got, expected): (Vec<_>, Vec<_>) = shapes
        .into_iter()
        .map(|(name, campaign, want)| ((name, outcome_digest(&campaign.run())), (name, want)))
        .unzip();
    assert_eq!(got, expected, "{got:#018x?}");
}

#[test]
fn full_catalogue_parallel_report_is_identical_to_serial() {
    let inputs = generate_inputs();
    let serial = Campaign::new(&inputs).run();
    let parallel = Campaign::new(&inputs).shards(4).chunk_size(32).run();

    assert_eq!(
        serial.observations.len(),
        parallel.observations.len(),
        "observation counts diverge"
    );
    for (i, (s, p)) in serial
        .observations
        .iter()
        .zip(&parallel.observations)
        .enumerate()
    {
        assert_eq!(s.0, p.0, "experiment tag diverges at observation {i}");
        assert_eq!(json(&s.1), json(&p.1), "observation {i} diverges");
    }
    assert_eq!(
        json(&serial.report),
        json(&parallel.report),
        "discrepancy reports diverge"
    );
    assert_eq!(parallel.report.distinct(), 15);
    let metrics = parallel.metrics.expect("sharded campaigns carry metrics");
    assert_eq!(metrics.observations, parallel.observations.len());
}
