//! The wire-format contract of [`CampaignSpec`]: a spec that travels
//! through JSON and back runs byte-identically to the in-process builder
//! campaign it was extracted from.
//!
//! This is the property the `csi-serve` daemon leans on — a tenant's
//! serialized request must produce exactly the report the same campaign
//! would produce in-process — pinned here at the csi-test layer so a
//! violation is attributed to spec extraction, not to the server.

use csi_test::{Campaign, CampaignOutcome, CampaignSpec, InputSelection, SpecError};
use minihive::metastore::StorageFormat;
use proptest::prelude::*;

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable")
}

/// Full-outcome fingerprint: report plus every observation.
fn fingerprint(outcome: &CampaignOutcome) -> String {
    let mut s = json(&outcome.report);
    for (experiment, obs) in &outcome.observations {
        s.push_str(experiment.short());
        s.push_str(&json(obs));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// serialize → deserialize → validate → run ≡ the builder campaign,
    /// across input prefixes, worker counts, seeds, and detection.
    #[test]
    fn revived_spec_runs_byte_identically(
        prefix in 1usize..5,
        shards in 1usize..4,
        seed in any::<u64>(),
        detect in any::<bool>(),
    ) {
        let spec = CampaignSpec {
            inputs: InputSelection::CataloguePrefix(prefix),
            formats: vec![StorageFormat::Orc, StorageFormat::Parquet],
            shards,
            chunk_size: 2,
            seed,
            detect,
            ..CampaignSpec::default()
        };
        let wire = json(&spec);
        let revived: CampaignSpec = serde_json::from_str(&wire).expect("wire spec parses");
        prop_assert_eq!(&revived, &spec);
        let from_wire = Campaign::from_spec(revived).expect("valid spec").run();
        let in_process = Campaign::from_spec(spec).expect("valid spec").run();
        prop_assert_eq!(fingerprint(&from_wire), fingerprint(&in_process));
    }
}

/// One small builder campaign per mode — the grid, the fault matrix,
/// explore and the compound pass — revived from its wire spec runs to the
/// same render and report JSON, so each mode reads all it needs from the
/// spec.
#[test]
fn builder_spec_extraction_round_trips_through_the_wire() {
    let inputs = csi_test::generate_inputs();
    let campaigns = [
        Campaign::new(&inputs[..3])
            .shards(2)
            .chunk_size(1)
            .detect(true),
        Campaign::new(&[])
            .fault_matrix(5)
            .faults(csi_test::small_fault_catalogue(5))
            .experiments(vec![csi_test::Experiment::ALL[0]])
            .formats(vec![StorageFormat::Orc])
            .detect(true)
            .shards(2),
        Campaign::new(&inputs[..6]).seed(7).explore(64).shards(2),
        Campaign::new(&[]).kfaults(1),
    ];
    for (mode, campaign) in campaigns.into_iter().enumerate() {
        let spec = campaign.spec().clone();
        let revived: CampaignSpec =
            serde_json::from_str(&json(&spec)).expect("builder spec survives the wire");
        assert_eq!(revived, spec);
        let a = campaign.run();
        let b = Campaign::from_spec(revived).expect("valid spec").run();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.render(), b.render());
        let ran = [
            a.metrics.is_some(),
            a.matrix.is_some(),
            a.exploration.is_some(),
            a.compound.is_some(),
        ];
        assert!(ran[mode], "campaign {mode} did not run its mode: {ran:?}");
    }
}

#[test]
fn corpus_specs_round_trip_and_bad_shapes_reject_typed() {
    // The corpus selection travels by (shape, seed) — a few hundred
    // bytes — and revives to the identical selection.
    let spec = CampaignSpec {
        inputs: InputSelection::Corpus {
            shape: csi_test::CorpusShape::wide(),
            seed: 11,
        },
        ..CampaignSpec::default()
    };
    let revived: CampaignSpec =
        serde_json::from_str(&json(&spec)).expect("corpus spec survives the wire");
    assert_eq!(revived, spec);
    assert_eq!(revived.inputs.resolve().len(), spec.inputs.resolve().len());

    // An unsynthesizable shape is a typed rejection, not a worker panic.
    let bad = CampaignSpec {
        inputs: InputSelection::Corpus {
            shape: csi_test::CorpusShape {
                decimal_precisions: vec![(40, 2)],
                ..csi_test::CorpusShape::default()
            },
            seed: 1,
        },
        ..CampaignSpec::default()
    };
    let err = Campaign::from_spec(bad).expect_err("invalid corpus shape");
    assert!(matches!(err, SpecError::BadCorpusShape { .. }), "{err:?}");
    let back: SpecError = serde_json::from_str(&json(&err)).expect("error round-trips");
    assert_eq!(back, err);
}

#[test]
fn wire_rejections_carry_typed_reasons() {
    // A daemon receiving these specs must answer with a reason, not die.
    let bad = CampaignSpec {
        shards: csi_test::MAX_SHARDS + 1,
        ..CampaignSpec::default()
    };
    let err = Campaign::from_spec(bad).expect_err("invalid spec");
    assert_eq!(
        err,
        SpecError::BadShards {
            shards: csi_test::MAX_SHARDS + 1,
            max: csi_test::MAX_SHARDS,
        }
    );
    // The error itself serializes, so it can ride a Rejected frame.
    let wire = json(&err);
    let back: SpecError = serde_json::from_str(&wire).expect("error round-trips");
    assert_eq!(back, err);
}

/// Specs written while campaigns could switch tracing off still parse:
/// the wire ignores the retired `trace` key, and either value revives to
/// the default spec, which runs traced.
#[test]
fn a_retired_trace_key_revives_to_the_default_spec() {
    let default = CampaignSpec::default();
    let wire = json(&default);
    let expected = fingerprint(&Campaign::from_spec(default.clone()).expect("valid").run());
    for trace in ["false", "true"] {
        let old = wire.replacen("\"detect\":", &format!("\"trace\":{trace},\"detect\":"), 1);
        assert_ne!(old, wire, "the key was not spliced in");
        let revived: CampaignSpec = serde_json::from_str(&old).expect("an old spec parses");
        assert_eq!(revived, default, "\"trace\":{trace}");
        let outcome = Campaign::from_spec(revived).expect("valid spec").run();
        assert_eq!(fingerprint(&outcome), expected, "\"trace\":{trace}");
    }
}
