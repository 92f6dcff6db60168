//! Property: for any valid spec, the report a tenant receives from the
//! daemon is byte-identical to a batch [`Campaign`] run of the same
//! spec — the served path adds transport, scheduling and the detection
//! tap, none of which may perturb a single byte of output. Nor does
//! journaling: the spec revived from the daemon's journal replays to the
//! journaled report, the same bytes again.

use csi_serve::{fnv1a, run_specs, CsiServer, ServeConfig};
use csi_test::{Campaign, CampaignSpec, InputSelection};
use minihive::metastore::StorageFormat;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn served_report_is_byte_identical_to_batch(
        prefix in 1usize..5,
        shards in 1usize..4,
        seed in any::<u64>(),
        detect in any::<bool>(),
    ) {
        let spec = CampaignSpec {
            inputs: InputSelection::CataloguePrefix(prefix),
            formats: vec![StorageFormat::Orc, StorageFormat::Avro],
            shards,
            chunk_size: 2,
            seed,
            detect,
            ..CampaignSpec::default()
        };
        let mut server = CsiServer::start(&ServeConfig::default()).expect("server starts");
        let outcomes = run_specs(
            server.addr(),
            &[("prop-tenant".to_string(), spec.clone())],
        )
        .expect("outcomes");
        let records = server.registry().recent("prop-tenant");
        server.shutdown();
        prop_assert_eq!(outcomes.len(), 1);
        prop_assert_eq!(&outcomes[0].rejected, &None);
        let wire = outcomes[0].report_json.clone().expect("report arrived");

        let batch = Campaign::from_spec(spec).expect("valid spec").run();
        let local = serde_json::to_string(&batch.report).expect("reports serialize");
        prop_assert_eq!(&wire, &local);

        prop_assert_eq!(records.len(), 1);
        let revived: CampaignSpec =
            serde_json::from_str(&records[0].spec_json).expect("journaled spec revives");
        revived.validate().expect("journaled spec is valid");
        let replay = Campaign::from_spec(revived).expect("valid spec").run();
        let replayed = serde_json::to_string(&replay.report).expect("reports serialize");
        let (digest, journaled) = records[0].report.as_ref().expect("report journaled");
        prop_assert_eq!(journaled, &replayed);
        prop_assert_eq!(journaled, &wire);
        prop_assert_eq!(*digest, fnv1a(wire.as_bytes()));
    }
}
