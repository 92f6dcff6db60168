//! Properties of the boundary-crossing trace.
//!
//! Every campaign observation carries its trace, and the traces are
//! *deterministic* (same seed, serial or sharded, byte-identical crossing
//! sequences) and *complete* (every reported discrepancy carries a
//! non-empty causal crossing sequence). That recording a crossing changes
//! nothing else is a property of the crossing context, pinned in
//! `csi_core::boundary`.

use csi_test::{generate_inputs, Campaign};
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
