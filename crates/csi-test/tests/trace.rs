//! Properties of the boundary-crossing trace.
//!
//! The tentpole contract: traces are *deterministic* (same seed, serial
//! or sharded, byte-identical crossing sequences), *side-effect-free*
//! (disabling tracing changes nothing but the trace fields), and
//! *complete* (every reported discrepancy carries a non-empty causal
//! crossing sequence).

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

#[test]
fn disabling_tracing_changes_nothing_but_the_trace_fields() {
    let inputs = generate_inputs();
    let inputs = &inputs[..40];
    let traced = Campaign::new(inputs).run();
    let untraced = Campaign::new(inputs).trace(false).run();
    // Scrub the trace fields from the traced report; everything else —
    // observations, failures, classification, ordering — must be
    // byte-identical, because a disabled context still counts calls,
    // fires faults and drives the virtual clock the same way.
    let mut scrubbed = traced.report.clone();
    for d in &mut scrubbed.discrepancies {
        d.trace.clear();
    }
    scrubbed.trace_totals.clear();
    assert_eq!(json(&scrubbed), json(&untraced.report));
    assert_eq!(traced.observations.len(), untraced.observations.len());
    for ((te, to), (ue, uo)) in traced.observations.iter().zip(&untraced.observations) {
        assert_eq!(te, ue);
        assert!(uo.trace.is_empty(), "disabled run recorded a crossing");
        let mut scrubbed = to.clone();
        scrubbed.trace = Default::default();
        assert_eq!(json(&scrubbed), json(uo));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Serial and sharded runs of the same catalogue window record
    /// byte-identical crossing sequences, observation by observation —
    /// deployment pooling and table recycling included.
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
