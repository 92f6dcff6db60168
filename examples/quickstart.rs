//! Quickstart: deploy the simulated Spark–Hive data plane, cross-test a few
//! inputs, and inspect the discrepancies the oracles uncover.
//!
//! Run with `cargo run --example quickstart`.

use csi::core::value::{DataType, Value};
use csi::cross_test::{
    generator::{TestInput, Validity},
    Campaign,
};

fn main() {
    // Hand-pick three revealing inputs (the full catalogue has 422; see
    // `cargo run -p csi-bench --bin paper -- section8`).
    let inputs = vec![
        TestInput {
            id: 0,
            column_type: DataType::Byte,
            value: Value::Byte(5),
            validity: Validity::Valid,
            label: "a TINYINT value".into(),
            expected_back: None,
        },
        TestInput {
            id: 1,
            column_type: DataType::Decimal(10, 2),
            value: Value::Decimal(csi::core::value::Decimal::parse("1.5").unwrap()),
            validity: Validity::Valid,
            label: "a valid decimal with runtime scale 1".into(),
            expected_back: None,
        },
        TestInput {
            id: 2,
            column_type: DataType::Boolean,
            value: Value::Str("t".into()),
            validity: Validity::Invalid,
            label: "Hive's lenient boolean spelling".into(),
            expected_back: None,
        },
    ];

    println!("cross-testing 3 inputs through all 8 interface plans x 3 formats...\n");
    let outcome = Campaign::new(&inputs).run();
    print!("{}", outcome.report.render());

    println!("\nevidence for the first discrepancy:");
    if let Some(d) = outcome.report.discrepancies.first() {
        for f in d.evidence.iter().take(3) {
            println!("  [{}] input {}: {}", f.oracle, f.input_id, f.detail);
        }
    }

    println!(
        "\nEach of these corresponds to a real issue ({}), found by the same\n\
         write-then-read differential testing the paper applies in Section 8.",
        outcome.report.issue_keys().join(", ")
    );

    // The same space, coverage-guided: novel boundary-crossing signatures
    // admit inputs to a mutating corpus, and every discrepancy is shrunk
    // to a 1-row x 1-column reproducer.
    println!("\nexploring the same inputs coverage-guided (seed 42, budget 96)...\n");
    let explored = Campaign::new(&inputs).seed(42).explore(96).run();
    print!("{}", explored.render());
}
