//! Fault-matrix summary: runs the standard boundary-fault catalogue
//! against every scenario (serially and sharded), checks the two reports
//! agree byte-for-byte, and prints a JSON summary of the taxonomy —
//! how many injected-fault cells were swallowed, mistranslated,
//! propagated with context, or crashed the caller.
//!
//! Usage: `fault_matrix [seed] [workers]` — seed defaults to 42, workers
//! to the machine's available parallelism.

use csi_test::{fault_catalogue, Campaign};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// The JSON document this binary prints.
#[derive(Serialize)]
struct Summary {
    /// Campaign seed.
    seed: u64,
    /// Faults in the catalogue.
    faults: usize,
    /// Matrix cells (fault × scenario).
    cells: usize,
    /// Cells per taxonomy bucket (plus `unfired`).
    outcomes: BTreeMap<String, usize>,
    /// Distinct channels that actually fired a fault.
    channels_fired: Vec<String>,
    /// Whether the sharded report serialized identically to the serial one.
    reports_identical: bool,
    /// Serial wall time in microseconds.
    serial_micros: u64,
    /// Sharded wall time in microseconds.
    sharded_micros: u64,
    /// Worker count of the sharded run.
    workers: usize,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
    });

    let faults = fault_catalogue(seed).faults.len();
    let started = Instant::now();
    let serial = Campaign::new(&[])
        .fault_matrix(seed)
        .run()
        .matrix
        .expect("matrix mode");
    let serial_micros = started.elapsed().as_micros() as u64;

    let started = Instant::now();
    let sharded = Campaign::new(&[])
        .fault_matrix(seed)
        .shards(workers)
        .run()
        .matrix
        .expect("matrix mode");
    let sharded_micros = started.elapsed().as_micros() as u64;

    let identical = serde_json::to_string(&serial).expect("serializable")
        == serde_json::to_string(&sharded).expect("serializable");

    let mut channels: BTreeMap<String, ()> = BTreeMap::new();
    for case in &serial.cases {
        for fired in &case.fired {
            channels.insert(fired.channel.to_string(), ());
        }
    }

    let summary = Summary {
        seed,
        faults,
        cells: serial.cases.len(),
        outcomes: serial.outcomes.clone(),
        channels_fired: channels.into_keys().collect(),
        reports_identical: identical,
        serial_micros,
        sharded_micros,
        workers,
    };
    println!(
        "BENCH_fault_matrix {}",
        serde_json::to_string(&summary).expect("serializable")
    );
    assert!(
        identical,
        "sharded fault-matrix report diverged from serial"
    );
}
