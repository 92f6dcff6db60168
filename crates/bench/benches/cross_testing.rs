//! Criterion benches for the Section 8 cross-testing harness: per-plan
//! write/read costs, serializer throughput, and oracle overhead.

// The `criterion_group!` macro expands to undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use csi_core::value::{DataType, StructField, Value};
use csi_test::{generate_inputs, Campaign, Experiment};
use minihive::metastore::StorageFormat;
use std::time::Duration;

fn bench_generator(c: &mut Criterion) {
    c.bench_function("generator/full_catalogue", |b| {
        b.iter(|| std::hint::black_box(generate_inputs().len()))
    });
}

fn bench_single_experiment(c: &mut Criterion) {
    // A focused slice: 16 inputs through the Spark-to-Hive plans.
    let inputs: Vec<_> = generate_inputs().into_iter().take(16).collect();
    c.bench_function("harness/spark_to_hive_16_inputs", |b| {
        b.iter(|| {
            std::hint::black_box(
                Campaign::new(&inputs)
                    .experiments(vec![Experiment::SparkToHive])
                    .run()
                    .report
                    .distinct(),
            )
        })
    });
}

fn bench_serializers(c: &mut Criterion) {
    let schema = vec![
        StructField::new("a", DataType::Int),
        StructField::new("b", DataType::String),
        StructField::new("d", DataType::Decimal(10, 2)),
    ];
    let rows: Vec<Vec<Value>> = (0..256)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Str(format!("row-{i}")),
                Value::Decimal(csi_core::value::Decimal::new(i as i128 * 100 + 50, 10, 2).unwrap()),
            ]
        })
        .collect();
    // The columnar plane works from prebuilt typed buffers — the shape the
    // engines' bulk APIs and the campaign actually use.
    let cols = csi_core::column::columns_from_rows(schema.iter().map(|f| &f.data_type), &rows)
        .expect("three cells per row");
    let config = minispark::SparkConfig::new();
    let mut group = c.benchmark_group("serde");
    for format in StorageFormat::ALL {
        // The production writer: every statement edge transposes once and
        // lands here.
        group.bench_function(format!("spark_write_256rows/{}", format.name()), |b| {
            b.iter(|| {
                std::hint::black_box(
                    minispark::serde_layer::write_columns(format, &schema, &cols, &config)
                        .unwrap()
                        .len(),
                )
            })
        });
        // The retained row-at-a-time baseline (the pre-columnar write path,
        // byte-identical output).
        group.bench_function(
            format!("spark_write_256rows_rowpath/{}", format.name()),
            |b| {
                b.iter(|| {
                    std::hint::black_box(
                        minispark::serde_layer::write_file_rows(format, &schema, &rows, &config)
                            .unwrap()
                            .len(),
                    )
                })
            },
        );
        let bytes = minispark::serde_layer::write_columns(format, &schema, &cols, &config).unwrap();
        group.bench_function(format!("spark_read_256rows/{}", format.name()), |b| {
            b.iter(|| {
                std::hint::black_box(
                    minispark::serde_layer::read_columns(format, &schema, &bytes, &config)
                        .unwrap()
                        .len(),
                )
            })
        });
        group.bench_function(
            format!("spark_read_256rows_rowpath/{}", format.name()),
            |b| {
                b.iter(|| {
                    std::hint::black_box(
                        minispark::serde_layer::read_file_rows(format, &schema, &bytes, &config)
                            .unwrap()
                            .len(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_oracles(c: &mut Criterion) {
    use csi_core::oracle::{check_differential, Observation, ReadOutcome, WriteOutcome};
    let observations: Vec<Observation> = (0..512)
        .map(|i| Observation {
            input_id: i % 64,
            plan: format!("plan-{}", i % 8),
            format: "ORC".into(),
            write: WriteOutcome {
                result: Ok(()),
                diagnostics: vec![],
            },
            read: Some(ReadOutcome {
                result: Ok(vec![Value::Int((i % 3) as i32)]),
                diagnostics: vec![],
            }),
            trace: csi_core::boundary::InteractionTrace::default(),
            detections: vec![],
        })
        .collect();
    c.bench_function("oracle/differential_512_observations", |b| {
        b.iter_batched(
            || observations.clone(),
            |obs| std::hint::black_box(check_differential(&obs).len()),
            BatchSize::SmallInput,
        )
    });

    // Wide-table diff: the vectorized column compare (validity words +
    // typed-lane memcmp + fingerprint) against the per-cell signature
    // join it replaced, over the 9-column bulk schema at 4096 rows.
    let cols = csi_test::generator::generate_bulk_columns(4096, 42);
    let other = csi_test::generator::generate_bulk_columns(4096, 42);
    let rows: Vec<Vec<Value>> = (0..4096)
        .map(|i| cols.iter().map(|c| c.get(i)).collect())
        .collect();
    let other_rows: Vec<Vec<Value>> = (0..4096)
        .map(|i| other.iter().map(|c| c.get(i)).collect())
        .collect();
    c.bench_function("oracle/column_diff_wide_9x4096", |b| {
        b.iter(|| {
            std::hint::black_box(
                cols.iter()
                    .zip(&other)
                    .all(|(x, y)| x.canonical_eq(y) && x.fingerprint() == y.fingerprint()),
            )
        })
    });
    c.bench_function("oracle/row_diff_wide_9x4096", |b| {
        b.iter(|| {
            std::hint::black_box((0..cols.len()).all(|c| {
                let a: Vec<String> = rows.iter().map(|r| r[c].signature()).collect();
                let b: Vec<String> = other_rows.iter().map(|r| r[c].signature()).collect();
                a.join(";") == b.join(";")
            }))
        })
    });
}

fn bench_full_campaign(c: &mut Criterion) {
    // The full 422-input catalogue through all three experiments; a single
    // iteration takes seconds, so sample sparsely.
    let inputs = generate_inputs();
    let workers = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let mut group = c.benchmark_group("harness");
    group
        .sample_size(2)
        .measurement_time(Duration::from_millis(1));
    group.bench_function("full_campaign_serial", |b| {
        b.iter(|| std::hint::black_box(Campaign::new(&inputs).run().report.distinct()))
    });
    group.bench_function("full_campaign_parallel", |b| {
        b.iter(|| {
            // Campaign mode: worker pool plus drop-after-observe
            // recycling, the benchmark's `shard.obs_per_s_w2` rung.
            std::hint::black_box(
                Campaign::new(&inputs)
                    .recycle_tables(true)
                    .shards(workers)
                    .chunk_size(32)
                    .run()
                    .report
                    .distinct(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generator,
    bench_single_experiment,
    bench_serializers,
    bench_oracles,
    bench_full_campaign
);
criterion_main!(benches);
