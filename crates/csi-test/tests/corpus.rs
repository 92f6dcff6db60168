//! The corpus subsystem's external contracts: schema-inference edge cases
//! (empty stream, BOM, malformed UTF-8, ragged rows, overflow fallback,
//! degenerate shapes), the render → infer → render fixed point, and the
//! corpus-seeded explore guarantee — a fixed-seed corpus campaign reaches
//! coverage the 422-input catalogue alone never does.

use csi_core::value::{DataType, Value};
use csi_test::corpus::{infer, synthesize, InferError};
use csi_test::{generate_inputs, Campaign, CorpusShape, InputSelection};

// ------------------------------------------------------------------
// Inference edge cases (the satellite checklist, one by one).

#[test]
fn empty_streams_are_a_typed_error() {
    assert_eq!(infer(b"").expect_err("empty"), InferError::Empty);
    assert_eq!(infer(b"   \n\n  \n").expect_err("blank"), InferError::Empty);
    // A BOM alone is still an empty stream.
    assert_eq!(
        infer(b"\xef\xbb\xbf").expect_err("bom only"),
        InferError::Empty
    );
}

#[test]
fn utf8_bom_is_stripped_before_the_header() {
    let t = infer(b"\xef\xbb\xbfa,b\n1,2\n").expect("infers");
    assert_eq!(t.columns[0].name, "a", "BOM leaked into the header name");
    assert_eq!(t.columns[0].data_type, DataType::Int);
}

#[test]
fn malformed_utf8_degrades_to_replacement_string_data() {
    // 0xFF is not valid UTF-8 anywhere; the cell must survive as lossy
    // string data rather than failing the stream.
    let t = infer(b"a\n\xffbad\n7\n").expect("infers");
    assert_eq!(t.columns[0].data_type, DataType::String);
    match &t.columns[0].cells[0] {
        Value::Str(s) => assert!(s.contains('\u{fffd}'), "lossy marker missing: {s:?}"),
        other => panic!("expected string cell, got {other:?}"),
    }
    // And the lossy table still round-trips as a fixed point.
    let once = t.render_csv();
    assert_eq!(infer(&once).expect("re-infers").render_csv(), once);
}

#[test]
fn ragged_rows_are_padded_with_nulls() {
    let t = infer(b"a,b,c\n1,2,3\n4\n5,6\n").expect("infers");
    assert_eq!(t.columns.len(), 3);
    assert_eq!(t.columns[1].cells[1], Value::Null);
    assert_eq!(t.columns[2].cells[1], Value::Null);
    assert_eq!(t.columns[2].cells[2], Value::Null);
    // Padding is type-neutral: the columns still vote integer.
    assert!(t.columns.iter().all(|c| c.data_type == DataType::Int));
    // A row *wider* than the header grows generated column names.
    let wide = infer(b"a\n1,2\n").expect("infers");
    assert_eq!(wide.columns.len(), 2);
    assert_eq!(wide.columns[1].name, "c1");
}

#[test]
fn numeric_overflow_falls_back_to_string() {
    // 19+ digits overflow i64; 39+ total digits overflow DECIMAL(38).
    let ints = infer(b"a\n99999999999999999999\n1\n").expect("infers");
    assert_eq!(ints.columns[0].data_type, DataType::String);
    assert_eq!(
        ints.columns[0].cells[0],
        Value::Str("99999999999999999999".into()),
        "overflowed cell must keep its original text"
    );
    let decs = infer(b"a\n1234567890123456789012345678901234.56789\n").expect("infers");
    assert_eq!(decs.columns[0].data_type, DataType::String);
}

#[test]
fn degenerate_single_column_single_row_shapes_infer() {
    let single = infer(b"only\n42\n").expect("one column, one row");
    assert_eq!(single.columns.len(), 1);
    assert_eq!(single.columns[0].data_type, DataType::Int);
    assert_eq!(single.columns[0].cells, vec![Value::Int(42)]);
    // Header-only: zero rows, but columns still exist (all-null string).
    let header_only = infer(b"a,b\n").expect("header only");
    assert_eq!(header_only.columns.len(), 2);
    assert!(header_only
        .columns
        .iter()
        .all(|c| c.data_type == DataType::String && c.cells.is_empty()));
    let once = header_only.render_csv();
    assert_eq!(infer(&once).expect("re-infers").render_csv(), once);
}

#[test]
fn quoted_cells_vote_string_and_escapes_round_trip() {
    let csv = b"s\n\"a,b\"\"q\"\" c\"\n\"42\"\n";
    let t = infer(csv).expect("infers");
    assert_eq!(t.columns[0].data_type, DataType::String);
    assert_eq!(t.columns[0].cells[0], Value::Str("a,b\"q\" c".into()));
    let once = t.render_csv();
    assert_eq!(infer(&once).expect("re-infers").render_csv(), once);
}

#[test]
fn inference_round_trip_is_byte_stable_across_shapes_and_seeds() {
    for seed in 0..6u64 {
        let shape = CorpusShape {
            columns: 6 + seed as usize,
            rows: 16,
            ..CorpusShape::default()
        };
        let bytes = synthesize(&shape, seed).render_csv();
        let once = infer(&bytes).expect("infers").render_csv();
        let twice = infer(&once).expect("re-infers").render_csv();
        assert_eq!(once, twice, "fixed point violated at seed {seed}");
    }
}

#[test]
fn json_lines_round_trip_through_the_canonical_csv() {
    let stream = "{\"id\": 1, \"tag\": \"caf\u{e9}\", \"score\": 3.25}\n\
                  {\"id\": 2, \"tag\": \"b\", \"score\": 4.50, \"late\": true}\n"
        .as_bytes();
    let t = infer(stream).expect("infers");
    assert_eq!(t.columns.len(), 4);
    assert_eq!(t.columns[2].data_type, DataType::Decimal(3, 2));
    assert_eq!(t.columns[3].data_type, DataType::Boolean);
    let once = t.render_csv();
    assert_eq!(infer(&once).expect("re-infers").render_csv(), once);
}

// ------------------------------------------------------------------
// Corpus-seeded exploration.

#[test]
fn corpus_seeded_explore_reaches_coverage_the_catalogue_never_does() {
    let budget = 160;
    let seed = 42;
    let catalogue = Campaign::new(&generate_inputs())
        .seed(seed)
        .explore(budget)
        .run();
    let corpus = Campaign::new(&[])
        .corpus(CorpusShape::default(), seed)
        .seed(seed)
        .explore(budget)
        .run();
    let base = catalogue.exploration.expect("explore mode");
    let stats = corpus.exploration.clone().expect("explore mode");
    // The acceptance criterion: >= 1 signature the catalogue-only run
    // never reaches, and it is attributed to the corpus origin.
    let corpus_only = stats
        .signatures_seen
        .iter()
        .filter(|fp| !base.signatures_seen.contains(fp))
        .count();
    assert!(corpus_only >= 1, "corpus contributed no new coverage");
    assert!(stats.novel_from_corpus >= 1, "{stats:?}");
    assert!(stats.corpus.iter().any(|r| r.origin == "corpus"));
    // Every failure the corpus provokes lands in a D01–D15 class; the
    // first one that does not is a new class (ROADMAP item 1) and gets
    // named here, not silently counted.
    assert!(
        corpus.report.unattributed.is_empty(),
        "{:?}",
        corpus.report.unattributed
    );
    // The render names the corpus contribution.
    assert!(
        corpus.render().contains("novel from corpus"),
        "render lost the corpus line"
    );
}

#[test]
fn corpus_campaigns_are_deterministic_and_shard_identically() {
    let run = |shards: usize| {
        Campaign::new(&[])
            .corpus(CorpusShape::default(), 7)
            .seed(7)
            .explore(96)
            .shards(shards)
            .run()
    };
    let a = run(1);
    let b = run(1);
    let c = run(3);
    let fp = |o: &csi_test::CampaignOutcome| {
        (
            serde_json::to_string(&o.report).expect("serializable"),
            serde_json::to_string(&o.exploration).expect("serializable"),
            o.render(),
        )
    };
    assert_eq!(fp(&a), fp(&b), "same-seed corpus runs diverged");
    assert_eq!(fp(&a), fp(&c), "sharded corpus run diverged from serial");
}

#[test]
fn corpus_spec_travels_the_wire_and_runs_byte_identically() {
    let spec = csi_test::CampaignSpec {
        inputs: InputSelection::Corpus {
            shape: CorpusShape {
                columns: 6,
                rows: 12,
                ..CorpusShape::default()
            },
            seed: 9,
        },
        explore_budget: Some(48),
        formats: vec![minihive::metastore::StorageFormat::Orc],
        ..csi_test::CampaignSpec::default()
    };
    let wire = serde_json::to_string(&spec).expect("spec serializes");
    let revived: csi_test::CampaignSpec = serde_json::from_str(&wire).expect("spec parses");
    assert_eq!(revived, spec);
    let a = Campaign::from_spec(spec).expect("valid").run();
    let b = Campaign::from_spec(revived).expect("valid").run();
    assert_eq!(
        serde_json::to_string(&a.exploration).expect("serializable"),
        serde_json::to_string(&b.exploration).expect("serializable")
    );
    assert_eq!(a.render(), b.render());
}

#[test]
fn inferred_tables_feed_inline_campaigns() {
    // The inference front door produces inputs a campaign runs as-is.
    let t = infer(b"id,name,score\n1,\"a\",2.50\n2,\"b\",3.75\n").expect("infers");
    let inputs = t.inputs(0);
    let outcome = Campaign::new(&inputs)
        .formats(vec![minihive::metastore::StorageFormat::Orc])
        .run();
    assert!(
        !outcome.observations.is_empty(),
        "inferred inputs produced no observations"
    );
}
