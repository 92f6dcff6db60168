//! End-to-end tests of the `csi-serve` daemon over real TCP: concurrent
//! multi-tenant campaigns byte-identical to batch runs, streamed
//! detections arriving before the report, typed wire rejections, and
//! the journal of who asked.

use csi_core::value::DataType;
use csi_serve::{
    run_specs, CampaignRequest, CsiServer, Frame, RejectReason, ServeClient, ServeConfig,
    TenantOutcome,
};
use csi_test::inject::small_fault_catalogue;
use csi_test::plan::Experiment;
use csi_test::{
    generate_inputs, Campaign, CampaignSpec, CrossTestConfig, InputSelection, SpecError, TestInput,
};
use minihive::metastore::StorageFormat;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{Shutdown, TcpStream};

/// The server-side determinism contract: the report a tenant receives
/// over the wire, byte-for-byte.
fn batch_report_json(spec: &CampaignSpec) -> String {
    let outcome = Campaign::from_spec(spec.clone()).expect("valid spec").run();
    serde_json::to_string(&outcome.report).expect("reports serialize")
}

/// Reads the next frame, which must be a tenant-less `Malformed` reject,
/// and returns its message.
fn read_malformed(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    match serde_json::from_str(&line).expect("frame parses") {
        Frame::Rejected {
            tenant,
            reason: RejectReason::Malformed(message),
        } if tenant.is_empty() => message,
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// A small campaign spec, varied per tenant index. Every odd tenant runs
/// inputs whose report the custom-resolving Spark overrides change
/// ([`tuned_inputs`]); every fourth, from tenant 1, sets those overrides.
/// Overrides that outlived their campaign would show in the report of a
/// later odd tenant without them.
fn tenant_spec(i: usize) -> CampaignSpec {
    CampaignSpec {
        inputs: if i % 2 == 1 {
            InputSelection::Inline(tuned_inputs())
        } else {
            InputSelection::CataloguePrefix(1 + i % 3)
        },
        spark_overrides: if i % 4 == 1 {
            CrossTestConfig::custom_resolving_overrides()
        } else {
            Vec::new()
        },
        formats: vec![StorageFormat::Orc, StorageFormat::Parquet],
        shards: 1 + i % 2,
        chunk_size: 2,
        detect: i.is_multiple_of(2),
        seed: 42 + i as u64,
        ..CampaignSpec::default()
    }
}

/// The catalogue's first CHAR and first INTERVAL input.
fn tuned_inputs() -> Vec<TestInput> {
    let catalogue = generate_inputs();
    let first = |ty: fn(&DataType) -> bool| {
        catalogue
            .iter()
            .find(|i| ty(&i.column_type))
            .expect("catalogue input")
            .clone()
    };
    vec![
        first(|t| matches!(t, DataType::Char(_))),
        first(|t| matches!(t, DataType::Interval)),
    ]
}

#[test]
fn concurrent_tenants_get_byte_identical_reports() {
    let mut server = CsiServer::start(&ServeConfig {
        workers: 4,
        warm: 2,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // Eight tenants across two concurrent connections, four each.
    let requests: Vec<(String, CampaignSpec)> = (0..8)
        .map(|i| (format!("tenant-{i}"), tenant_spec(i)))
        .collect();
    let (left, right) = requests.split_at(4);
    let handles: Vec<_> = [left.to_vec(), right.to_vec()]
        .into_iter()
        .map(|batch| std::thread::spawn(move || run_specs(addr, &batch).expect("outcomes")))
        .collect();
    let outcomes: Vec<TenantOutcome> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();

    // The tuned tenants' overrides change their report, so a deployment
    // that carried them into another tenant's campaign would be visible.
    for i in (0..8).filter(|i| i % 4 == 1) {
        let tuned = tenant_spec(i);
        let plain = CampaignSpec {
            spark_overrides: Vec::new(),
            ..tuned.clone()
        };
        assert_ne!(
            batch_report_json(&tuned),
            batch_report_json(&plain),
            "the overrides do not change tenant-{i}'s report"
        );
    }

    assert_eq!(outcomes.len(), 8);
    for outcome in &outcomes {
        assert_eq!(outcome.rejected, None, "tenant {}", outcome.tenant);
        let i: usize = outcome.tenant["tenant-".len()..].parse().expect("index");
        let wire = outcome.report_json.as_ref().expect("report arrived");
        assert_eq!(
            *wire,
            batch_report_json(&tenant_spec(i)),
            "wire report for {} differs from the batch run",
            outcome.tenant
        );
        assert!(outcome.render.as_ref().is_some_and(|r| !r.is_empty()));
    }

    // Every tenant is in the journal.
    let mut tenants = server.registry().tenants();
    tenants.sort();
    assert_eq!(
        tenants,
        (0..8).map(|i| format!("tenant-{i}")).collect::<Vec<_>>()
    );
    server.shutdown();
}

#[test]
fn corpus_specs_run_over_the_wire_byte_identically_to_batch() {
    // A tenant references a corpus *shape* over the wire — both ends
    // synthesize the identical inputs, so the daemon's report matches a
    // local batch run byte-for-byte, corpus coverage included.
    let mut server = CsiServer::start(&ServeConfig::default()).expect("server starts");
    let spec = CampaignSpec {
        inputs: InputSelection::Corpus {
            shape: csi_test::CorpusShape {
                columns: 6,
                rows: 12,
                ..csi_test::CorpusShape::default()
            },
            seed: 9,
        },
        explore_budget: Some(48),
        formats: vec![StorageFormat::Orc],
        ..CampaignSpec::default()
    };
    let outcomes =
        run_specs(server.addr(), &[("corpus-tenant".into(), spec.clone())]).expect("outcomes");
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].rejected, None);
    let wire = outcomes[0].report_json.as_ref().expect("report arrived");
    assert_eq!(*wire, batch_report_json(&spec));
    // The render the tenant got names the corpus contribution.
    assert!(
        outcomes[0]
            .render
            .as_ref()
            .is_some_and(|r| r.contains("novel from corpus")),
        "wire render lost the corpus coverage line"
    );

    // A shape the synthesizer rejects is a typed wire rejection.
    let bad = CampaignSpec {
        inputs: InputSelection::Corpus {
            shape: csi_test::CorpusShape {
                rows: 0,
                ..csi_test::CorpusShape::default()
            },
            seed: 1,
        },
        ..CampaignSpec::default()
    };
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    client.submit("corpus-bad", &bad).expect("submit");
    match client.read_frame().expect("frame") {
        Frame::Rejected {
            reason: RejectReason::InvalidSpec(SpecError::BadCorpusShape { reason }),
            ..
        } => assert!(reason.contains("rows"), "{reason}"),
        other => panic!("expected BadCorpusShape rejection, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn detections_stream_before_the_final_report() {
    let mut server = CsiServer::start(&ServeConfig::default()).expect("server starts");
    // A matrix campaign over a small armed catalogue reliably detects.
    let spec = CampaignSpec {
        inputs: InputSelection::Inline(Vec::new()),
        matrix_seed: Some(5),
        faults: Some(small_fault_catalogue(5)),
        experiments: vec![Experiment::ALL[0]],
        formats: vec![StorageFormat::Orc],
        detect: true,
        ..CampaignSpec::default()
    };

    let mut client = ServeClient::connect(server.addr()).expect("connect");
    client.submit("streamer", &spec).expect("submit");
    let mut detections_before_report = 0;
    let report = loop {
        match client.read_frame().expect("frame") {
            Frame::Accepted { tenant, .. } => assert_eq!(tenant, "streamer"),
            Frame::Detection { detection, .. } => {
                detections_before_report += 1;
                assert!(!detection.scenario.is_empty());
            }
            Frame::Report { detections, .. } => break detections,
            Frame::Rejected { reason, .. } => panic!("rejected: {reason}"),
        }
    };
    assert!(
        detections_before_report > 0,
        "no detection frames arrived before the report"
    );
    assert_eq!(
        detections_before_report, report,
        "report's detection count disagrees with the streamed frames"
    );
    server.shutdown();
}

#[test]
fn invalid_requests_are_rejected_with_typed_reasons() {
    let mut server = CsiServer::start(&ServeConfig::default()).expect("server starts");
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    // An invalid spec carries the same typed error as Campaign::from_spec.
    let bad_spec = CampaignSpec {
        shards: csi_test::MAX_SHARDS + 1,
        ..CampaignSpec::default()
    };
    client.submit("tenant-a", &bad_spec).expect("submit");
    let frame = client.read_frame().expect("frame");
    assert_eq!(
        frame,
        Frame::Rejected {
            tenant: "tenant-a".into(),
            reason: RejectReason::InvalidSpec(SpecError::BadShards {
                shards: csi_test::MAX_SHARDS + 1,
                max: csi_test::MAX_SHARDS,
            }),
        }
    );

    // A revived spec cannot size the override list: the bound is the
    // spec's own, not the request line's.
    let unbounded = CampaignSpec {
        spark_overrides: vec![("k".into(), "v".into()); csi_test::MAX_OVERRIDES + 1],
        ..CampaignSpec::default()
    };
    client.submit("tenant-a", &unbounded).expect("submit");
    match client.read_frame().expect("frame") {
        Frame::Rejected {
            reason: RejectReason::InvalidSpec(SpecError::BadOverrides { reason }),
            ..
        } => assert!(reason.contains("65 overrides"), "{reason}"),
        other => panic!("expected BadOverrides, got {other:?}"),
    }
    // The connection lives on, and the paper's own override list runs.
    let custom = CampaignSpec {
        inputs: InputSelection::CataloguePrefix(1),
        spark_overrides: csi_test::CrossTestConfig::custom_resolving_overrides(),
        ..CampaignSpec::default()
    };
    client.submit("tenant-a", &custom).expect("submit");
    let outcomes = client.collect(1).expect("frames");
    assert_eq!(outcomes[0].rejected, None);
    assert_eq!(
        outcomes[0].report_json.as_deref(),
        Some(batch_report_json(&custom).as_str())
    );
    // Nor can it give two inline inputs one id: ids name the tables, so
    // the pair would share every one of them.
    let twin = InputSelection::CataloguePrefix(1).resolve().remove(0);
    let twins = CampaignSpec {
        inputs: InputSelection::Inline(vec![twin.clone(), twin]),
        ..CampaignSpec::default()
    };
    client.submit("tenant-a", &twins).expect("submit");
    match client.read_frame().expect("frame") {
        Frame::Rejected {
            reason: RejectReason::InvalidSpec(SpecError::BadInputs { reason }),
            ..
        } => assert!(reason.contains("id 0 appears more than once"), "{reason}"),
        other => panic!("expected BadInputs, got {other:?}"),
    }
    // ... or name a format twice, for the same reason.
    let twice = CampaignSpec {
        formats: vec![StorageFormat::Orc, StorageFormat::Orc],
        ..CampaignSpec::default()
    };
    client.submit("tenant-a", &twice).expect("submit");
    match client.read_frame().expect("frame") {
        Frame::Rejected {
            reason: RejectReason::InvalidSpec(SpecError::RepeatedAxis { reason }),
            ..
        } => assert_eq!(reason, "formats lists Orc more than once"),
        other => panic!("expected RepeatedAxis, got {other:?}"),
    }
    // A bad tenant name never reaches the scheduler.
    client
        .submit("Tenant A", &CampaignSpec::default())
        .expect("submit");
    match client.read_frame().expect("frame") {
        Frame::Rejected {
            reason: RejectReason::BadTenantName(name),
            ..
        } => assert_eq!(name, "Tenant A"),
        other => panic!("expected BadTenantName, got {other:?}"),
    }

    // A line that is not a request at all is answered, not dropped — and
    // 10,000 bytes of open brackets are such a line, not a stack overflow
    // on the connection's thread that takes every tenant down with it.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let mut frames = BufReader::new(raw.try_clone().expect("clone"));
    for hostile in ["not json", &"[".repeat(10_000), &"{\"a\":".repeat(2_000)] {
        raw.write_all(format!("{hostile}\n").as_bytes())
            .expect("write");
        read_malformed(&mut frames);
    }
    let next = CampaignRequest {
        tenant: "tenant-b".into(),
        spec: custom,
    };
    let next = serde_json::to_string(&next).expect("requests serialize");
    // A request RFC 8259 refuses is refused with the parser's reason, not
    // read as a neighbour: a signed `\u` escape is not `b`, `02` is not 2
    // and `2.` is not 2.0.
    let field = "\"chunk_size\":";
    let digits = next.find(field).expect("a numeric field") + field.len();
    let end = digits
        + next[digits..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("a number");
    for (flawed, reason) in [
        (
            next.replace("\"tenant-b\"", r#""tenant-\u+062""#),
            "invalid unicode escape",
        ),
        (
            format!("{}0{}", &next[..digits], &next[digits..]),
            "invalid number: leading zero",
        ),
        (
            format!("{}.{}", &next[..end], &next[end..]),
            "invalid number: no digit after the decimal point",
        ),
    ] {
        raw.write_all(format!("{flawed}\n").as_bytes())
            .expect("write");
        let message = read_malformed(&mut frames);
        assert!(message.contains(reason), "{flawed}: {message}");
    }
    // The same connection then has its next request accepted.
    raw.write_all(format!("{next}\n").as_bytes())
        .expect("write");
    let mut line = String::new();
    frames.read_line(&mut line).expect("read");
    assert_eq!(
        serde_json::from_str::<Frame>(&line).expect("frame parses"),
        Frame::Accepted {
            tenant: "tenant-b".into(),
            queue_depth: 1,
        }
    );
    server.shutdown();
}

/// A client that never sends a newline cannot grow the reader's buffer
/// past `MAX_REQUEST_BYTES`: it is answered and hung up on, a non-UTF-8
/// line gets the same typed reject, and neither disturbs anyone else.
#[test]
fn oversized_and_non_utf8_lines_are_rejected_without_stalling_other_connections() {
    let mut server = CsiServer::start(&ServeConfig::default()).expect("server starts");

    // 5 MiB, no newline, ever. The first MiB leaves the server's reader
    // parked mid-line while a well-behaved connection gets its report.
    let mut hostile = TcpStream::connect(server.addr()).expect("connect");
    hostile.write_all(&vec![b'x'; 1 << 20]).expect("write");
    let spec = tenant_spec(0);
    let outcomes = run_specs(server.addr(), &[("bystander".to_string(), spec.clone())])
        .expect("bystander is served");
    assert_eq!(
        outcomes[0].report_json.as_deref(),
        Some(batch_report_json(&spec).as_str())
    );
    // The server hangs up once past the cap, so the tail of this write
    // may fail with a reset connection.
    let _ = hostile.write_all(&vec![b'x'; 4 << 20]);
    let mut hostile = BufReader::new(hostile);
    assert_eq!(
        read_malformed(&mut hostile),
        format!("request exceeds {} bytes", csi_serve::MAX_REQUEST_BYTES)
    );
    // ... and the connection is closed: nothing more arrives.
    let mut rest = Vec::new();
    let _ = hostile.read_to_end(&mut rest);
    assert!(rest.is_empty(), "{} stray bytes", rest.len());

    // Invalid UTF-8 is answered in kind, and the connection lives on.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(b"\xff\xfe\nnot json\n").expect("write");
    let mut raw = BufReader::new(raw);
    assert!(read_malformed(&mut raw).contains("utf-8"));
    read_malformed(&mut raw);
    server.shutdown();
}

/// `protocol.rs` promises `Accepted`, then detections, then `Report`, per
/// request. A campaign short enough to finish on an idle worker while the
/// reader is still answering is the one that can break it, so run many,
/// each against an idle daemon.
#[test]
fn accepted_precedes_every_other_frame_of_its_campaign() {
    let mut server = CsiServer::start(&ServeConfig::default()).expect("server starts");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let spec = CampaignSpec {
        inputs: InputSelection::CataloguePrefix(1),
        experiments: vec![Experiment::ALL[0]],
        formats: vec![StorageFormat::Orc],
        detect: true,
        ..CampaignSpec::default()
    };
    for i in 0..200 {
        client.submit("in-order", &spec).expect("submit");
        let first = client.read_frame().expect("frame");
        assert!(
            matches!(first, Frame::Accepted { .. }),
            "request {i}: a later frame of the campaign arrived before `Accepted`"
        );
        while !client.read_frame().expect("frame").is_terminal() {}
    }
    server.shutdown();
}

/// A client that has said all it will say still hears every answer: it
/// shuts its write side with campaigns in flight, and the EOF that ends
/// the daemon's reader ends neither the campaigns nor their frames.
#[test]
fn a_half_closed_connection_still_gets_every_frame() {
    let mut server = CsiServer::start(&ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let lines: String = (0..8)
        .map(|i| {
            let request = CampaignRequest {
                tenant: format!("half-{i}"),
                spec: tenant_spec(i),
            };
            serde_json::to_string(&request).expect("requests serialize") + "\n"
        })
        .collect();
    raw.write_all(lines.as_bytes()).expect("write");
    raw.shutdown(Shutdown::Write).expect("half-close");
    // A daemon that never hangs up fails the test instead of hanging it.
    raw.set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("timeout");
    let (mut accepted, mut reports) = (0, 0);
    for line in BufReader::new(raw).lines() {
        match serde_json::from_str(&line.expect("read")).expect("frame parses") {
            Frame::Accepted { .. } => accepted += 1,
            Frame::Detection { .. } => {}
            Frame::Report { .. } => reports += 1,
            Frame::Rejected { reason, .. } => panic!("rejected: {reason}"),
        }
    }
    assert_eq!((accepted, reports), (8, 8), "frames before EOF");

    let spec = tenant_spec(0);
    let outcomes =
        run_specs(server.addr(), &[("after".to_string(), spec.clone())]).expect("still serving");
    assert_eq!(
        outcomes[0].report_json.as_deref(),
        Some(batch_report_json(&spec).as_str())
    );
    server.shutdown();
}

/// Shutdown leaves no reader behind: a client still connected and idle
/// has its reader ended and joined, and hears the connection close.
#[test]
fn shutdown_joins_the_reader_of_a_connected_client() {
    let mut server = CsiServer::start(&ServeConfig::default()).expect("server starts");
    let raw = TcpStream::connect(server.addr()).expect("connect");
    // A daemon that never hangs up fails the test instead of hanging it.
    raw.set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("timeout");
    (&raw).write_all(b"not json\n").expect("write");
    let mut frames = BufReader::new(&raw);
    read_malformed(&mut frames);
    server.shutdown();
    let mut rest = Vec::new();
    frames.read_to_end(&mut rest).expect("EOF, not a timeout");
    assert!(rest.is_empty(), "{} stray bytes", rest.len());
}

#[test]
fn backlogged_tenants_hit_admission_control() {
    // One worker, tiny per-tenant slice: occupy the worker with a slow
    // campaign, then flood one tenant past its cap.
    let mut server = CsiServer::start(&ServeConfig {
        workers: 1,
        warm: 0,
        max_queue: 16,
        per_tenant_queue: 2,
    })
    .expect("server starts");
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    let slow = CampaignSpec {
        inputs: InputSelection::CataloguePrefix(128),
        detect: true,
        ..CampaignSpec::default()
    };
    client.submit("blocker", &slow).expect("submit");
    match client.read_frame().expect("frame") {
        Frame::Accepted { tenant, .. } => assert_eq!(tenant, "blocker"),
        other => panic!("expected Accepted, got {other:?}"),
    }
    // Give the single worker a moment to pick the blocker up.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let quick = CampaignSpec {
        inputs: InputSelection::CataloguePrefix(1),
        ..CampaignSpec::default()
    };
    let mut accepted = 0;
    let mut backlogged = 0;
    let mut terminals = 0;
    for _ in 0..6 {
        client.submit("flood", &quick).expect("submit");
        // The admission verdict for `flood` can interleave with frames
        // from campaigns already running; demux by tenant.
        loop {
            let frame = client.read_frame().expect("frame");
            if frame.is_terminal() {
                terminals += 1;
            }
            match frame {
                Frame::Accepted { tenant, .. } if tenant == "flood" => {
                    accepted += 1;
                    break;
                }
                Frame::Rejected {
                    tenant,
                    reason: RejectReason::TenantBacklog { limit, .. },
                } if tenant == "flood" => {
                    assert_eq!(limit, 2);
                    backlogged += 1;
                    terminals -= 1; // admission verdicts are not campaign ends
                    break;
                }
                Frame::Detection { .. } | Frame::Report { .. } => {}
                other => panic!("unexpected frame during flood: {other:?}"),
            }
        }
    }
    assert_eq!(
        accepted, 2,
        "exactly the per-tenant slice should be admitted while the worker is busy"
    );
    assert_eq!(backlogged, 4);

    // Everything admitted still completes once the worker frees up:
    // one report for the blocker plus one per admitted flood campaign.
    while terminals < 1 + accepted {
        if let Frame::Report { .. } = client.read_frame().expect("frame") {
            terminals += 1;
        }
    }
    server.shutdown();
}

#[test]
fn idle_round_trips_do_not_wait_for_delayed_ack() {
    // One request at a time on an otherwise idle connection: nothing
    // else is in flight to carry an ACK, so a frame split across two
    // writes on a Nagle socket waits out the peer's delayed-ACK timer
    // (~40 ms) — once per direction. The threshold excludes that timer;
    // it is not a speed floor for the campaign itself.
    let mut server = CsiServer::start(&ServeConfig {
        workers: 1,
        warm: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let spec = CampaignSpec {
        inputs: InputSelection::CataloguePrefix(1),
        ..CampaignSpec::default()
    };
    let mut round_trips: Vec<std::time::Duration> = (0..64)
        .map(|_| {
            let sent = std::time::Instant::now();
            client.submit("idle", &spec).expect("submit");
            let outcomes = client.collect(1).expect("outcome");
            assert!(outcomes[0].report_json.is_some(), "campaign finished");
            sent.elapsed()
        })
        .collect();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(20),
        "median idle round trip {median:?} (min {:?}, max {:?})",
        round_trips[0],
        round_trips[round_trips.len() - 1]
    );
    assert_eq!(server.registry().recent("idle").len(), 64);
    server.shutdown();
}
