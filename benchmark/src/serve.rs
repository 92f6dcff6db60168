//! Workload `serve`: `csi-serve` in-process on loopback TCP, one client
//! connection (one sender thread, one receiver thread), 64 tenants drawn
//! Zipf(1), a 6/1/1 light/heavy/detect spec mix. Phase A is a train of
//! closed bursts that measures capacity; phase B offers fixed rates open
//! loop, each drained before the next (`r_mid` in the untraced run, all
//! three in the traced one). Campaigns are small, so
//! framing, JSON, journaling, fair queueing and the warm pool dominate,
//! not `exec`.

use crate::args::Args;
use crate::harness::{self, Rng};
use crate::ladder::Stack;
use crate::machine::Flavour;
use crate::metrics::RunResult;
use crate::openloop::{self, Pace, Rung};
use crate::stats;
use crate::trace::Tracer;
use csi_core::detect::DetectionTap;
use csi_serve::{CampaignRequest, CsiServer, FairScheduler, Frame, ServeConfig, TenantRegistry};
use csi_test::inject::small_fault_catalogue;
use csi_test::plan::Experiment;
use csi_test::{Campaign, CampaignOutcome, CampaignSpec, InputSelection};
use minihive::metastore::StorageFormat;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tenants sharing the daemon.
pub const TENANTS: usize = 64;
/// Outstanding requests a closed burst keeps in flight: enough to keep
/// both workers and the fair queue busy, few enough to drain in ~0.1 s.
const WINDOW: u64 = 32;
/// Phase A is a train of closed bursts of this many campaigns (about a
/// second each), one burst per second of its share of `--seconds`,
/// with the reference kernel read in the drained gap between them: a
/// burst saturates both cores, so the host's speed cannot be read while
/// one runs. Counted, not timed, so that a run serves the same requests
/// whatever the host's speed and `peak_rss_mb` (the tenants' journals)
/// stays comparable.
const BURST_CAMPAIGNS: usize = 256;
/// Kernel readings taken on each core in each gap between bursts (their
/// median counts).
const GAP_READINGS: usize = 5;
/// Campaigns served before measuring.
const WARMUP: usize = 200;

/// The three offered rates, campaigns/s, frozen from `--calibrate` on the
/// commit named in README.md: about 0.13, 0.32 and 1.5 of the closed-burst
/// capacity C at reference speed measured there (316). Rates are offered
/// in real time, and this host runs anywhere from 0.4x to 1x reference
/// speed within minutes, so `r_mid` sits where the slowest spell seen
/// still leaves it under capacity; a rate at 0.6 C would tip over in
/// every slow spell. `r_hi` is over capacity by design.
pub const RATES: [(&str, f64); 3] = [("r_lo", 40.0), ("r_mid", 100.0), ("r_hi", 480.0)];

/// The daemon under test.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        warm: 2,
        // Sized so the over-capacity rung backs up instead of refusing:
        // it fails the limit, but every campaign completes.
        max_queue: 8192,
        per_tenant_queue: 1024,
    }
}

/// The three campaign shapes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 4 inputs × 8 plans × 2 formats, about 2 ms.
    Light,
    /// 64 inputs × 8 plans × 2 formats, about 27 ms.
    Heavy,
    /// A small fault matrix with the online detector; streams
    /// `Detection` frames before its report.
    Detect,
}

impl Kind {
    /// Every kind, in index order.
    pub const ALL: [Kind; 3] = [Kind::Light, Kind::Heavy, Kind::Detect];
    /// One block of the mix: 6/8 light, 1/8 heavy, 1/8 detect.
    const BLOCK: [Kind; 8] = [
        Kind::Light,
        Kind::Light,
        Kind::Light,
        Kind::Light,
        Kind::Light,
        Kind::Light,
        Kind::Heavy,
        Kind::Detect,
    ];

    fn index(self) -> usize {
        self as usize
    }

    /// The spec a request of this kind carries.
    pub fn spec(self) -> CampaignSpec {
        let prefix = |n| CampaignSpec {
            inputs: InputSelection::CataloguePrefix(n),
            formats: vec![StorageFormat::Orc, StorageFormat::Parquet],
            ..CampaignSpec::default()
        };
        match self {
            Kind::Light => prefix(4),
            Kind::Heavy => prefix(64),
            Kind::Detect => CampaignSpec {
                inputs: InputSelection::Inline(Vec::new()),
                matrix_seed: Some(5),
                faults: Some(small_fault_catalogue(5)),
                experiments: vec![Experiment::ALL[0]],
                formats: vec![StorageFormat::Orc],
                detect: true,
                ..CampaignSpec::default()
            },
        }
    }
}

/// One request of the generated load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// Tenant rank, 0 the hottest.
    pub tenant: usize,
    /// Campaign shape.
    pub kind: Kind,
}

/// Generates `n` requests from `seed`: tenants Zipf(1) over [`TENANTS`],
/// kinds in shuffled blocks of eight so every block holds the exact mix.
pub fn plan(seed: u64, stream: u64, n: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed, stream);
    let weights: Vec<f64> = (1..=TENANTS).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(TENANTS);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut out = Vec::with_capacity(n);
    let mut block = Kind::BLOCK;
    while out.len() < n {
        rng.shuffle(&mut block);
        for kind in block {
            let u = rng.unit();
            let tenant = cdf.partition_point(|&c| c <= u).min(TENANTS - 1);
            out.push(Req { tenant, kind });
            if out.len() == n {
                break;
            }
        }
    }
    out
}

/// What an in-process run of one kind's spec produces: the bytes every
/// served report of that kind must equal, and the counts behind the
/// throughput metrics.
pub struct Reference {
    outcome: CampaignOutcome,
    report_json: String,
    /// `Detection` frames a served campaign of this kind streams.
    detections: usize,
    observations: usize,
    cells: usize,
}

fn reference(kind: Kind) -> Reference {
    let streamed = Arc::new(AtomicUsize::new(0));
    let counter = streamed.clone();
    let tap = DetectionTap::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    });
    let outcome = Campaign::from_spec(kind.spec())
        .expect("the mix's specs are valid")
        .detection_tap(tap)
        .run();
    let report_json = serde_json::to_string(&outcome.report).expect("reports serialize");
    Reference {
        report_json,
        detections: streamed.load(Ordering::SeqCst),
        observations: outcome.observations.len()
            + outcome.matrix.as_ref().map_or(0, |m| m.cases.len()),
        cells: crate::grid::cells_read(&outcome.observations),
        outcome,
    }
}

/// The request line of every (tenant, kind), serialised once: the sender
/// thread only sleeps and writes.
fn request_lines() -> Vec<String> {
    let mut lines = Vec::with_capacity(TENANTS * Kind::ALL.len());
    for tenant in 0..TENANTS {
        for kind in Kind::ALL {
            let request = CampaignRequest {
                tenant: tenant_name(tenant),
                spec: kind.spec(),
            };
            let mut line = serde_json::to_string(&request).expect("requests serialize");
            line.push('\n');
            lines.push(line);
        }
    }
    lines
}

fn tenant_name(rank: usize) -> String {
    format!("t{rank:02}")
}

fn tenant_rank(name: &str) -> Option<usize> {
    name.strip_prefix('t')?
        .parse()
        .ok()
        .filter(|&r| r < TENANTS)
}

/// Everything the client learnt about one request, in ns since the
/// phase's base instant.
#[derive(Debug, Clone)]
pub struct Record {
    /// What was asked.
    pub req: Req,
    /// When the request was due (closed burst: when it was sent).
    pub due_ns: u64,
    /// When the sender wrote it.
    pub sent_ns: u64,
    /// When the `Accepted` frame arrived (0 if none).
    pub accepted_ns: u64,
    /// When the first `Detection` frame arrived (0 if none).
    pub first_detection_ns: u64,
    /// When the terminal frame arrived (0 if none).
    pub report_ns: u64,
    /// The `campaign_micros` the `Report` frame carried.
    pub campaign_micros: u64,
    /// Queue depth the `Accepted` frame reported.
    pub queue_depth: usize,
    /// A `Report` arrived, byte-identical to the in-process run.
    pub ok: bool,
}

impl Record {
    /// Due → `Report`, ms.
    pub fn latency_ms(&self) -> f64 {
        self.report_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Demultiplexing state shared by the sender and the receiver.
struct Flight {
    records: Vec<Record>,
    /// Request ids in send order, awaiting their admission verdict
    /// (verdicts come back in request order on one connection).
    awaiting_verdict: VecDeque<usize>,
    /// Per (tenant, kind): ids awaiting their `Report`, oldest first.
    awaiting_report: Vec<VecDeque<usize>>,
    /// Per tenant: detect ids still owed `Detection` frames, with the
    /// number seen so far.
    awaiting_detections: Vec<VecDeque<(usize, usize)>>,
    rejected: u64,
    detection_frames: u64,
}

impl Flight {
    fn new(capacity: usize) -> Flight {
        Flight {
            records: Vec::with_capacity(capacity),
            awaiting_verdict: VecDeque::new(),
            awaiting_report: vec![VecDeque::new(); TENANTS * Kind::ALL.len()],
            awaiting_detections: vec![VecDeque::new(); TENANTS],
            rejected: 0,
            detection_frames: 0,
        }
    }

    fn slot(req: Req) -> usize {
        req.tenant * Kind::ALL.len() + req.kind.index()
    }

    fn sent(&mut self, req: Req, due_ns: u64, sent_ns: u64, detections: usize) {
        let id = self.records.len();
        self.records.push(Record {
            req,
            due_ns,
            sent_ns,
            accepted_ns: 0,
            first_detection_ns: 0,
            report_ns: 0,
            campaign_micros: 0,
            queue_depth: 0,
            ok: false,
        });
        self.awaiting_verdict.push_back(id);
        self.awaiting_report[Flight::slot(req)].push_back(id);
        if req.kind == Kind::Detect && detections > 0 {
            self.awaiting_detections[req.tenant].push_back((id, 0));
        }
    }

    /// The oldest request of `tenant` still awaiting a report, any kind.
    fn oldest_of_tenant(&mut self, tenant: usize) -> Option<usize> {
        let slots = tenant * Kind::ALL.len()..(tenant + 1) * Kind::ALL.len();
        let slot = slots
            .filter(|&s| !self.awaiting_report[s].is_empty())
            .min_by_key(|&s| self.awaiting_report[s][0])?;
        self.awaiting_report[slot].pop_front()
    }

    /// Folds one frame in. Returns whether it ended a request.
    fn frame(&mut self, frame: Frame, at_ns: u64, refs: &[Reference]) -> bool {
        match frame {
            Frame::Accepted { queue_depth, .. } => {
                if let Some(id) = self.awaiting_verdict.pop_front() {
                    self.records[id].accepted_ns = at_ns;
                    self.records[id].queue_depth = queue_depth;
                }
                false
            }
            Frame::Detection { tenant, .. } => {
                self.detection_frames += 1;
                if let Some(rank) = tenant_rank(&tenant) {
                    let expect = refs[Kind::Detect.index()].detections;
                    let queue = &mut self.awaiting_detections[rank];
                    if let Some((id, seen)) = queue.front_mut() {
                        if *seen == 0 {
                            self.records[*id].first_detection_ns = at_ns;
                        }
                        *seen += 1;
                        if *seen >= expect {
                            queue.pop_front();
                        }
                    }
                }
                false
            }
            Frame::Rejected { tenant, .. } => {
                self.rejected += 1;
                // An admission verdict answers the oldest unanswered
                // request; a post-admission failure ends the tenant's
                // oldest running one. Either way that request failed.
                let id = match self.awaiting_verdict.front() {
                    Some(&id) if tenant_rank(&tenant) == Some(self.records[id].req.tenant) => {
                        self.awaiting_verdict.pop_front();
                        let slot = Flight::slot(self.records[id].req);
                        self.awaiting_report[slot].retain(|&x| x != id);
                        Some(id)
                    }
                    _ => tenant_rank(&tenant).and_then(|rank| self.oldest_of_tenant(rank)),
                };
                if let Some(id) = id {
                    self.records[id].report_ns = at_ns;
                }
                true
            }
            Frame::Report {
                tenant,
                campaign_micros,
                detections,
                report_json,
                ..
            } => {
                let Some(rank) = tenant_rank(&tenant) else {
                    return true;
                };
                // The report says which kind it answers by what it is.
                let kind = Kind::ALL.into_iter().find(|k| {
                    let r = &refs[k.index()];
                    r.report_json == report_json && r.detections == detections
                });
                let id = match kind {
                    Some(kind) => self.awaiting_report[Flight::slot(Req { tenant: rank, kind })]
                        .pop_front()
                        .map(|id| (id, true)),
                    None => self.oldest_of_tenant(rank).map(|id| (id, false)),
                };
                if let Some((id, ok)) = id {
                    let record = &mut self.records[id];
                    record.report_ns = at_ns;
                    record.campaign_micros = campaign_micros;
                    record.ok = ok;
                }
                true
            }
        }
    }
}

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
enum Pacing {
    /// Keep [`WINDOW`] requests outstanding until all are sent, then
    /// drain.
    Closed,
    /// Send request `i` at `i / rate` seconds, whatever came back.
    Open(f64),
}

/// What a phase measured.
pub struct Phase {
    /// One record per request, in send order.
    pub records: Vec<Record>,
    /// Outstanding requests when half had been sent.
    pub outstanding_mid: u64,
    /// Outstanding requests when the last had been sent.
    pub outstanding_end: u64,
    /// `Rejected` frames received.
    pub rejected: u64,
    /// `Detection` frames received.
    pub detection_frames: u64,
    /// First send → last terminal frame, s.
    pub wall_s: f64,
    /// When the phase's clock started, for placing spans.
    pub base: Instant,
}

impl Phase {
    /// Requests that were not answered correctly.
    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).count() as u64
    }

    fn latencies_ms(&self, keep: impl Fn(&Record) -> bool) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.ok && keep(r))
            .map(Record::latency_ms)
            .collect()
    }

    fn rung(&self, rate: f64) -> Rung {
        Rung {
            rate,
            latencies_ms: self.latencies_ms(|_| true),
            failed: self.failed(),
            outstanding_mid: self.outstanding_mid,
            outstanding_end: self.outstanding_end,
        }
    }
}

/// One client connection: a write half for the sender thread and a
/// buffered read half for the receiver thread.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(server: &CsiServer) -> Conn {
        let writer = TcpStream::connect(server.addr()).expect("connect to the daemon");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the stream"));
        Conn { writer, reader }
    }
}

fn ns_since(base: Instant) -> u64 {
    u64::try_from(base.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sleeps most of a wait and yields through the rest, so the sender is
/// neither late by a scheduler quantum nor burning a core it shares with
/// the daemon.
fn wait(ns: u64) {
    if ns > 300_000 {
        std::thread::sleep(Duration::from_nanos(ns - 200_000));
    } else {
        std::thread::yield_now();
    }
}

/// Runs one phase: the sender paces `requests` onto the connection while
/// the receiver timestamps and demultiplexes every frame, until each
/// request has its terminal frame (or the daemon hangs up).
fn run_phase(
    conn: &mut Conn,
    refs: &[Reference],
    lines: &[String],
    requests: &[Req],
    pacing: Pacing,
) -> Phase {
    let n = requests.len();
    let base = Instant::now();
    let flight = Mutex::new(Flight::new(n));
    let sent = AtomicU64::new(0);
    let terminal = AtomicU64::new(0);
    // How many terminal frames end the phase; lowered only when the sender
    // has to stop early.
    let target = AtomicU64::new(n as u64);
    let mut outstanding = (0u64, 0u64);
    let detect_frames = refs[Kind::Detect.index()].detections;
    let Conn { writer, reader } = conn;
    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut line = String::new();
            while terminal.load(Ordering::SeqCst) < target.load(Ordering::SeqCst) {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break, // the daemon hung up
                    Ok(_) => {}
                }
                let at_ns = ns_since(base);
                let Ok(frame) = serde_json::from_str::<Frame>(&line) else {
                    continue;
                };
                let ended = flight
                    .lock()
                    .expect("flight lock")
                    .frame(frame, at_ns, refs);
                if ended {
                    harness::end_op(true);
                    terminal.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        for (i, &req) in requests.iter().enumerate() {
            let due_ns = match pacing {
                Pacing::Closed => {
                    while sent.load(Ordering::SeqCst) - terminal.load(Ordering::SeqCst) >= WINDOW {
                        if receiver.is_finished() {
                            break;
                        }
                        wait(100_000);
                    }
                    ns_since(base)
                }
                Pacing::Open(rate) => {
                    let due = openloop::due_ns(i as u64, rate);
                    while let Pace::Wait(ns) = openloop::pace(ns_since(base), due) {
                        wait(ns);
                    }
                    due
                }
            };
            if receiver.is_finished() {
                break;
            }
            harness::begin_op();
            flight
                .lock()
                .expect("flight lock")
                .sent(req, due_ns, ns_since(base), detect_frames);
            sent.fetch_add(1, Ordering::SeqCst);
            if writer
                .write_all(lines[Flight::slot(req)].as_bytes())
                .is_err()
            {
                break;
            }
            let in_flight = sent.load(Ordering::SeqCst) - terminal.load(Ordering::SeqCst);
            if i + 1 == n.div_ceil(2) {
                outstanding.0 = in_flight;
            }
            if i + 1 == n {
                outstanding.1 = in_flight;
            }
        }
        // If the sender stopped early (the daemon hung up), the receiver
        // must not wait for frames that will never come.
        target.fetch_min(sent.load(Ordering::SeqCst), Ordering::SeqCst);
    });
    let flight = flight.into_inner().expect("flight lock");
    let first = flight.records.iter().map(|r| r.sent_ns).min().unwrap_or(0);
    let last = flight
        .records
        .iter()
        .map(|r| r.report_ns)
        .max()
        .unwrap_or(0);
    // Requests never answered stay in flight for the watchdog's count but
    // must not leak into the next phase's.
    for record in &flight.records {
        if record.report_ns == 0 {
            harness::end_op(false);
        } else if !record.ok {
            harness::FAILED.fetch_add(1, Ordering::SeqCst);
        }
    }
    Phase {
        records: flight.records,
        outstanding_mid: outstanding.0,
        outstanding_end: outstanding.1,
        rejected: flight.rejected,
        detection_frames: flight.detection_frames,
        wall_s: last.saturating_sub(first) as f64 / 1e9,
        base,
    }
}

/// A started daemon with one client connection and everything the client
/// pre-computed. Field order is drop order: the connection closes before
/// the daemon shuts down.
struct Bench {
    conn: Conn,
    server: CsiServer,
    refs: Vec<Reference>,
    lines: Vec<String>,
}

fn setup(seed: u64) -> Bench {
    let refs: Vec<Reference> = Kind::ALL.into_iter().map(reference).collect();
    let lines = request_lines();
    let server = CsiServer::start(&serve_config()).expect("daemon starts");
    let mut conn = Conn::open(&server);
    let warmup = run_phase(
        &mut conn,
        &refs,
        &lines,
        &plan(seed, 0x7761_726d, WARMUP),
        Pacing::Closed,
    );
    assert_eq!(warmup.failed(), 0, "warm-up campaigns failed");
    Bench {
        conn,
        server,
        refs,
        lines,
    }
}

/// Everything the phases of one run measured.
struct Measured {
    /// Phase A's bursts, each with the host speed read on either side.
    bursts: Vec<(Phase, f64)>,
    rungs: Vec<(&'static str, f64, Phase)>,
    cpu_ms_burst: f64,
}

/// How many bursts phase A runs in `seconds`: one per second (a burst
/// takes about that long), at least one.
fn bursts_in(seconds: f64) -> u64 {
    seconds.ceil().max(1.0) as u64
}

/// Phase A: `bursts` closed bursts, each with the host speed read on
/// either side; and the process CPU time it used, ms.
fn phase_a(bench: &mut Bench, seed: u64, bursts: u64) -> (Vec<(Phase, f64)>, f64) {
    let mut cpu_ms = 0.0;
    let mut measured = Vec::new();
    let mut kernel_before = Flavour::Maps.read_median_us(serve_config().workers, GAP_READINGS);
    for stream in 0..bursts {
        let cpu_before = crate::procfs::cpu_ms();
        let burst = run_phase(
            &mut bench.conn,
            &bench.refs,
            &bench.lines,
            &plan(seed, 0x6275_7273 + stream, BURST_CAMPAIGNS),
            Pacing::Closed,
        );
        cpu_ms += crate::procfs::cpu_ms() - cpu_before;
        let kernel_after = Flavour::Maps.read_median_us(serve_config().workers, GAP_READINGS);
        measured.push((burst, Flavour::Maps.speed(kernel_before, kernel_after)));
        kernel_before = kernel_after;
    }
    (measured, cpu_ms)
}

/// Index of `r_mid` in [`RATES`].
const MID: usize = 1;

/// Phase A for `burst_seconds`, then the rungs of [`RATES`] that `rungs`
/// indexes, `rung_seconds` each.
fn measure(
    bench: &mut Bench,
    seed: u64,
    burst_seconds: f64,
    rung_seconds: f64,
    rungs: std::ops::Range<usize>,
) -> Measured {
    let (bursts, cpu_ms_burst) = phase_a(bench, seed, bursts_in(burst_seconds));
    let offered = rungs;
    let mut rungs = Vec::new();
    for stream in offered {
        let (name, rate) = RATES[stream];
        let n = openloop::requests_in(rung_seconds, rate) as usize;
        let phase = run_phase(
            &mut bench.conn,
            &bench.refs,
            &bench.lines,
            &plan(seed, 0x7275_6e67 + stream as u64, n),
            Pacing::Open(rate),
        );
        rungs.push((name, rate, phase));
    }
    Measured {
        bursts,
        rungs,
        cpu_ms_burst,
    }
}

impl Measured {
    fn phases(&self) -> impl Iterator<Item = &Phase> {
        let bursts = self.bursts.iter().map(|(p, _)| p);
        bursts.chain(self.rungs.iter().map(|(_, _, p)| p))
    }

    /// The `r_mid` rung, which every run offers.
    fn mid(&self) -> &Phase {
        let (_, _, phase) = self
            .rungs
            .iter()
            .find(|(name, _, _)| *name == RATES[MID].0)
            .expect("every run offers r_mid");
        phase
    }

    /// Campaigns phase A answered correctly.
    fn burst_done(&self) -> impl Iterator<Item = &Record> {
        self.bursts
            .iter()
            .flat_map(|(p, _)| p.records.iter())
            .filter(|r| r.ok)
    }

    /// Phase A's wall time (first send → last report of each burst), as
    /// measured and at reference speed, s.
    fn burst_wall_s(&self) -> (f64, f64) {
        self.bursts
            .iter()
            .fold((0.0, 0.0), |(raw, scaled), (p, speed)| {
                (raw + p.wall_s, scaled + p.wall_s * speed)
            })
    }

    /// Work phase A completed per second at reference speed, counted by
    /// `count` per kind.
    fn burst_rate(&self, refs: &[Reference], count: impl Fn(&Reference) -> usize) -> f64 {
        let done: usize = self
            .burst_done()
            .map(|r| count(&refs[r.req.kind.index()]))
            .sum();
        done as f64 / self.burst_wall_s().1.max(1e-9)
    }

    /// Host speed over phase A.
    fn burst_speed(&self) -> f64 {
        let (raw, scaled) = self.burst_wall_s();
        scaled / raw.max(1e-9)
    }

    fn notes(&self, r: &mut RunResult) {
        r.notes.push(format!(
            "phase A: {} closed bursts of {BURST_CAMPAIGNS}, window {WINDOW}: {} campaigns in {:.2} s, {:.1} campaigns/s as measured at host speed {:.3}",
            self.bursts.len(),
            self.burst_done().count(),
            self.burst_wall_s().0,
            self.burst_done().count() as f64 / self.burst_wall_s().0.max(1e-9),
            self.burst_speed()
        ));
        let per_burst: Vec<String> = self
            .bursts
            .iter()
            .map(|(p, speed)| format!("{:.0} ms x {speed:.3}", p.wall_s * 1e3))
            .collect();
        r.notes.push(format!(
            "phase A bursts, wall as measured x host speed: {}",
            per_burst.join(", ")
        ));
        for (name, rate, phase) in &self.rungs {
            let rung = phase.rung(*rate);
            let lateness: Vec<f64> = phase
                .records
                .iter()
                .map(|r| r.sent_ns.saturating_sub(r.due_ns) as f64 / 1e6)
                .collect();
            let n = rung.latencies_ms.len();
            let level = stats::highest_supported_percentile(n).unwrap_or(0.5);
            r.notes.push(format!(
                "{name} open loop {rate} campaigns/s: {n} samples ({} beyond p99; highest supported p{}), p50 {:.3} ms, p99 {:.3} ms, generator late p99 {:.3} ms, outstanding mid {} end {}, failed {}, meets limit: {}",
                stats::samples_beyond(n.max(1), 0.99),
                level * 100.0,
                rung.p50_ms(),
                rung.p99_ms(),
                stats::percentile_sorted(&stats::sorted(lateness), 0.99),
                phase.outstanding_mid,
                phase.outstanding_end,
                rung.failed,
                rung.meets_limit()
            ));
        }
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(args: &Args, process_start: Instant) -> RunResult {
    let (mut bench, setup_s) =
        harness::repeated_setup(process_start, args.setup_passes, Flavour::Maps, || {
            setup(args.seed)
        });
    harness::reset_ops();
    // The end-to-end metrics read phase A and `r_mid` only, so the
    // untraced run spends its time there: a burst's wall time varies by
    // 10 % from one to the next on a steady host, and fourteen of them
    // halve what five leave of that in `obs_per_s`.
    let m = measure(
        &mut bench,
        args.seed,
        args.seconds * 0.7,
        args.seconds * 0.25,
        MID..MID + 1,
    );
    let (attempted, failed, _) = harness::ops();
    let mut r = RunResult {
        correct: failed == 0,
        attempted,
        failed,
        ..RunResult::default()
    };
    r.values.set("setup_s", setup_s);
    r.values.set(
        "campaign_p50_ms",
        stats::median(&m.mid().latencies_ms(|_| true)),
    );
    r.values
        .set("obs_per_s", m.burst_rate(&bench.refs, |k| k.observations));
    r.values
        .set("cells_per_s", m.burst_rate(&bench.refs, |k| k.cells));
    r.values.set("peak_rss_mb", crate::procfs::peak_rss_mb());
    m.notes(&mut r);
    r
}

fn median_of(phase: &Phase, value: impl Fn(&Record) -> Option<f64>) -> f64 {
    let values: Vec<f64> = phase
        .records
        .iter()
        .filter(|r| r.ok)
        .filter_map(value)
        .collect();
    stats::median(&values)
}

/// Replays, on the run's own requests and reports, the layers a served
/// campaign passes through outside `exec`: protocol parse and frame
/// serialisation, spec validation and resolution, the fair scheduler, the
/// tenant journal, and a namenode vacuum. Returns the per-kind reply cost
/// (render + serialise + parse) in ns.
fn replay_layers(t: &mut Tracer, bench: &Bench, requests: &[Req]) -> [f64; 3] {
    let sched: FairScheduler<usize> = FairScheduler::new(8192, 1024);
    let registry = TenantRegistry::new();
    let spec_json: Vec<String> = Kind::ALL
        .into_iter()
        .map(|k| serde_json::to_string(&k.spec()).expect("specs serialize"))
        .collect();
    let mut reply_ns: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (i, &req) in requests.iter().enumerate() {
        let request = i as u64;
        let line = &bench.lines[Flight::slot(req)];
        let parsed = t
            .span("protocol.request_parse", request, || {
                serde_json::from_str::<CampaignRequest>(line)
            })
            .expect("own request lines parse");
        t.span("spec.validate", request, || parsed.spec.validate())
            .expect("the mix's specs are valid");
        t.span("spec.resolve", request, || parsed.spec.inputs.resolve());
        let tenant = tenant_name(req.tenant);
        let seq = t
            .span("tenant.register", request, || {
                registry.register(&tenant, &spec_json[req.kind.index()])
            })
            .expect("journal write");
        t.span("sched.submit_next", request, || {
            sched.submit(&tenant, i).expect("under the caps");
            sched.next()
        });
        let reference = &bench.refs[req.kind.index()];
        t.span("tenant.record_report", request, || {
            registry.record_report(&tenant, seq, &reference.report_json)
        })
        .expect("journal write");
        let first = t.spans().len();
        let render = t.span("report.render", request, || reference.outcome.render());
        let frame = Frame::Report {
            tenant,
            campaign_micros: 0,
            detections: reference.detections,
            report_json: reference.report_json.clone(),
            render,
        };
        let wire = t.span("protocol.report_frame_ser", request, || {
            serde_json::to_string(&frame).expect("frames serialize")
        });
        t.count("protocol.report_frame_bytes", wire.len() as u64 + 1);
        t.span("protocol.report_frame_parse", request, || {
            serde_json::from_str::<Frame>(&wire)
        })
        .expect("own frames parse");
        reply_ns[req.kind.index()].push(
            t.spans()[first..]
                .iter()
                .map(|s| s.duration_ns() as f64)
                .sum(),
        );
        t.span("report.json", request, || {
            serde_json::to_string(&reference.outcome.report).expect("reports serialize")
        });
    }
    // A recycled table's vacuum, as `Deployment::recycle` and
    // `TenantRegistry::evict` pay it.
    let stack = Stack::new(true);
    for i in 0..64u64 {
        let _ = stack
            .spark
            .sql(&format!("CREATE TABLE v{i} (c INT) STORED AS ORC"));
        let _ = stack.spark.sql(&format!("INSERT INTO v{i} VALUES (1)"));
        let _ = stack.spark.sql(&format!("DROP TABLE IF EXISTS v{i}"));
        t.span("hdfs.vacuum", i, || stack.fs.lock().vacuum());
    }
    reply_ns.map(|ns| stats::median(&ns))
}

/// The traced run: every per-layer metric this workload reaches.
pub fn run_traced(args: &Args, _process_start: Instant) -> (RunResult, Tracer) {
    let mut t = Tracer::new();
    let mut r = RunResult::default();
    let mut bench = setup(args.seed);
    harness::reset_ops();
    // Phase A then all three rungs, a quarter of the measured time each.
    let quarter = args.seconds * 0.85 / 4.0;
    let m = measure(&mut bench, args.seed, quarter, quarter, 0..RATES.len());
    let (attempted, failed, _) = harness::ops();

    // In-process batch time of each kind, for `serve.run_over_batch_x`.
    let batch_us: Vec<f64> = Kind::ALL
        .into_iter()
        .map(|kind| {
            let samples: Vec<f64> = (0..9)
                .map(|_| {
                    let started = Instant::now();
                    std::hint::black_box(
                        Campaign::from_spec(kind.spec())
                            .expect("the mix's specs are valid")
                            .run(),
                    );
                    started.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            stats::median(&samples)
        })
        .collect();
    let replayed = plan(args.seed, 0x6c61_7965, 512);
    let reply_ns = replay_layers(&mut t, &bench, &replayed);

    // Spans from frame timestamps: one request span per served campaign
    // of the mid rung, its stages as children.
    let mid = m.mid();
    let offset = t.now_ns().saturating_sub(ns_since(mid.base));
    for (i, rec) in mid.records.iter().enumerate().filter(|(_, r)| r.ok) {
        let id = i as u64;
        let at = |ns: u64| offset + ns;
        // Placed backwards from the report's arrival: the reply cost
        // replayed for this kind, then the run time the frame carries.
        // (The `Accepted` frame can arrive late — see README on the
        // daemon's two-segment writes — so a run may start before it.)
        let run_ns = rec.campaign_micros * 1000;
        let reply = reply_ns[rec.req.kind.index()] as u64;
        let run_end = rec.report_ns.saturating_sub(reply).max(rec.due_ns);
        let run_start = run_end.saturating_sub(run_ns).max(rec.due_ns);
        let root = t.record("serve.request", id, None, at(rec.due_ns), at(rec.report_ns));
        t.record(
            "serve.admit",
            id,
            Some(root),
            at(rec.due_ns),
            at(rec.accepted_ns),
        );
        t.record(
            "serve.queue_wait",
            id,
            Some(root),
            at(rec.accepted_ns.min(run_start)),
            at(run_start),
        );
        t.record("serve.run", id, Some(root), at(run_start), at(run_end));
        t.record(
            "serve.reply",
            id,
            Some(root),
            at(run_end),
            at(rec.report_ns),
        );
    }

    r.values.set(
        "serve.capacity_cps",
        m.burst_done().count() as f64 / m.burst_wall_s().0.max(1e-9),
    );
    r.values.set("host.speed", m.burst_speed());
    let rungs: Vec<Rung> = m.rungs.iter().map(|(_, rate, p)| p.rung(*rate)).collect();
    r.values
        .set("serve.max_rate_ok_cps", openloop::max_rate_ok(&rungs));
    r.values.set(
        "serve.first_detection_p50_ms",
        median_of(mid, |r| {
            (r.first_detection_ns > 0)
                .then(|| r.first_detection_ns.saturating_sub(r.due_ns) as f64 / 1e6)
        }),
    );
    for (metric, span) in [
        ("serve.admit_ms_p50", "serve.admit"),
        ("serve.queue_wait_ms_p50", "serve.queue_wait"),
        ("serve.run_ms_p50", "serve.run"),
        ("serve.reply_ms_p50", "serve.reply"),
        ("report.json_ms", "report.json"),
    ] {
        r.values.set(metric, t.median_us(span) / 1e3);
    }
    r.values.set(
        "serve.run_over_batch_x",
        median_of(mid, |r| {
            Some(r.campaign_micros as f64 / batch_us[r.req.kind.index()])
        }),
    );
    r.values.set(
        "serve.light_p50_ms",
        stats::median(&mid.latencies_ms(|r| r.req.kind == Kind::Light)),
    );
    r.values.set(
        "serve.heavy_p50_ms",
        stats::median(&mid.latencies_ms(|r| r.req.kind == Kind::Heavy)),
    );
    let hot = stats::median(&mid.latencies_ms(|r| r.req.tenant < 4));
    let cold = stats::median(&mid.latencies_ms(|r| r.req.tenant >= 4));
    r.values.set(
        "sched.hot_cold_p50_x",
        if cold > 0.0 { hot / cold } else { 0.0 },
    );
    let lateness: Vec<f64> = m
        .rungs
        .iter()
        .flat_map(|(_, _, p)| p.records.iter())
        .map(|r| r.sent_ns.saturating_sub(r.due_ns) as f64 / 1e6)
        .collect();
    r.values.set(
        "serve.gen_lag_ms_p99",
        stats::percentile_sorted(&stats::sorted(lateness), 0.99),
    );
    r.values.set(
        "serve.queue_depth_max",
        m.phases()
            .flat_map(|p| p.records.iter())
            .map(|r| r.queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    r.values.set(
        "serve.rejected",
        m.phases().map(|p| p.rejected).sum::<u64>() as f64,
    );
    r.values.set(
        "serve.detection_frames",
        m.phases().map(|p| p.detection_frames).sum::<u64>() as f64,
    );
    for (((_, _, phase), rung), [p50, p99, growth]) in m.rungs.iter().zip(&rungs).zip([
        [
            "serve.r_lo.p50_ms",
            "serve.r_lo.p99_ms",
            "serve.r_lo.backlog_growth",
        ],
        [
            "serve.r_mid.p50_ms",
            "serve.r_mid.p99_ms",
            "serve.r_mid.backlog_growth",
        ],
        [
            "serve.r_hi.p50_ms",
            "serve.r_hi.p99_ms",
            "serve.r_hi.backlog_growth",
        ],
    ]) {
        r.values.set(p50, rung.p50_ms());
        r.values.set(p99, rung.p99_ms());
        r.values.set(
            growth,
            openloop::backlog_growth(phase.outstanding_mid, phase.outstanding_end) as f64,
        );
    }
    for (metric, span) in [
        ("protocol.request_parse_us", "protocol.request_parse"),
        ("protocol.report_frame_ser_us", "protocol.report_frame_ser"),
        ("spec.validate_us", "spec.validate"),
        ("spec.resolve_us", "spec.resolve"),
        ("sched.submit_next_us", "sched.submit_next"),
        ("tenant.register_us", "tenant.register"),
        ("tenant.record_report_us", "tenant.record_report"),
        ("hdfs.vacuum_us", "hdfs.vacuum"),
        ("report.render_us", "report.render"),
    ] {
        r.values.set(metric, t.median_us(span));
    }
    r.values.set(
        "protocol.report_frame_bytes",
        t.counted("protocol.report_frame_bytes") as f64 / replayed.len() as f64,
    );
    r.values.set(
        "report.json_bytes",
        bench.refs[Kind::Light.index()].report_json.len() as f64,
    );
    let pool = bench.server.pool_stats();
    r.values.set("pool.created", pool.created as f64);
    r.values.set("pool.reused", pool.reused as f64);
    r.values.set(
        "pool.reuse_ratio",
        pool.reused as f64 / (pool.created + pool.reused).max(1) as f64,
    );
    r.values.set(
        "proc.cpu_ms_per_iter",
        m.cpu_ms_burst / m.burst_done().count().max(1) as f64,
    );
    // Frame timestamps are taken in the untraced run too and spans are
    // built after the phases end, so tracing adds nothing to the path.
    r.values.set("trace.overhead_share", 0.0);
    let selfs = t.self_times_ns();
    let (unattributed, total) = t
        .spans()
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "serve.request")
        .fold((0u64, 0u64), |(u, d), (s, own)| {
            (u + own, d + s.duration_ns())
        });
    r.values.set(
        "trace.unattributed_share",
        unattributed as f64 / total.max(1) as f64,
    );

    r.attempted = attempted;
    r.failed = failed;
    r.correct = failed == 0;
    m.notes(&mut r);
    r.notes.push(format!(
        "max_rate_ok {} campaigns/s (limit: p99 <= {} ms, backlog growth <= {}); {} spans",
        openloop::max_rate_ok(&rungs),
        openloop::LATENCY_LIMIT_MS,
        openloop::BACKLOG_SLACK,
        t.spans().len()
    ));
    (r, t)
}

/// `--calibrate`: measures phase A's capacity several times, as measured
/// and at reference speed, and prints the rates to freeze in [`RATES`].
pub fn calibrate(args: &Args) -> i32 {
    let mut capacities = Vec::new();
    for round in 0..5u64 {
        // A fresh daemon per round, as a run has: the tenants' journals
        // grow with every request served and slow the next one.
        let mut bench = setup(args.seed + round);
        let m = Measured {
            bursts: phase_a(&mut bench, args.seed + round, bursts_in(args.seconds / 4.0)).0,
            rungs: Vec::new(),
            cpu_ms_burst: 0.0,
        };
        let failed: u64 = m.bursts.iter().map(|(p, _)| p.failed()).sum();
        if failed > 0 {
            eprintln!("calibration round {round}: {failed} campaigns failed");
            return 1;
        }
        let done = m.burst_done().count() as f64;
        let (raw, scaled) = m.burst_wall_s();
        println!(
            "round {round}: {done} campaigns in {raw:.2} s = {:.1} campaigns/s as measured at host speed {:.3}, {:.1} at reference speed",
            done / raw.max(1e-9),
            m.burst_speed(),
            done / scaled.max(1e-9)
        );
        capacities.push(done / scaled.max(1e-9));
    }
    let c = stats::median(&capacities);
    println!("capacity C at reference speed (median of 5) = {c:.1} campaigns/s");
    println!(
        "suggested RATES: r_lo {:.0} (0.1 C), r_mid {:.0} (0.25 C), r_hi {:.0} (1.25 C)",
        0.1 * c,
        0.25 * c,
        1.25 * c
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seeded_skewed_and_holds_the_exact_mix() {
        let a = plan(42, 1, 4000);
        assert_eq!(a, plan(42, 1, 4000));
        assert_ne!(a, plan(43, 1, 4000));
        assert_ne!(a, plan(42, 2, 4000));
        for block in a.chunks(8) {
            assert_eq!(block.iter().filter(|r| r.kind == Kind::Light).count(), 6);
            assert_eq!(block.iter().filter(|r| r.kind == Kind::Heavy).count(), 1);
            assert_eq!(block.iter().filter(|r| r.kind == Kind::Detect).count(), 1);
        }
        let share = |rank: usize| a.iter().filter(|r| r.tenant == rank).count() as f64 / 4000.0;
        // Zipf(1) over 64 tenants: rank 0 draws 1/H(64) = 21 %, rank 1 half that.
        assert!((share(0) - 0.21).abs() < 0.03, "{}", share(0));
        assert!((share(1) - 0.105).abs() < 0.03, "{}", share(1));
        assert!(a.iter().all(|r| r.tenant < TENANTS));
    }

    #[test]
    fn tenant_names_round_trip_and_pass_the_daemons_policy() {
        for rank in [0, 9, 63] {
            let name = tenant_name(rank);
            assert!(csi_serve::valid_tenant_name(&name));
            assert_eq!(tenant_rank(&name), Some(rank));
        }
        assert_eq!(tenant_rank("t64"), None);
        assert_eq!(tenant_rank("x01"), None);
        assert_eq!(tenant_rank(""), None);
    }

    fn fake_reference(report_json: &str, detections: usize) -> Reference {
        Reference {
            outcome: Campaign::new(&[]).run(),
            report_json: report_json.to_string(),
            detections,
            observations: 0,
            cells: 0,
        }
    }

    #[test]
    fn frames_are_matched_to_requests_by_tenant_kind_and_order() {
        let refs = vec![
            fake_reference("light", 0),
            fake_reference("heavy", 0),
            fake_reference("detect", 2),
        ];
        let report = |tenant: &str, json: &str, detections| Frame::Report {
            tenant: tenant.to_string(),
            campaign_micros: 5,
            detections,
            report_json: json.to_string(),
            render: String::new(),
        };
        let accepted = |tenant: &str| Frame::Accepted {
            tenant: tenant.to_string(),
            queue_depth: 3,
        };
        let mut f = Flight::new(4);
        let heavy = Req {
            tenant: 1,
            kind: Kind::Heavy,
        };
        let light = Req {
            tenant: 1,
            kind: Kind::Light,
        };
        let detect = Req {
            tenant: 1,
            kind: Kind::Detect,
        };
        f.sent(heavy, 0, 1, 2); // id 0
        f.sent(light, 10, 11, 2); // id 1
        f.sent(detect, 20, 21, 2); // id 2
        f.sent(light, 30, 31, 2); // id 3
        for at in [40, 41, 42, 43] {
            assert!(!f.frame(accepted("t01"), at, &refs));
        }
        assert_eq!(f.records[2].accepted_ns, 42);
        // The light campaign overtakes the heavy one on the second worker.
        assert!(f.frame(report("t01", "light", 0), 50, &refs));
        assert_eq!((f.records[1].report_ns, f.records[1].ok), (50, true));
        assert_eq!(f.records[0].report_ns, 0);
        let detection = || Frame::Detection {
            tenant: "t01".to_string(),
            detection: csi_core::detect::Detection {
                kind: csi_core::detect::DetectionKind::ALL[0],
                scenario: String::new(),
                channels: Vec::new(),
                seq: 0,
                at_ms: 0,
                detail: String::new(),
            },
        };
        assert!(!f.frame(detection(), 60, &refs));
        assert!(!f.frame(detection(), 61, &refs));
        assert_eq!(f.records[2].first_detection_ns, 60);
        assert!(f.frame(report("t01", "detect", 2), 62, &refs));
        assert!(f.frame(report("t01", "heavy", 0), 70, &refs));
        // A report equal to no in-process run fails the oldest pending
        // request of the tenant.
        assert!(f.frame(report("t01", "garbage", 0), 80, &refs));
        assert_eq!((f.records[3].report_ns, f.records[3].ok), (80, false));
        assert!(f.records[..3].iter().all(|r| r.ok));
        assert_eq!(f.detection_frames, 2);
    }

    #[test]
    fn a_refusal_fails_the_request_it_answers() {
        let refs = vec![
            fake_reference("light", 0),
            fake_reference("heavy", 0),
            fake_reference("detect", 0),
        ];
        let mut f = Flight::new(2);
        f.sent(
            Req {
                tenant: 2,
                kind: Kind::Light,
            },
            0,
            0,
            0,
        );
        f.sent(
            Req {
                tenant: 3,
                kind: Kind::Light,
            },
            1,
            1,
            0,
        );
        let rejected = Frame::Rejected {
            tenant: "t02".to_string(),
            reason: csi_serve::RejectReason::ShuttingDown,
        };
        assert!(f.frame(rejected, 9, &refs));
        assert_eq!((f.records[0].report_ns, f.records[0].ok), (9, false));
        assert_eq!(f.rejected, 1);
        // The next verdict answers the next request.
        assert!(!f.frame(
            Frame::Accepted {
                tenant: "t03".to_string(),
                queue_depth: 1
            },
            10,
            &refs
        ));
        assert_eq!(f.records[1].accepted_ns, 10);
    }
}
