//! The `csi-serve` daemon: campaigns as a service over TCP.
//!
//! [`CsiServer::start`] binds a [`TcpListener`] and spins up the three
//! thread groups of the daemon:
//!
//! - an **acceptor** that takes connections and hands each to a
//!   reader thread, which it joins on shutdown;
//! - **readers** that parse newline-delimited [`CampaignRequest`]s,
//!   police tenant names and specs, journal the submission in the
//!   [`TenantRegistry`], and push admitted jobs into the
//!   [`FairScheduler`] — answering [`Frame::Accepted`] or
//!   [`Frame::Rejected`] immediately, per line;
//! - **workers** that pull jobs fairly across tenants and run each as a
//!   [`Campaign`] drawing warm deployments from a shared
//!   [`DeploymentPool`], streaming every online detection back as a
//!   [`Frame::Detection`] as each observation is judged, then
//!   finishing with one [`Frame::Report`].
//!
//! Backpressure is admission-time and explicit: when the global queue or
//! a tenant's slice of it is full, the request is refused with the
//! observed depths rather than buffered without bound. Campaign output
//! is byte-identical to an in-process run of the same spec — pooling
//! changes wall time only, taps only observe, and per-campaign state
//! lives in the campaign's own deployment, not in the daemon.

use crate::protocol::{valid_tenant_name, CampaignRequest, Frame, RejectReason, MAX_REQUEST_BYTES};
use crate::sched::{Admission, FairScheduler};
use crate::tenant::TenantRegistry;
use csi_core::detect::DetectionTap;
use csi_test::{Campaign, CampaignSpec, DeploymentPool, PoolStats};
use parking_lot::Mutex;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Campaign worker threads (the concurrency of the service).
    pub workers: usize,
    /// Deployments pre-built into the pool before the listener opens.
    pub warm: usize,
    /// Global admission cap: queued campaigns across all tenants.
    pub max_queue: usize,
    /// Per-tenant admission cap: queued campaigns for any one tenant.
    pub per_tenant_queue: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            warm: 2,
            max_queue: 64,
            per_tenant_queue: 8,
        }
    }
}

/// Longest one frame write may block on a client that has stopped
/// reading. The lock it is held under is shared with every worker
/// streaming to the same connection, so an unbounded write would park
/// them all.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The write half of one connection, shared by its reader and by every
/// worker running a campaign it submitted. `None` once a write has
/// failed: the line stream is corrupt from there on, so later frames are
/// dropped without a syscall.
type Writer<W = TcpStream> = Mutex<Option<W>>;

/// One admitted campaign, queued for a worker.
struct Job {
    tenant: String,
    /// Journal sequence of this submission.
    seq: u64,
    spec: CampaignSpec,
    writer: Arc<Writer>,
}

/// A running `csi-serve` daemon. Dropping it shuts it down gracefully:
/// admission closes, readers join, queued campaigns drain, workers join.
pub struct CsiServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    scheduler: Arc<FairScheduler<Job>>,
    pool: Arc<DeploymentPool>,
    registry: Arc<TenantRegistry>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Writes one frame as one line in one `write_all`, best-effort: a
/// vanished client is the client's problem, not the campaign's. The
/// frame and its terminator leave as one segment (the socket has
/// `TCP_NODELAY`), so a frame is on the wire when its event happened,
/// not when the peer's next ACK releases a held-back `\n`.
fn send<W: Write>(writer: &Writer<W>, frame: &Frame) {
    let line = frame_line(frame);
    write_line(&mut writer.lock(), &line);
}

/// One frame as its wire line, terminator included.
fn frame_line(frame: &Frame) -> String {
    let mut line = serde_json::to_string(frame).expect("frames serialize");
    line.push('\n');
    line
}

/// The write of [`send`], for a caller that already holds the write half.
fn write_line<W: Write>(stream: &mut Option<W>, line: &str) {
    if let Some(live) = stream.as_mut() {
        if live.write_all(line.as_bytes()).is_err() {
            *stream = None;
        }
    }
}

impl CsiServer {
    /// Binds an ephemeral port on localhost, warms the deployment pool,
    /// and starts the acceptor and worker threads.
    pub fn start(config: &ServeConfig) -> io::Result<CsiServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let pool = Arc::new(DeploymentPool::new());
        pool.warm(config.warm);
        let registry = Arc::new(TenantRegistry::new());
        let scheduler = Arc::new(FairScheduler::new(
            config.max_queue,
            config.per_tenant_queue,
        ));
        let shutdown = Arc::new(AtomicBool::new(false));

        // The workers are running before any other thread of the daemon
        // starts. A thread takes its allocator arena as it starts, and
        // glibc hands out the arenas of exited threads last-exited first;
        // `shutdown` joins the workers last, so a daemon started after
        // another in one process puts its workers on the arenas the
        // earlier workers grew instead of growing more.
        let running = Arc::new(Barrier::new(config.workers.max(1) + 1));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let scheduler = scheduler.clone();
                let pool = pool.clone();
                let registry = registry.clone();
                let running = running.clone();
                std::thread::spawn(move || {
                    running.wait();
                    while let Some((_, job)) = scheduler.next() {
                        run_job(&pool, &registry, job);
                    }
                })
            })
            .collect();
        running.wait();

        let acceptor = {
            let scheduler = scheduler.clone();
            let registry = registry.clone();
            let shutdown = shutdown.clone();
            std::thread::spawn(move || {
                // Each live reader, with a handle on its connection that
                // does not keep the connection open.
                let mut readers: Vec<(Weak<TcpStream>, JoinHandle<()>)> = Vec::new();
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    readers.retain(|(_, reader)| !reader.is_finished());
                    let stream = Arc::new(stream);
                    let connection = Arc::downgrade(&stream);
                    let scheduler = scheduler.clone();
                    let registry = registry.clone();
                    let reader = std::thread::spawn(move || {
                        serve_connection(&stream, &scheduler, &registry)
                    });
                    readers.push((connection, reader));
                }
                // Admission is closing: end every reader at its next read.
                for (connection, reader) in readers {
                    if let Some(stream) = connection.upgrade() {
                        let _ = stream.shutdown(Shutdown::Read);
                    }
                    let _ = reader.join();
                }
            })
        };

        Ok(CsiServer {
            addr,
            shutdown,
            scheduler,
            pool,
            registry,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Campaigns queued (admitted, not yet started) right now.
    pub fn queue_depth(&self) -> usize {
        self.scheduler.depth()
    }

    /// Construction/reuse counters of the shared deployment pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The journal of what tenants asked and were answered.
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Graceful shutdown: closes admission — the acceptor stops and joins
    /// every reader — then drains queued campaigns and joins the workers,
    /// the last daemon threads to exit (see [`CsiServer::start`]).
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor out of `incoming()` with one self-connect.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.scheduler.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for CsiServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The reader loop of one connection: one request per line, one
/// admission verdict per request, demultiplexed by tenant on the way
/// back out.
fn serve_connection(stream: &TcpStream, scheduler: &FairScheduler<Job>, registry: &TenantRegistry) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    if write_half.set_nodelay(true).is_err()
        || write_half.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let writer = Arc::new(Mutex::new(Some(write_half)));
    let malformed = |message: String| Frame::Rejected {
        tenant: String::new(),
        reason: RejectReason::Malformed(message),
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells an oversized line from one that
        // fits exactly; nothing a client sends can grow `line` further.
        let mut bounded = (&mut reader).take(MAX_REQUEST_BYTES as u64 + 1);
        if !matches!(bounded.read_until(b'\n', &mut line), Ok(n) if n > 0) {
            break;
        }
        if line.len() > MAX_REQUEST_BYTES && !line.ends_with(b"\n") {
            // The rest of the line is unread and unbounded: answer and
            // hang up rather than scan for a newline that may never come.
            send(
                &writer,
                &malformed(format!("request exceeds {MAX_REQUEST_BYTES} bytes")),
            );
            break;
        }
        let text = match std::str::from_utf8(&line) {
            Ok(text) => text.trim(),
            Err(e) => {
                send(&writer, &malformed(e.to_string()));
                continue;
            }
        };
        if text.is_empty() {
            continue;
        }
        let request: CampaignRequest = match serde_json::from_str(text) {
            Ok(request) => request,
            Err(e) => {
                send(&writer, &malformed(e.to_string()));
                continue;
            }
        };
        admit(request, scheduler, registry, &writer);
    }
}

/// Runs a request through the admission pipeline — tenant-name policy,
/// spec validation, journaling, scheduler caps — and answers
/// it with its one verdict frame.
fn admit(
    request: CampaignRequest,
    scheduler: &FairScheduler<Job>,
    registry: &TenantRegistry,
    writer: &Arc<Writer>,
) {
    let tenant = request.tenant;
    let reject = |reason| Frame::Rejected {
        tenant: tenant.clone(),
        reason,
    };
    if !valid_tenant_name(&tenant) {
        return send(writer, &reject(RejectReason::BadTenantName(tenant.clone())));
    }
    if let Err(e) = request.spec.validate() {
        return send(writer, &reject(RejectReason::InvalidSpec(e)));
    }
    let spec_json = serde_json::to_string(&request.spec).expect("specs serialize");
    let seq = match registry.register(&tenant, &spec_json) {
        Ok(seq) => seq,
        Err(e) => return send(writer, &reject(RejectReason::Internal(e))),
    };
    let job = Job {
        tenant: tenant.clone(),
        seq,
        spec: request.spec,
        writer: writer.clone(),
    };
    // Once submitted, a worker may finish the campaign at any moment, and
    // `Accepted` must still be the first frame about it on the wire: hold
    // the write half from before the submit until the verdict is out.
    // (Lock order is writer, then scheduler; a worker never holds the
    // scheduler's lock while it writes.)
    let mut stream = writer.lock();
    let verdict = match scheduler.submit(&tenant, job) {
        Ok(queue_depth) => Frame::Accepted {
            tenant: tenant.clone(),
            queue_depth,
        },
        Err(Admission::QueueFull { depth, limit }) => {
            reject(RejectReason::QueueFull { depth, limit })
        }
        Err(Admission::TenantBacklog { depth, limit }) => {
            reject(RejectReason::TenantBacklog { depth, limit })
        }
        Err(Admission::Closed) => reject(RejectReason::ShuttingDown),
    };
    write_line(&mut stream, &frame_line(&verdict));
}

/// Runs one admitted campaign on a worker thread: detections stream out
/// through the tap as they happen, the report closes the request, and
/// the registry records what was answered. Everything up to the terminal
/// frame runs under one `catch_unwind`, so whatever panics — the
/// campaign, reviving the spec, serialising the report — the worker
/// lives on and the client is answered.
fn run_job(pool: &Arc<DeploymentPool>, registry: &TenantRegistry, job: Job) {
    let Job {
        tenant,
        seq,
        spec,
        writer,
    } = job;
    let answered = catch_unwind(AssertUnwindSafe(|| {
        let started = Instant::now();
        let streamed = Arc::new(AtomicUsize::new(0));
        let tap = {
            let writer = writer.clone();
            let tenant = tenant.clone();
            let streamed = streamed.clone();
            DetectionTap::new(move |detection| {
                streamed.fetch_add(1, Ordering::SeqCst);
                send(
                    &writer,
                    &Frame::Detection {
                        tenant: tenant.clone(),
                        detection: detection.clone(),
                    },
                );
            })
        };
        let outcome = Campaign::from_spec(spec)
            .expect("spec validated at admission")
            .pool(pool.clone())
            .detection_tap(tap)
            .run();
        let report_json = serde_json::to_string(&outcome.report).expect("reports serialize");
        let _ = registry.record_report(&tenant, seq, &report_json);
        send(
            &writer,
            &Frame::Report {
                tenant: tenant.clone(),
                campaign_micros: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
                detections: streamed.load(Ordering::SeqCst),
                report_json,
                render: outcome.render(),
            },
        );
    }));
    if let Err(panic) = answered {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "campaign panicked".to_string());
        send(
            &writer,
            &Frame::Rejected {
                tenant,
                reason: RejectReason::Internal(message),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The bytes of every `write` call, in order.
    type Calls = Rc<RefCell<Vec<Vec<u8>>>>;

    /// Records every `write` call it is handed whole; calls from the
    /// `fail_from`-th on (0-based) fail instead.
    struct Recording {
        calls: Calls,
        fail_from: usize,
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut calls = self.calls.borrow_mut();
            calls.push(buf.to_vec());
            if calls.len() > self.fail_from {
                return Err(io::ErrorKind::TimedOut.into());
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn recording(fail_from: usize) -> (Writer<Recording>, Calls) {
        let calls = Calls::default();
        let writer = Mutex::new(Some(Recording {
            calls: calls.clone(),
            fail_from,
        }));
        (writer, calls)
    }

    fn accepted(queue_depth: usize) -> Frame {
        Frame::Accepted {
            tenant: "alpha".to_string(),
            queue_depth,
        }
    }

    #[test]
    fn a_frame_is_one_write_ending_in_its_only_newline() {
        let (writer, calls) = recording(usize::MAX);
        let frames = [
            accepted(3),
            Frame::Rejected {
                tenant: "alpha".to_string(),
                reason: RejectReason::Malformed("line one\nline two".to_string()),
            },
        ];
        for frame in &frames {
            send(&writer, frame);
        }
        let calls = calls.borrow();
        assert_eq!(calls.len(), frames.len(), "one write per frame");
        for (bytes, frame) in calls.iter().zip(&frames) {
            assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 1);
            let (terminator, body) = bytes.split_last().expect("non-empty frame");
            assert_eq!(*terminator, b'\n');
            let text = std::str::from_utf8(body).expect("frames are UTF-8");
            let back: Frame = serde_json::from_str(text).expect("frame parses");
            assert_eq!(&back, frame);
        }
    }

    #[test]
    fn a_failed_write_kills_the_connection_for_later_frames() {
        let (writer, calls) = recording(1);
        send(&writer, &accepted(0));
        assert!(writer.lock().is_some(), "first write succeeded");
        send(&writer, &accepted(1));
        assert!(writer.lock().is_none(), "second write failed");
        send(&writer, &accepted(2));
        send(&writer, &accepted(3));
        assert_eq!(calls.borrow().len(), 2, "dead connections cost no write");
    }

    #[test]
    fn a_panic_before_the_campaign_runs_is_answered_and_survived() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        // A spec admission would have refused: reviving it panics on the
        // worker, outside the campaign proper.
        let spec = CampaignSpec {
            chunk_size: 0,
            ..CampaignSpec::default()
        };
        assert!(spec.validate().is_err());
        let job = Job {
            tenant: "alpha".to_string(),
            seq: 0,
            spec,
            writer: Arc::new(Mutex::new(Some(served))),
        };
        run_job(
            &Arc::new(DeploymentPool::new()),
            &TenantRegistry::new(),
            job,
        );
        let mut line = String::new();
        BufReader::new(client)
            .read_line(&mut line)
            .expect("terminal frame");
        match serde_json::from_str(&line).expect("frame parses") {
            Frame::Rejected {
                tenant,
                reason: RejectReason::Internal(message),
            } => {
                assert_eq!(tenant, "alpha");
                assert!(message.contains("spec validated at admission"), "{message}");
            }
            other => panic!("expected an internal rejection, got {other:?}"),
        }
    }
}
