//! Per-tenant fair scheduling with queue-depth admission control.
//!
//! [`FairScheduler`] holds one FIFO queue per tenant plus a round-robin
//! ring over the tenants that currently have queued work. Workers call
//! [`FairScheduler::next`], which blocks until work exists and then pops
//! one job from the tenant at the front of the ring, rotating the ring —
//! so a tenant that submits a thousand campaigns and a tenant that
//! submits one alternate on the workers instead of queuing behind each
//! other.
//!
//! Admission is decided at [`FairScheduler::submit`] time against two
//! caps: a global queue depth (backpressure: the daemon refuses work it
//! cannot start soon) and a per-tenant depth (fairness: one tenant
//! cannot occupy the whole global queue). Both refusals are typed
//! [`Admission`] values the server forwards verbatim as
//! [`Rejected`](crate::protocol::Frame::Rejected) frames.
//!
//! The scheduler is deliberately generic over the job payload and built
//! on [`std::sync::Condvar`] (the vendored `parking_lot` stand-in has no
//! condvar), so it is testable without sockets or threads.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Why [`FairScheduler::submit`] refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The global queue is at capacity.
    QueueFull {
        /// Queued jobs across all tenants at rejection time.
        depth: usize,
        /// The configured global cap.
        limit: usize,
    },
    /// The tenant's own queue is at capacity.
    TenantBacklog {
        /// The tenant's queued jobs at rejection time.
        depth: usize,
        /// The configured per-tenant cap.
        limit: usize,
    },
    /// The scheduler was closed; no new work is accepted.
    Closed,
}

/// The mutex-guarded core: per-tenant queues plus the service ring.
struct State<T> {
    /// FIFO queue per tenant with at least one queued job.
    queues: BTreeMap<String, VecDeque<T>>,
    /// Round-robin ring over tenants with at least one queued job.
    ring: VecDeque<String>,
    /// Total queued jobs across all tenants.
    depth: usize,
    /// Set by [`FairScheduler::close`]; drains, then wakes all waiters.
    closed: bool,
}

/// A blocking, per-tenant fair job queue with admission control.
pub struct FairScheduler<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    max_queue: usize,
    per_tenant_queue: usize,
}

impl<T> FairScheduler<T> {
    /// A scheduler admitting at most `max_queue` queued jobs in total and
    /// `per_tenant_queue` per tenant. Caps are clamped to at least 1 —
    /// a scheduler that can admit nothing is a typo, not a policy.
    pub fn new(max_queue: usize, per_tenant_queue: usize) -> FairScheduler<T> {
        FairScheduler {
            state: Mutex::new(State {
                queues: BTreeMap::new(),
                ring: VecDeque::new(),
                depth: 0,
                closed: false,
            }),
            available: Condvar::new(),
            max_queue: max_queue.max(1),
            per_tenant_queue: per_tenant_queue.max(1),
        }
    }

    /// Enqueues one job for `tenant`, returning the global queue depth
    /// right after the push, or the typed refusal.
    pub fn submit(&self, tenant: &str, job: T) -> Result<usize, Admission> {
        let mut s = self.state.lock().expect("scheduler lock");
        if s.closed {
            return Err(Admission::Closed);
        }
        if s.depth >= self.max_queue {
            return Err(Admission::QueueFull {
                depth: s.depth,
                limit: self.max_queue,
            });
        }
        let tenant_depth = s.queues.get(tenant).map_or(0, VecDeque::len);
        if tenant_depth >= self.per_tenant_queue {
            return Err(Admission::TenantBacklog {
                depth: tenant_depth,
                limit: self.per_tenant_queue,
            });
        }
        if tenant_depth == 0 {
            s.ring.push_back(tenant.to_string());
        }
        s.queues
            .entry(tenant.to_string())
            .or_default()
            .push_back(job);
        s.depth += 1;
        let depth = s.depth;
        drop(s);
        self.available.notify_one();
        Ok(depth)
    }

    /// Blocks until a job is available, then pops one from the tenant at
    /// the front of the service ring (rotating the ring). Returns `None`
    /// once the scheduler is closed *and* drained.
    pub fn next(&self) -> Option<(String, T)> {
        let mut s = self.state.lock().expect("scheduler lock");
        loop {
            if let Some(tenant) = s.ring.pop_front() {
                let queue = s.queues.get_mut(&tenant).expect("ring tenant has a queue");
                let job = queue.pop_front().expect("ring tenant has a job");
                if queue.is_empty() {
                    s.queues.remove(&tenant);
                } else {
                    s.ring.push_back(tenant.clone());
                }
                s.depth -= 1;
                return Some((tenant, job));
            }
            if s.closed {
                return None;
            }
            s = self.available.wait(s).expect("scheduler lock");
        }
    }

    /// Total queued jobs right now.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("scheduler lock").depth
    }

    /// Stops admission and wakes every blocked [`FairScheduler::next`]
    /// caller; already-queued jobs still drain.
    pub fn close(&self) {
        self.state.lock().expect("scheduler lock").closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_order_alternates_across_tenants() {
        let sched = FairScheduler::new(16, 16);
        for i in 0..3 {
            sched.submit("heavy", format!("h{i}")).expect("admitted");
        }
        sched.submit("light", "l0".to_string()).expect("admitted");
        let order: Vec<String> = std::iter::from_fn(|| {
            sched.close();
            sched.next().map(|(t, j)| format!("{t}:{j}"))
        })
        .collect();
        // `light` is served after one `heavy` job, not after all three.
        assert_eq!(order, ["heavy:h0", "light:l0", "heavy:h1", "heavy:h2"]);
    }

    #[test]
    fn global_and_per_tenant_caps_reject_with_depths() {
        let sched = FairScheduler::new(3, 2);
        sched.submit("a", 1).expect("admitted");
        sched.submit("a", 2).expect("admitted");
        assert_eq!(
            sched.submit("a", 3).expect_err("per-tenant cap"),
            Admission::TenantBacklog { depth: 2, limit: 2 }
        );
        sched.submit("b", 4).expect("admitted");
        assert_eq!(
            sched.submit("c", 5).expect_err("global cap"),
            Admission::QueueFull { depth: 3, limit: 3 }
        );
        assert_eq!(sched.depth(), 3);
    }

    #[test]
    fn a_drained_tenant_is_forgotten() {
        let sched = FairScheduler::new(16, 16);
        for i in 0..10_000 {
            let tenant = format!("stranger-{i}");
            sched.submit(&tenant, 2 * i).expect("admitted");
            sched.submit(&tenant, 2 * i + 1).expect("admitted");
            assert_eq!(sched.next(), Some((tenant.clone(), 2 * i)));
            assert_eq!(sched.next(), Some((tenant, 2 * i + 1)));
        }
        let s = sched.state.lock().expect("scheduler lock");
        assert!(s.queues.is_empty() && s.ring.is_empty() && s.depth == 0);
    }

    #[test]
    fn close_drains_then_stops() {
        let sched = FairScheduler::new(4, 4);
        sched.submit("a", 1).expect("admitted");
        sched.close();
        assert_eq!(sched.submit("a", 2).expect_err("closed"), Admission::Closed);
        assert_eq!(sched.next(), Some(("a".to_string(), 1)));
        assert_eq!(sched.next(), None);
    }

    #[test]
    fn blocked_workers_wake_on_submit() {
        use std::sync::Arc;
        let sched = Arc::new(FairScheduler::new(4, 4));
        let worker = {
            let sched = sched.clone();
            std::thread::spawn(move || sched.next())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        sched.submit("a", 7).expect("admitted");
        assert_eq!(worker.join().expect("worker"), Some(("a".to_string(), 7)));
    }
}
