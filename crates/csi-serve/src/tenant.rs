//! The daemon's journal: one byte-budgeted ring of records.
//!
//! [`TenantRegistry::register`] appends what a tenant asked (the spec, as
//! JSON) and returns a daemon-wide sequence number;
//! [`TenantRegistry::record_report`] fills in what it was answered (the
//! report and its FNV-1a digest). Both drop records from the old end
//! while the ring holds more than [`JOURNAL_BYTES`], so the daemon's
//! memory is bounded by a constant, not by the requests it has served.
//! [`TenantRegistry::recent`] reads a tenant's records back: a spec
//! revived from one replays to the journaled report, byte for byte.
//!
//! One ring and one counter, not a map per tenant: tenant names are
//! chosen by strangers, so any per-tenant structure would be a second
//! unbounded table. Campaign *execution* state never lives here: each
//! campaign runs in its own pooled [`Deployment`](csi_test::exec), and
//! the scheduling half of the multi-tenant story is [`crate::sched`].

use parking_lot::Mutex;
use std::collections::VecDeque;

/// FNV-1a 64-bit, the digest used for report fingerprints.
pub use csi_core::hash::fnv1a;

/// The most the journal holds: older records leave once their total
/// passes this. The newest record stays whatever its size.
pub const JOURNAL_BYTES: usize = 16 << 20;

/// One submission: what was asked and, once the campaign has finished,
/// what was answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Daemon-wide submission number, in admission order.
    pub seq: u64,
    /// The tenant that submitted it.
    pub tenant: String,
    /// The submitted spec, as JSON.
    pub spec_json: String,
    /// The finished report as JSON, after its FNV-1a digest.
    pub report: Option<(u64, String)>,
}

impl Record {
    /// What this record counts against [`JOURNAL_BYTES`].
    fn bytes(&self) -> usize {
        std::mem::size_of::<Record>()
            + self.tenant.len()
            + self.spec_json.len()
            + self.report.as_ref().map_or(0, |(_, json)| json.len())
    }
}

/// The journal behind its one lock.
#[derive(Default)]
pub struct TenantRegistry(Mutex<Journal>);

/// Records in sequence order with no gaps, so a sequence number finds
/// its record by its distance from the front.
#[derive(Default)]
struct Journal {
    next_seq: u64,
    /// Σ [`Record::bytes`] over `ring`.
    bytes: usize,
    ring: VecDeque<Record>,
}

impl Journal {
    /// Drops the oldest records while over budget, never the newest.
    fn trim(&mut self) {
        while self.bytes > JOURNAL_BYTES && self.ring.len() > 1 {
            let oldest = self.ring.pop_front().expect("more than one record");
            self.bytes -= oldest.bytes();
        }
    }
}

impl TenantRegistry {
    /// An empty journal.
    pub fn new() -> TenantRegistry {
        TenantRegistry::default()
    }

    /// Journals one submitted spec (as JSON) and returns its sequence
    /// number. Always `Ok`: appending to the ring cannot fail.
    pub fn register(&self, tenant: &str, spec_json: &str) -> Result<u64, String> {
        let (tenant, spec_json) = (tenant.to_string(), spec_json.to_string());
        let mut journal = self.0.lock();
        let seq = journal.next_seq;
        journal.next_seq += 1;
        let record = Record {
            seq,
            tenant,
            spec_json,
            report: None,
        };
        journal.bytes += record.bytes();
        journal.ring.push_back(record);
        journal.trim();
        Ok(seq)
    }

    /// Journals the finished report (and its digest) of submission `seq`.
    /// An `Err` when that record has left the ring or is not `tenant`'s.
    pub fn record_report(&self, tenant: &str, seq: u64, report_json: &str) -> Result<(), String> {
        let report = (fnv1a(report_json.as_bytes()), report_json.to_string());
        let mut journal = self.0.lock();
        let Journal { bytes, ring, .. } = &mut *journal;
        let at = ring.front().and_then(|oldest| seq.checked_sub(oldest.seq));
        let record = at
            .and_then(|at| ring.get_mut(usize::try_from(at).ok()?))
            .filter(|record| record.tenant == tenant)
            .ok_or_else(|| format!("submission {seq} of tenant {tenant} is not in the journal"))?;
        *bytes -= record.bytes();
        record.report = Some(report);
        *bytes += record.bytes();
        journal.trim();
        Ok(())
    }

    /// The records `tenant` still has in the journal, oldest first.
    pub fn recent(&self, tenant: &str) -> Vec<Record> {
        let journal = self.0.lock();
        let mine = journal.ring.iter().filter(|r| r.tenant == tenant);
        mine.cloned().collect()
    }

    /// Tenants with a record in the journal, in name order.
    pub fn tenants(&self) -> Vec<String> {
        let journal = self.0.lock();
        let mut names: Vec<&str> = journal.ring.iter().map(|r| r.tenant.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names.into_iter().map(str::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The journal's byte counter and every record in it.
    fn snapshot(registry: &TenantRegistry) -> (usize, Vec<Record>) {
        let journal = registry.0.lock();
        (journal.bytes, journal.ring.iter().cloned().collect())
    }

    #[test]
    fn namespaces_are_carved_per_tenant_and_isolated() {
        let registry = TenantRegistry::new();
        registry
            .register("alpha", "{\"spec\":1}")
            .expect("register");
        registry.register("beta", "{\"spec\":2}").expect("register");
        registry
            .register("alpha", "{\"spec\":3}")
            .expect("register");
        assert_eq!(registry.tenants(), ["alpha", "beta"]);
        assert_eq!(registry.recent("alpha").len(), 2);
        assert_eq!(registry.recent("beta").len(), 1);
        assert_eq!(registry.recent("nobody").len(), 0);
    }

    #[test]
    fn reports_record_a_stable_digest_per_submission() {
        let registry = TenantRegistry::new();
        let seq = registry.register("alpha", "{}").expect("register");
        let open = registry
            .register("alpha", "{\"later\":1}")
            .expect("register");
        registry
            .record_report("alpha", seq, "{\"report\":true}")
            .expect("record");
        let records = registry.recent("alpha");
        assert_eq!(
            records[0],
            Record {
                seq,
                tenant: "alpha".to_string(),
                spec_json: "{}".to_string(),
                report: Some((fnv1a(b"{\"report\":true}"), "{\"report\":true}".to_string())),
            },
            "digest is the FNV-1a of the report bytes"
        );
        assert_eq!((records[1].seq, &records[1].report), (open, &None));
        assert_eq!(registry.recent("beta"), []);
    }

    #[test]
    fn the_journal_is_bounded_in_bytes_whatever_the_tenants() {
        let registry = TenantRegistry::new();
        let report = "r".repeat(35_000);
        for i in 0..10_000 {
            let tenant = format!("stranger-{i}");
            let seq = registry
                .register(&tenant, "{\"spec\":1}")
                .expect("register");
            registry
                .record_report(&tenant, seq, &report)
                .expect("the newest record is always in the ring");
            assert!(registry.0.lock().bytes <= JOURNAL_BYTES, "after {i}");
        }
        let (bytes, ring) = snapshot(&registry);
        assert_eq!(bytes, ring.iter().map(Record::bytes).sum::<usize>());
        assert_eq!(ring.last().expect("newest").seq, 9_999);
        // 16 MiB of 35 KB records is under 500 of the 10,000.
        assert_eq!(registry.tenants().len(), ring.len());
        assert!((400..500).contains(&ring.len()), "{} records", ring.len());
    }

    #[test]
    fn a_record_over_the_whole_budget_is_kept_alone_until_the_next() {
        let registry = TenantRegistry::new();
        let small = registry.register("alpha", "{}").expect("register");
        let huge = registry.register("alpha", "{}").expect("register");
        registry
            .record_report("alpha", huge, &"r".repeat(JOURNAL_BYTES + 1))
            .expect("record");
        let (bytes, ring) = snapshot(&registry);
        assert!(bytes > JOURNAL_BYTES);
        assert_eq!(ring.iter().map(|r| r.seq).collect::<Vec<_>>(), [huge]);
        assert!(registry.record_report("alpha", small, "{}").is_err());

        let next = registry.register("beta", "{}").expect("register");
        let (bytes, ring) = snapshot(&registry);
        assert_eq!(ring.iter().map(|r| r.seq).collect::<Vec<_>>(), [next]);
        assert_eq!(bytes, ring[0].bytes());
    }

    #[test]
    fn a_report_for_a_record_that_is_not_there_is_refused() {
        let registry = TenantRegistry::new();
        assert!(registry.record_report("alpha", 0, "{}").is_err(), "empty");
        // Fill past the budget so the first records leave the ring.
        let spec = "s".repeat(1 << 20);
        let seqs: Vec<u64> = (0..20)
            .map(|_| registry.register("alpha", &spec).expect("register"))
            .collect();
        let before = snapshot(&registry);
        let oldest = before.1[0].seq;
        assert!(oldest > seqs[0], "nothing was evicted");
        for (tenant, seq, why) in [
            ("alpha", seqs[0], "evicted"),
            ("alpha", oldest - 1, "just evicted"),
            ("alpha", seqs[19] + 1, "not yet issued"),
            ("alpha", u64::MAX, "unknown"),
            ("beta", seqs[19], "another tenant's"),
        ] {
            assert!(registry.record_report(tenant, seq, "{}").is_err(), "{why}");
            assert_eq!(snapshot(&registry), before, "{why}");
        }
        registry
            .record_report("alpha", oldest, "{}")
            .expect("the oldest record still in the ring");
    }

    #[test]
    fn concurrent_registrations_number_the_journal_without_gaps_or_duplicates() {
        let registry = TenantRegistry::new();
        let start = std::sync::Barrier::new(4);
        let mut seqs: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..64)
                            .map(|_| registry.register("alpha", "{}").expect("register"))
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("registering thread"))
                .collect()
        });
        seqs.sort_unstable();
        assert_eq!(seqs, (0..256).collect::<Vec<u64>>());
        assert_eq!(registry.recent("alpha").len(), 256);
    }
}
