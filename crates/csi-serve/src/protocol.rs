//! The newline-delimited JSON wire protocol of the `csi-serve` daemon.
//!
//! A connection is a full-duplex byte stream. The client writes one
//! [`CampaignRequest`] per line; the server answers with a stream of
//! [`Frame`] lines. Frames for different tenants interleave freely on a
//! shared connection — every frame carries its tenant name, so a client
//! demultiplexes by tenant, not by position.
//!
//! Per accepted request the server emits, in order:
//!
//! 1. one [`Frame::Accepted`] (admission granted, with the queue depth
//!    observed at admission time);
//! 2. zero or more [`Frame::Detection`] lines, each forwarding one online
//!    [`Detection`] as the campaign's detector judges an observation —
//!    long before the final report exists;
//! 3. exactly one [`Frame::Report`] with the finished campaign.
//!
//! A request that fails admission gets exactly one [`Frame::Rejected`]
//! carrying a typed [`RejectReason`] and nothing else. The campaign body
//! of a request is a plain [`CampaignSpec`] — the same serializable spec
//! the in-process [`Campaign`](csi_test::Campaign) builder wraps — so any
//! spec that runs locally runs over the wire, byte-identically.

use csi_core::detect::Detection;
use csi_test::{CampaignSpec, SpecError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One campaign submission: which tenant is asking, and for what.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRequest {
    /// The submitting tenant. Names are lowercase `[a-z0-9_-]` and at
    /// most [`MAX_TENANT_LEN`] bytes; anything else is rejected with
    /// [`RejectReason::BadTenantName`] before touching any state.
    pub tenant: String,
    /// The campaign to run, exactly as the in-process builder would.
    pub spec: CampaignSpec,
}

/// Upper bound on one request line, newline excluded. A full inline
/// 422-input catalogue spec is well under 1 MiB; a longer line is answered
/// with [`RejectReason::Malformed`] and the connection is closed, so a
/// client that never sends a newline cannot grow the reader's buffer.
pub const MAX_REQUEST_BYTES: usize = 4 << 20;

/// Upper bound on tenant-name length: a name is copied into every frame
/// and journal record of its campaigns.
pub const MAX_TENANT_LEN: usize = 64;

/// Checks a tenant name against the `[a-z0-9_-]{1,64}` rule.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TENANT_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
}

/// A typed reason the daemon refused a request without running it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The request line was not valid `CampaignRequest` JSON.
    Malformed(String),
    /// The tenant name failed [`valid_tenant_name`].
    BadTenantName(String),
    /// The spec failed [`CampaignSpec::validate`] — the same typed error
    /// an in-process [`Campaign::from_spec`](csi_test::Campaign::from_spec)
    /// caller would see.
    InvalidSpec(SpecError),
    /// The global queue is at capacity; retry after reports drain.
    QueueFull {
        /// Queued campaigns at rejection time.
        depth: usize,
        /// The configured global cap.
        limit: usize,
    },
    /// This tenant already has its fair share of queued campaigns;
    /// admission is per-tenant so one tenant cannot starve the rest.
    TenantBacklog {
        /// This tenant's queued campaigns at rejection time.
        depth: usize,
        /// The configured per-tenant cap.
        limit: usize,
    },
    /// The daemon is shutting down and accepts no new work.
    ShuttingDown,
    /// The campaign itself failed after admission (worker panic); the
    /// string carries the panic payload when one could be extracted.
    Internal(String),
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Malformed(e) => write!(f, "malformed request: {e}"),
            RejectReason::BadTenantName(name) => {
                write!(f, "bad tenant name {name:?}: want [a-z0-9_-]{{1,64}}")
            }
            RejectReason::InvalidSpec(e) => write!(f, "invalid campaign spec: {e}"),
            RejectReason::QueueFull { depth, limit } => {
                write!(f, "queue full: {depth} campaigns queued (limit {limit})")
            }
            RejectReason::TenantBacklog { depth, limit } => {
                write!(
                    f,
                    "tenant backlog: {depth} campaigns queued for this tenant (limit {limit})"
                )
            }
            RejectReason::ShuttingDown => write!(f, "server is shutting down"),
            RejectReason::Internal(e) => write!(f, "campaign failed: {e}"),
        }
    }
}

/// One server-to-client line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// The request passed admission and is queued.
    Accepted {
        /// The tenant the frame belongs to.
        tenant: String,
        /// Global queue depth right after this campaign was enqueued.
        queue_depth: usize,
    },
    /// The request was refused; no further frames follow for it.
    Rejected {
        /// The tenant the frame belongs to (empty when the request was
        /// too malformed to name one).
        tenant: String,
        /// Why the request was refused.
        reason: RejectReason,
    },
    /// One online detection, streamed as the running campaign's detector
    /// judges an observation.
    Detection {
        /// The tenant the frame belongs to.
        tenant: String,
        /// The detection, exactly as the final report will aggregate it.
        detection: Detection,
    },
    /// The finished campaign; the terminal frame of an accepted request.
    Report {
        /// The tenant the frame belongs to.
        tenant: String,
        /// Wall time of the campaign run, microseconds.
        campaign_micros: u64,
        /// How many [`Frame::Detection`] lines preceded this frame.
        detections: usize,
        /// The [`DiscrepancyReport`](csi_core::report::DiscrepancyReport)
        /// as a JSON document. Carried as a string because the report
        /// type is serialize-only; byte-comparing this field against an
        /// in-process run of the same spec is the determinism contract.
        report_json: String,
        /// The human-readable rendering of the full outcome.
        render: String,
    },
}

impl Frame {
    /// The tenant this frame belongs to.
    pub fn tenant(&self) -> &str {
        match self {
            Frame::Accepted { tenant, .. }
            | Frame::Rejected { tenant, .. }
            | Frame::Detection { tenant, .. }
            | Frame::Report { tenant, .. } => tenant,
        }
    }

    /// Whether this frame ends its request (a report or a rejection).
    pub fn is_terminal(&self) -> bool {
        matches!(self, Frame::Rejected { .. } | Frame::Report { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_json_lines() {
        let frames = vec![
            Frame::Accepted {
                tenant: "t0".into(),
                queue_depth: 3,
            },
            Frame::Rejected {
                tenant: "t1".into(),
                reason: RejectReason::QueueFull {
                    depth: 64,
                    limit: 64,
                },
            },
            Frame::Report {
                tenant: "t2".into(),
                campaign_micros: 1234,
                detections: 0,
                report_json: "{}".into(),
                render: "report".into(),
            },
        ];
        for frame in frames {
            let line = serde_json::to_string(&frame).expect("frame serializes");
            assert!(!line.contains('\n'), "frames must fit one line: {line}");
            let back: Frame = serde_json::from_str(&line).expect("frame deserializes");
            assert_eq!(back, frame);
            assert_eq!(
                back.is_terminal(),
                matches!(back, Frame::Rejected { .. } | Frame::Report { .. })
            );
        }
    }

    #[test]
    fn requests_round_trip_and_tenant_names_are_policed() {
        let request = CampaignRequest {
            tenant: "tenant-07_a".into(),
            spec: CampaignSpec::default(),
        };
        let line = serde_json::to_string(&request).expect("request serializes");
        let back: CampaignRequest = serde_json::from_str(&line).expect("request deserializes");
        assert_eq!(back, request);
        assert!(valid_tenant_name(&request.tenant));
        for bad in ["", "Tenant", "a b", "a/b", "a.b", &"x".repeat(65)] {
            assert!(!valid_tenant_name(bad), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn reject_reasons_render_and_round_trip() {
        let reasons = vec![
            RejectReason::Malformed("expected value".into()),
            RejectReason::BadTenantName("A!".into()),
            RejectReason::InvalidSpec(SpecError::BadChunkSize),
            RejectReason::TenantBacklog { depth: 4, limit: 4 },
            RejectReason::ShuttingDown,
            RejectReason::Internal("panic".into()),
        ];
        for reason in reasons {
            assert!(!reason.to_string().is_empty());
            let line = serde_json::to_string(&reason).expect("reason serializes");
            let back: RejectReason = serde_json::from_str(&line).expect("reason deserializes");
            assert_eq!(back, reason);
        }
    }
}
