//! `csi-serve` — campaign-as-a-service for the CSI cross-testing tool.
//!
//! The in-process [`Campaign`](csi_test::Campaign) builder runs one
//! campaign for one caller. This crate turns the same API surface into a
//! long-running multi-tenant daemon: a [`CsiServer`] listens on TCP,
//! speaks newline-delimited JSON ([`protocol`]), and runs concurrent
//! campaigns on a worker pool scheduled fairly across tenants
//! ([`sched`]), with what each tenant asked and was answered kept in a
//! bounded journal ([`tenant`]). Each campaign builds its own
//! deployments and drops them when done, so tenants share no engine
//! state.
//!
//! The request body is the serializable
//! [`CampaignSpec`](csi_test::CampaignSpec) — the very struct the
//! builder wraps — so the wire surface and the in-process surface cannot
//! drift, and a served campaign's report is byte-identical to running
//! the same spec locally. Online detections stream back as they are
//! recorded, before the final report, via
//! [`DetectionTap`](csi_core::detect::DetectionTap).

pub mod client;
pub mod protocol;
pub mod sched;
pub mod server;
pub mod tenant;

pub use client::{run_specs, ServeClient, TenantOutcome};
pub use protocol::{
    valid_tenant_name, CampaignRequest, Frame, RejectReason, MAX_REQUEST_BYTES, MAX_TENANT_LEN,
};
pub use sched::{Admission, FairScheduler};
pub use server::{CsiServer, PoolStats, ServeConfig};
pub use tenant::{fnv1a, Record, TenantRegistry, JOURNAL_BYTES};
