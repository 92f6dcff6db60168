//! Region assignment and the stale-location-cache discrepancy
//! (HBASE-16621).
//!
//! Clients cache region→server locations to avoid a master round-trip per
//! request. When a region moves while a cached entry is live, the client's
//! next request lands on a server that no longer serves the region —
//! "asynchrony-induced stale states due to concurrent events" (Table 8).
//! Neither side is buggy: the cache is a documented optimization, the move
//! is a documented operation; the composition needs the retry protocol the
//! shipped code lacked.

use csi_core::boundary::{BoundaryCall, CrossingContext};
use csi_core::error::{ErrorKind, InteractionError};
use csi_core::fault::{Channel, FaultKind, FaultPoint, InjectedFault};
use std::collections::BTreeMap;
use std::fmt;

/// A region server identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

/// The error a server returns for a region it does not serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotServingRegion {
    /// The region asked for.
    pub region: String,
    /// The server that was asked.
    pub asked: ServerId,
}

impl fmt::Display for NotServingRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NotServingRegionException: {} is not served by server {}",
            self.region, self.asked.0
        )
    }
}

impl std::error::Error for NotServingRegion {}

/// The master's authoritative region assignment.
#[derive(Debug, Default)]
pub struct ClusterState {
    assignment: BTreeMap<String, ServerId>,
    moves: u64,
}

impl ClusterState {
    /// Creates an empty cluster.
    pub fn new() -> ClusterState {
        ClusterState::default()
    }

    /// Assigns (or moves) a region to a server.
    pub fn assign(&mut self, region: &str, server: ServerId) {
        if self.assignment.insert(region.to_string(), server).is_some() {
            self.moves += 1;
        }
    }

    /// Authoritative lookup (a master round-trip).
    pub fn locate(&self, region: &str) -> Option<ServerId> {
        self.assignment.get(region).copied()
    }

    /// Whether `server` currently serves `region`.
    pub fn serves(&self, region: &str, server: ServerId) -> bool {
        self.locate(region) == Some(server)
    }

    /// Region moves performed so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }
}

/// A failed key-value request, as the routing client surfaces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The region server (or master) serving the request is down.
    RegionServerDown {
        /// The operation that hit the dead server.
        op: String,
    },
    /// The request timed out after `ms` of (virtual) time.
    RpcTimeout {
        /// The operation that timed out.
        op: String,
        /// Simulated elapsed time before the timeout fired.
        ms: u64,
    },
    /// The request landed on a server that does not serve the region.
    NotServing(NotServingRegion),
}

impl RequestError {
    /// Stable error code.
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::RegionServerDown { .. } => "REGION_SERVER_DOWN",
            RequestError::RpcTimeout { .. } => "HBASE_RPC_TIMEOUT",
            RequestError::NotServing(_) => "NOT_SERVING_REGION",
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::RegionServerDown { op } => {
                write!(f, "region server unavailable during {op}")
            }
            RequestError::RpcTimeout { op, ms } => write!(f, "{op} timed out after {ms}ms"),
            RequestError::NotServing(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<RequestError> for InteractionError {
    fn from(e: RequestError) -> InteractionError {
        let kind = match &e {
            RequestError::RegionServerDown { .. } => ErrorKind::Unavailable,
            RequestError::RpcTimeout { .. } => ErrorKind::Timeout,
            RequestError::NotServing(_) => ErrorKind::Rejected,
        };
        InteractionError::new("minihbase", kind, e.code(), e.to_string())
    }
}

impl FaultPoint for RequestError {
    const CHANNEL: Channel = Channel::HBase;

    fn materialize(fault: &InjectedFault) -> RequestError {
        match fault.kind {
            FaultKind::Unavailable => RequestError::RegionServerDown {
                op: fault.op.clone(),
            },
            FaultKind::Timeout { ms } | FaultKind::Latency { ms } => RequestError::RpcTimeout {
                op: fault.op.clone(),
                ms,
            },
            // A corrupted location response is not an error the client
            // sees: the lookup *succeeds* with a stale/wrong server, the
            // HBASE-16621 shape. `route_with` handles it in-band; this
            // arm only exists for completeness.
            FaultKind::CorruptPayload => RequestError::NotServing(NotServingRegion {
                region: fault.op.clone(),
                asked: ServerId(u32::MAX),
            }),
        }
    }
}

/// Client retry behavior on `NotServingRegionException`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Shipped: trust the cache; surface the error (HBASE-16621).
    TrustCache,
    /// Fixed: invalidate the cache entry and retry via the master.
    RefreshAndRetry,
}

/// A location-caching client.
#[derive(Debug, Default)]
pub struct HBaseClient {
    cache: BTreeMap<String, ServerId>,
    master_lookups: u64,
}

impl HBaseClient {
    /// Creates a client with an empty cache.
    pub fn new() -> HBaseClient {
        HBaseClient::default()
    }

    /// Routes one request for `region`, returning the server that actually
    /// handled it.
    pub fn route(
        &mut self,
        cluster: &ClusterState,
        region: &str,
        policy: RetryPolicy,
    ) -> Result<ServerId, NotServingRegion> {
        match self.route_with(cluster, region, policy, None) {
            Ok(s) => Ok(s),
            Err(RequestError::NotServing(e)) => Err(e),
            // Without a crossing context no fault can be injected.
            Err(_) => unreachable!("injected fault without a crossing context"),
        }
    }

    /// One master round-trip, crossed through the HBase boundary: an
    /// injected [`FaultKind::CorruptPayload`] on `locate` *succeeds* but
    /// returns a wrong (stale) server — corruption of a location response
    /// is invisible until the request lands (HBASE-16621's shape).
    fn master_lookup(
        &mut self,
        cluster: &ClusterState,
        region: &str,
        asked: ServerId,
        ctx: Option<&CrossingContext>,
    ) -> Result<ServerId, RequestError> {
        self.master_lookups += 1;
        let injected = ctx.and_then(|c| {
            c.intercept(BoundaryCall::new(Channel::HBase, "locate").with_payload(region))
        });
        if let Some(fault) = &injected {
            if fault.kind != FaultKind::CorruptPayload {
                return Err(RequestError::materialize(fault));
            }
        }
        let fresh = cluster.locate(region).ok_or_else(|| {
            RequestError::NotServing(NotServingRegion {
                region: region.to_string(),
                asked,
            })
        })?;
        Ok(match injected {
            // Deterministically wrong server: flip the low bit.
            Some(_) => ServerId(fresh.0 ^ 1),
            None => fresh,
        })
    }

    /// Routes one request for `region` through the instrumented boundary:
    /// the request itself crosses as `route`, every master round-trip as
    /// `locate`, so the trace shows exactly which lookups the retry policy
    /// paid for.
    pub fn route_with(
        &mut self,
        cluster: &ClusterState,
        region: &str,
        policy: RetryPolicy,
        ctx: Option<&CrossingContext>,
    ) -> Result<ServerId, RequestError> {
        if let Some(c) = ctx {
            c.cross::<RequestError>(
                BoundaryCall::new(Channel::HBase, "route").with_payload(region),
            )?;
        }
        let cached = match self.cache.get(region) {
            Some(s) => *s,
            None => {
                let s = self.master_lookup(cluster, region, ServerId(u32::MAX), ctx)?;
                self.cache.insert(region.to_string(), s);
                s
            }
        };
        if cluster.serves(region, cached) {
            return Ok(cached);
        }
        // The cached location is stale (or was poisoned in flight).
        match policy {
            RetryPolicy::TrustCache => Err(RequestError::NotServing(NotServingRegion {
                region: region.to_string(),
                asked: cached,
            })),
            RetryPolicy::RefreshAndRetry => {
                self.cache.remove(region);
                let fresh = self.master_lookup(cluster, region, cached, ctx)?;
                self.cache.insert(region.to_string(), fresh);
                if cluster.serves(region, fresh) {
                    Ok(fresh)
                } else {
                    Err(RequestError::NotServing(NotServingRegion {
                        region: region.to_string(),
                        asked: fresh,
                    }))
                }
            }
        }
    }

    /// Master round-trips performed (the cost the cache amortizes).
    pub fn master_lookups(&self) -> u64 {
        self.master_lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csi_core::boundary::channel_totals;
    use csi_core::fault::{FaultSpec, Trigger};

    #[test]
    fn cache_amortizes_master_lookups() {
        let mut cluster = ClusterState::new();
        cluster.assign("t,region-0", ServerId(1));
        let mut client = HBaseClient::new();
        for _ in 0..10 {
            let s = client
                .route(&cluster, "t,region-0", RetryPolicy::TrustCache)
                .unwrap();
            assert_eq!(s, ServerId(1));
        }
        assert_eq!(client.master_lookups(), 1);
    }

    #[test]
    fn hbase_16621_stale_cache_fails_under_shipped_policy() {
        let mut cluster = ClusterState::new();
        cluster.assign("t,region-0", ServerId(1));
        let mut client = HBaseClient::new();
        client
            .route(&cluster, "t,region-0", RetryPolicy::TrustCache)
            .unwrap();
        // The region moves concurrently.
        cluster.assign("t,region-0", ServerId(2));
        assert_eq!(cluster.moves(), 1);
        let err = client
            .route(&cluster, "t,region-0", RetryPolicy::TrustCache)
            .unwrap_err();
        assert_eq!(err.asked, ServerId(1));
        assert!(err.to_string().contains("NotServingRegionException"));
    }

    #[test]
    fn refresh_and_retry_heals_the_stale_cache() {
        let mut cluster = ClusterState::new();
        cluster.assign("t,region-0", ServerId(1));
        let mut client = HBaseClient::new();
        client
            .route(&cluster, "t,region-0", RetryPolicy::RefreshAndRetry)
            .unwrap();
        cluster.assign("t,region-0", ServerId(2));
        let s = client
            .route(&cluster, "t,region-0", RetryPolicy::RefreshAndRetry)
            .unwrap();
        assert_eq!(s, ServerId(2));
        // The refreshed entry is cached again.
        let s = client
            .route(&cluster, "t,region-0", RetryPolicy::TrustCache)
            .unwrap();
        assert_eq!(s, ServerId(2));
        assert_eq!(client.master_lookups(), 2);
    }

    fn stale_locate_ctx(trigger: Trigger) -> CrossingContext {
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "hbase-stale-locate".into(),
            channel: Channel::HBase,
            op: "locate".into(),
            kind: FaultKind::CorruptPayload,
            trigger,
        });
        ctx
    }

    #[test]
    fn unavailable_route_propagates_with_context() {
        let mut cluster = ClusterState::new();
        cluster.assign("t,region-0", ServerId(1));
        let mut client = HBaseClient::new();
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "hbase-unavail-route".into(),
            channel: Channel::HBase,
            op: "route".into(),
            kind: FaultKind::Unavailable,
            trigger: Trigger::Always,
        });
        let err = client
            .route_with(&cluster, "t,region-0", RetryPolicy::TrustCache, Some(&ctx))
            .unwrap_err();
        assert_eq!(err.code(), "REGION_SERVER_DOWN");
        let surfaced: InteractionError = err.into();
        assert_eq!(surfaced.kind, ErrorKind::Unavailable);
        assert_eq!(ctx.trace().len(), 1);
    }

    #[test]
    fn poisoned_locate_fails_trust_cache_but_heals_refresh_retry() {
        let mut cluster = ClusterState::new();
        cluster.assign("t,region-0", ServerId(2));
        // Shipped policy: the poisoned location is trusted and the
        // request surfaces NotServingRegionException.
        let mut client = HBaseClient::new();
        let ctx = stale_locate_ctx(Trigger::OnCall(0));
        let err = client
            .route_with(&cluster, "t,region-0", RetryPolicy::TrustCache, Some(&ctx))
            .unwrap_err();
        assert_eq!(err.code(), "NOT_SERVING_REGION");
        // Fixed policy: the retry lookup is clean and the request heals.
        let mut client = HBaseClient::new();
        let ctx = stale_locate_ctx(Trigger::OnCall(0));
        let served = client
            .route_with(
                &cluster,
                "t,region-0",
                RetryPolicy::RefreshAndRetry,
                Some(&ctx),
            )
            .unwrap();
        assert_eq!(served, ServerId(2));
        assert_eq!(client.master_lookups(), 2);
        // The trace shows the route plus both lookups.
        let trace = ctx.trace();
        assert_eq!(channel_totals([&trace])["hbase"], 3);
    }

    #[test]
    fn unknown_regions_error_cleanly() {
        let cluster = ClusterState::new();
        let mut client = HBaseClient::new();
        assert!(client
            .route(&cluster, "nope", RetryPolicy::RefreshAndRetry)
            .is_err());
    }
}
