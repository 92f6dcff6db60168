//! A blocking client for the `csi-serve` wire protocol.
//!
//! [`ServeClient`] wraps one TCP connection: submit any number of
//! [`CampaignRequest`]s, then read [`Frame`]s back — raw, one at a time,
//! via [`ServeClient::read_frame`], or demultiplexed per tenant via
//! [`ServeClient::collect`]. The one-call convenience for tests and
//! benchmarks is [`run_specs`]: one connection, one campaign per tenant,
//! every outcome gathered.

use crate::protocol::{CampaignRequest, Frame, RejectReason};
use csi_core::detect::Detection;
use csi_test::CampaignSpec;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// Everything the server said about one tenant's campaign.
#[derive(Debug, Clone, Default)]
pub struct TenantOutcome {
    /// The tenant the outcome belongs to.
    pub tenant: String,
    /// Global queue depth reported at admission, when accepted.
    pub queue_depth: Option<usize>,
    /// Detections in arrival order — all received before `report_json`
    /// was, since the report frame is terminal.
    pub detections: Vec<Detection>,
    /// The refusal, when the request was rejected.
    pub rejected: Option<RejectReason>,
    /// Campaign wall time reported by the server, microseconds.
    pub campaign_micros: Option<u64>,
    /// The final report as JSON, when the campaign finished.
    pub report_json: Option<String>,
    /// The human-readable rendering of the outcome.
    pub render: Option<String>,
}

/// One connection to a `csi-serve` daemon.
pub struct ServeClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ServeClient {
    /// Connects to a daemon. The socket gets `TCP_NODELAY`, as the
    /// daemon's end does: a request is one small write that must leave
    /// now, not when the previous reply's delayed ACK goes out.
    pub fn connect(addr: SocketAddr) -> io::Result<ServeClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(ServeClient { writer, reader })
    }

    /// Submits one campaign for `tenant`. Frames for it arrive on this
    /// same connection, tagged with the tenant name.
    pub fn submit(&mut self, tenant: &str, spec: &CampaignSpec) -> io::Result<()> {
        let request = CampaignRequest {
            tenant: tenant.to_string(),
            spec: spec.clone(),
        };
        let mut line = serde_json::to_string(&request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Reads the next frame, whatever tenant it belongs to.
    pub fn read_frame(&mut self) -> io::Result<Frame> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde_json::from_str(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Reads frames until `terminals` requests have finished (report or
    /// rejection), folding everything into per-tenant outcomes. Assumes
    /// at most one in-flight campaign per tenant on this connection —
    /// submit under distinct tenant names (or use [`ServeClient::read_frame`])
    /// for anything fancier. Outcomes come back in tenant-name order.
    pub fn collect(&mut self, terminals: usize) -> io::Result<Vec<TenantOutcome>> {
        let mut outcomes: BTreeMap<String, TenantOutcome> = BTreeMap::new();
        let mut finished = 0;
        while finished < terminals {
            let frame = self.read_frame()?;
            let entry = outcomes
                .entry(frame.tenant().to_string())
                .or_insert_with(|| TenantOutcome {
                    tenant: frame.tenant().to_string(),
                    ..TenantOutcome::default()
                });
            if frame.is_terminal() {
                finished += 1;
            }
            match frame {
                Frame::Accepted { queue_depth, .. } => entry.queue_depth = Some(queue_depth),
                Frame::Rejected { reason, .. } => entry.rejected = Some(reason),
                Frame::Detection { detection, .. } => entry.detections.push(detection),
                Frame::Report {
                    campaign_micros,
                    report_json,
                    render,
                    ..
                } => {
                    entry.campaign_micros = Some(campaign_micros);
                    entry.report_json = Some(report_json);
                    entry.render = Some(render);
                }
            }
        }
        Ok(outcomes.into_values().collect())
    }
}

/// One connection, one campaign per tenant: submits every request, then
/// collects until each has its terminal frame.
pub fn run_specs(
    addr: SocketAddr,
    requests: &[(String, CampaignSpec)],
) -> io::Result<Vec<TenantOutcome>> {
    let mut client = ServeClient::connect(addr)?;
    for (tenant, spec) in requests {
        client.submit(tenant, spec)?;
    }
    client.collect(requests.len())
}
