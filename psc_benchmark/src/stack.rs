//! The serving stack under test — a `ServiceServer`, or three
//! `FederatedNode`s in a chain — and the set-up every run starts with:
//! boot it and load the whole population over the wire.

use crate::client::Conn;
use crate::workloads::{encode_request, encode_response, Compiled, Topology, Workload};
use psc_broker::{BrokerId, CoveringPolicy};
use psc_model::wire::{FederationStats, LatencyStats};
use psc_service::federation::{FederatedNode, FederationConfig};
use psc_service::wire::{Request, Response};
use psc_service::{FsyncPolicy, ServiceClient, ServiceConfig, ServiceMetrics, ServiceServer};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Requests in flight while the population loads.
pub const SETUP_WINDOW: usize = 256;

pub enum Stack {
    Single(ServiceServer),
    /// Publisher side first: `[a, b, c]`.
    Chain3([FederatedNode; 3]),
}

/// The service configuration of a workload's (single) server; the traced
/// run boots its in-process twin from the same value.
pub fn service_config(shards: usize, placement: bool, data_dir: Option<&Path>) -> ServiceConfig {
    let mut config = ServiceConfig::with_shards(shards);
    config.placement_enabled = placement;
    if let Some(dir) = data_dir {
        config.data_dir = Some(dir.to_path_buf());
        // A shared VM's device-flush latency is not the program: the
        // append, group-commit, rotation and snapshot paths all still run.
        config.fsync = FsyncPolicy::Never;
    }
    config
}

fn mesh_node(
    schema: &psc_model::Schema,
    id: usize,
    peers: &[usize],
) -> std::io::Result<FederatedNode> {
    let mut config = ServiceConfig::with_shards(1);
    config.io_timeout = Some(Duration::from_secs(10));
    let fed = FederationConfig {
        // Peer addresses are patched in once every node has bound its
        // OS-assigned port.
        peers: peers
            .iter()
            .map(|&p| (BrokerId(p), SocketAddr::from(([127, 0, 0, 1], 9))))
            .collect(),
        policy: CoveringPolicy::Pairwise,
        heartbeat_interval: Some(Duration::from_millis(500)),
        ..FederationConfig::new(BrokerId(id))
    };
    FederatedNode::start(schema.clone(), config, fed)
}

/// One `stats` scrape.
pub struct Stats {
    pub metrics: ServiceMetrics,
    pub latency: Option<LatencyStats>,
}

impl Stack {
    /// Boots the workload's topology; `data_dir` must be a fresh directory
    /// when the workload is durable.
    pub fn start(workload: &Workload, data_dir: &Path) -> std::io::Result<Stack> {
        match workload.topology {
            Topology::Single {
                shards,
                durable,
                placement,
            } => {
                let config = service_config(shards, placement, durable.then_some(data_dir));
                ServiceServer::bind("127.0.0.1:0", workload.schema.clone(), config)
                    .map(Stack::Single)
            }
            Topology::Chain3 => {
                let a = mesh_node(&workload.schema, 0, &[1])?;
                let b = mesh_node(&workload.schema, 1, &[0, 2])?;
                let c = mesh_node(&workload.schema, 2, &[1])?;
                a.set_peer_addr(BrokerId(1), b.local_addr());
                b.set_peer_addr(BrokerId(0), a.local_addr());
                b.set_peer_addr(BrokerId(2), c.local_addr());
                c.set_peer_addr(BrokerId(1), b.local_addr());
                Ok(Stack::Chain3([a, b, c]))
            }
        }
    }

    /// Where publications enter.
    pub fn publish_addr(&self) -> SocketAddr {
        match self {
            Stack::Single(server) => server.local_addr(),
            Stack::Chain3([a, _, _]) => a.local_addr(),
        }
    }

    /// Where subscriptions enter.
    pub fn subscribe_addr(&self) -> SocketAddr {
        match self {
            Stack::Single(server) => server.local_addr(),
            Stack::Chain3([_, _, c]) => c.local_addr(),
        }
    }

    /// Scrapes the node at `addr` over a short-lived control connection.
    fn stats(addr: SocketAddr) -> Result<Stats, String> {
        let mut control =
            ServiceClient::connect_binary(addr).map_err(|e| format!("stats connect: {e}"))?;
        let (metrics, _reactor, latency) = control
            .stats_full()
            .map_err(|e| format!("stats scrape: {e}"))?;
        Ok(Stats { metrics, latency })
    }

    /// Stats of every node a publication visits, publisher side first.
    pub fn scrape(&self) -> Result<Vec<Stats>, String> {
        match self {
            Stack::Single(server) => Ok(vec![Stack::stats(server.local_addr())?]),
            Stack::Chain3(nodes) => nodes
                .iter()
                .map(|node| Stack::stats(node.local_addr()))
                .collect(),
        }
    }

    /// Mesh counters of every node, publisher side first (empty for a
    /// single server).
    pub fn federation_stats(&self) -> Vec<FederationStats> {
        match self {
            Stack::Single(_) => Vec::new(),
            Stack::Chain3(nodes) => nodes.iter().map(FederatedNode::federation_stats).collect(),
        }
    }

    pub fn stop(self) {
        match self {
            Stack::Single(server) => server.stop(),
            Stack::Chain3(nodes) => {
                for node in &nodes {
                    node.stop();
                }
            }
        }
    }
}

/// A booted stack with its population loaded and its data connections
/// open: one for a single server, two for the mesh.
pub struct Loaded {
    pub stack: Stack,
    /// Carries the op list (to node A on the mesh).
    pub publisher: Conn,
    /// The mesh's second connection, to node C; it loaded the population.
    pub edge: Option<Conn>,
    /// Set-up replies that were not `queued`/`flushed`.
    pub failed: u64,
}

impl Loaded {
    pub fn stop(self) {
        drop(self.publisher);
        drop(self.edge);
        self.stack.stop();
    }
}

/// Boots the stack and loads the population through the closing `flush` +
/// `stats` barrier. `on_subscribed(i, sent_at)` sees every subscribe reply.
pub fn set_up(
    workload: &Workload,
    compiled: &Compiled,
    data_dir: &Path,
    window: usize,
    on_subscribed: impl FnMut(usize, Instant),
) -> Result<Loaded, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let stack = Stack::start(workload, data_dir).map_err(|e| io("boot", e))?;
    let proto = workload.proto;
    let mut loader =
        Conn::connect(stack.subscribe_addr(), proto).map_err(|e| io("connect subscriber", e))?;
    let outcome = loader
        .pass(
            &compiled.setup,
            &compiled.setup_expected,
            (0, compiled.setup.len()),
            window,
            on_subscribed,
        )
        .map_err(|e| io("load population", e))?;
    let flushed = loader
        .call(&encode_request(proto, &Request::Flush))
        .map_err(|e| io("flush", e))?
        == encode_response(proto, &Response::Flushed);
    // On an in-memory service `flush` only hands the buffered batches to
    // the shard queues. A `stats` scrape travels the same queues, so its
    // reply proves every subscription is admitted — the population is
    // loaded, not merely sent.
    loader
        .call(&encode_request(proto, &Request::Stats))
        .map_err(|e| io("stats barrier", e))?;
    let failed = outcome.failed + u64::from(!flushed);
    let (publisher, edge) = match workload.topology {
        Topology::Single { .. } => (loader, None),
        Topology::Chain3 => {
            let publisher = Conn::connect(stack.publish_addr(), proto)
                .map_err(|e| io("connect publisher", e))?;
            (publisher, Some(loader))
        }
    };
    Ok(Loaded {
        stack,
        publisher,
        edge,
        failed,
    })
}
