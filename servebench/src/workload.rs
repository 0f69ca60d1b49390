//! The benchmark's workloads: dataset, server layout, request stream,
//! latency limit and offered-rate ladder of each, and the one function that
//! builds a server for them the way `zoomer-serve` does.

use std::sync::Arc;

use zoomer_data::{TaobaoConfig, TaobaoData};
use zoomer_graph::{HeteroGraph, NodeId, NodeType, Query, ShardingConfig};
use zoomer_model::{CtrModel, FrozenModel, ModelConfig, UnifiedCtrModel};
use zoomer_obs::MetricsRegistry;
use zoomer_serving::{OnlineServer, ServingConfig, ShardedServer};

/// `zoomer-serve`'s dataset and model seed.
pub const DATASET_SEED: u64 = 42;

/// Where a workload's requests come from.
#[derive(Clone, Copy, Debug)]
pub enum StreamKind {
    /// (user, query) pairs drawn from the generated session logs, which
    /// keeps their popularity skew.
    SessionLogs,
    /// Users and queries drawn uniformly from every user and query node.
    Uniform,
}

/// One workload. Every field that reaches the server is an existing
/// `ServingConfig` field or a field of the request frames.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub users: usize,
    pub queries: usize,
    pub items: usize,
    pub sessions: usize,
    pub shards: usize,
    pub replicas: usize,
    /// `ServingConfig::cache_capacity`; `None` keeps the default.
    pub cache_capacity: Option<usize>,
    pub queries_per_frame: usize,
    pub top_k: u32,
    pub stream: StreamKind,
    /// The latency limit: every frame carries it as `deadline_us`, and a
    /// ladder rung passes when its p99 request latency is within it.
    pub limit_ms: f64,
    /// Offered rates of the open-loop ladder in requests/s, ascending.
    pub ladder: &'static [f64],
    /// Index into `ladder` of the nominal rate (about half of the
    /// closed-loop throughput measured on a 2-vCPU virtual machine) and of
    /// the peak rate (about 70%).
    pub nominal: usize,
    pub peak: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "hot_k10",
        users: 500,
        queries: 500,
        items: 1_000,
        sessions: 4_000,
        shards: 2,
        replicas: 1,
        cache_capacity: None,
        queries_per_frame: 16,
        top_k: 10,
        stream: StreamKind::SessionLogs,
        limit_ms: 25.0,
        ladder: &[19_000.0, 38_000.0, 53_000.0, 76_000.0, 106_000.0, 150_000.0],
        nominal: 1,
        peak: 2,
    },
    Workload {
        name: "wide_k100",
        users: 500,
        queries: 500,
        items: 1_000,
        sessions: 4_000,
        shards: 2,
        replicas: 1,
        cache_capacity: None,
        queries_per_frame: 16,
        top_k: 100,
        stream: StreamKind::SessionLogs,
        limit_ms: 25.0,
        ladder: &[5_750.0, 11_500.0, 16_000.0, 23_000.0, 32_000.0, 46_000.0],
        nominal: 1,
        peak: 2,
    },
    Workload {
        name: "cold_b1",
        users: 20_000,
        queries: 500,
        items: 4_000,
        sessions: 60_000,
        shards: 1,
        replicas: 1,
        cache_capacity: Some(4_096),
        queries_per_frame: 1,
        top_k: 10,
        stream: StreamKind::Uniform,
        limit_ms: 25.0,
        ladder: &[3_400.0, 6_800.0, 9_500.0, 13_500.0, 19_000.0, 27_000.0],
        nominal: 1,
        peak: 2,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A built server plus what a run needs to generate requests for it
/// and to check its answers.
pub struct Built {
    pub server: Arc<ShardedServer>,
    pub graph: Arc<HeteroGraph>,
    pub frozen: FrozenModel,
    pub items: Vec<NodeId>,
    /// (user, query) pairs of the session logs.
    pub log_pairs: Vec<(NodeId, NodeId)>,
    pub user_nodes: Vec<NodeId>,
    pub query_nodes: Vec<NodeId>,
}

impl Workload {
    pub fn serving_config(&self) -> ServingConfig {
        let defaults = ServingConfig::default();
        ServingConfig {
            sharding: ShardingConfig { num_shards: self.shards, replicas_per_shard: self.replicas },
            cache_capacity: self.cache_capacity.unwrap_or(defaults.cache_capacity),
            ..defaults
        }
    }

    pub fn deadline_us(&self) -> u64 {
        (self.limit_ms * 1_000.0).round() as u64
    }

    /// Build the server through the same public calls `zoomer-serve` makes:
    /// `TaobaoData::generate` → `UnifiedCtrModel::freeze` →
    /// `OnlineServer::builder()` → `ShardedServer::build`.
    pub fn build(&self) -> Result<Built, String> {
        let data = TaobaoData::generate(TaobaoConfig {
            num_users: self.users,
            num_queries: self.queries,
            num_items: self.items,
            num_sessions: self.sessions,
            ..TaobaoConfig::default_with_seed(DATASET_SEED)
        });
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(DATASET_SEED, dd));
        let frozen = model.freeze(&data.graph);
        let items = data.item_nodes();
        let log_pairs: Vec<(NodeId, NodeId)> =
            data.logs.iter().map(|l| (l.user, l.query)).collect();
        let graph = Arc::new(data.graph);
        let builder = OnlineServer::builder()
            .graph(Arc::clone(&graph))
            .frozen(frozen.clone())
            .item_pool(&items)
            .config(self.serving_config())
            .seed(DATASET_SEED)
            .metrics(Arc::new(MetricsRegistry::enabled()));
        let server = ShardedServer::build(builder).map_err(|e| format!("build server: {e}"))?;
        Ok(Built {
            server: Arc::new(server),
            user_nodes: graph.nodes_of_type(NodeType::User),
            query_nodes: graph.nodes_of_type(NodeType::Query),
            graph,
            frozen,
            items,
            log_pairs,
        })
    }
}

/// SplitMix64: the benchmark's only random source, so a seed fixes every
/// request stream and arrival schedule.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named use of `seed` (a phase, a connection).
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One request frame of the workload's stream, drawn from `rng`.
pub fn frame(w: &Workload, built: &Built, rng: &mut Rng) -> Vec<Query> {
    (0..w.queries_per_frame)
        .map(|_| {
            let (user, query) = match w.stream {
                StreamKind::SessionLogs => built.log_pairs[rng.below(built.log_pairs.len())],
                StreamKind::Uniform => (
                    built.user_nodes[rng.below(built.user_nodes.len())],
                    built.query_nodes[rng.below(built.query_nodes.len())],
                ),
            };
            Query::new(user, query).with_top_k(w.top_k)
        })
        .collect()
}
