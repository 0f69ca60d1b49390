//! The online retrieval server: request → focal → cached neighbors →
//! online embedding → ANN lookup → ranked item ids.
//!
//! Execution is batch-first: [`OnlineServer::handle_batch`] resolves the
//! neighbor cache for a whole batch under one lock round, runs the frozen
//! towers as one stacked matmul per layer, and issues a multi-query ANN
//! probe that visits each coarse list once per batch. A single request is a
//! batch of one through the same path.
//!
//! A full-quality batch never comes back short: the backend's filled probe
//! ([`SearchBackend::search_batch_filled`]) answers a row whose probe
//! cannot fill its top-k with the exact top-k, inside the ANN stage. The
//! server itself only truncates.
//!
//! Under a bounded deadline the batch serves at a
//! [`BrownoutRung`](crate::brownout::BrownoutRung) chosen from the
//! remaining budget — full quality, no exact fill, shrunk top-k, capped
//! probe, or inverted-index fallback — each rung counted under
//! `serve.degraded.*`.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rayon::prelude::*;
use zoomer_graph::{HeteroGraph, NodeId, Query, Retrieval, ShardingConfig};
use zoomer_model::frozen::{neutral_topk_neighbors, FrozenModel};
use zoomer_obs::{Counter, Histogram, MetricsRegistry, Snapshot, StageTimer};
use zoomer_sampler::{FocalBiasedSampler, FocalContext, NeighborSampler};
use zoomer_tensor::{seeded_rng, Matrix};

use crate::ann::IvfIndex;
use crate::backend::{Backend, BackendKind, ExactSearch, IvfBackend, SearchBackend};
use crate::brownout::BrownoutRung;
use crate::cache::NeighborCache;
use crate::deadline::Deadline;
use crate::error::ServingError;
use crate::fault::{FaultInjector, FaultSite};
use crate::inverted::InvertedIndex;
use crate::proximity::ProximityGraph;
use crate::quantized::QuantizedIvf;

/// A request's resolved (user-neighborhood, query-neighborhood) pair, shared
/// with the cache without copying.
pub(crate) type NeighborPair = (Arc<Vec<NodeId>>, Arc<Vec<NodeId>>);

/// Ranked item postings computed for one chunk of query nodes at build time.
type QueryPostings = Vec<(NodeId, Vec<NodeId>)>;

/// Serving-stack parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServingConfig {
    /// Cached neighbors per node (paper: 30).
    pub cache_k: usize,
    /// Items returned per request.
    pub top_k: usize,
    /// Which retrieval backend the server probes — see
    /// [`crate::backend::SearchBackend`]. IVF-Flat (the default, the
    /// paper's setup), the exact flat scan, or the relevance proximity
    /// graph.
    pub backend: BackendKind,
    /// IVF lists probed per query (IVF backend only).
    pub nprobe: usize,
    /// Coarse clusters in the ANN index (IVF backend only).
    pub nlist: usize,
    /// Out-degree of the navigable neighbor graph (proximity backend only).
    pub graph_degree: usize,
    /// Beam width of the proximity-graph search (proximity backend only).
    /// Plays the role `nprobe` plays for IVF: the recall/latency knob the
    /// deadline ladder caps under pressure.
    pub beam_width: usize,
    /// Minimum IVF lists probed when ranking the per-query postings at
    /// *build* time. The build-time ranking is offline and runs once, so it
    /// can afford a wider probe than the serving-path `nprobe`; the
    /// effective build probe is `nprobe.max(build_nprobe)`. Historically a
    /// hidden `max(4)` — now explicit so a deliberately narrow `nprobe`
    /// study can set `build_nprobe: 1` and actually get a narrow build.
    pub build_nprobe: usize,
    /// Shortlist widening for the quantized backend: the int8 scan keeps
    /// `rerank_factor × top_k` candidates per query, which the exact f32
    /// rerank then narrows back to `top_k`. Larger values recover more of
    /// the recall lost to quantization at proportionally more f32 work on
    /// the shortlist (never on the full probed set). Ignored by the other
    /// backends.
    pub rerank_factor: usize,
    /// Disable the neighbor cache (ablation: sample neighbors per request).
    pub disable_cache: bool,
    /// Per-batch latency budget. `None` (the default) is unbounded and
    /// leaves the request path exactly as it was before deadlines existed.
    /// With a budget: an already-expired batch is rejected at admission
    /// ([`ServingError::DeadlineExceeded`]); past admission the server
    /// degrades instead of erroring — it caps the ANN probe mid-flight and
    /// falls back to inverted-index-only retrieval when the budget is spent,
    /// counting `serve.degraded.*`.
    pub deadline: Option<Duration>,
    /// Neighbor-cache entry bound (second-chance eviction beyond it).
    pub cache_capacity: usize,
    /// Shard/replica layout for [`crate::sharded::ShardedServer`]: how many
    /// scatter-gather shards the item pool splits into and how many worker
    /// threads drain each shard's queue. A plain [`OnlineServer`] ignores it;
    /// the default is the degenerate 1×1 layout, so an un-sharded config is
    /// bit-identical to the pre-sharding server.
    pub sharding: ShardingConfig,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            cache_k: 30,
            top_k: 100,
            backend: BackendKind::Ivf,
            nprobe: 4,
            nlist: 32,
            graph_degree: 12,
            beam_width: 32,
            build_nprobe: 4,
            rerank_factor: crate::quantized::DEFAULT_RERANK_FACTOR,
            disable_cache: false,
            deadline: None,
            cache_capacity: NeighborCache::DEFAULT_CAPACITY,
            sharding: ShardingConfig::single(),
        }
    }
}

/// A scored, per-query retrieval: what the scatter-gather router needs from
/// each shard to merge honestly — item ids *with* their relevance scores
/// (ids alone cannot be interleaved across shards) plus the degraded flag.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoredRetrieval {
    /// `(item id, score)` pairs, descending score.
    pub items: Vec<(u64, f32)>,
    /// True when this answer came off the degraded ladder.
    pub degraded: bool,
}

impl ScoredRetrieval {
    /// Drop the scores, keeping rank order — the public [`Retrieval`] shape.
    pub fn into_retrieval(self) -> Retrieval {
        Retrieval {
            items: self.items.into_iter().map(|(id, _)| id as NodeId).collect(),
            degraded: self.degraded,
        }
    }
}

/// Pre-registered metric handles for the request path. Built once at server
/// construction (the only time the registry lock is taken); recording is
/// relaxed atomics through these handles, and no-ops down to one relaxed
/// load per stage while the registry is disabled.
struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    requests: Counter,
    batches: Counter,
    /// Batches rejected at admission with an already-spent budget.
    deadline_exceeded: Counter,
    /// Requests answered from the inverted-index fallback (budget spent
    /// after admission).
    degraded_fallback: Counter,
    /// Batches whose retrieval probe was capped below the backend's
    /// configured budget (`nprobe` for IVF, beam width for the proximity
    /// graph): `serve.degraded.budget_capped`.
    degraded_budget: Counter,
    /// Batches served at [`BrownoutRung::SkipWiden`]: the exact fill of
    /// under-full lists was skipped (`serve.degraded.skip_widen`).
    degraded_skip_widen: Counter,
    /// Batches served at [`BrownoutRung::ShrinkTopK`]: each query's top-k
    /// was halved (`serve.degraded.topk_shrunk`).
    degraded_topk: Counter,
    /// Rows a `Full` batch answered with the exact top-k because the probe
    /// could not fill their k (`serve.backend.rows_filled`). Never exceeds
    /// `serve.requests` on one server; on a sharded tier every shard counts
    /// its own rows.
    rows_filled: Counter,
    /// EWMA of the ANN stage's cost in ns, measured only when a deadline is
    /// bounded; feeds the next batch's at-risk-probe decision.
    ann_ewma_ns: AtomicU64,
    stage_cache: Histogram,
    stage_embed: Histogram,
    stage_ann: Histogram,
    stage_rank: Histogram,
}

impl ServerMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            requests: registry.counter("serve.requests"),
            batches: registry.counter("serve.batches"),
            deadline_exceeded: registry.counter("serve.deadline_exceeded"),
            degraded_fallback: registry.counter("serve.degraded.fallback"),
            degraded_budget: registry.counter("serve.degraded.budget_capped"),
            degraded_skip_widen: registry.counter("serve.degraded.skip_widen"),
            degraded_topk: registry.counter("serve.degraded.topk_shrunk"),
            rows_filled: registry.counter("serve.backend.rows_filled"),
            ann_ewma_ns: AtomicU64::new(0),
            stage_cache: registry.histogram("serve.stage.cache_resolve_ns"),
            stage_embed: registry.histogram("serve.stage.embed_ns"),
            stage_ann: registry.histogram("serve.stage.ann_probe_ns"),
            stage_rank: registry.histogram("serve.stage.rank_ns"),
            registry,
        }
    }
}

/// A shareable (`Arc`-cloneable, `&self`) online retrieval server.
pub struct OnlineServer {
    graph: Arc<HeteroGraph>,
    frozen: Arc<FrozenModel>,
    /// The retrieval backend (enum-dispatched: no dynamic call in the hot
    /// probe loop), selected by [`ServingConfig::backend`].
    backend: Arc<Backend>,
    /// Two-layer term → query → item index (§VII-E's iGraph layout) used by
    /// the term-retrieval fallback path.
    inverted: Arc<InvertedIndex>,
    cache: Arc<NeighborCache>,
    config: ServingConfig,
    sampler: FocalBiasedSampler,
    metrics: Arc<ServerMetrics>,
    /// Deterministic fault injector (tests/harnesses only); `None` in
    /// production and on every pre-existing code path.
    fault: Option<Arc<FaultInjector>>,
}

impl Clone for OnlineServer {
    fn clone(&self) -> Self {
        Self {
            graph: Arc::clone(&self.graph),
            frozen: Arc::clone(&self.frozen),
            backend: Arc::clone(&self.backend),
            inverted: Arc::clone(&self.inverted),
            cache: Arc::clone(&self.cache),
            config: self.config,
            sampler: self.sampler,
            metrics: Arc::clone(&self.metrics),
            fault: self.fault.clone(),
        }
    }
}

/// Step-by-step construction of an [`OnlineServer`] — the supported way to
/// build one (`OnlineServer::builder()`). Each input has a typed setter;
/// validation happens once, at [`ServerBuilder::build`].
///
/// ```ignore
/// let server = OnlineServer::builder()
///     .graph(graph)
///     .frozen(frozen)
///     .item_pool(&items)
///     .config(ServingConfig { top_k: 20, ..Default::default() })
///     .seed(81)
///     .metrics(registry) // optional: observability registry
///     .build()?;
/// ```
#[derive(Default)]
pub struct ServerBuilder {
    pub(crate) graph: Option<Arc<HeteroGraph>>,
    pub(crate) graph_bytes: Option<bytes::Bytes>,
    pub(crate) frozen: Option<FrozenModel>,
    /// Shared-tower alternative to `frozen`: the sharded builder hands every
    /// shard the same `Arc` so N shards do not hold N copies of the weights.
    pub(crate) frozen_shared: Option<Arc<FrozenModel>>,
    pub(crate) item_pool: Vec<NodeId>,
    pub(crate) config: ServingConfig,
    pub(crate) seed: u64,
    pub(crate) metrics: Option<Arc<MetricsRegistry>>,
    pub(crate) fault: Option<Arc<FaultInjector>>,
}

impl ServerBuilder {
    /// The graph snapshot to serve against (required).
    pub fn graph(mut self, graph: Arc<HeteroGraph>) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The graph as raw snapshot bytes (v1 or v2), decoded at
    /// [`ServerBuilder::build`] with the wall time recorded into the
    /// `serve.snapshot.load_ns` histogram — the deployment path where the
    /// serving tier receives a compact binary snapshot instead of an
    /// in-process graph. Ignored when [`ServerBuilder::graph`] is also set.
    pub fn graph_snapshot(mut self, bytes: bytes::Bytes) -> Self {
        self.graph_bytes = Some(bytes);
        self
    }

    /// The frozen (tape-free) model towers (required).
    pub fn frozen(mut self, frozen: FrozenModel) -> Self {
        self.frozen = Some(frozen);
        self
    }

    /// The item candidate pool to index (required, non-empty).
    pub fn item_pool(mut self, item_pool: &[NodeId]) -> Self {
        self.item_pool = item_pool.to_vec();
        self
    }

    /// Serving-stack parameters (defaults to [`ServingConfig::default`]).
    pub fn config(mut self, config: ServingConfig) -> Self {
        self.config = config;
        self
    }

    /// Seed for the ANN coarse quantizer's k-means (defaults to 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Shard/replica layout, equivalent to setting
    /// [`ServingConfig::sharding`]. Read by
    /// [`crate::sharded::ShardedServer::build`]; a plain
    /// [`ServerBuilder::build`] validates it but serves single-shard.
    pub fn sharding(mut self, sharding: ShardingConfig) -> Self {
        self.config.sharding = sharding;
        self
    }

    /// Attach an observability registry: per-stage latency histograms,
    /// request counters, and ANN probe-volume counters all report into it.
    /// Without one the server still runs a private disabled registry, so the
    /// request path is identical either way.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Arm a deterministic [`FaultInjector`] on the request path (latency
    /// spikes and injected actions at stage boundaries). For tests and
    /// fault-injection harnesses; servers built without one pay a single
    /// `Option` check per stage.
    pub fn fault(mut self, injector: Arc<FaultInjector>) -> Self {
        self.fault = Some(injector);
        self
    }

    /// Validate the inputs and build the server: embed every pool item
    /// through the frozen item tower and construct the inverted ANN index
    /// (§VI's offline-to-online hand-off).
    pub fn build(self) -> Result<OnlineServer, ServingError> {
        // Resolve the graph: an in-process handle wins; otherwise decode the
        // snapshot bytes here, timing the decode (the v2 format makes this a
        // section-table walk plus bulk copies — see `zoomer_graph::snapshot`).
        let mut snapshot_load_ns = None;
        let graph = match (self.graph, self.graph_bytes) {
            (Some(g), _) => g,
            (None, Some(raw)) => {
                let started = Instant::now();
                let g = zoomer_graph::read_snapshot(raw)?;
                snapshot_load_ns = Some(started.elapsed().as_nanos() as u64);
                Arc::new(g)
            }
            (None, None) => {
                return Err(ServingError::InvalidConfig("server builder needs a graph"))
            }
        };
        let frozen: Arc<FrozenModel> = match (self.frozen_shared, self.frozen) {
            (Some(shared), _) => shared,
            (None, Some(owned)) => Arc::new(owned),
            (None, None) => {
                return Err(ServingError::InvalidConfig("server builder needs a frozen model"))
            }
        };
        let config = self.config;
        if self.item_pool.is_empty() {
            return Err(ServingError::InvalidConfig("cannot serve an empty item pool"));
        }
        if config.top_k == 0 {
            return Err(ServingError::InvalidConfig("top_k must be positive"));
        }
        if config.nprobe == 0 || config.nlist == 0 {
            return Err(ServingError::InvalidConfig("nprobe and nlist must be positive"));
        }
        if config.backend == BackendKind::Proximity
            && (config.graph_degree == 0 || config.beam_width == 0)
        {
            return Err(ServingError::InvalidConfig(
                "graph_degree and beam_width must be positive",
            ));
        }
        if config.backend == BackendKind::Quantized && config.rerank_factor == 0 {
            return Err(ServingError::InvalidConfig("rerank_factor must be positive"));
        }
        if config.cache_capacity == 0 {
            return Err(ServingError::InvalidConfig("cache_capacity must be positive"));
        }
        if config.sharding.num_shards == 0 || config.sharding.replicas_per_shard == 0 {
            return Err(ServingError::InvalidConfig(
                "sharding needs at least one shard and one replica",
            ));
        }
        let num_nodes = graph.num_nodes();
        if let Some(&node) = self.item_pool.iter().find(|&&i| i as usize >= num_nodes) {
            return Err(ServingError::NodeOutOfRange { node, num_nodes });
        }
        // Item tower over the whole pool as one stacked matmul.
        let item_matrix = frozen.item_embeddings(&self.item_pool);
        let items: Vec<(u64, Vec<f32>)> = self
            .item_pool
            .iter()
            .enumerate()
            .map(|(r, &i)| (i as u64, item_matrix.row(r).to_vec()))
            .collect();
        // Stand the configured retrieval backend up over the pool.
        let mut backend = match config.backend {
            BackendKind::Ivf => {
                // Size the coarse quantizer to the pool (≈√N, capped by
                // config) so small pools keep enough candidates per probe.
                let nlist = config.nlist.min(((items.len() as f64).sqrt().ceil()) as usize).max(1);
                let index = IvfIndex::build(&items, nlist, 8, self.seed);
                Backend::Ivf(IvfBackend::new(index, config.nprobe, config.build_nprobe))
            }
            BackendKind::Quantized => {
                // Same coarse-quantizer sizing as IVF: the quantized index
                // adopts an IVF partition, so equal configs probe the same
                // lists and recall deltas measure quantization alone.
                let nlist = config.nlist.min(((items.len() as f64).sqrt().ceil()) as usize).max(1);
                Backend::Quantized(QuantizedIvf::build(
                    &items,
                    nlist,
                    8,
                    self.seed,
                    config.nprobe,
                    config.rerank_factor,
                ))
            }
            BackendKind::Exact => Backend::Exact(ExactSearch::build(&items)),
            BackendKind::Proximity => Backend::Proximity(ProximityGraph::build(
                &items,
                config.graph_degree,
                config.beam_width,
            )),
        };
        // Second retrieval layer: per-query postings ranked by the frozen
        // item tower against the query's own online embedding (with no
        // cached neighborhood that embedding is the query's base vector).
        // Queries are chunked into batched probes and the chunks run in
        // parallel. This ranking is offline, so the backend may afford a
        // wider budget than the serving path (IVF probes at least
        // `build_nprobe` lists regardless of the serving-path `nprobe`).
        let queries: Vec<NodeId> = graph.nodes_of_type(zoomer_graph::NodeType::Query);
        let chunks: Vec<&[NodeId]> = queries.chunks(64).collect();
        let postings: Vec<Result<QueryPostings, ServingError>> = chunks
            .par_iter()
            .map(|chunk| {
                let mut embs = Matrix::zeros(chunk.len(), frozen.embed_dim());
                for (r, &q) in chunk.iter().enumerate() {
                    embs.row_mut(r).copy_from_slice(&frozen.online_embedding(q, &[], &[]));
                }
                Ok(backend
                    .offline_rank_batch(&embs, config.top_k)?
                    .into_iter()
                    .zip(chunk.iter())
                    .map(|(ranked, &q)| {
                        (q, ranked.into_iter().map(|(id, _)| id as NodeId).collect())
                    })
                    .collect())
            })
            .collect();
        let mut inverted = InvertedIndex::new(&graph);
        for chunk_postings in postings {
            for (q, ranked) in chunk_postings? {
                if !ranked.is_empty() {
                    inverted.set_posting(q, ranked);
                }
            }
        }
        // Attach probe-volume counters only now, after the offline posting
        // ranking, so serve-time metrics are not polluted by build work.
        let registry = self.metrics.unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        backend.attach_metrics(&registry);
        if let Some(ns) = snapshot_load_ns {
            registry.histogram("serve.snapshot.load_ns").record(ns);
        }
        Ok(OnlineServer {
            graph,
            frozen,
            backend: Arc::new(backend),
            inverted: Arc::new(inverted),
            cache: Arc::new(NeighborCache::with_capacity(config.cache_k, config.cache_capacity)),
            config,
            sampler: FocalBiasedSampler::default(),
            metrics: Arc::new(ServerMetrics::new(registry)),
            fault: self.fault,
        })
    }
}

impl OnlineServer {
    /// Start building a server; see [`ServerBuilder`].
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// Reject any request node id outside the loaded graph before it can
    /// reach code that indexes adjacency or feature arrays.
    pub(crate) fn validate_nodes(
        &self,
        nodes: impl IntoIterator<Item = NodeId>,
    ) -> Result<(), ServingError> {
        let num_nodes = self.graph.num_nodes();
        for node in nodes {
            if node as usize >= num_nodes {
                return Err(ServingError::NodeOutOfRange { node, num_nodes });
            }
        }
        Ok(())
    }

    /// Term-based retrieval fallback (cold users / no dense request vector):
    /// look the terms up in the two-layer inverted index.
    pub fn handle_by_terms(&self, terms: &[u32]) -> Vec<NodeId> {
        self.inverted.retrieve_by_terms(terms, self.config.top_k)
    }

    pub fn inverted(&self) -> &InvertedIndex {
        &self.inverted
    }

    pub fn config(&self) -> ServingConfig {
        self.config
    }

    pub fn cache(&self) -> &NeighborCache {
        &self.cache
    }

    /// The retrieval backend this server probes (enum-dispatched; use
    /// [`Backend::as_ivf`] to reach IVF-specific knobs when the configured
    /// backend is IVF).
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    pub fn graph(&self) -> &HeteroGraph {
        &self.graph
    }

    /// The observability registry this server reports into (the one passed
    /// to [`ServerBuilder::metrics`], or a private disabled one).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics.registry
    }

    /// Point-in-time snapshot of every metric, with the neighbor cache's
    /// counters ingested first so hits/misses/refreshes appear next to the
    /// stage timings.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.registry.ingest_cache("cache", self.cache.stats());
        self.metrics.registry.snapshot()
    }

    /// Resolve the user/query neighborhoods for a whole batch.
    ///
    /// Cached path: one `get_many` read-lock sweep over every node in the
    /// batch, one `insert_many` write for the misses. Cache entries are
    /// always the node's neutral-focal top-k ([`neutral_topk_neighbors`] —
    /// the same definition `warm_cache` and offline eval use), so an entry
    /// never depends on which request happened to materialize it.
    ///
    /// `disable_cache` (ablation) samples fresh per request under the
    /// request's own focal context, like the paper's no-cache variant.
    pub(crate) fn resolve_neighbors(
        &self,
        requests: &[Query],
    ) -> Result<Vec<NeighborPair>, ServingError> {
        if self.config.disable_cache {
            return Ok(requests
                .iter()
                .map(|r| {
                    let (u, q) = r.pair();
                    let ctx = FocalContext::for_request(&self.graph, u, q);
                    let sample = |n: NodeId| {
                        let mut rng = seeded_rng(n as u64);
                        let mut fresh = self.sampler.sample(
                            &self.graph,
                            n,
                            &ctx,
                            self.config.cache_k,
                            &mut rng,
                        );
                        fresh.truncate(self.config.cache_k);
                        Arc::new(fresh)
                    };
                    (sample(u), sample(q))
                })
                .collect());
        }
        let nodes: Vec<NodeId> = requests.iter().flat_map(|r| [r.user, r.query]).collect();
        let found = self.cache.get_many(&nodes);
        let mut seen = HashSet::new();
        let missing: Vec<NodeId> = nodes
            .iter()
            .zip(&found)
            .filter(|(n, f)| f.is_none() && seen.insert(**n))
            .map(|(&n, _)| n)
            .collect();
        let computed: Vec<(NodeId, Vec<NodeId>)> = missing
            .iter()
            .map(|&n| (n, neutral_topk_neighbors(&self.graph, n, self.config.cache_k)))
            .collect();
        let inserted = self.cache.insert_many(computed);
        let filled: std::collections::HashMap<NodeId, Arc<Vec<NodeId>>> =
            missing.into_iter().zip(inserted).collect();
        let resolve = |i: usize| -> Result<Arc<Vec<NodeId>>, ServingError> {
            match &found[i] {
                Some(hit) => Ok(Arc::clone(hit)),
                None => filled
                    .get(&nodes[i])
                    .map(Arc::clone)
                    .ok_or(ServingError::Internal("cache miss sweep lost a node")),
            }
        };
        (0..requests.len()).map(|i| Ok((resolve(2 * i)?, resolve(2 * i + 1)?))).collect()
    }

    /// The per-query result size: the request's own `top_k` when set, the
    /// server default otherwise (`top_k == 0` is the tuple-era "whatever the
    /// server is configured for").
    #[inline]
    pub(crate) fn effective_top_k(&self, q: &Query) -> usize {
        if q.top_k == 0 {
            self.config.top_k
        } else {
            q.top_k as usize
        }
    }

    /// Handle a batch of retrieval requests: one [`Retrieval`] per
    /// [`Query`], element-wise identical to serving each query in its own
    /// batch of one.
    ///
    /// A malformed request (e.g. a node id outside the graph) yields an
    /// `Err` for this batch only; the server state is untouched and it keeps
    /// serving subsequent batches.
    ///
    /// The batch runs under the configured [`ServingConfig::deadline`] (if
    /// any), started at the moment this call admits the batch.
    pub fn handle_batch(&self, queries: &[Query]) -> Result<Vec<Retrieval>, ServingError> {
        self.handle_batch_with_deadline(queries, Deadline::from_config(self.config.deadline))
    }

    /// [`Self::handle_batch`] under an explicit, possibly already-running
    /// [`Deadline`] (e.g. one started when the request was enqueued, so
    /// queueing delay counts against the budget).
    ///
    /// Deadline semantics: an expired budget at admission is an error
    /// ([`ServingError::DeadlineExceeded`]); once admitted the batch always
    /// produces a response — the server degrades (caps the ANN probe between
    /// rounds, or answers from the inverted index alone) rather than wasting
    /// work already done. `Deadline::none()` reads no clock and leaves the
    /// path byte-identical to the pre-deadline server.
    pub fn handle_batch_with_deadline(
        &self,
        queries: &[Query],
        deadline: Deadline,
    ) -> Result<Vec<Retrieval>, ServingError> {
        Ok(self
            .handle_batch_scored(queries, deadline)?
            .into_iter()
            .map(ScoredRetrieval::into_retrieval)
            .collect())
    }

    /// The full request path, keeping scores: what a scatter-gather shard
    /// returns to the router so per-shard top-k lists can be merged by
    /// score. [`Self::handle_batch_with_deadline`] is exactly this with the
    /// scores dropped, so the scored and unscored paths can never diverge.
    pub fn handle_batch_scored(
        &self,
        queries: &[Query],
        deadline: Deadline,
    ) -> Result<Vec<ScoredRetrieval>, ServingError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.validate_nodes(queries.iter().flat_map(|r| [r.user, r.query]))?;
        let m = &*self.metrics;
        if deadline.expired() {
            m.deadline_exceeded.inc();
            return Err(ServingError::DeadlineExceeded { stage: "admission" });
        }
        m.batches.inc();
        m.requests.add(queries.len() as u64);

        self.fire_fault(FaultSite::CacheResolve);
        let t = StageTimer::start(&m.stage_cache);
        let neighbors = self.resolve_neighbors(queries)?;
        t.stop();
        if deadline.expired() {
            return Ok(self.degraded_fallback_batch(queries));
        }

        self.fire_fault(FaultSite::Embed);
        let t = StageTimer::start(&m.stage_embed);
        let neighbor_slices: Vec<(&[NodeId], &[NodeId])> =
            neighbors.iter().map(|(u, q)| (u.as_slice(), q.as_slice())).collect();
        let uq = self.frozen.embed_requests(&self.graph, queries, &neighbor_slices);
        t.stop();

        self.rank_scored(&uq, queries, &deadline)
    }

    /// Probe + rank the already-embedded batch: the back half of
    /// [`Self::handle_batch_scored`], from the ANN probe onward. Split out
    /// so a scatter-gather shard worker can run exactly this code over its
    /// own partitioned backend against router-computed embeddings — any
    /// drift between the sharded and single-shard rank paths would be a
    /// second copy of this function, so there is none.
    pub(crate) fn rank_scored(
        &self,
        uq: &Matrix,
        queries: &[Query],
        deadline: &Deadline,
    ) -> Result<Vec<ScoredRetrieval>, ServingError> {
        let rung = BrownoutRung::select(deadline, self.ann_cost_ewma_ns());
        self.rank_scored_at(uq, queries, deadline, rung)
    }

    /// [`Self::rank_scored`] at a rung chosen by the caller instead of this
    /// server's own EWMA — how the scatter-gather router imposes one
    /// worst-shard rung on every shard of a batch. Execution stays
    /// *adaptive*: a `CapBudget` batch runs the self-measuring round-major
    /// probe and only degrades if the budget actually runs out, so a
    /// prescribed rung never makes a batch worse than its deadline demands.
    pub(crate) fn rank_scored_at(
        &self,
        uq: &Matrix,
        queries: &[Query],
        deadline: &Deadline,
        rung: BrownoutRung,
    ) -> Result<Vec<ScoredRetrieval>, ServingError> {
        // The fault fires before the expiry check so an injected ANN-stage
        // spike deterministically exercises the fallback path.
        self.fire_fault(FaultSite::AnnProbe);
        if rung == BrownoutRung::Fallback || deadline.expired() {
            return Ok(self.degraded_fallback_batch(queries));
        }
        self.rank_at_rung(uq, queries, deadline, rung, false)
    }

    /// The shared back half of the organic ([`Self::rank_scored_at`]) and
    /// forced ([`Self::handle_batch_scored_forced`]) ladders: probe at the
    /// rung's width, count the rung realized, truncate per row. A batch
    /// realized at `Full` is answered by the backend's filled probe
    /// ([`SearchBackend::search_batch_filled`]), so no row comes back short.
    /// `forced` switches `CapBudget` from the adaptive round-major probe to
    /// the prescriptive floor probe and keeps the EWMA unpolluted.
    fn rank_at_rung(
        &self,
        uq: &Matrix,
        queries: &[Query],
        deadline: &Deadline,
        rung: BrownoutRung,
        forced: bool,
    ) -> Result<Vec<ScoredRetrieval>, ServingError> {
        let m = &*self.metrics;
        let ks: Vec<usize> = queries.iter().map(|q| self.effective_top_k(q)).collect();
        // Degraded rungs probe once per batch at the widest k any query
        // asked for; each row truncates its own. Shrinking rungs shrink at
        // truncate time, not probe time: a top-k probe's first k/2 entries
        // are exactly the top-k/2 probe, so the single wide probe serves
        // every rung.
        let batch_k = ks.iter().copied().max().unwrap_or(0);
        let watch = !forced && deadline.is_bounded();
        let t = StageTimer::start(&m.stage_ann);
        // The rung this batch *realized*: an adaptive `CapBudget` probe that
        // never hit its budget is a full-width probe — the batch serves at
        // `Full`, fills its short rows and counts nothing (this is what
        // keeps a generous deadline byte-identical to no deadline). Only
        // the realized rung's counter moves, so the `serve.degraded.*`
        // family partitions degraded batches instead of double-counting.
        let (mut found, realized, rows_filled) = match (rung, forced) {
            (BrownoutRung::CapBudget, false) => {
                let bounded = self.timed_probe(true, || {
                    self.backend.search_batch_deadline(uq, batch_k, deadline, &mut |_| {
                        self.fire_fault(FaultSite::AnnRound)
                    })
                })?;
                if bounded.capped() {
                    (bounded.results, BrownoutRung::CapBudget, 0)
                } else {
                    let mut found = bounded.results;
                    let filled = self.fill_short_rows(uq, &ks, &mut found)?;
                    (found, BrownoutRung::Full, filled)
                }
            }
            (BrownoutRung::CapBudget, true) => {
                (self.backend.search_batch_floor(uq, batch_k)?.results, rung, 0)
            }
            (BrownoutRung::Full, _) => {
                let filled =
                    self.timed_probe(watch, || self.backend.search_batch_filled(uq, &ks))?;
                (filled.results, rung, filled.rows_filled)
            }
            _ => (self.timed_probe(watch, || self.backend.search_batch(uq, batch_k))?, rung, 0),
        };
        t.stop();
        m.rows_filled.add(rows_filled as u64);
        match realized {
            BrownoutRung::Full => {}
            BrownoutRung::SkipWiden => m.degraded_skip_widen.inc(),
            BrownoutRung::ShrinkTopK => m.degraded_topk.inc(),
            BrownoutRung::CapBudget => m.degraded_budget.inc(),
            // Fallback never reaches the probe path.
            BrownoutRung::Fallback => {}
        }

        let t = StageTimer::start(&m.stage_rank);
        let degraded = realized != BrownoutRung::Full;
        for (f, &k) in found.iter_mut().zip(&ks) {
            f.truncate(realized.shrunk_k(k));
        }
        let out = found.into_iter().map(|items| ScoredRetrieval { items, degraded }).collect();
        t.stop();
        Ok(out)
    }

    /// After an uncapped adaptive probe: re-answer the rows that came back
    /// short through the backend's filled probe, as one sub-batch, so the
    /// batch equals a `Full` one. Returns how many rows were filled.
    fn fill_short_rows(
        &self,
        uq: &Matrix,
        ks: &[usize],
        found: &mut [Vec<(u64, f32)>],
    ) -> Result<usize, ServingError> {
        let pool = self.backend.len();
        let short: Vec<usize> = (0..found.len())
            .filter(|&i| {
                let have = found[i].len().min(ks[i]);
                have < ks[i] && have < pool
            })
            .collect();
        if short.is_empty() {
            return Ok(0);
        }
        let rows: Vec<&[f32]> = short.iter().map(|&i| uq.row(i)).collect();
        let short_ks: Vec<usize> = short.iter().map(|&i| ks[i]).collect();
        let filled = self.backend.search_batch_filled(&Matrix::from_rows(&rows), &short_ks)?;
        for (&i, row) in short.iter().zip(filled.results) {
            found[i] = row;
        }
        Ok(filled.rows_filled)
    }

    #[inline]
    fn fire_fault(&self, site: FaultSite) {
        if let Some(f) = &self.fault {
            f.fire(site);
        }
    }

    /// Run one backend probe, folding its wall time into the cost EWMA when
    /// `watch` is set (a bounded deadline is watching and the rung was not
    /// forced: a bench sweep must not teach the server that probes are
    /// cheap or dear).
    fn timed_probe<T>(
        &self,
        watch: bool,
        probe: impl FnOnce() -> Result<T, ServingError>,
    ) -> Result<T, ServingError> {
        if !watch {
            return probe();
        }
        let m = &*self.metrics;
        let ewma = m.ann_ewma_ns.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let out = probe()?;
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        m.ann_ewma_ns.store(if ewma == 0 { ns } else { (3 * ewma + ns) / 4 }, Ordering::Relaxed);
        Ok(out)
    }

    /// EWMA of recent ANN-probe cost in ns (0 until a bounded-deadline batch
    /// has run). The scatter-gather router reads every shard's EWMA and
    /// drives the whole batch at the worst shard's rung.
    pub fn ann_cost_ewma_ns(&self) -> u64 {
        self.metrics.ann_ewma_ns.load(Ordering::Relaxed)
    }

    /// Budget-spent fallback: answer every request from the inverted index
    /// alone (term/posting lookup, no embedding or ANN work), truncated to
    /// the request's top-k. Requests with no posting get an empty list — a
    /// degraded answer within the deadline beats a complete answer after it.
    ///
    /// Fallback answers carry synthetic descending rank scores (`-rank`):
    /// the posting list is an ordering, not a scoring, and the router only
    /// needs scores that preserve that order when it merges shards.
    pub(crate) fn degraded_fallback_batch(&self, requests: &[Query]) -> Vec<ScoredRetrieval> {
        self.metrics.degraded_fallback.add(requests.len() as u64);
        requests
            .iter()
            .map(|r| {
                let items = self
                    .inverted
                    .posting(r.query)
                    .map(|p| {
                        p.iter()
                            .take(self.effective_top_k(r))
                            .enumerate()
                            .map(|(rank, &id)| (id as u64, -(rank as f32)))
                            .collect()
                    })
                    .unwrap_or_default();
                ScoredRetrieval { items, degraded: true }
            })
            .collect()
    }

    /// Serve a batch at a **prescribed** [`BrownoutRung`], bypassing the
    /// budget-driven selection: the harness entry point behind the
    /// `brownout_ladder` domination proptest and `fig_overload`'s per-rung
    /// sweep. `CapBudget` probes the backend's floor width
    /// ([`SearchBackend::search_batch_floor`]) rather than the adaptive
    /// round-major probe, so the rung means the same thing on every run; no
    /// rung here feeds the cost EWMA. Rung counters move exactly as an
    /// organic batch at the same rung would move them.
    pub fn handle_batch_scored_forced(
        &self,
        queries: &[Query],
        rung: BrownoutRung,
    ) -> Result<Vec<ScoredRetrieval>, ServingError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.validate_nodes(queries.iter().flat_map(|r| [r.user, r.query]))?;
        let m = &*self.metrics;
        m.batches.inc();
        m.requests.add(queries.len() as u64);
        if rung == BrownoutRung::Fallback {
            return Ok(self.degraded_fallback_batch(queries));
        }
        let neighbors = self.resolve_neighbors(queries)?;
        let neighbor_slices: Vec<(&[NodeId], &[NodeId])> =
            neighbors.iter().map(|(u, q)| (u.as_slice(), q.as_slice())).collect();
        let uq = self.frozen.embed_requests(&self.graph, queries, &neighbor_slices);
        self.rank_at_rung(&uq, queries, &Deadline::none(), rung, true)
    }

    /// Warm the cache for a set of nodes (deployment pre-fill). Fills the
    /// same neutral-focal entries the request path computes on a miss, so
    /// pre-warmed and cold-started servers serve identical results.
    pub fn warm_cache(&self, nodes: &[NodeId]) -> Result<(), ServingError> {
        if self.config.disable_cache {
            return Ok(());
        }
        self.validate_nodes(nodes.iter().copied())?;
        let found = self.cache.get_many(nodes);
        let mut seen = HashSet::new();
        let missing: Vec<NodeId> = nodes
            .iter()
            .zip(&found)
            .filter(|(n, f)| f.is_none() && seen.insert(**n))
            .map(|(&n, _)| n)
            .collect();
        let computed: Vec<(NodeId, Vec<NodeId>)> = missing
            .par_iter()
            .map(|&n| (n, neutral_topk_neighbors(&self.graph, n, self.config.cache_k)))
            .collect();
        self.cache.insert_many(computed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoomer_data::{TaobaoConfig, TaobaoData};
    use zoomer_graph::NodeType;
    use zoomer_model::{ModelConfig, UnifiedCtrModel};

    fn build_server(disable_cache: bool) -> (TaobaoData, OnlineServer) {
        build_server_cfg(ServingConfig { top_k: 20, disable_cache, ..Default::default() })
    }

    fn build_server_cfg(config: ServingConfig) -> (TaobaoData, OnlineServer) {
        let data = TaobaoData::generate(TaobaoConfig::tiny(81));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(11, dd));
        let frozen = FrozenModel::from_model(&mut model, &data.graph);
        let graph = Arc::new(
            zoomer_graph::read_snapshot(zoomer_graph::write_snapshot(&data.graph))
                .expect("snapshot roundtrip"),
        );
        let items = data.item_nodes();
        let server = OnlineServer::builder()
            .graph(graph)
            .frozen(frozen)
            .item_pool(&items)
            .config(config)
            .seed(81)
            .build()
            .expect("server build");
        (data, server)
    }

    /// Batch-of-one through the typed API — the old `handle` semantics the
    /// bulk of these tests were written against.
    fn one(
        server: &OnlineServer,
        user: NodeId,
        query: NodeId,
    ) -> Result<Vec<NodeId>, ServingError> {
        Ok(server
            .handle_batch(&[Query::new(user, query)])?
            .pop()
            .map(|r| r.items)
            .unwrap_or_default())
    }

    #[test]
    fn handle_returns_topk_items() {
        let (data, server) = build_server(false);
        let log = &data.logs[0];
        let result = one(&server, log.user, log.query).expect("serve");
        assert_eq!(result.len(), 20);
        for &item in &result {
            assert_eq!(data.graph.node_type(item), NodeType::Item);
        }
        // No duplicates.
        let set: std::collections::HashSet<_> = result.iter().collect();
        assert_eq!(set.len(), result.len());
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let (data, server) = build_server(false);
        let log = &data.logs[0];
        let first = one(&server, log.user, log.query).expect("serve");
        let misses_after_first = server.cache().stats().misses;
        let second = one(&server, log.user, log.query).expect("serve");
        let stats = server.cache().stats();
        assert_eq!(first, second, "same request must be deterministic");
        assert_eq!(stats.misses, misses_after_first, "second request should not miss");
        assert!(stats.hits >= 2);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn cache_disabled_still_serves() {
        let (data, server) = build_server(true);
        let log = &data.logs[0];
        let result = one(&server, log.user, log.query).expect("serve");
        assert_eq!(result.len(), 20);
        assert_eq!(server.cache().len(), 0, "cache must stay empty when disabled");
    }

    #[test]
    fn warm_cache_prefills() {
        let (data, server) = build_server(false);
        let users: Vec<NodeId> = (0..10).collect();
        server.warm_cache(&users).expect("warm");
        assert!(server.cache().len() >= 10);
        let _ = data;
    }

    #[test]
    fn handle_batch_matches_sequential_handles() {
        let (data, server) = build_server(false);
        let requests: Vec<Query> = data
            .logs
            .iter()
            .take(8)
            .map(|l| Query::new(l.user, l.query))
            // Duplicate a pair inside the batch to cover same-batch reuse.
            .chain(std::iter::once(Query::new(data.logs[0].user, data.logs[0].query)))
            .collect();
        let batched = server.handle_batch(&requests).expect("serve batch");
        assert_eq!(batched.len(), requests.len());
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(
                batched[i].items,
                one(&server, r.user, r.query).expect("serve"),
                "request {i} diverges"
            );
        }
    }

    #[test]
    fn handle_batch_of_empty_is_empty() {
        let (_, server) = build_server(false);
        assert!(server.handle_batch(&[]).expect("serve batch").is_empty());
    }

    #[test]
    fn malformed_request_is_rejected_and_server_keeps_serving() {
        let (data, server) = build_server(false);
        let log = &data.logs[0];
        let before = one(&server, log.user, log.query).expect("serve");
        // A node id past the end of the graph must come back as a typed
        // error for that batch alone...
        let bogus = server.graph().num_nodes() as NodeId + 7;
        let err = server
            .handle_batch(&[Query::new(log.user, log.query), Query::new(bogus, log.query)])
            .expect_err("out-of-range node must be rejected");
        assert_eq!(
            err,
            crate::error::ServingError::NodeOutOfRange {
                node: bogus,
                num_nodes: server.graph().num_nodes()
            }
        );
        assert!(one(&server, log.user, bogus).is_err());
        assert!(server.warm_cache(&[bogus]).is_err());
        // ...while subsequent well-formed batches serve identically.
        let after = one(&server, log.user, log.query).expect("server must keep serving");
        assert_eq!(before, after, "rejected request must not perturb server state");
    }

    #[test]
    fn zero_deadline_is_rejected_at_admission_not_a_panic() {
        let (data, server) = build_server_cfg(ServingConfig {
            top_k: 20,
            deadline: Some(Duration::ZERO),
            ..Default::default()
        });
        let log = &data.logs[0];
        let err = server
            .handle_batch(&[Query::new(log.user, log.query)])
            .expect_err("a zero budget must be rejected at admission");
        assert_eq!(err, ServingError::DeadlineExceeded { stage: "admission" });
        // Rejection is typed and counted — never a panic, never a served batch.
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.deadline_exceeded"), Some(1));
        assert_eq!(snap.counter("serve.batches"), Some(0), "rejected batch must not be admitted");
        // An empty batch is still the empty answer, even with a spent budget.
        assert!(server.handle_batch(&[]).expect("empty batch").is_empty());
    }

    #[test]
    fn generous_deadline_serves_identically_to_no_deadline() {
        let (data, unbounded) = build_server(false);
        let (_, bounded) = build_server_cfg(ServingConfig {
            top_k: 20,
            deadline: Some(Duration::from_secs(600)),
            ..Default::default()
        });
        let requests: Vec<Query> =
            data.logs.iter().take(6).map(|l| Query::new(l.user, l.query)).collect();
        assert_eq!(
            unbounded.handle_batch(&requests).expect("serve unbounded"),
            bounded.handle_batch(&requests).expect("serve bounded"),
            "an unspent budget must not change any answer"
        );
        let snap = bounded.metrics_snapshot();
        assert_eq!(snap.counter("serve.degraded.fallback"), Some(0));
        assert_eq!(snap.counter("serve.degraded.budget_capped"), Some(0));
    }

    #[test]
    fn zero_cache_capacity_is_a_build_error() {
        let data = TaobaoData::generate(TaobaoConfig::tiny(84));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(11, dd));
        let frozen = FrozenModel::from_model(&mut model, &data.graph);
        let items = data.item_nodes();
        assert!(matches!(
            OnlineServer::builder()
                .graph(Arc::new(data.graph))
                .frozen(frozen)
                .item_pool(&items)
                .config(ServingConfig { cache_capacity: 0, ..Default::default() })
                .build(),
            Err(ServingError::InvalidConfig("cache_capacity must be positive"))
        ));
    }

    #[test]
    fn empty_item_pool_is_a_build_error() {
        let data = TaobaoData::generate(TaobaoConfig::tiny(82));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(11, dd));
        let frozen = FrozenModel::from_model(&mut model, &data.graph);
        let err = match OnlineServer::builder()
            .graph(Arc::new(data.graph))
            .frozen(frozen)
            .item_pool(&[])
            .seed(82)
            .build()
        {
            Ok(_) => panic!("empty pool must be rejected"),
            Err(e) => e,
        };
        assert!(matches!(err, crate::error::ServingError::InvalidConfig(_)));
    }

    #[test]
    fn builder_rejects_missing_inputs_and_zero_params() {
        let data = TaobaoData::generate(TaobaoConfig::tiny(83));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(11, dd));
        let frozen = FrozenModel::from_model(&mut model, &data.graph);
        let items = data.item_nodes();
        let graph = Arc::new(data.graph);
        // No graph.
        assert!(matches!(
            OnlineServer::builder().frozen(frozen).item_pool(&items).build(),
            Err(crate::error::ServingError::InvalidConfig(_))
        ));
        // No frozen model.
        assert!(matches!(
            OnlineServer::builder().graph(Arc::clone(&graph)).item_pool(&items).build(),
            Err(crate::error::ServingError::InvalidConfig(_))
        ));
        // Degenerate config values are rejected at build, not at request time.
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(11, dd));
        let frozen = FrozenModel::from_model(&mut model, &graph);
        assert!(matches!(
            OnlineServer::builder()
                .graph(graph)
                .frozen(frozen)
                .item_pool(&items)
                .config(ServingConfig { top_k: 0, ..Default::default() })
                .build(),
            Err(crate::error::ServingError::InvalidConfig(_))
        ));
    }

    #[test]
    fn handle_batch_without_cache_matches_handle() {
        let (data, server) = build_server(true);
        let requests: Vec<Query> =
            data.logs.iter().take(5).map(|l| Query::new(l.user, l.query)).collect();
        let batched = server.handle_batch(&requests).expect("serve batch");
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(batched[i].items, one(&server, r.user, r.query).expect("serve"));
        }
    }

    #[test]
    fn warm_cache_matches_request_path() {
        // A warm-cache prefill must produce the same entries the request
        // path computes on a cold miss, so results are arrival-order
        // independent.
        let (data, cold_server) = build_server(false);
        let (_, warm_server) = build_server(false);
        let log = &data.logs[0];
        let cold = one(&cold_server, log.user, log.query).expect("serve");
        warm_server.warm_cache(&[log.user, log.query]).expect("warm");
        let warm = one(&warm_server, log.user, log.query).expect("serve");
        assert_eq!(cold, warm, "warm-cache entries must match request-path entries");
    }

    #[test]
    fn concurrent_batches_are_consistent() {
        let (data, server) = build_server(false);
        let requests: Vec<Query> =
            data.logs.iter().take(6).map(|l| Query::new(l.user, l.query)).collect();
        let baseline = server.handle_batch(&requests).expect("serve batch");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = server.clone();
                let expected = baseline.clone();
                let reqs = requests.clone();
                scope.spawn(move || {
                    for _ in 0..10 {
                        assert_eq!(s.handle_batch(&reqs).expect("serve batch"), expected);
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_requests_are_consistent() {
        let (data, server) = build_server(false);
        let log = data.logs[0].clone();
        let baseline = one(&server, log.user, log.query).expect("serve");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = server.clone();
                let expected = baseline.clone();
                let (u, q) = (log.user, log.query);
                scope.spawn(move || {
                    for _ in 0..25 {
                        assert_eq!(one(&s, u, q).expect("serve"), expected);
                    }
                });
            }
        });
    }

    #[test]
    fn term_retrieval_returns_items_from_matching_queries() {
        let (data, server) = build_server(false);
        // Use a real query's terms; its posting must be reachable by term.
        let q = data.logs[0].query;
        let terms = data.graph.features().terms(q).to_vec();
        assert!(!terms.is_empty());
        let got = server.handle_by_terms(&terms);
        assert!(!got.is_empty(), "term retrieval found nothing");
        for &item in &got {
            assert_eq!(data.graph.node_type(item), NodeType::Item);
        }
        assert!(got.len() <= server.config().top_k);
        // Unknown terms retrieve nothing.
        assert!(server.handle_by_terms(&[9_999_999]).is_empty());
        assert!(server.inverted().num_postings() > 0);
    }

    #[test]
    fn retrieval_prefers_intent_aligned_items() {
        // Items retrieved for a request should, on average, be closer to the
        // query's content vector than random items (structure sanity; exact
        // quality is measured in the benches after training).
        let (data, server) = build_server(false);
        let log = &data.logs[3];
        let retrieved = one(&server, log.user, log.query).expect("serve");
        let qv = data.graph.dense_feature(log.query);
        let mean_sim = |items: &[NodeId]| {
            items
                .iter()
                .map(|&i| zoomer_tensor::cosine_similarity(qv, data.graph.dense_feature(i)))
                .sum::<f32>()
                / items.len().max(1) as f32
        };
        let all_items = data.item_nodes();
        let retrieved_sim = mean_sim(&retrieved);
        let pool_sim = mean_sim(&all_items);
        // Untrained towers give weak signal; require only non-collapse.
        assert!(retrieved_sim.is_finite() && pool_sim.is_finite());
    }

    /// Fixture pieces for building a second server over the same data.
    fn fixture(seed: u64) -> (TaobaoData, Arc<HeteroGraph>, FrozenModel, Vec<NodeId>) {
        let data = TaobaoData::generate(TaobaoConfig::tiny(seed));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(11, dd));
        let frozen = FrozenModel::from_model(&mut model, &data.graph);
        let graph = Arc::new(
            zoomer_graph::read_snapshot(zoomer_graph::write_snapshot(&data.graph))
                .expect("snapshot roundtrip"),
        );
        let items = data.item_nodes();
        (data, graph, frozen, items)
    }

    #[test]
    fn exact_backend_serves_topk_items() {
        let (data, server) = build_server_cfg(ServingConfig {
            top_k: 20,
            backend: BackendKind::Exact,
            ..Default::default()
        });
        assert_eq!(server.backend().kind(), BackendKind::Exact);
        let requests: Vec<Query> =
            data.logs.iter().take(6).map(|l| Query::new(l.user, l.query)).collect();
        let batched = server.handle_batch(&requests).expect("serve batch");
        for (i, (r, row)) in requests.iter().zip(&batched).enumerate() {
            assert_eq!(row.len(), 20);
            for &item in &row.items {
                assert_eq!(data.graph.node_type(item), NodeType::Item, "request {i}");
            }
            assert_eq!(
                row.items,
                one(&server, r.user, r.query).expect("serve"),
                "request {i} diverges"
            );
        }
    }

    #[test]
    fn proximity_backend_serves_topk_items() {
        let (data, server) = build_server_cfg(ServingConfig {
            top_k: 20,
            backend: BackendKind::Proximity,
            graph_degree: 8,
            beam_width: 40,
            ..Default::default()
        });
        assert_eq!(server.backend().kind(), BackendKind::Proximity);
        let requests: Vec<Query> =
            data.logs.iter().take(6).map(|l| Query::new(l.user, l.query)).collect();
        let batched = server.handle_batch(&requests).expect("serve batch");
        for (i, (r, row)) in requests.iter().zip(&batched).enumerate() {
            assert_eq!(row.len(), 20);
            let set: std::collections::HashSet<_> = row.items.iter().collect();
            assert_eq!(set.len(), row.len(), "request {i} returned duplicates");
            assert_eq!(
                row.items,
                one(&server, r.user, r.query).expect("serve"),
                "request {i} diverges"
            );
        }
    }

    #[test]
    fn quantized_backend_serves_topk_items() {
        let (data, server) = build_server_cfg(ServingConfig {
            top_k: 20,
            backend: BackendKind::Quantized,
            ..Default::default()
        });
        assert_eq!(server.backend().kind(), BackendKind::Quantized);
        let quant = server.backend().as_quantized().expect("quantized backend");
        assert!(
            quant.memory_footprint().compression_ratio() >= 4.0,
            "int8 code store must be at least 4x smaller than the f32 rerank store"
        );
        let requests: Vec<Query> =
            data.logs.iter().take(6).map(|l| Query::new(l.user, l.query)).collect();
        let batched = server.handle_batch(&requests).expect("serve batch");
        for (i, (r, row)) in requests.iter().zip(&batched).enumerate() {
            assert_eq!(row.len(), 20);
            for &item in &row.items {
                assert_eq!(data.graph.node_type(item), NodeType::Item, "request {i}");
            }
            assert_eq!(
                row.items,
                one(&server, r.user, r.query).expect("serve"),
                "request {i} diverges"
            );
        }
    }

    #[test]
    fn quantized_backend_rejects_zero_rerank_factor() {
        let (_, graph, frozen, items) = fixture(81);
        let result = OnlineServer::builder()
            .graph(graph)
            .frozen(frozen)
            .item_pool(&items)
            .config(ServingConfig {
                backend: BackendKind::Quantized,
                rerank_factor: 0,
                ..Default::default()
            })
            .build();
        match result {
            Err(ServingError::InvalidConfig(msg)) => {
                assert_eq!(msg, "rerank_factor must be positive");
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("rerank_factor 0 must be rejected"),
        }
    }

    #[test]
    fn builder_decodes_snapshot_bytes_and_times_the_load() {
        let (data, _, frozen, items) = fixture(81);
        let registry = Arc::new(zoomer_obs::MetricsRegistry::enabled());
        let server = OnlineServer::builder()
            .graph_snapshot(zoomer_graph::write_snapshot(&data.graph))
            .frozen(frozen)
            .item_pool(&items)
            .config(ServingConfig { top_k: 10, ..Default::default() })
            .metrics(Arc::clone(&registry))
            .build()
            .expect("server from snapshot bytes");
        assert_eq!(server.graph().num_nodes(), data.graph.num_nodes());
        let snap = registry.snapshot();
        let load = snap
            .histograms
            .iter()
            .find(|h| h.name == "serve.snapshot.load_ns")
            .expect("load histogram registered");
        assert_eq!(load.count, 1, "exactly one snapshot decode must be timed");
        let log = &data.logs[0];
        assert_eq!(one(&server, log.user, log.query).expect("serve").len(), 10);
    }

    #[test]
    fn exact_backend_matches_a_full_probe_ivf_server() {
        // At recall=1 settings (IVF probing every list) both backends run
        // the same frozen relevance arithmetic, so the served rankings must
        // agree item-for-item.
        let (data, graph, frozen, items) = fixture(87);
        let wide = items.len();
        let ivf = OnlineServer::builder()
            .graph(Arc::clone(&graph))
            .frozen(frozen.clone())
            .item_pool(&items)
            .config(ServingConfig { top_k: 15, nprobe: wide, nlist: wide, ..Default::default() })
            .seed(87)
            .build()
            .expect("ivf build");
        let exact = OnlineServer::builder()
            .graph(graph)
            .frozen(frozen)
            .item_pool(&items)
            .config(ServingConfig { top_k: 15, backend: BackendKind::Exact, ..Default::default() })
            .seed(87)
            .build()
            .expect("exact build");
        let requests: Vec<Query> =
            data.logs.iter().take(8).map(|l| Query::new(l.user, l.query)).collect();
        assert_eq!(
            ivf.handle_batch(&requests).expect("ivf serve"),
            exact.handle_batch(&requests).expect("exact serve"),
            "full-probe IVF and the exact backend must serve identically"
        );
    }

    #[test]
    fn proximity_backend_rejects_zero_graph_params() {
        let (_, graph, frozen, items) = fixture(88);
        assert!(matches!(
            OnlineServer::builder()
                .graph(graph)
                .frozen(frozen)
                .item_pool(&items)
                .config(ServingConfig {
                    backend: BackendKind::Proximity,
                    graph_degree: 0,
                    ..Default::default()
                })
                .build(),
            Err(ServingError::InvalidConfig("graph_degree and beam_width must be positive"))
        ));
    }

    #[test]
    fn backend_stats_count_served_probes() {
        let (data, graph, frozen, items) = fixture(89);
        let registry = Arc::new(zoomer_obs::MetricsRegistry::enabled());
        let server = OnlineServer::builder()
            .graph(graph)
            .frozen(frozen)
            .item_pool(&items)
            .config(ServingConfig { top_k: 10, backend: BackendKind::Exact, ..Default::default() })
            .seed(89)
            .metrics(Arc::clone(&registry))
            .build()
            .expect("build");
        let requests: Vec<Query> =
            data.logs.iter().take(5).map(|l| Query::new(l.user, l.query)).collect();
        server.handle_batch(&requests).expect("serve");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.backend.queries"), Some(5));
        assert_eq!(
            snap.counter("serve.backend.candidates_scored"),
            Some(5 * items.len() as u64),
            "the exact backend scores the whole pool per query"
        );
    }

    #[test]
    fn build_nprobe_controls_the_offline_posting_probe() {
        // Regression for the hidden `nprobe.max(4)`: the *effective* build
        // probe is `nprobe.max(build_nprobe)`, so swapping the two values
        // must rank identical postings even though the serving-path nprobe
        // differs. Before the fix, `build_nprobe` did not exist and a small
        // nprobe was silently widened to 4 with no way to turn that off.
        let (_, graph, frozen, items) = fixture(85);
        let wide = graph.nodes_of_type(zoomer_graph::NodeType::Query).len().max(8);
        let narrow_serve = OnlineServer::builder()
            .graph(Arc::clone(&graph))
            .frozen(frozen.clone())
            .item_pool(&items)
            .config(ServingConfig { nprobe: 1, build_nprobe: wide, ..Default::default() })
            .seed(85)
            .build()
            .expect("build");
        let wide_serve = OnlineServer::builder()
            .graph(Arc::clone(&graph))
            .frozen(frozen)
            .item_pool(&items)
            .config(ServingConfig { nprobe: wide, build_nprobe: 1, ..Default::default() })
            .seed(85)
            .build()
            .expect("build");
        let queries = graph.nodes_of_type(zoomer_graph::NodeType::Query);
        assert!(!queries.is_empty());
        for &q in &queries {
            assert_eq!(
                narrow_serve.inverted().posting(q),
                wide_serve.inverted().posting(q),
                "query {q}: build-time probe must be nprobe.max(build_nprobe)"
            );
        }
    }

    #[test]
    fn metrics_record_per_stage_timings() {
        let (data, graph, frozen, items) = fixture(86);
        let registry = Arc::new(zoomer_obs::MetricsRegistry::enabled());
        let server = OnlineServer::builder()
            .graph(graph)
            .frozen(frozen)
            .item_pool(&items)
            .config(ServingConfig { top_k: 10, ..Default::default() })
            .seed(86)
            .metrics(Arc::clone(&registry))
            .build()
            .expect("build");
        assert!(Arc::ptr_eq(server.metrics_registry(), &registry));
        // Build-time posting ranking must not leak into serve-time counters.
        assert_eq!(registry.snapshot().counter("ann.lists_probed"), Some(0));
        let requests: Vec<Query> =
            data.logs.iter().take(6).map(|l| Query::new(l.user, l.query)).collect();
        server.handle_batch(&requests).expect("serve");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.requests"), Some(6));
        assert_eq!(snap.counter("serve.batches"), Some(1));
        for stage in [
            "serve.stage.cache_resolve_ns",
            "serve.stage.embed_ns",
            "serve.stage.ann_probe_ns",
            "serve.stage.rank_ns",
        ] {
            let h = snap.histogram(stage).unwrap_or_else(|| panic!("{stage} missing"));
            assert_eq!(h.count, 1, "{stage} must record once per batch");
            assert!(h.p50() > 0, "{stage} must measure real time");
        }
        assert!(snap.counter("ann.lists_probed").expect("ingested") > 0);
        assert!(snap.counter("cache.misses").expect("ingested") > 0);
    }

    #[test]
    fn disabled_registry_keeps_counters_but_skips_histograms() {
        let (data, server) = build_server(false);
        let log = &data.logs[0];
        one(&server, log.user, log.query).expect("serve");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.requests"), Some(1), "counters are always-on");
        let h = snap.histogram("serve.stage.embed_ns").expect("registered");
        assert_eq!(h.count, 0, "disabled registry must not time stages");
    }
}
