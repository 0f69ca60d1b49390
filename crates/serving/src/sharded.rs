//! Scatter-gather serving across item-pool shards (§VI's deployment
//! topology, in-process).
//!
//! A [`ShardedServer`] partitions the *item pool* — and with it the
//! retrieval backend, the per-query posting index, and the neighbor cache —
//! across `N` shards using the exact node-id arithmetic of
//! [`zoomer_graph::shard_of_node`], so graph storage and retrieval agree on
//! ownership. Each shard is a full [`OnlineServer`] over its slice of the
//! pool.
//!
//! The router runs the request front half **once**: validate → partitioned
//! cache resolve → one stacked embed through the shared frozen towers. The
//! per-shard work is only the back half ([`OnlineServer::rank_scored`]):
//! probe the shard's backend against the router's embeddings and rank its
//! partition. Replies carry scores sorted descending, so the router merges
//! per-shard top-k lists honestly with a `k`-step N-way merge of their
//! heads. At `N = 1` the merge is a truncate of the single list and the
//! whole path is bit-identical to [`OnlineServer::handle_batch`] — pinned
//! by the `sharded_equivalence` proptest suite.
//!
//! Executor model: the calling thread runs shard 0's back half itself.
//! Shards 1..N are each drained by `replicas_per_shard` worker threads
//! behind a bounded job channel; the router scatters to them first, runs
//! shard 0 inline while they work, then gathers their replies. At `N = 1`
//! nothing is scattered: no channel, no thread hop, no worker thread. The
//! inline call and the worker loop share one executor
//! ([`ShardExecutor::run`]), so the two cannot drift. The price is that a
//! stalled shard 0 holds its caller; the deadline-aware rank stage bounds
//! that wait the same way it bounds a worker's.
//!
//! Failure model: a shard reply that errors (injected panic, backend
//! fault) or completes after the gather window (deadline remaining at
//! scatter + [`GATHER_GRACE`]) is counted in `serve.shard.replies_lost`
//! and never merged — shard 0's inline reply included. The router merges
//! the shards that did answer and marks every affected query degraded.
//! Only a batch with *no* surviving shard replies errors.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Sender};
use zoomer_graph::{shard_of_node, HeteroGraph, NodeId, Query, Retrieval};
use zoomer_model::frozen::{neutral_topk_neighbors, FrozenModel};
use zoomer_obs::{CacheStats, Counter, Histogram, MetricsRegistry, Snapshot, StageTimer};
use zoomer_tensor::Matrix;

use crate::brownout::BrownoutRung;
use crate::deadline::Deadline;
use crate::error::ServingError;
use crate::fault::{FaultInjector, FaultSite};
use crate::load::QueryService;
use crate::router::merge_query;
use crate::server::{OnlineServer, ScoredRetrieval, ServerBuilder, ServingConfig};

/// Extra time the router waits past a bounded deadline for stragglers: the
/// shards themselves degrade when the budget expires, so a reply is usually
/// already on the wire — the grace only bounds true loss.
const GATHER_GRACE: Duration = Duration::from_millis(100);

/// Gather bound for unbounded-deadline batches; far beyond any healthy
/// shard's latency, it exists so a wedged worker cannot hang the router.
const DEFAULT_GATHER_TIMEOUT: Duration = Duration::from_secs(10);

/// One shard's answer: its index, the scored rows (or the error that
/// replaced them), and when the shard finished — the router merges only
/// replies that finished inside the gather window.
struct ShardReply {
    idx: usize,
    result: Result<Vec<ScoredRetrieval>, ServingError>,
    done: Instant,
}

/// A scattered unit of work: shared embeddings + queries, the batch
/// deadline, the router-chosen brownout rung (every shard serves the batch
/// at the same rung, so the merge never mixes qualities), the scatter time
/// (for the queue-wait histogram), and the per-batch reply channel.
struct ShardJob {
    uq: Arc<Matrix>,
    queries: Arc<Vec<Query>>,
    deadline: Deadline,
    rung: BrownoutRung,
    scattered: Instant,
    reply: mpsc::Sender<ShardReply>,
}

/// One shard's back half plus its metric handles: the single executor both
/// the router's inline shard 0 and every worker thread run.
#[derive(Clone)]
struct ShardExecutor {
    idx: usize,
    shard: Arc<OnlineServer>,
    batches: Counter,
    errors: Counter,
    rank_ns: Histogram,
    fault: Option<Arc<FaultInjector>>,
}

impl ShardExecutor {
    fn new(idx: usize, shard: &Arc<OnlineServer>, fault: Option<Arc<FaultInjector>>) -> Self {
        let registry = shard.metrics_registry();
        Self {
            idx,
            shard: Arc::clone(shard),
            batches: registry.counter(&format!("serve.shard.{idx}.batches")),
            errors: registry.counter(&format!("serve.shard.{idx}.errors")),
            rank_ns: registry.histogram(&format!("serve.shard.{idx}.rank_ns")),
            fault,
        }
    }

    /// Rank one batch against this shard's partition under `catch_unwind`
    /// (an injected panic becomes a `WorkerPanicked` reply, not a dead
    /// thread), passing the `ShardReply` fault site on the way out.
    fn run(
        &self,
        uq: &Matrix,
        queries: &[Query],
        deadline: &Deadline,
        rung: BrownoutRung,
    ) -> ShardReply {
        self.batches.inc();
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let ranked = self.shard.rank_scored_at(uq, queries, deadline, rung);
            // Fired inside the unwind guard: an injected panic here is
            // reported as an errored reply, never a lost thread.
            if let Some(f) = &self.fault {
                f.fire(FaultSite::ShardReply);
            }
            ranked
        }))
        .unwrap_or(Err(ServingError::WorkerPanicked("shard rank stage panicked")));
        let done = Instant::now();
        self.rank_ns.record((done - started).as_nanos() as u64);
        if result.is_err() {
            self.errors.inc();
        }
        ShardReply { idx: self.idx, result, done }
    }
}

/// Router-side metric handles, registered once at build.
struct RouterMetrics {
    registry: Arc<MetricsRegistry>,
    requests: Counter,
    batches: Counter,
    deadline_exceeded: Counter,
    degraded_fallback: Counter,
    /// Shard replies that errored or missed the gather window.
    replies_lost: Counter,
    stage_cache: Histogram,
    stage_embed: Histogram,
    /// Scatter, shard 0's inline rank, and the wait for the other shards'
    /// replies: wall time per batch.
    gather_ns: Histogram,
    /// Per-shard top-k merge, wall time per batch.
    merge_ns: Histogram,
}

impl RouterMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            requests: registry.counter("serve.requests"),
            batches: registry.counter("serve.batches"),
            deadline_exceeded: registry.counter("serve.deadline_exceeded"),
            degraded_fallback: registry.counter("serve.degraded.fallback"),
            replies_lost: registry.counter("serve.shard.replies_lost"),
            stage_cache: registry.histogram("serve.stage.cache_resolve_ns"),
            stage_embed: registry.histogram("serve.stage.embed_ns"),
            gather_ns: registry.histogram("serve.router.gather_ns"),
            merge_ns: registry.histogram("serve.router.merge_ns"),
            registry,
        }
    }
}

/// The scatter-gather serving tier: N item-pool shards behind one router.
///
/// Build with [`ShardedServer::build`] from the same [`ServerBuilder`] a
/// single-shard server uses — the shard count comes from
/// [`ServingConfig::sharding`] (see [`ServerBuilder::sharding`]).
pub struct ShardedServer {
    shards: Vec<Arc<OnlineServer>>,
    /// Shard 0's executor, run on the calling thread.
    inline: ShardExecutor,
    /// Job queues of shards 1..N (`job_txs[i]` feeds shard `i + 1`).
    job_txs: Vec<Sender<ShardJob>>,
    workers: Vec<JoinHandle<()>>,
    graph: Arc<HeteroGraph>,
    frozen: Arc<FrozenModel>,
    config: ServingConfig,
    fault: Option<Arc<FaultInjector>>,
    metrics: RouterMetrics,
}

impl ShardedServer {
    /// Stand the sharded tier up: partition the item pool by
    /// [`shard_of_node`], build one [`OnlineServer`] per shard (shared
    /// graph, shared frozen towers, shared metrics registry, per-shard
    /// cache capacity `cache_capacity / N`), and spawn
    /// `replicas_per_shard` workers for each of shards 1..N (shard 0 runs
    /// on the caller).
    pub fn build(builder: ServerBuilder) -> Result<ShardedServer, ServingError> {
        let sharding = builder.config.sharding;
        if sharding.num_shards == 0 || sharding.replicas_per_shard == 0 {
            return Err(ServingError::InvalidConfig(
                "sharding needs at least one shard and one replica",
            ));
        }
        let num_shards = sharding.num_shards;
        // Resolve the graph once (same resolution ServerBuilder::build runs).
        let registry = builder.metrics.unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        let graph = match (builder.graph, builder.graph_bytes) {
            (Some(g), _) => g,
            (None, Some(raw)) => {
                let started = Instant::now();
                let g = zoomer_graph::read_snapshot(raw)?;
                registry
                    .histogram("serve.snapshot.load_ns")
                    .record(started.elapsed().as_nanos() as u64);
                Arc::new(g)
            }
            (None, None) => {
                return Err(ServingError::InvalidConfig("server builder needs a graph"))
            }
        };
        let frozen: Arc<FrozenModel> = match (builder.frozen_shared, builder.frozen) {
            (Some(shared), _) => shared,
            (None, Some(owned)) => Arc::new(owned),
            (None, None) => {
                return Err(ServingError::InvalidConfig("server builder needs a frozen model"))
            }
        };
        if builder.item_pool.is_empty() {
            return Err(ServingError::InvalidConfig("cannot serve an empty item pool"));
        }
        // Partition the pool; every shard must own at least one item or its
        // backend would be un-buildable.
        let mut pools: Vec<Vec<NodeId>> = vec![Vec::new(); num_shards];
        for &item in &builder.item_pool {
            pools[shard_of_node(item, num_shards)].push(item);
        }
        if pools.iter().any(Vec::is_empty) {
            return Err(ServingError::InvalidConfig(
                "a shard owns no items; use fewer shards or a larger item pool",
            ));
        }
        let mut shard_config = builder.config;
        shard_config.cache_capacity = (builder.config.cache_capacity / num_shards).max(1);
        let mut shards = Vec::with_capacity(num_shards);
        for pool in &pools {
            let mut b = OnlineServer::builder()
                .graph(Arc::clone(&graph))
                .item_pool(pool)
                .config(shard_config)
                .seed(builder.seed)
                .metrics(Arc::clone(&registry));
            b.frozen_shared = Some(Arc::clone(&frozen));
            if let Some(f) = &builder.fault {
                b = b.fault(Arc::clone(f));
            }
            shards.push(Arc::new(b.build()?));
        }
        // Worker pools for shards 1..N behind bounded job queues: a slow
        // shard back-pressures its router callers instead of buffering
        // unboundedly. Shard 0 runs on the caller and has no pool.
        let mut job_txs = Vec::with_capacity(num_shards - 1);
        let mut workers = Vec::with_capacity((num_shards - 1) * sharding.replicas_per_shard);
        for (idx, shard) in shards.iter().enumerate().skip(1) {
            let (tx, rx) = channel::bounded::<ShardJob>(sharding.replicas_per_shard * 2);
            job_txs.push(tx);
            let exec = ShardExecutor::new(idx, shard, builder.fault.clone());
            let queue_ns = registry.histogram(&format!("serve.shard.{idx}.queue_ns"));
            for _ in 0..sharding.replicas_per_shard {
                workers.push(spawn_worker(exec.clone(), rx.clone(), queue_ns.clone()));
            }
        }
        let inline = ShardExecutor::new(0, &shards[0], builder.fault.clone());
        Ok(ShardedServer {
            shards,
            inline,
            job_txs,
            workers,
            graph,
            frozen,
            config: builder.config,
            fault: builder.fault,
            metrics: RouterMetrics::new(registry),
        })
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard servers (tests and benches inspect their partitions).
    pub fn shards(&self) -> &[Arc<OnlineServer>] {
        &self.shards
    }

    pub fn config(&self) -> ServingConfig {
        self.config
    }

    pub fn graph(&self) -> &HeteroGraph {
        &self.graph
    }

    /// The shared observability registry (router + every shard).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics.registry
    }

    /// Snapshot with the shard caches' aggregated counters ingested.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.registry.ingest_cache("cache", self.aggregated_cache_stats());
        self.metrics.registry.snapshot()
    }

    /// Neighbor-cache counters summed across every shard's partition.
    pub fn aggregated_cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.cache().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.refreshes += s.refreshes;
            total.evictions += s.evictions;
        }
        total
    }

    /// Pre-fill every shard's neighbor cache partition for `nodes` (each
    /// node lands only in its owning shard's cache).
    pub fn warm_cache(&self, nodes: &[NodeId]) -> Result<(), ServingError> {
        if self.config.disable_cache {
            return Ok(());
        }
        self.validate_nodes(nodes.iter().copied())?;
        let mut by_shard: Vec<Vec<NodeId>> = vec![Vec::new(); self.shards.len()];
        for &n in nodes {
            by_shard[shard_of_node(n, self.shards.len())].push(n);
        }
        for (shard, owned) in self.shards.iter().zip(by_shard) {
            shard.warm_cache(&owned)?;
        }
        Ok(())
    }

    /// Scatter-gather batch serve; semantics of
    /// [`OnlineServer::handle_batch`] over the sharded tier.
    pub fn handle_batch(&self, queries: &[Query]) -> Result<Vec<Retrieval>, ServingError> {
        self.handle_batch_with_deadline(queries, Deadline::from_config(self.config.deadline))
    }

    /// [`Self::handle_batch`] under an explicit, possibly already-running
    /// deadline (e.g. one decoded from a wire-request header).
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

    /// The scored scatter-gather path: front half once at the router, back
    /// half scattered to shards 1..N's workers and run inline for shard 0,
    /// replies merged by score.
    pub fn handle_batch_scored(
        &self,
        queries: &[Query],
        deadline: Deadline,
    ) -> Result<Vec<ScoredRetrieval>, ServingError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.validate_nodes(queries.iter().flat_map(|r| [r.user, r.query]))?;
        let m = &self.metrics;
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
            return Ok(self.router_fallback(queries));
        }

        self.fire_fault(FaultSite::Embed);
        let t = StageTimer::start(&m.stage_embed);
        let neighbor_slices: Vec<(&[NodeId], &[NodeId])> =
            neighbors.iter().map(|(u, q)| (u.as_slice(), q.as_slice())).collect();
        let uq = self.frozen.embed_requests(&self.graph, queries, &neighbor_slices);
        t.stop();

        // The batch's brownout rung, driven by the *worst* shard's probe
        // cost: a merge of mixed-rung shard answers would let a fast shard's
        // full-quality scores drown out a slow shard's shrunken list, so the
        // router imposes one rung on everyone. Deadline::none() reads every
        // EWMA as irrelevant and selects Full — the pre-ladder path.
        let worst_ewma = self.shards.iter().map(|s| s.ann_cost_ewma_ns()).max().unwrap_or_default();
        let rung = BrownoutRung::select(&deadline, worst_ewma);

        // Scatter to shards 1..N, then rank shard 0 on this thread while
        // they work. The gather window is the batch's remaining budget plus
        // a straggler grace (shards degrade internally on expiry, so a reply
        // normally lands in time — the grace bounds true loss, not tail
        // work). A reply that finished after the window is lost, even one
        // that is already in hand; shard 0's inline reply is judged alike.
        let t_gather = StageTimer::start(&m.gather_ns);
        let uq = Arc::new(uq);
        let scattered = self.scatter(&uq, queries, deadline, rung);
        let window = Deadline::after(
            deadline.remaining().map_or(DEFAULT_GATHER_TIMEOUT, |left| left + GATHER_GRACE),
        );
        let mut per_shard: Vec<Option<Vec<ScoredRetrieval>>> = Vec::new();
        per_shard.resize_with(self.shards.len(), || None);
        let mut last_err = None;
        let mut accept = |reply: ShardReply| {
            if window.expired_at(reply.done) {
                return;
            }
            match reply.result {
                Ok(rows) => {
                    if let Some(slot) = per_shard.get_mut(reply.idx) {
                        *slot = Some(rows);
                    }
                }
                Err(e) => last_err = Some(e),
            }
        };
        accept(self.inline.run(&uq, queries, &deadline, rung));
        if let Some((rx, dispatched)) = scattered {
            for _ in 0..dispatched {
                // A reply already queued is returned without blocking, even
                // once the window has closed; `accept` then judges it by
                // when it finished.
                let received = match window.remaining() {
                    Some(left) => rx.recv_timeout(left).ok(),
                    None => rx.recv().ok(),
                };
                let Some(reply) = received else { break };
                accept(reply);
            }
        }
        t_gather.stop();
        let answered = per_shard.iter().filter(|s| s.is_some()).count();
        let lost = self.shards.len() - answered;
        if lost > 0 {
            m.replies_lost.add(lost as u64);
        }
        if answered == 0 {
            return Err(last_err.unwrap_or(ServingError::Internal("every shard reply was lost")));
        }

        // Merge: per query, N-way merge the replying shards' sorted lists
        // (ties go to the lower shard index, so the order is deterministic).
        // A lost shard marks the whole batch degraded — its candidates are
        // missing from the merge.
        let t_merge = StageTimer::start(&m.merge_ns);
        let mut row_iters: Vec<std::vec::IntoIter<ScoredRetrieval>> =
            per_shard.into_iter().flatten().map(Vec::into_iter).collect();
        let mut out = Vec::with_capacity(queries.len());
        for q in queries {
            let rows: Vec<ScoredRetrieval> =
                row_iters.iter_mut().filter_map(Iterator::next).collect();
            out.push(merge_query(rows, self.effective_top_k(q), lost > 0));
        }
        t_merge.stop();
        Ok(out)
    }

    /// Queue the batch on shards 1..N's worker pools. Returns the reply
    /// channel and the number of jobs queued, or `None` at `N = 1`, where
    /// there is nothing to scatter.
    fn scatter(
        &self,
        uq: &Arc<Matrix>,
        queries: &[Query],
        deadline: Deadline,
        rung: BrownoutRung,
    ) -> Option<(mpsc::Receiver<ShardReply>, usize)> {
        if self.job_txs.is_empty() {
            return None;
        }
        let queries = Arc::new(queries.to_vec());
        let scattered = Instant::now();
        let (tx, rx) = mpsc::channel::<ShardReply>();
        let mut dispatched = 0usize;
        for job_tx in &self.job_txs {
            let job = ShardJob {
                uq: Arc::clone(uq),
                queries: Arc::clone(&queries),
                deadline,
                rung,
                scattered,
                reply: tx.clone(),
            };
            if job_tx.send(job).is_ok() {
                dispatched += 1;
            }
        }
        Some((rx, dispatched))
    }

    /// Budget-spent fallback at the router: answer from every shard's
    /// posting partition (no embedding, no probe, no scatter), merged by
    /// the postings' synthetic rank scores. Mirrors
    /// [`OnlineServer::degraded_fallback_batch`] per shard, counting
    /// `serve.degraded.fallback` once per request.
    fn router_fallback(&self, queries: &[Query]) -> Vec<ScoredRetrieval> {
        self.metrics.degraded_fallback.add(queries.len() as u64);
        queries
            .iter()
            .map(|r| {
                let k = self.effective_top_k(r);
                let rows: Vec<ScoredRetrieval> = self
                    .shards
                    .iter()
                    .map(|shard| {
                        let items = shard
                            .inverted()
                            .posting(r.query)
                            .map(|p| {
                                p.iter()
                                    .take(k)
                                    .enumerate()
                                    .map(|(rank, &id)| (id as u64, -(rank as f32)))
                                    .collect()
                            })
                            .unwrap_or_default();
                        ScoredRetrieval { items, degraded: true }
                    })
                    .collect();
                merge_query(rows, k, false)
            })
            .collect()
    }

    /// Partitioned neighbor-cache resolve: each node's entry lives in (and
    /// only in) its owning shard's cache, computed with the same
    /// neutral-focal top-k the single-shard path caches — so a node's
    /// cached neighborhood is identical at any shard count.
    fn resolve_neighbors(
        &self,
        queries: &[Query],
    ) -> Result<Vec<crate::server::NeighborPair>, ServingError> {
        if self.config.disable_cache {
            // The no-cache ablation samples per request and touches no shard
            // state; any shard's resolver serves (shard 0 by convention).
            return self
                .shards
                .first()
                .ok_or(ServingError::Internal("sharded server with no shards"))?
                .resolve_neighbors(queries);
        }
        let num_shards = self.shards.len();
        let mut by_shard: Vec<Vec<NodeId>> = vec![Vec::new(); num_shards];
        let mut seen = HashSet::new();
        for r in queries {
            for n in [r.user, r.query] {
                if seen.insert(n) {
                    by_shard[shard_of_node(n, num_shards)].push(n);
                }
            }
        }
        let mut resolved: HashMap<NodeId, Arc<Vec<NodeId>>> = HashMap::with_capacity(seen.len());
        for (shard, owned) in self.shards.iter().zip(&by_shard) {
            if owned.is_empty() {
                continue;
            }
            let found = shard.cache().get_many(owned);
            let missing: Vec<NodeId> =
                owned.iter().zip(&found).filter(|(_, f)| f.is_none()).map(|(&n, _)| n).collect();
            let computed: Vec<(NodeId, Vec<NodeId>)> = missing
                .iter()
                .map(|&n| (n, neutral_topk_neighbors(&self.graph, n, self.config.cache_k)))
                .collect();
            let inserted = shard.cache().insert_many(computed);
            resolved.extend(missing.into_iter().zip(inserted));
            for (&n, hit) in owned.iter().zip(found) {
                if let Some(entry) = hit {
                    resolved.insert(n, entry);
                }
            }
        }
        queries
            .iter()
            .map(|r| {
                let get = |n: NodeId| {
                    resolved
                        .get(&n)
                        .map(Arc::clone)
                        .ok_or(ServingError::Internal("partitioned cache resolve lost a node"))
                };
                Ok((get(r.user)?, get(r.query)?))
            })
            .collect()
    }

    #[inline]
    fn effective_top_k(&self, q: &Query) -> usize {
        if q.top_k == 0 {
            self.config.top_k
        } else {
            q.top_k as usize
        }
    }

    fn validate_nodes(&self, nodes: impl IntoIterator<Item = NodeId>) -> Result<(), ServingError> {
        let num_nodes = self.graph.num_nodes();
        for node in nodes {
            if node as usize >= num_nodes {
                return Err(ServingError::NodeOutOfRange { node, num_nodes });
            }
        }
        Ok(())
    }

    #[inline]
    fn fire_fault(&self, site: FaultSite) {
        if let Some(f) = &self.fault {
            f.fire(site);
        }
    }
}

impl Drop for ShardedServer {
    fn drop(&mut self) {
        // Dropping the job senders disconnects every worker's receiver;
        // workers drain in-flight jobs and exit.
        self.job_txs.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl QueryService for ShardedServer {
    fn serve_batch(&self, queries: &[Query]) -> Result<Vec<Retrieval>, ServingError> {
        self.handle_batch(queries)
    }

    fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        ShardedServer::metrics_registry(self)
    }

    fn metrics_snapshot(&self) -> Snapshot {
        ShardedServer::metrics_snapshot(self)
    }

    fn cache_stats(&self) -> CacheStats {
        self.aggregated_cache_stats()
    }
}

/// One worker of shards 1..N: drain jobs, record how long each waited in
/// the queue, run the shard's executor, send the reply. A reply the router
/// has stopped waiting for is dropped silently.
fn spawn_worker(
    exec: ShardExecutor,
    rx: channel::Receiver<ShardJob>,
    queue_ns: Histogram,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(job) = rx.recv() {
            if queue_ns.is_enabled() {
                queue_ns.record(job.scattered.elapsed().as_nanos() as u64);
            }
            let reply = exec.run(&job.uq, &job.queries, &job.deadline, job.rung);
            let _ = job.reply.send(reply);
        }
    })
}
