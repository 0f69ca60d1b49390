//! In-process replay for per-layer attribution. Each frame goes through the
//! layer functions the sharded serve path calls, in its order, with a span
//! around each call:
//!
//! cache (`get_many`, `insert_many`) · sampler (`neutral_topk_neighbors` per
//! miss) · frozen (`embed_requests`) · per shard: backend (`search_batch`)
//! and server (truncate, `exact_search` widening of short rows) · router
//! (`top_k_desc` merge per query).
//!
//! The critical path takes the slowest shard. The composed answer is
//! compared with `handle_batch`; a difference is counted, not fatal, so a
//! later change to the serve path shows up as stale attribution.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use zoomer_graph::{shard_of_node, NodeId, Query, Retrieval};
use zoomer_model::neutral_topk_neighbors;
use zoomer_serving::topk::top_k_desc;
use zoomer_serving::SearchBackend;

use crate::host::nanos;
use crate::workload::Built;

#[derive(Default)]
pub struct Replay {
    pub frames: u64,
    pub rows: u64,
    /// (query, shard) probe rows, and those that came back short.
    pub shard_rows: u64,
    pub short_rows: u64,
    pub misses: u64,
    pub sampler_ns: u64,
    pub embed_ns: u64,
    /// Per frame: `get_many` + `insert_many`.
    pub resolve_ns: Vec<u64>,
    /// Per frame: the slowest shard's `search_batch`.
    pub probe_ns: Vec<u64>,
    /// Per short row: its `exact_search`.
    pub widen_ns: Vec<u64>,
    /// Per query: its `top_k_desc` merge.
    pub merge_ns: Vec<u64>,
    /// The critical paths of every frame, summed.
    pub critical_ns: u64,
    /// Widening on the critical path (the slowest shard's), summed.
    pub critical_widen_ns: u64,
    pub divergent_rows: u64,
}

impl Replay {
    /// Replay one frame; returns its critical-path nanoseconds.
    pub fn frame(&mut self, built: &Built, queries: &[Query]) -> Result<u64, String> {
        let server = &built.server;
        let shards = server.shards();
        let cache_k = server.config().cache_k;
        let graph = &*built.graph;

        // cache + sampler: the router's partitioned resolve.
        let mut by_shard: Vec<Vec<NodeId>> = vec![Vec::new(); shards.len()];
        let mut seen = HashSet::new();
        for q in queries {
            for n in [q.user, q.query] {
                if seen.insert(n) {
                    by_shard[shard_of_node(n, shards.len())].push(n);
                }
            }
        }
        let mut resolve_ns = 0;
        let mut sampler_ns = 0;
        let mut resolved: HashMap<NodeId, Arc<Vec<NodeId>>> = HashMap::with_capacity(seen.len());
        for (shard, owned) in shards.iter().zip(&by_shard) {
            if owned.is_empty() {
                continue;
            }
            let t = Instant::now();
            let found = shard.cache().get_many(owned);
            resolve_ns += nanos(t.elapsed());
            let missing: Vec<NodeId> =
                owned.iter().zip(&found).filter(|(_, f)| f.is_none()).map(|(&n, _)| n).collect();
            let t = Instant::now();
            let computed: Vec<(NodeId, Vec<NodeId>)> =
                missing.iter().map(|&n| (n, neutral_topk_neighbors(graph, n, cache_k))).collect();
            sampler_ns += nanos(t.elapsed());
            self.misses += missing.len() as u64;
            let t = Instant::now();
            let inserted = shard.cache().insert_many(computed);
            resolve_ns += nanos(t.elapsed());
            resolved.extend(missing.into_iter().zip(inserted));
            for (&n, hit) in owned.iter().zip(found) {
                if let Some(entry) = hit {
                    resolved.insert(n, entry);
                }
            }
        }

        // frozen: one stacked embed.
        let slices: Vec<(&[NodeId], &[NodeId])> = queries
            .iter()
            .map(|q| (resolved[&q.user].as_slice(), resolved[&q.query].as_slice()))
            .collect();
        let t = Instant::now();
        let uq = built.frozen.embed_requests(graph, queries, &slices);
        let embed_ns = nanos(t.elapsed());

        // backend + server, per shard; the slowest shard is critical.
        let batch_k = queries.iter().map(|q| q.top_k as usize).max().unwrap_or(0);
        let mut per_shard = Vec::with_capacity(shards.len());
        let (mut slowest_ns, mut slowest_probe_ns, mut slowest_widen_ns) = (0, 0, 0);
        for shard in shards {
            let backend = shard.backend();
            let t = Instant::now();
            let found = backend.search_batch(&uq, batch_k).map_err(|e| format!("probe: {e}"))?;
            let probe_ns = nanos(t.elapsed());
            let mut widen_ns = 0;
            let mut rows = Vec::with_capacity(found.len());
            for (i, mut f) in found.into_iter().enumerate() {
                let k = queries[i].top_k as usize;
                f.truncate(k);
                self.shard_rows += 1;
                if f.len() < k && f.len() < backend.len() {
                    if backend.len() >= k {
                        self.short_rows += 1;
                    }
                    let t = Instant::now();
                    f = backend.exact_search(uq.row(i), k).map_err(|e| format!("widen: {e}"))?;
                    let ns = nanos(t.elapsed());
                    self.widen_ns.push(ns);
                    widen_ns += ns;
                }
                rows.push(f);
            }
            if probe_ns + widen_ns >= slowest_ns {
                (slowest_ns, slowest_probe_ns, slowest_widen_ns) =
                    (probe_ns + widen_ns, probe_ns, widen_ns);
            }
            per_shard.push(rows.into_iter());
        }

        // router: merge per query.
        let mut merge_ns = 0;
        let mut composed = Vec::with_capacity(queries.len());
        for q in queries {
            let merged: Vec<(u64, f32)> =
                per_shard.iter_mut().filter_map(Iterator::next).flatten().collect();
            let t = Instant::now();
            let top = top_k_desc(merged, q.top_k as usize);
            let ns = nanos(t.elapsed());
            self.merge_ns.push(ns);
            merge_ns += ns;
            composed.push(Retrieval::new(top.into_iter().map(|(id, _)| id as NodeId).collect()));
        }

        let want = server.handle_batch(queries).map_err(|e| format!("reference serve: {e}"))?;
        self.divergent_rows += composed.iter().zip(&want).filter(|(a, b)| a != b).count() as u64;

        let critical = resolve_ns + sampler_ns + embed_ns + slowest_ns + merge_ns;
        self.frames += 1;
        self.rows += queries.len() as u64;
        self.sampler_ns += sampler_ns;
        self.embed_ns += embed_ns;
        self.resolve_ns.push(resolve_ns);
        self.probe_ns.push(slowest_probe_ns);
        self.critical_widen_ns += slowest_widen_ns;
        self.critical_ns += critical;
        Ok(critical)
    }
}
