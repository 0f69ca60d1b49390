//! The correctness gate: every OK, non-degraded row received over the wire
//! must equal the in-process `ShardedServer::handle_batch` answer (with
//! `Deadline::none()`) of an identically built server. Recall@k against an
//! exact oracle over the full item pool is computed on the same rows.

use zoomer_graph::NodeId;
use zoomer_model::neutral_topk_neighbors;
use zoomer_serving::{ExactSearch, ResponseStatus, SearchBackend};

use crate::loadgen::Sampled;
use crate::workload::Built;

#[derive(Default)]
pub struct GateResult {
    pub rows_checked: u64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    pub recall_sum: f64,
}

impl GateResult {
    pub fn recall_at_k(&self) -> f64 {
        if self.rows_checked == 0 {
            0.0
        } else {
            self.recall_sum / self.rows_checked as f64
        }
    }
}

/// The exact oracle: inner-product top-k over every item's tower embedding.
pub fn oracle(built: &Built) -> ExactSearch {
    let matrix = built.frozen.item_embeddings(&built.items);
    let items: Vec<(u64, Vec<f32>)> =
        built.items.iter().enumerate().map(|(r, &i)| (i as u64, matrix.row(r).to_vec())).collect();
    ExactSearch::build(&items)
}

pub fn check(
    built: &Built,
    oracle: &ExactSearch,
    sampled: &[Sampled],
) -> Result<GateResult, String> {
    let cache_k = built.server.config().cache_k;
    let graph = &*built.graph;
    let mut gate = GateResult::default();
    for s in sampled {
        let want =
            built.server.handle_batch(&s.queries).map_err(|e| format!("reference serve: {e}"))?;
        let neighbors: Vec<(Vec<NodeId>, Vec<NodeId>)> = s
            .queries
            .iter()
            .map(|q| {
                (
                    neutral_topk_neighbors(graph, q.user, cache_k),
                    neutral_topk_neighbors(graph, q.query, cache_k),
                )
            })
            .collect();
        let slices: Vec<(&[NodeId], &[NodeId])> =
            neighbors.iter().map(|(u, q)| (u.as_slice(), q.as_slice())).collect();
        let uq = built.frozen.embed_requests(graph, &s.queries, &slices);
        for (i, (row, q)) in s.rows.iter().zip(&s.queries).enumerate() {
            if row.status != ResponseStatus::Ok || row.retrieval.degraded {
                continue;
            }
            gate.rows_checked += 1;
            if want.get(i) != Some(&row.retrieval) {
                gate.mismatches += 1;
                if gate.first_mismatch.is_none() {
                    gate.first_mismatch = Some(format!(
                        "user {} query {}: wire {:?} vs in-process {:?}",
                        q.user,
                        q.query,
                        row.retrieval.items,
                        want.get(i).map(|r| &r.items)
                    ));
                }
            }
            let exact = oracle
                .exact_search(uq.row(i), q.top_k as usize)
                .map_err(|e| format!("oracle: {e}"))?;
            let hits = exact
                .iter()
                .filter(|(id, _)| row.retrieval.items.contains(&(*id as NodeId)))
                .count();
            gate.recall_sum += hits as f64 / exact.len().max(1) as f64;
        }
    }
    Ok(gate)
}
