//! Fill-contract suite (wired into `ci.sh`).
//!
//! A `Full`-rung batch never comes back short: the backend's filled probe
//! (`SearchBackend::search_batch_filled`) answers a row whose probe cannot
//! fill its top-k with the exact top-k. IVF does this inside its list-major
//! pass instead of probing and then rescanning, so every answer must stay
//! byte-identical to the composition it replaces — a plain `search_batch`
//! at the batch's widest k, truncated per row, with a per-row
//! `exact_search` for every row that came back short. The IVF server here
//! is sized so that probes under-fill often: about 80 items in 9 lists,
//! 2 lists probed, per-row top-k up to 48.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use zoomer_data::{TaobaoConfig, TaobaoData};
use zoomer_graph::{HeteroGraph, NodeId};
use zoomer_model::{neutral_topk_neighbors, CtrModel, FrozenModel, ModelConfig, UnifiedCtrModel};
use zoomer_obs::MetricsRegistry;
use zoomer_serving::{
    BrownoutRung, Deadline, IvfBackend, IvfIndex, OnlineServer, Query, ScoredRetrieval,
    SearchBackend, ServingConfig,
};
use zoomer_tensor::{seeded_rng, Matrix};

use rand::Rng;

const NPROBE: usize = 2;
const MAX_K: u32 = 48;

struct Fixture {
    graph: Arc<HeteroGraph>,
    frozen: FrozenModel,
    pool: Vec<NodeId>,
    logs: Vec<(NodeId, NodeId)>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = TaobaoData::generate(TaobaoConfig::tiny(71));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(17, dd));
        let frozen = model.freeze(&data.graph);
        let pool = data.item_nodes();
        let logs: Vec<(NodeId, NodeId)> =
            data.logs.iter().take(80).map(|l| (l.user, l.query)).collect();
        assert!(!logs.is_empty());
        Fixture { graph: Arc::new(data.graph), frozen, pool, logs }
    })
}

fn config() -> ServingConfig {
    ServingConfig { top_k: 30, nprobe: NPROBE, ..Default::default() }
}

/// A fresh server over the shared fixture, reporting into `registry`.
fn build_server(config: ServingConfig, registry: Arc<MetricsRegistry>) -> OnlineServer {
    let fix = fixture();
    OnlineServer::builder()
        .graph(Arc::clone(&fix.graph))
        .frozen(fix.frozen.clone())
        .item_pool(&fix.pool)
        .config(config)
        .seed(71)
        .metrics(registry)
        .build()
        .expect("server build")
}

/// The server every read-only property shares (no test diffs its registry).
fn shared_server() -> &'static OnlineServer {
    static SERVER: OnceLock<OnlineServer> = OnceLock::new();
    SERVER.get_or_init(|| build_server(config(), Arc::new(MetricsRegistry::new())))
}

fn queries(ks: &[u32], offset: usize) -> Vec<Query> {
    let logs = &fixture().logs;
    ks.iter()
        .enumerate()
        .map(|(i, &k)| {
            let (user, q) = logs[(offset + i) % logs.len()];
            Query::new(user, q).with_top_k(k)
        })
        .collect()
}

/// The request embeddings the server probes with: cache entries are always
/// the neutral-focal top-k, so they can be recomputed here.
fn embed(server: &OnlineServer, qs: &[Query]) -> Matrix {
    let fix = fixture();
    let cache_k = server.config().cache_k;
    let nbrs: Vec<(Vec<NodeId>, Vec<NodeId>)> = qs
        .iter()
        .map(|q| {
            (
                neutral_topk_neighbors(&fix.graph, q.user, cache_k),
                neutral_topk_neighbors(&fix.graph, q.query, cache_k),
            )
        })
        .collect();
    let slices: Vec<(&[NodeId], &[NodeId])> =
        nbrs.iter().map(|(u, q)| (u.as_slice(), q.as_slice())).collect();
    fix.frozen.embed_requests(&fix.graph, qs, &slices)
}

/// The composed oracle: plain probe at the widest k, truncate per row,
/// per-row exact scan for short rows. Returns the rows and how many were
/// rescanned.
fn oracle(
    backend: &impl SearchBackend,
    uq: &Matrix,
    ks: &[usize],
) -> (Vec<Vec<(u64, f32)>>, usize) {
    let batch_k = ks.iter().copied().max().unwrap_or(0);
    let mut rows = backend.search_batch(uq, batch_k).expect("plain probe");
    let mut short = 0;
    for (i, (row, &k)) in rows.iter_mut().zip(ks).enumerate() {
        row.truncate(k);
        if row.len() < k && row.len() < backend.len() {
            *row = backend.exact_search(uq.row(i), k).expect("exact scan");
            short += 1;
        }
    }
    (rows, short)
}

fn bits(rows: &[Vec<(u64, f32)>]) -> Vec<Vec<(u64, u32)>> {
    rows.iter().map(|r| r.iter().map(|&(id, s)| (id, s.to_bits())).collect()).collect()
}

fn scored_bits(rows: &[ScoredRetrieval]) -> Vec<Vec<(u64, u32)>> {
    rows.iter().map(|r| r.items.iter().map(|&(id, s)| (id, s.to_bits())).collect()).collect()
}

fn usize_ks(qs: &[Query]) -> Vec<usize> {
    qs.iter().map(|q| q.top_k as usize).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every Full-rung row equals the composed oracle byte for byte, in
    /// batches that mix per-row top-k, and equals its own batch of one.
    #[test]
    fn full_rung_rows_equal_probe_plus_exact_rescan(
        ks in prop::collection::vec(1u32..=MAX_K, 1..12),
        offset in 0usize..80,
    ) {
        let server = shared_server();
        let qs = queries(&ks, offset);
        let served = server.handle_batch_scored(&qs, Deadline::none()).expect("serve");
        let (expect, _) = oracle(server.backend(), &embed(server, &qs), &usize_ks(&qs));
        prop_assert_eq!(scored_bits(&served), bits(&expect));
        prop_assert!(served.iter().all(|r| !r.degraded), "a Full batch is not degraded");
        for (row, q) in served.iter().zip(&qs) {
            let alone = server.handle_batch_scored(&[*q], Deadline::none()).expect("serve one");
            prop_assert_eq!(&alone[0], row, "batch-of-one identity");
        }
    }

    /// The IVF override agrees with the oracle at the backend level, for
    /// every chunk count, and counts exactly the rows the oracle rescans.
    #[test]
    fn ivf_filled_probe_is_chunk_invariant_and_counts_its_fills(
        n in 1usize..48,
        qseed in 0u64..1000,
        chunks in 1usize..9,
    ) {
        let backend = ivf_backend();
        let mut rng = seeded_rng(qseed);
        let uq = Matrix::from_vec(
            n,
            backend.dim(),
            (0..n * backend.dim()).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let ks: Vec<usize> = (0..n).map(|_| rng.gen_range(1..=MAX_K as usize)).collect();
        let (expect, short) = oracle(backend, &uq, &ks);
        let filled = backend
            .index()
            .search_batch_filled_chunked(&uq, &ks, NPROBE, chunks)
            .expect("filled");
        prop_assert_eq!(bits(&filled.results), bits(&expect), "chunks={}", chunks);
        prop_assert_eq!(filled.rows_filled, short);
        let auto = backend.search_batch_filled(&uq, &ks).expect("auto");
        prop_assert_eq!(bits(&auto.results), bits(&expect));
    }
}

/// A bare IVF backend over random vectors, sized like the server: 80 items
/// in 9 lists, so a 2-list probe holds about 18 candidates.
fn ivf_backend() -> &'static IvfBackend {
    static BACKEND: OnceLock<IvfBackend> = OnceLock::new();
    BACKEND.get_or_init(|| {
        let mut rng = seeded_rng(72);
        let items: Vec<(u64, Vec<f32>)> = (0..80u64)
            .map(|id| (id, (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect()))
            .collect();
        IvfBackend::new(IvfIndex::build(&items, 9, 4, 72), NPROBE, NPROBE)
    })
}

/// A batch of 40 rows crosses the 32-row threshold, so the server's probe
/// takes the chunked rayon split on a multi-core host.
#[test]
fn wide_batch_takes_the_same_answers() {
    let server = shared_server();
    let ks: Vec<u32> = (0..40).map(|i| 1 + (i * 7) % MAX_K).collect();
    let qs = queries(&ks, 3);
    let served = server.handle_batch_scored(&qs, Deadline::none()).expect("serve");
    let uq = embed(server, &qs);
    let (expect, short) = oracle(server.backend(), &uq, &usize_ks(&qs));
    assert!(short > 0, "the fixture must under-fill some probes");
    assert_eq!(scored_bits(&served), bits(&expect));
    let ivf = server.backend().as_ivf().expect("ivf backend");
    for chunks in [1usize, 2, 3, 5, 40] {
        let filled =
            ivf.search_batch_filled_chunked(&uq, &usize_ks(&qs), NPROBE, chunks).expect("filled");
        assert_eq!(bits(&filled.results), bits(&expect), "chunks={chunks}");
    }
}

/// A fresh server's first bounded batch runs the adaptive `CapBudget`
/// probe (no cost history yet). With a generous budget it is never capped,
/// so it realizes `Full` and must equal the Full answer, fills included.
#[test]
fn uncapped_adaptive_cap_budget_equals_full() {
    let ks: Vec<u32> = (0..12).map(|i| 1 + (i * 11) % MAX_K).collect();
    let qs = queries(&ks, 5);
    let full = shared_server().handle_batch_scored(&qs, Deadline::none()).expect("full");
    let registry = Arc::new(MetricsRegistry::new());
    let bounded = build_server(
        ServingConfig { deadline: Some(std::time::Duration::from_secs(600)), ..config() },
        Arc::clone(&registry),
    );
    assert_eq!(bounded.ann_cost_ewma_ns(), 0, "no probe history: the batch runs CapBudget");
    let got = bounded.handle_batch(&qs).expect("bounded");
    let want: Vec<_> = full.into_iter().map(ScoredRetrieval::into_retrieval).collect();
    assert_eq!(got, want);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.degraded.budget_capped"), Some(0));
    assert!(snap.counter("serve.backend.rows_filled").unwrap_or(0) > 0);
}

/// `serve.backend.rows_filled` counts exactly the rows the oracle rescans
/// on Full batches, never exceeds `serve.requests`, and stays 0 on every
/// other rung. The server is this test's own, so no parallel test's batches
/// land in its registry.
#[test]
fn rows_filled_counts_full_rung_fills_only() {
    let registry = Arc::new(MetricsRegistry::new());
    let server = build_server(config(), Arc::clone(&registry));
    let count = |name: &str| registry.snapshot().counter(name).unwrap_or(0);
    let mut expect_filled = 0;
    for offset in 0..6u32 {
        let ks: Vec<u32> = (0..8).map(|i| 1 + ((i + offset) * 13) % MAX_K).collect();
        let qs = queries(&ks, offset as usize * 8);
        server.handle_batch_scored(&qs, Deadline::none()).expect("serve");
        expect_filled += oracle(server.backend(), &embed(&server, &qs), &usize_ks(&qs)).1;
    }
    assert!(expect_filled > 0, "the fixture must under-fill some probes");
    assert_eq!(count("serve.backend.rows_filled"), expect_filled as u64);
    assert!(count("serve.backend.rows_filled") <= count("serve.requests"));
    let before = count("serve.backend.rows_filled");
    let qs = queries(&[MAX_K; 8], 0);
    for rung in &BrownoutRung::ALL[1..] {
        server.handle_batch_scored_forced(&qs, *rung).expect("forced");
        assert_eq!(count("serve.backend.rows_filled"), before, "{} must not fill", rung.name());
    }
    server.handle_batch_scored_forced(&qs, BrownoutRung::Full).expect("forced full");
    assert!(count("serve.backend.rows_filled") > before, "a forced Full batch fills");
    assert!(count("serve.backend.rows_filled") <= count("serve.requests"));
}
