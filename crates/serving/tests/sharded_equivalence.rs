//! Sharded-vs-single-shard equivalence suite (wired into `ci.sh`).
//!
//! The scatter-gather contract: a [`ShardedServer`] with one shard is the
//! same server as a plain [`OnlineServer`] — not "close", bit-identical,
//! scores included (proptest-pinned, same spirit as `backend_parity.rs`).
//! At higher shard counts the exact backend must still produce the global
//! top-k (partition + merge loses nothing an exact scan would find), and
//! shard-reply faults must degrade the batch instead of erroring it.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use zoomer_data::{TaobaoConfig, TaobaoData};
use zoomer_graph::{HeteroGraph, NodeId};
use zoomer_model::{CtrModel, ModelConfig, UnifiedCtrModel};
use zoomer_serving::{
    BackendKind, Deadline, FaultPlan, FaultSite, FrozenModel, OnlineServer, Query, SearchBackend,
    ServerBuilder, ServingConfig, ShardedServer, ShardingConfig,
};

struct Fixture {
    graph: Arc<HeteroGraph>,
    frozen: FrozenModel,
    pool: Vec<NodeId>,
    logs: Vec<(NodeId, NodeId)>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = TaobaoData::generate(TaobaoConfig::tiny(64));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(17, dd));
        let frozen = model.freeze(&data.graph);
        let pool = data.item_nodes();
        let logs: Vec<(NodeId, NodeId)> =
            data.logs.iter().take(100).map(|l| (l.user, l.query)).collect();
        assert!(!logs.is_empty());
        Fixture { graph: Arc::new(data.graph), frozen, pool, logs }
    })
}

fn builder(config: ServingConfig) -> ServerBuilder {
    let fix = fixture();
    OnlineServer::builder()
        .graph(Arc::clone(&fix.graph))
        .frozen(fix.frozen.clone())
        .item_pool(&fix.pool)
        .config(config)
        .seed(64)
}

fn config(backend: BackendKind, num_shards: usize) -> ServingConfig {
    ServingConfig {
        top_k: 12,
        backend,
        sharding: ShardingConfig { num_shards, replicas_per_shard: 2 },
        ..Default::default()
    }
}

/// Score-bit projection of a scored batch result.
fn score_bits(rows: &[zoomer_serving::ScoredRetrieval]) -> Vec<(Vec<(u64, u32)>, bool)> {
    rows.iter()
        .map(|r| (r.items.iter().map(|&(id, s)| (id, s.to_bits())).collect(), r.degraded))
        .collect()
}

fn queries_from(indices: &[usize], top_ks: &[u32]) -> Vec<Query> {
    let logs = &fixture().logs;
    indices
        .iter()
        .zip(top_ks)
        .map(|(&i, &k)| {
            let (user, query) = logs[i % logs.len()];
            Query::new(user, query).with_tenant(i as u32).with_top_k(k)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// N=1 scatter-gather is bit-identical to the single-shard server:
    /// same ids, same score bits, same degraded flags, for any batch mix
    /// of default and per-request top-k.
    #[test]
    fn n1_sharded_is_bit_identical_to_single_shard(
        indices in prop::collection::vec(0usize..100, 1..10),
        top_ks in prop::collection::vec(0u32..13, 10),
    ) {
        static PAIR: OnceLock<(OnlineServer, ShardedServer)> = OnceLock::new();
        let (single, sharded) = PAIR.get_or_init(|| {
            let cfg = config(BackendKind::Ivf, 1);
            let single = builder(cfg).build().expect("single build");
            let sharded = ShardedServer::build(builder(cfg)).expect("sharded build");
            (single, sharded)
        });
        let queries = queries_from(&indices, &top_ks);
        let want = single
            .handle_batch_scored(&queries, Deadline::none())
            .expect("single serve");
        let got = sharded
            .handle_batch_scored(&queries, Deadline::none())
            .expect("sharded serve");
        prop_assert_eq!(score_bits(&want), score_bits(&got), "N=1 scatter-gather diverged");
    }
}

/// Every backend kind agrees at N=1 on a fixed batch (ids and scores).
#[test]
fn n1_equivalence_holds_for_every_backend() {
    for backend in
        [BackendKind::Ivf, BackendKind::Exact, BackendKind::Proximity, BackendKind::Quantized]
    {
        let cfg = config(backend, 1);
        let single = builder(cfg).build().expect("single build");
        let sharded = ShardedServer::build(builder(cfg)).expect("sharded build");
        let queries = queries_from(&[0, 1, 2, 3, 4, 5, 6, 7], &[0, 0, 5, 0, 9, 0, 0, 2]);
        let want = single.handle_batch_scored(&queries, Deadline::none()).expect("single");
        let got = sharded.handle_batch_scored(&queries, Deadline::none()).expect("sharded");
        assert_eq!(score_bits(&want), score_bits(&got), "backend {backend:?} diverged at N=1");
    }
}

/// With the exact backend, partitioning cannot lose candidates: the merged
/// top-k at N∈{2,4,8} equals the single-shard exact top-k.
#[test]
fn exact_backend_merge_recovers_the_global_topk() {
    let single = builder(config(BackendKind::Exact, 1)).build().expect("single build");
    let queries = queries_from(&[0, 3, 9, 14, 27, 33], &[0, 0, 0, 4, 0, 8]);
    let want = single.handle_batch(&queries).expect("single serve");
    for shards in [2usize, 4, 8] {
        let sharded =
            ShardedServer::build(builder(config(BackendKind::Exact, shards))).expect("build");
        assert_eq!(sharded.num_shards(), shards);
        let got = sharded.handle_batch(&queries).expect("sharded serve");
        assert_eq!(want, got, "exact scatter-gather lost candidates at N={shards}");
    }
}

/// Shard partitions are disjoint, cover the pool, and follow
/// `shard_of_node` — retrieval ownership matches graph-storage ownership.
#[test]
fn item_pool_partition_follows_shard_arithmetic() {
    let fix = fixture();
    let sharded = ShardedServer::build(builder(config(BackendKind::Exact, 4))).expect("build");
    let pool = &fix.pool;
    let total: usize = sharded.shards().iter().map(|s| s.backend().len()).sum();
    assert_eq!(total, pool.len(), "shards must cover the pool exactly once");
    for (idx, shard) in sharded.shards().iter().enumerate() {
        let owned: Vec<NodeId> =
            pool.iter().copied().filter(|&n| zoomer_graph::shard_of_node(n, 4) == idx).collect();
        assert_eq!(shard.backend().len(), owned.len(), "shard {idx} owns the wrong items");
    }
}

/// An injected panic in one shard's reply degrades the batch (the other
/// shard's answer still serves) and counts `serve.shard.replies_lost`.
#[test]
fn lost_shard_reply_degrades_instead_of_erroring() {
    let fault = Arc::new(
        FaultPlan::new(5)
            .action(FaultSite::ShardReply, 2, || panic!("injected shard-reply loss"))
            .build(),
    );
    let registry = Arc::new(zoomer_obs::MetricsRegistry::new());
    registry.set_enabled(true);
    let sharded = ShardedServer::build(
        builder(config(BackendKind::Exact, 2)).metrics(Arc::clone(&registry)).fault(fault),
    )
    .expect("build");
    let queries = queries_from(&[0, 1, 2], &[0, 0, 0]);
    let got = sharded.handle_batch(&queries).expect("one lost shard must not error the batch");
    assert_eq!(got.len(), queries.len());
    for row in &got {
        assert!(row.degraded, "a lossy merge must be marked degraded");
        assert!(!row.items.is_empty(), "the surviving shard still answers");
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.shard.replies_lost"), Some(1));
    assert_eq!(snap.counter("serve.shard.0.batches").unwrap_or(0), 1);
    assert_eq!(snap.counter("serve.shard.1.batches").unwrap_or(0), 1);
}

/// A `ShardReply` fault action that fires only on the thread that built it.
/// The router runs shard 0 on the calling thread, so from a test this
/// targets shard 0 alone — and proves shard 0 did run on the caller.
fn on_caller_thread(action: impl Fn() + Send + Sync + 'static) -> impl Fn() + Send + Sync {
    let caller = std::thread::current().id();
    move || {
        if std::thread::current().id() == caller {
            action();
        }
    }
}

/// A panic in shard 0's inline rank is a lost reply: it counts
/// `serve.shard.0.errors` and `serve.shard.replies_lost`, and the batch is
/// served by the other shards (degraded) or, at N = 1, errors.
#[test]
fn inline_shard0_panic_is_a_lost_reply() {
    for shards in [1usize, 2] {
        let fault = Arc::new(
            FaultPlan::new(9)
                .action(
                    FaultSite::ShardReply,
                    1,
                    on_caller_thread(|| panic!("injected shard-0 reply loss")),
                )
                .build(),
        );
        let registry = Arc::new(zoomer_obs::MetricsRegistry::new());
        let sharded = ShardedServer::build(
            builder(config(BackendKind::Exact, shards)).metrics(Arc::clone(&registry)).fault(fault),
        )
        .expect("build");
        let queries = queries_from(&[0, 1, 2], &[0, 0, 0]);
        let got = sharded.handle_batch(&queries);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.shard.0.errors"), Some(1), "N={shards}");
        assert_eq!(snap.counter("serve.shard.replies_lost"), Some(1), "N={shards}");
        if shards == 1 {
            let err = got.expect_err("the only shard's reply was lost");
            assert!(format!("{err}").contains("panicked"), "unexpected error shape: {err}");
        } else {
            let rows = got.expect("the surviving shard still answers");
            assert_eq!(snap.counter("serve.shard.1.errors"), Some(0));
            for row in &rows {
                assert!(row.degraded, "a lossy merge must be marked degraded");
                assert!(!row.items.is_empty(), "shard 1 still answers");
                assert!(row.items.iter().all(|&id| zoomer_graph::shard_of_node(id, 2) == 1));
            }
        }
    }
}

/// Shard 0's inline reply finishing after the gather window (deadline
/// remaining + grace) is discarded, not merged, even though the router
/// holds it; a worker reply that finished in time is still merged.
#[test]
fn inline_shard0_late_reply_is_discarded() {
    for shards in [1usize, 2] {
        let fault = Arc::new(
            FaultPlan::new(4)
                .action(
                    FaultSite::ShardReply,
                    1,
                    on_caller_thread(|| std::thread::sleep(Duration::from_millis(1300))),
                )
                .build(),
        );
        let registry = Arc::new(zoomer_obs::MetricsRegistry::new());
        let mut cfg = config(BackendKind::Exact, shards);
        // Window ≈ 1 s + 100 ms grace; shard 0 finishes ≥ 1.3 s after scatter.
        cfg.deadline = Some(Duration::from_secs(1));
        let sharded =
            ShardedServer::build(builder(cfg).metrics(Arc::clone(&registry)).fault(fault))
                .expect("build");
        let queries = queries_from(&[0, 1, 2], &[0, 0, 0]);
        let got = sharded.handle_batch(&queries);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.shard.replies_lost"), Some(1), "N={shards}");
        assert_eq!(snap.counter("serve.shard.0.errors"), Some(0), "late is not an error");
        if shards == 1 {
            let err = got.expect_err("the only reply was late");
            assert!(format!("{err}").contains("shard reply"), "unexpected error shape: {err}");
        } else {
            let rows = got.expect("shard 1 answered in time");
            for row in &rows {
                assert!(row.degraded, "a lossy merge must be marked degraded");
                assert!(!row.items.is_empty(), "shard 1's reply is merged");
                assert!(
                    row.items.iter().all(|&id| zoomer_graph::shard_of_node(id, 2) == 1),
                    "the late shard-0 reply must not be merged"
                );
            }
        }
    }
}

/// Every worker-run shard records one queue wait per batch; shard 0 runs
/// on the caller, has no queue and registers no queue-wait histogram.
#[test]
fn queue_wait_is_recorded_for_worker_shards_only() {
    let registry = Arc::new(zoomer_obs::MetricsRegistry::new());
    registry.set_enabled(true);
    let sharded =
        ShardedServer::build(builder(config(BackendKind::Ivf, 3)).metrics(Arc::clone(&registry)))
            .expect("build");
    let queries = queries_from(&[0, 1, 2, 3], &[0, 0, 0, 0]);
    for _ in 0..2 {
        sharded.handle_batch(&queries).expect("serve");
    }
    let snap = registry.snapshot();
    assert!(snap.histogram("serve.shard.0.queue_ns").is_none(), "shard 0 never queues");
    for idx in 1..3 {
        let wait = snap.histogram(&format!("serve.shard.{idx}.queue_ns")).expect("registered");
        assert_eq!(wait.count, 2, "shard {idx}: one queue wait per batch");
        assert_eq!(snap.counter(&format!("serve.shard.{idx}.batches")), Some(2));
    }
    assert_eq!(snap.counter("serve.shard.0.batches"), Some(2));
    assert_eq!(snap.counter("serve.shard.replies_lost"), Some(0));
}

/// A reply delayed past the deadline's gather grace is lost; when every
/// shard's reply is lost the batch errors instead of hanging.
#[test]
fn reply_delay_past_the_gather_window_is_loss() {
    let fault = Arc::new(
        FaultPlan::new(3).delay(FaultSite::ShardReply, 1, Duration::from_millis(1500)).build(),
    );
    let mut cfg = config(BackendKind::Exact, 2);
    cfg.deadline = Some(Duration::from_millis(400));
    let sharded = ShardedServer::build(builder(cfg).fault(fault)).expect("build");
    let queries = queries_from(&[0, 1], &[0, 0]);
    let got = sharded.handle_batch(&queries);
    // Either every reply missed the window (typical) or the budget was
    // already spent before the scatter (slow machine) — both are the
    // deadline ladder, never a hang or a panic.
    match got {
        Err(e) => assert!(format!("{e}").contains("shard reply"), "unexpected error shape: {e}"),
        Ok(rows) => assert!(rows.iter().all(|r| r.degraded), "late replies must degrade"),
    }
}

/// Sharding rejects layouts the pool cannot fill, and zero-shard configs.
#[test]
fn degenerate_shard_layouts_are_rejected() {
    let Err(err) = ShardedServer::build(builder(ServingConfig {
        sharding: ShardingConfig { num_shards: 0, replicas_per_shard: 1 },
        ..Default::default()
    })) else {
        panic!("zero shards must be rejected");
    };
    assert!(format!("{err}").contains("sharding"));
    // 80 items cannot fill 4096 shards: some shard ends up empty.
    let Err(err) = ShardedServer::build(builder(ServingConfig {
        sharding: ShardingConfig { num_shards: 4096, replicas_per_shard: 1 },
        ..Default::default()
    })) else {
        panic!("empty shards must be rejected");
    };
    assert!(format!("{err}").contains("no items"));
}

/// Warm + repeated serves hit the partitioned caches, and the aggregated
/// stats see it.
#[test]
fn partitioned_cache_serves_repeats_without_re_missing() {
    let sharded = ShardedServer::build(builder(config(BackendKind::Ivf, 2))).expect("build");
    let queries = queries_from(&[0, 1, 2, 3], &[0, 0, 0, 0]);
    let first = sharded.handle_batch(&queries).expect("serve");
    let misses_after_first = sharded.aggregated_cache_stats().misses;
    let second = sharded.handle_batch(&queries).expect("serve again");
    let stats = sharded.aggregated_cache_stats();
    assert_eq!(first, second, "same batch must be deterministic");
    assert_eq!(stats.misses, misses_after_first, "second serve must not miss");
    assert!(stats.hits > 0);
}
