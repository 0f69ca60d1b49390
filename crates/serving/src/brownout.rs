//! The brownout degradation ladder: how much quality a batch trades for
//! staying inside its deadline budget.
//!
//! PR 5 gave the server two degradation moves — cap the ANN probe
//! mid-flight, or fall all the way back to the inverted index. This module
//! names the full ladder between "serve at full quality" and "give up on
//! the model path entirely", ordered by how much recall each rung
//! surrenders:
//!
//! | rung | trade | counter |
//! |------|-------|---------|
//! | [`BrownoutRung::Full`]       | none: the backend's filled probe answers a short row exactly | — |
//! | [`BrownoutRung::SkipWiden`]  | plain probe, no exact fill: under-full lists come back short | `serve.degraded.skip_widen` |
//! | [`BrownoutRung::ShrinkTopK`] | halve each query's result list (and no exact fill) | `serve.degraded.topk_shrunk` |
//! | [`BrownoutRung::CapBudget`]  | cap the probe width (`nprobe` / beam) between rounds | `serve.degraded.budget_capped` |
//! | [`BrownoutRung::Fallback`]   | inverted-index posting lookup only | `serve.degraded.fallback` |
//!
//! The rung is selected **per batch** from the remaining deadline budget
//! against an EWMA of recent probe cost ([`BrownoutRung::select`]), so a
//! transient stall sheds exactly as much quality as the clock demands and
//! no more. Each rung's results are quality-dominated by the rung above it
//! at the same seed — pinned by the `brownout_ladder` proptest suite.

use crate::deadline::Deadline;

/// One rung of the brownout ladder, ordered mildest → harshest. The derived
/// `Ord` is the ladder order: `Full < SkipWiden < ShrinkTopK < CapBudget <
/// Fallback`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BrownoutRung {
    /// Full-quality serving: the backend's filled probe
    /// (`SearchBackend::search_batch_filled`), full top-k; a row the probe
    /// cannot fill gets its exact top-k.
    Full,
    /// The plain probe without the exact fill of under-full result lists —
    /// the O(pool) scan of a short row is the first cost a tight budget
    /// cannot afford.
    SkipWiden,
    /// Halve each query's top-k (and no exact fill): rank work and reply
    /// size shrink, the probe still runs at full width.
    ShrinkTopK,
    /// Cap the probe budget (`nprobe` for IVF, beam width for the proximity
    /// graph) between rounds; no exact fill, top-k halved.
    CapBudget,
    /// Answer from the inverted index alone — no embedding, no probe.
    Fallback,
}

impl BrownoutRung {
    /// Every rung, mildest first (bench sweeps iterate this).
    pub const ALL: [BrownoutRung; 5] = [
        BrownoutRung::Full,
        BrownoutRung::SkipWiden,
        BrownoutRung::ShrinkTopK,
        BrownoutRung::CapBudget,
        BrownoutRung::Fallback,
    ];

    /// Pick the rung for a batch from its remaining budget and the EWMA of
    /// recent ANN-probe cost (`0` = no history yet).
    ///
    /// An unbounded deadline is always [`BrownoutRung::Full`] — the ladder
    /// does not exist without a budget. An expired one is
    /// [`BrownoutRung::Fallback`]. With no probe history the batch runs at
    /// [`BrownoutRung::CapBudget`]: the round-major probe measures itself
    /// and self-caps only if the budget actually runs out, so a generous
    /// deadline's first batch still serves at full quality. Otherwise the
    /// rung comes from how many probes' worth of budget remain: ≥4× EWMA is
    /// comfortable (`Full`), each lost probe-width of slack steps one rung
    /// down, and under 2× the probe itself must be capped.
    pub fn select(deadline: &Deadline, ann_ewma_ns: u64) -> Self {
        if !deadline.is_bounded() {
            return BrownoutRung::Full;
        }
        let Some(remaining) = deadline.remaining() else {
            return BrownoutRung::Fallback;
        };
        if remaining.is_zero() {
            return BrownoutRung::Fallback;
        }
        if ann_ewma_ns == 0 {
            return BrownoutRung::CapBudget;
        }
        let remaining_ns = u64::try_from(remaining.as_nanos()).unwrap_or(u64::MAX);
        let probes_left = remaining_ns / ann_ewma_ns;
        match probes_left {
            0..=1 => BrownoutRung::CapBudget,
            2 => BrownoutRung::ShrinkTopK,
            3 => BrownoutRung::SkipWiden,
            _ => BrownoutRung::Full,
        }
    }

    /// The per-query result size at this rung: rungs at or past
    /// [`BrownoutRung::ShrinkTopK`] halve the requested `k` (rounding up,
    /// never below 1 for a nonzero request).
    pub fn shrunk_k(self, k: usize) -> usize {
        if self >= BrownoutRung::ShrinkTopK {
            k.div_ceil(2)
        } else {
            k
        }
    }

    /// Stable short name for reports and bench axes.
    pub fn name(self) -> &'static str {
        match self {
            BrownoutRung::Full => "full",
            BrownoutRung::SkipWiden => "skip_widen",
            BrownoutRung::ShrinkTopK => "shrink_topk",
            BrownoutRung::CapBudget => "cap_budget",
            BrownoutRung::Fallback => "fallback",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ladder_order_is_mildest_to_harshest() {
        let mut sorted = BrownoutRung::ALL;
        sorted.sort();
        assert_eq!(sorted, BrownoutRung::ALL, "ALL must already be in ladder order");
        assert!(BrownoutRung::Full < BrownoutRung::SkipWiden);
        assert!(BrownoutRung::CapBudget < BrownoutRung::Fallback);
    }

    #[test]
    fn unbounded_deadline_is_always_full() {
        assert_eq!(BrownoutRung::select(&Deadline::none(), 0), BrownoutRung::Full);
        assert_eq!(BrownoutRung::select(&Deadline::none(), u64::MAX), BrownoutRung::Full);
    }

    #[test]
    fn expired_deadline_is_fallback() {
        let d = Deadline::after(Duration::ZERO);
        assert_eq!(BrownoutRung::select(&d, 0), BrownoutRung::Fallback);
        assert_eq!(BrownoutRung::select(&d, 1_000), BrownoutRung::Fallback);
    }

    #[test]
    fn no_probe_history_runs_capped() {
        // ewma == 0: the self-measuring round-major probe, which equals the
        // full-quality path whenever the budget turns out to suffice.
        let d = Deadline::after(Duration::from_secs(600));
        assert_eq!(BrownoutRung::select(&d, 0), BrownoutRung::CapBudget);
    }

    #[test]
    fn remaining_budget_steps_down_the_ladder() {
        let ewma = Duration::from_millis(10).as_nanos() as u64;
        let at = |ms: u64| BrownoutRung::select(&Deadline::after(Duration::from_millis(ms)), ewma);
        // Generous margin for timing skew between `after` and `select`: the
        // budget sits mid-bucket, many EWMAs away from each boundary.
        assert_eq!(at(55), BrownoutRung::Full, "≥4 probes of slack");
        assert_eq!(at(35), BrownoutRung::SkipWiden, "3 probes of slack");
        assert_eq!(at(25), BrownoutRung::ShrinkTopK, "2 probes of slack");
        assert_eq!(at(15), BrownoutRung::CapBudget, "under 2 probes of slack");
    }

    #[test]
    fn shrink_applies_from_shrink_topk_down() {
        assert_eq!(BrownoutRung::Full.shrunk_k(10), 10);
        assert_eq!(BrownoutRung::SkipWiden.shrunk_k(10), 10);
        assert_eq!(BrownoutRung::ShrinkTopK.shrunk_k(10), 5);
        assert_eq!(BrownoutRung::CapBudget.shrunk_k(7), 4, "rounds up");
        assert_eq!(BrownoutRung::Fallback.shrunk_k(1), 1, "never below 1");
        assert_eq!(BrownoutRung::CapBudget.shrunk_k(0), 0);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = BrownoutRung::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names, ["full", "skip_widen", "shrink_topk", "cap_budget", "fallback"]);
    }
}
