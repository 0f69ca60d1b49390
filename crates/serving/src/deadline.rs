//! Request latency budgets.
//!
//! §VII's serving stack answers "users' timely requests" under a strict
//! latency budget; a request that cannot be answered in time is worth less
//! than the capacity it consumes. A [`Deadline`] is the absolute point in
//! time by which a batch must be answered, threaded from admission through
//! cache resolve and the ANN probe. The unbounded deadline is a plain
//! `None` inside — checking it costs one branch and **no clock read**, so a
//! server with no configured deadline takes exactly the pre-deadline code
//! path.

use std::time::{Duration, Instant};

/// An absolute per-request/per-batch latency budget. `Deadline::none()` is
/// unbounded and free to check; a bounded deadline is compared against
/// `Instant::now()` at stage boundaries.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// The unbounded deadline: never expires, never reads the clock.
    pub fn none() -> Self {
        Self { at: None }
    }

    /// A deadline `budget` from now. A zero budget is already expired: the
    /// server rejects it at admission instead of doing work it cannot bill.
    /// (An overflowing far-future budget saturates to unbounded.)
    pub fn after(budget: Duration) -> Self {
        Self { at: Instant::now().checked_add(budget) }
    }

    /// Deadline from an optional configured budget ([`crate::ServingConfig`]'s
    /// `deadline` field): `None` ⇒ unbounded.
    pub fn from_config(budget: Option<Duration>) -> Self {
        match budget {
            Some(b) => Self::after(b),
            None => Self::none(),
        }
    }

    /// Whether this deadline can ever expire.
    pub fn is_bounded(&self) -> bool {
        self.at.is_some()
    }

    /// Whether the budget is spent. Always `false` (and clock-free) for the
    /// unbounded deadline.
    #[inline]
    pub fn expired(&self) -> bool {
        match self.at {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }

    /// Whether the budget was already spent at `t`. Always `false` for the
    /// unbounded deadline.
    #[inline]
    pub(crate) fn expired_at(&self, t: Instant) -> bool {
        self.at.is_some_and(|at| t >= at)
    }

    /// Time left, `None` when unbounded. Saturates at zero once expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.at.map(|at| at.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires() {
        let d = Deadline::none();
        assert!(!d.is_bounded());
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
        assert!(!Deadline::from_config(None).is_bounded());
    }

    #[test]
    fn zero_budget_is_already_expired() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.is_bounded());
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_budget_is_not_expired() {
        let d = Deadline::from_config(Some(Duration::from_secs(3600)));
        assert!(d.is_bounded());
        assert!(!d.expired());
        assert!(d.remaining().is_some_and(|r| r > Duration::from_secs(3599)));
    }

    #[test]
    fn expired_at_compares_against_the_given_instant() {
        let start = Instant::now();
        let d = Deadline::after(Duration::from_secs(60));
        assert!(!d.expired_at(start));
        assert!(d.expired_at(start + Duration::from_secs(61)));
        assert!(!Deadline::none().expired_at(start + Duration::from_secs(61)));
    }

    #[test]
    fn overflowing_budget_saturates_to_unbounded() {
        let d = Deadline::after(Duration::MAX);
        assert!(!d.expired());
    }
}
