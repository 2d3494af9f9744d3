//! Cooperative cancellation for the enumerative search.
//!
//! A [`CancelToken`] is a cheaply clonable handle shared between the
//! caller (who cancels) and the synthesis loops (which poll). The search
//! never blocks on the token: [`synthesize_cancellable`] checks it once
//! on entry and the branch synthesizer checks it once per guard step —
//! the unit at which `SynthesizeBranch` (Figure 8) pops the next
//! `(guard, locator)` pair — so a cancelled search returns within one
//! guard step, never mid-extractor-enumeration with partial state
//! observable.
//!
//! Three triggers fold into one token:
//!
//! * **explicit** — [`CancelToken::cancel`] from another thread (a
//!   server shutting down, a client disconnecting);
//! * **deadline** — [`CancelToken::with_deadline`] /
//!   [`CancelToken::after`]: the token trips once `Instant::now()`
//!   passes the deadline (per-request latency budgets);
//! * **step budget** — [`CancelToken::with_step_budget`]: the token
//!   trips after a fixed number of cooperative checks. This is a
//!   machine-independent work bound and the deterministic test hook
//!   for "a mid-run cancel returns within a bounded number of steps".
//!
//! Cancellation is observationally invisible to everything else: a run
//! that completes under a token is byte-identical to one without (the
//! token's check counter is separate from [`crate::SynthStats`]), and a
//! cancelled run returns [`Cancelled`] instead of a partial outcome —
//! callers never see half-searched program sets.
//!
//! [`synthesize_cancellable`]: crate::synthesize_cancellable

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The error returned by a cancelled synthesis: the search was abandoned
/// (deadline, explicit cancel, or step budget) and no partial result is
/// exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("synthesis cancelled (deadline, explicit cancel, or step budget)")
    }
}

impl std::error::Error for Cancelled {}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Cooperative checks performed so far (checkpoints, not
    /// `is_cancelled` polls).
    checks: AtomicU64,
    /// Trip after this many checkpoints, if set.
    step_budget: Option<u64>,
    /// Trip once `Instant::now() >= deadline`, if set.
    deadline: Option<Instant>,
}

/// A shared, cooperative cancellation handle (see the module docs).
///
/// Clones share state: cancelling any clone cancels them all. The
/// default token ([`CancelToken::never`]) can only be tripped by an
/// explicit [`CancelToken::cancel`].
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    fn with(step_budget: Option<u64>, deadline: Option<Instant>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                checks: AtomicU64::new(0),
                step_budget,
                deadline,
            }),
        }
    }

    /// A token with no deadline and no budget: trips only on an explicit
    /// [`CancelToken::cancel`].
    pub fn never() -> Self {
        Self::with(None, None)
    }

    /// A token that trips once `Instant::now()` reaches `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self::with(None, Some(deadline))
    }

    /// A token that trips `budget` from now (see
    /// [`CancelToken::with_deadline`]).
    pub fn after(budget: Duration) -> Self {
        Self::with_deadline(Instant::now() + budget)
    }

    /// A token that trips after `steps` cooperative checkpoints — a
    /// deterministic, machine-independent work bound. `0` means
    /// pre-cancelled: the very first checkpoint trips.
    pub fn with_step_budget(steps: u64) -> Self {
        Self::with(Some(steps), None)
    }

    /// Trips the token explicitly. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token has tripped (flag or expired deadline). Does
    /// **not** count as a cooperative checkpoint.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        if let Some(d) = self.inner.deadline {
            if Instant::now() >= d {
                self.inner.cancelled.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    /// One cooperative checkpoint: counts the check, applies the step
    /// budget and deadline, and returns whether the caller should
    /// abandon the search. The synthesis loops call this once per guard
    /// step.
    pub(crate) fn checkpoint(&self) -> bool {
        let n = self.inner.checks.fetch_add(1, Ordering::Relaxed);
        if let Some(budget) = self.inner.step_budget {
            if n >= budget {
                self.inner.cancelled.store(true, Ordering::Release);
                return true;
            }
        }
        self.is_cancelled()
    }

    /// Number of cooperative checkpoints performed so far (all clones).
    pub fn checks(&self) -> u64 {
        self.inner.checks.load(Ordering::Relaxed)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::never()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_trips() {
        let t = CancelToken::never();
        assert!(!t.is_cancelled());
        for _ in 0..100 {
            assert!(!t.checkpoint());
        }
        assert_eq!(t.checks(), 100);
    }

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let t = CancelToken::never();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
        assert!(c.checkpoint());
        // `is_cancelled` polls don't count as checkpoints.
        assert_eq!(t.checks(), 1);
    }

    #[test]
    fn step_budget_trips_after_exactly_n_checkpoints() {
        let t = CancelToken::with_step_budget(3);
        assert!(!t.checkpoint());
        assert!(!t.checkpoint());
        assert!(!t.checkpoint());
        assert!(t.checkpoint());
        assert!(t.is_cancelled());
    }

    #[test]
    fn zero_budget_means_pre_cancelled_at_first_checkpoint() {
        let t = CancelToken::with_step_budget(0);
        assert!(t.checkpoint());
    }

    #[test]
    fn elapsed_deadline_trips() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let far = CancelToken::after(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(!far.checkpoint());
    }
}
