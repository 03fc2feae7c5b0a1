//! Contention management: what a transaction does when it hits a conflict.
//!
//! The paper (§2.1): "Due to the all-or-nothing nature of transactions, a
//! single conflict forces a transaction to either abort or stall until the
//! conflicting transaction commits." Both options are provided; because
//! ownership acquisition is eager and non-blocking, the stall variant spins
//! a bounded number of times on the contended entry before giving up and
//! aborting (unbounded stalling could deadlock two transactions stalling on
//! each other).

/// Policy choices for reacting to a conflict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ContentionPolicy {
    /// Abort immediately and retry the whole transaction after randomized
    /// exponential backoff.
    #[default]
    Suicide,
    /// Re-attempt the conflicting acquire up to the given number of times
    /// (spinning in between), then abort.
    Stall {
        /// Maximum re-attempts of one acquire before aborting.
        max_spins: u32,
    },
}

impl ContentionPolicy {
    /// Acquire re-attempts allowed before aborting (0 for suicide).
    pub fn max_spins(&self) -> u32 {
        match self {
            ContentionPolicy::Suicide => 0,
            ContentionPolicy::Stall { max_spins } => *max_spins,
        }
    }
}

/// How a whole transaction reacts to repeated aborts: the retry budget an
/// engine spends before [`run_with`](crate::TmEngine::run_with) gives up
/// with [`RetryLimitExceeded`](crate::RetryLimitExceeded).
///
/// Orthogonal to [`ContentionPolicy`], which governs a *single* conflicting
/// acquire inside one attempt; the retry policy governs the attempt loop
/// around the whole body. Every engine honours it identically — it is part
/// of the [`TmEngine`](crate::TmEngine) contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Retry (with randomized exponential backoff) until the body commits.
    #[default]
    Unbounded,
    /// Give up after this many attempts (clamped to at least one).
    Bounded {
        /// Maximum attempts, counting the first.
        max_attempts: u32,
    },
}

impl RetryPolicy {
    /// The attempt budget this policy allows.
    pub fn budget(&self) -> u32 {
        match self {
            RetryPolicy::Unbounded => u32::MAX,
            RetryPolicy::Bounded { max_attempts } => (*max_attempts).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_spins() {
        assert_eq!(ContentionPolicy::Suicide.max_spins(), 0);
        assert_eq!(ContentionPolicy::Stall { max_spins: 8 }.max_spins(), 8);
        assert_eq!(ContentionPolicy::default(), ContentionPolicy::Suicide);
    }
}
