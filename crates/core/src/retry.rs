//! The one retry driver: everything around a transaction attempt.
//!
//! Every engine runs its bodies through the two loops here — `run` for
//! read-write transactions and `run_read` for the read-only path. The
//! loops own the attempt budget (at least one attempt), the randomized
//! exponential backoff between attempts, attempt counting,
//! [`RetryLimitExceeded`], and the telemetry probe sequence
//! (`on_txn_begin`/`on_commit`/`on_abort` on the write path,
//! `on_read_begin`/`on_read_commit`/`on_read_validation_retry` on the read
//! path). An engine supplies only how an attempt begins, commits and
//! aborts, through the `Attempts` trait; the eager and lazy engines hold
//! no retry loop of their own.
//!
//! Both loops take the body as `&mut dyn FnMut`: the loop is compiled once
//! per engine and result type, not once per closure.

use std::time::Instant;

use tm_ownership::ThreadId;
use tm_telemetry::{AbortCause, Probe};

use crate::engine::TmEngine;
use crate::stats::StmStats;

/// Marker error: the current transaction attempt must be abandoned.
///
/// Returned by [`ReadOps::read`](crate::ReadOps::read)/[`TxnOps::write`](crate::TxnOps::write)
/// on conflict; user code propagates it with `?` and
/// [`TmEngine::run`](crate::TmEngine::run) retries the whole closure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aborted;

impl std::fmt::Display for Aborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction aborted")
    }
}

impl std::error::Error for Aborted {}

/// The retry budget of [`TmEngine::try_run`](crate::TmEngine::try_run)
/// (or of a bounded [`RetryPolicy`](crate::RetryPolicy)) was exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryLimitExceeded {
    /// Attempts made (equals the configured budget).
    pub attempts: u32,
}

impl std::fmt::Display for RetryLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction failed {} attempts", self.attempts)
    }
}

impl std::error::Error for RetryLimitExceeded {}

/// Randomized exponential backoff between transaction retries.
///
/// Spin-loop based (no syscalls) with a cap; the jitter source is a
/// SplitMix64 stream seeded per transaction so threads desynchronize.
#[derive(Clone, Debug)]
struct Backoff {
    attempt: u32,
    rng_state: u64,
}

impl Backoff {
    /// Spin ceilings stop doubling after this many retries.
    const MAX_EXPONENT: u32 = 16;

    /// Fresh backoff state with the given jitter seed.
    fn new(seed: u64) -> Self {
        Self {
            attempt: 0,
            rng_state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64: tiny, seedable, good enough for jitter.
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Record an abort and spin for a randomized, exponentially growing
    /// interval.
    fn wait(&mut self) {
        self.attempt += 1;
        let ceiling = 1u64 << self.attempt.min(Self::MAX_EXPONENT);
        for _ in 0..self.next_u64() % ceiling {
            std::hint::spin_loop();
        }
    }
}

/// Nanoseconds elapsed since an (optionally taken) probe timestamp; `0`
/// when telemetry is off and no timestamp was taken.
#[inline]
pub(crate) fn elapsed_ns(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// How a failed read-write attempt ends.
pub(crate) enum Abandon {
    /// A real abort, with its attributed cause: counted, reported to the
    /// probe, charged to the budget, and followed by a backoff.
    Abort(AbortCause),
    /// Not an abort: run the body again at once, charging nothing (the
    /// eager engine's escalation to cross-shard mode).
    Restart,
}

/// One engine's attempt protocol, as the retry driver sees it. Each method
/// does the engine's own accounting (counters, grant release); the driver
/// does everything else.
pub(crate) trait Attempts: TmEngine {
    /// The engine's telemetry probe type.
    type P: Probe;

    /// The attached probe.
    fn probe(&self) -> &Self::P;

    /// Begin a read-write attempt for thread `me`. `restarted` is true once
    /// any earlier attempt of this transaction ended in
    /// [`Abandon::Restart`].
    fn begin(&self, me: ThreadId, restarted: bool) -> Self::Txn<'_>;

    /// Commit an attempt whose body succeeded. On failure the attempt is
    /// already settled and counted.
    fn commit<'s>(&'s self, txn: Self::Txn<'s>) -> Result<(), Abandon>;

    /// Settle an attempt whose body returned [`Aborted`].
    fn abort<'s>(&'s self, txn: Self::Txn<'s>) -> Abandon;

    /// Begin a read-only attempt, or `None` when no consistent snapshot
    /// could be taken (counted as a validation retry).
    fn begin_read(&self, me: ThreadId) -> Option<Self::ReadTxn<'_>>;

    /// The counters read-only outcomes of thread `me` land in.
    fn read_stats(&self, me: ThreadId) -> &StmStats;
}

/// Run a read-write `body` on `engine` for thread `me`, for at most
/// `max_attempts` attempts.
#[inline]
pub(crate) fn run<'s, E: Attempts, R>(
    engine: &'s E,
    me: ThreadId,
    max_attempts: u32,
    body: &mut dyn FnMut(&mut E::Txn<'s>) -> Result<R, Aborted>,
) -> Result<R, RetryLimitExceeded> {
    assert!(max_attempts >= 1, "need at least one attempt");
    let probe = engine.probe();
    let enabled = E::P::ENABLED;
    let mut backoff = Backoff::new(me as u64);
    let mut attempts = 0u32;
    let mut restarted = false;
    // Every clock read sits behind the compile-time probe switch: with
    // `NoopProbe` the timestamps are `None` and nothing here reads the
    // clock.
    let txn_start = enabled.then(Instant::now);
    if enabled {
        probe.on_txn_begin(me);
    }
    loop {
        let attempt_start = enabled.then(Instant::now);
        let mut txn = engine.begin(me, restarted);
        let end = match body(&mut txn) {
            Ok(r) => match engine.commit(txn) {
                Ok(()) => {
                    if enabled {
                        probe.on_commit(
                            me,
                            elapsed_ns(attempt_start),
                            elapsed_ns(txn_start),
                            u64::from(attempts) + 1,
                        );
                    }
                    return Ok(r);
                }
                Err(end) => end,
            },
            Err(Aborted) => engine.abort(txn),
        };
        match end {
            Abandon::Restart => restarted = true,
            Abandon::Abort(cause) => {
                if enabled {
                    probe.on_abort(me, cause, elapsed_ns(attempt_start));
                }
                attempts += 1;
                if attempts >= max_attempts {
                    return Err(RetryLimitExceeded { attempts });
                }
                backoff.wait();
            }
        }
    }
}

/// Run a read-only `body` on `engine` for thread `me`, for at most
/// `max_attempts` attempts. Outcomes land in the read-side counters only.
#[inline]
pub(crate) fn run_read<'s, E: Attempts, R>(
    engine: &'s E,
    me: ThreadId,
    max_attempts: u32,
    body: &mut dyn FnMut(&mut E::ReadTxn<'s>) -> Result<R, Aborted>,
) -> Result<R, RetryLimitExceeded> {
    assert!(max_attempts >= 1, "need at least one attempt");
    let probe = engine.probe();
    let enabled = E::P::ENABLED;
    let mut backoff = Backoff::new(me as u64);
    let mut attempts = 0u32;
    let txn_start = enabled.then(Instant::now);
    loop {
        if enabled {
            probe.on_read_begin(me);
        }
        let outcome = match engine.begin_read(me) {
            Some(mut txn) => body(&mut txn),
            None => Err(Aborted),
        };
        match outcome {
            Ok(r) => {
                engine.read_stats(me).on_read_commit(me);
                if enabled {
                    probe.on_read_commit(me, elapsed_ns(txn_start));
                }
                return Ok(r);
            }
            Err(Aborted) => {
                engine.read_stats(me).on_read_validation_retry(me);
                if enabled {
                    probe.on_read_validation_retry(me);
                }
                attempts += 1;
                if attempts >= max_attempts {
                    return Err(RetryLimitExceeded { attempts });
                }
                backoff.wait();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_streams_differ_by_seed() {
        let mut a = Backoff::new(1);
        let mut b = Backoff::new(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }
}
