//! A [`TmEngine`] wrapper that times every call into the engine layer.
//!
//! The wrapper delegates `run_with`/`run_read_with` unchanged and records,
//! per call, its wall time and how many times the engine invoked the body
//! (one invocation per attempt; a sharded engine also re-runs a body that
//! reached a second shard in cross-shard mode). It never touches the transaction itself,
//! so engine statistics and heap contents are exactly those of the bare
//! engine (`tests/instruments.rs` pins this). Only traced runs use it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tm_stm::{Aborted, EngineStats, Heap, RetryLimitExceeded, RetryPolicy, TmEngine};
use tm_telemetry::{AtomicHistogram, Histogram};

/// Call counters and latency histograms of one engine entry point.
#[derive(Debug, Default)]
pub struct CallStats {
    ns: AtomicHistogram,
    calls: AtomicU64,
    attempts: AtomicU64,
    total_ns: AtomicU64,
}

/// A point-in-time copy of [`CallStats`].
#[derive(Clone, Debug)]
pub struct CallSnapshot {
    /// Per-call wall time in nanoseconds.
    pub ns: Histogram,
    /// Calls made.
    pub calls: u64,
    /// Body invocations (attempts) across all calls.
    pub attempts: u64,
    /// Summed wall time of all calls.
    pub total_ns: u64,
}

impl CallStats {
    fn record(&self, ns: u64, attempts: u64) {
        self.ns.record(ns);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.attempts.fetch_add(attempts, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Copy the counters.
    pub fn snapshot(&self) -> CallSnapshot {
        CallSnapshot {
            ns: self.ns.snapshot(),
            calls: self.calls.load(Ordering::Relaxed),
            attempts: self.attempts.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
        }
    }

    /// Zero the counters (between an untimed warm-up and the measurement).
    pub fn reset(&self) {
        self.ns.reset();
        self.calls.store(0, Ordering::Relaxed);
        self.attempts.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
    }
}

impl CallSnapshot {
    /// Percentile `q` (0..=1) of the per-call time in nanoseconds, 0 if no
    /// call was made.
    pub fn ns_at(&self, q: f64) -> f64 {
        self.ns.percentile(q).unwrap_or(0) as f64
    }

    /// Mean attempts per call, 0 if no call was made.
    pub fn attempts_per_call(&self) -> f64 {
        ratio(self.attempts, self.calls)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The timing wrapper. `run` covers `run_with` (and everything built on
/// it); `read` covers `run_read_with`.
#[derive(Debug)]
pub struct Timed<E> {
    inner: E,
    /// Update transactions.
    pub run: CallStats,
    /// Read-only transactions.
    pub read: CallStats,
}

impl<E> Timed<E> {
    /// Wrap `inner`.
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            run: CallStats::default(),
            read: CallStats::default(),
        }
    }

    /// The wrapped engine (for organization-specific counters).
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Zero both call records.
    pub fn reset(&self) {
        self.run.reset();
        self.read.reset();
    }
}

impl<E: TmEngine> TmEngine for Timed<E> {
    type Txn<'e>
        = E::Txn<'e>
    where
        Self: 'e;

    type ReadTxn<'e>
        = E::ReadTxn<'e>
    where
        Self: 'e;

    fn run_with<'s, R>(
        &'s self,
        me: tm_ownership::ThreadId,
        policy: RetryPolicy,
        mut body: impl FnMut(&mut Self::Txn<'s>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded> {
        let mut attempts = 0u64;
        let t0 = Instant::now();
        let out = self.inner.run_with(me, policy, |txn| {
            attempts += 1;
            body(txn)
        });
        self.run.record(t0.elapsed().as_nanos() as u64, attempts);
        out
    }

    fn run_read_with<'s, R>(
        &'s self,
        me: tm_ownership::ThreadId,
        policy: RetryPolicy,
        mut body: impl FnMut(&mut Self::ReadTxn<'s>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded> {
        let mut attempts = 0u64;
        let t0 = Instant::now();
        let out = self.inner.run_read_with(me, policy, |txn| {
            attempts += 1;
            body(txn)
        });
        self.read.record(t0.elapsed().as_nanos() as u64, attempts);
        out
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.inner.retry_policy()
    }

    fn engine_stats(&self) -> EngineStats {
        self.inner.engine_stats()
    }

    fn heap(&self) -> &Heap {
        self.inner.heap()
    }
}
