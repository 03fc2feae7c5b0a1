//! Engine statistics: one counter set, one snapshot type, every engine.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares [`EngineStats`] and its striped atomic mirror from one field
/// list, so the snapshot, its window arithmetic and the live counters can
/// never drift apart.
macro_rules! engine_stats {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Engine-independent counter snapshot — the one statistics surface
        /// every [`TmEngine`](crate::TmEngine) exposes, so measurement code
        /// never has to know which protocol produced the numbers.
        ///
        /// Fields an engine does not track stay zero (the eager engine has
        /// no lazy-style abort breakdown; the lazy engine never stalls an
        /// acquire and has no strong-isolation accesses). `aborts` is always
        /// the total across all abort kinds, so
        /// [`abort_ratio`](EngineStats::abort_ratio) is commensurable across
        /// engines — the property the paper's cross-organization
        /// comparisons need.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct EngineStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl EngineStats {
            /// The window of activity between `earlier` and `self` (all
            /// counters are monotone, so a field-wise saturating
            /// difference). Measurement harnesses use this to isolate a
            /// phase's activity.
            pub fn since(&self, earlier: &EngineStats) -> EngineStats {
                EngineStats {
                    $($field: self.$field.saturating_sub(earlier.$field),)*
                }
            }
        }

        /// One stripe of the live counters.
        #[derive(Debug, Default)]
        struct StatCells {
            $($field: AtomicU64,)*
        }

        impl StatCells {
            fn add_to(&self, total: &mut EngineStats) {
                $(total.$field += self.$field.load(Ordering::Relaxed);)*
            }
        }
    };
}

engine_stats! {
    /// Committed transactions.
    commits,
    /// Aborted attempts of all kinds.
    aborts,
    /// Lazy engine: aborts at read time (entry locked or newer than the
    /// snapshot).
    read_aborts,
    /// Lazy engine: aborts while acquiring commit-time locks.
    lock_aborts,
    /// Lazy engine: aborts at read-set validation.
    validation_aborts,
    /// Eager engine: acquire re-attempts under the stall policy (and
    /// cross-shard commit-phase waits).
    stall_retries,
    /// Eager engine: non-transactional reads under strong isolation.
    strong_reads,
    /// Eager engine: non-transactional writes under strong isolation.
    strong_writes,
    /// Eager engine: times a strong-isolation access waited for a
    /// transaction.
    strong_stalls,
    /// Sum over committed transactions of distinct cache blocks *written*
    /// (the observed counterpart of the model's `W`).
    committed_write_blocks,
    /// Sum over committed transactions of distinct footprint units held at
    /// commit — `(1+α)·W` in the model. For the eager engine this counts
    /// ownership grants: exact for **block-keyed** tables (tagged,
    /// resizable), while a plain tagless table keys grants by *entry
    /// index*, so aliasing blocks coalesce and this undercounts the block
    /// footprint. For the lazy engine it is write-set blocks plus read-set
    /// entries.
    committed_grant_blocks,
    /// Read-only transactions committed through the snapshot read path
    /// (`run_read`). Deliberately **not** folded into `commits`: read-only
    /// transactions never touch the ownership table, so mixing them in
    /// would skew every write-side ratio (`abort_ratio`, footprint means).
    read_only_commits,
    /// Read-path attempts that failed snapshot/read validation and retried.
    /// The read-path counterpart of `aborts`, kept separate for the same
    /// reason as `read_only_commits`.
    read_validation_retries,
}

impl EngineStats {
    /// Aborts per commit — the cost false conflicts impose, comparable
    /// across every engine.
    pub fn abort_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    /// Mean distinct written blocks per committed transaction (observed `W`).
    pub fn mean_write_footprint(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.committed_write_blocks as f64 / self.commits as f64
        }
    }

    /// Mean fresh-read units per written block (observed `α`), derived from
    /// the grant and write footprints. Exact for block-keyed tables; biased
    /// low under an entry-keyed tagless table (see
    /// [`committed_grant_blocks`](EngineStats::committed_grant_blocks)).
    pub fn mean_alpha(&self) -> f64 {
        if self.committed_write_blocks == 0 {
            0.0
        } else {
            let reads = self
                .committed_grant_blocks
                .saturating_sub(self.committed_write_blocks);
            reads as f64 / self.committed_write_blocks as f64
        }
    }
}

/// Stripes per counter block. Thread `t` writes stripe `t % STAT_STRIPES`,
/// so with ≤ 16 measurement threads no two threads share a counter cache
/// line. Power of two (index by mask).
const STAT_STRIPES: usize = 16;

/// One stripe cell, padded to two cache lines so neighbouring stripes
/// never false-share.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(pub(crate) T);

/// The lazy protocol phase an abort happened in.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LazyAbort {
    /// A read found its entry locked or newer than the snapshot.
    Read,
    /// Commit-time locking lost to another writer.
    Lock,
    /// Commit-time read-set validation failed.
    Validation,
}

/// The live counters behind [`EngineStats`], shared by all transactions of
/// one engine (one block per shard on the eager engine).
///
/// Internally **striped**: each thread increments its own cache-line-padded
/// stripe (chosen by thread id), so the hot path never contends on a shared
/// counter line — the pre-optimization design put every thread's
/// `fetch_add` on one adjacent block of `AtomicU64`s, a contention
/// amplifier precisely where the paper measures contention. Each event
/// lands in exactly one stripe and readers sum all stripes, so totals are
/// monotone while threads run and exact at quiescence.
#[derive(Debug)]
pub(crate) struct StmStats {
    stripes: Box<[Padded<StatCells>]>,
}

impl Default for StmStats {
    fn default() -> Self {
        Self {
            stripes: (0..STAT_STRIPES).map(|_| Padded::default()).collect(),
        }
    }
}

impl StmStats {
    /// Add `n` to the counter `pick` selects in thread `me`'s stripe.
    #[inline]
    fn add(&self, me: u32, pick: impl FnOnce(&StatCells) -> &AtomicU64, n: u64) {
        let stripe = &self.stripes[me as usize & (STAT_STRIPES - 1)].0;
        pick(stripe).fetch_add(n, Ordering::Relaxed);
    }

    /// Count one committed transaction for thread `me`.
    #[inline]
    pub(crate) fn on_commit(&self, me: u32) {
        self.add(me, |c| &c.commits, 1);
    }

    /// Count one aborted attempt for thread `me`.
    #[inline]
    pub(crate) fn on_abort(&self, me: u32) {
        self.add(me, |c| &c.aborts, 1);
    }

    /// Count one lazy-engine abort for thread `me`, in the total and in
    /// its phase's breakdown counter.
    #[inline]
    pub(crate) fn on_lazy_abort(&self, me: u32, phase: LazyAbort) {
        self.on_abort(me);
        match phase {
            LazyAbort::Read => self.add(me, |c| &c.read_aborts, 1),
            LazyAbort::Lock => self.add(me, |c| &c.lock_aborts, 1),
            LazyAbort::Validation => self.add(me, |c| &c.validation_aborts, 1),
        }
    }

    /// Fold a whole attempt's stall-retry count in at once. The per-spin
    /// counter lives in the attempt and is flushed here exactly once per
    /// attempt, so the spin loop itself touches no shared line.
    #[inline]
    pub(crate) fn add_stall_retries(&self, me: u32, n: u64) {
        if n > 0 {
            self.add(me, |c| &c.stall_retries, n);
        }
    }

    /// Count one strong-isolation access for thread `me`.
    #[inline]
    pub(crate) fn on_strong(&self, me: u32, write: bool) {
        if write {
            self.add(me, |c| &c.strong_writes, 1);
        } else {
            self.add(me, |c| &c.strong_reads, 1);
        }
    }

    /// Count one strong-isolation wait for thread `me`.
    #[inline]
    pub(crate) fn on_strong_stall(&self, me: u32) {
        self.add(me, |c| &c.strong_stalls, 1);
    }

    /// Count one read-only commit (snapshot read path) for thread `me`.
    #[inline]
    pub(crate) fn on_read_commit(&self, me: u32) {
        self.add(me, |c| &c.read_only_commits, 1);
    }

    /// Count one failed read-path validation (and retry) for thread `me`.
    #[inline]
    pub(crate) fn on_read_validation_retry(&self, me: u32) {
        self.add(me, |c| &c.read_validation_retries, 1);
    }

    /// Fold one committed transaction's footprint in: distinct written
    /// blocks (the model's `W`) and total grants held (`(1+α)·W`).
    #[inline]
    pub(crate) fn on_commit_footprint(&self, me: u32, write_blocks: u64, grant_blocks: u64) {
        self.add(me, |c| &c.committed_write_blocks, write_blocks);
        self.add(me, |c| &c.committed_grant_blocks, grant_blocks);
    }

    /// Add every stripe into `total`.
    pub(crate) fn add_to(&self, total: &mut EngineStats) {
        for stripe in self.stripes.iter() {
            stripe.0.add_to(total);
        }
    }

    /// Sum the stripes into a point-in-time copy (exact once threads
    /// quiesce).
    pub(crate) fn snapshot(&self) -> EngineStats {
        let mut total = EngineStats::default();
        self.add_to(&mut total);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = StmStats::default();
        s.on_commit(0);
        s.on_commit(1);
        s.on_abort(2);
        s.add_stall_retries(3, 1);
        s.on_strong(4, true);
        s.on_strong(5, false);
        s.on_strong_stall(6);
        s.on_read_commit(7);
        s.on_read_commit(7);
        s.on_read_validation_retry(8);
        let snap = s.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.aborts, 1);
        assert_eq!(snap.stall_retries, 1);
        assert_eq!(snap.strong_writes, 1);
        assert_eq!(snap.strong_reads, 1);
        assert_eq!(snap.strong_stalls, 1);
        assert_eq!(snap.read_only_commits, 2);
        assert_eq!(snap.read_validation_retries, 1);
        // Read-only traffic must not leak into the write-side ratios.
        assert_eq!(snap.abort_ratio(), 0.5);
    }

    #[test]
    fn lazy_aborts_count_in_total_and_breakdown() {
        let s = StmStats::default();
        s.on_lazy_abort(0, LazyAbort::Read);
        s.on_lazy_abort(1, LazyAbort::Lock);
        s.on_lazy_abort(2, LazyAbort::Validation);
        s.on_lazy_abort(2, LazyAbort::Validation);
        let snap = s.snapshot();
        assert_eq!(snap.aborts, 4);
        assert_eq!(
            (snap.read_aborts, snap.lock_aborts, snap.validation_aborts),
            (1, 1, 2)
        );
    }

    #[test]
    fn abort_ratio_without_commits() {
        assert_eq!(EngineStats::default().abort_ratio(), 0.0);
    }

    #[test]
    fn engine_stats_window() {
        let a = EngineStats {
            commits: 10,
            aborts: 4,
            strong_reads: 1,
            ..Default::default()
        };
        let b = EngineStats {
            commits: 25,
            aborts: 5,
            strong_reads: 3,
            ..Default::default()
        };
        let w = b.since(&a);
        assert_eq!(w.commits, 15);
        assert_eq!(w.aborts, 1);
        assert_eq!(w.strong_reads, 2);
        assert_eq!(a.since(&b), EngineStats::default(), "saturates at zero");
    }

    #[test]
    fn striped_totals_are_exact_across_thread_ids() {
        // Every thread id maps to exactly one stripe, ids sharing a stripe
        // accumulate, and the snapshot equals the event count regardless of
        // how ids distribute over stripes.
        let s = StmStats::default();
        for me in 0..100u32 {
            for _ in 0..=me {
                s.on_commit(me);
            }
            s.add_stall_retries(me, 2);
            s.add_stall_retries(me, 0); // zero-flush must be a no-op
        }
        let snap = s.snapshot();
        assert_eq!(snap.commits, (1..=100).sum::<u64>());
        assert_eq!(snap.stall_retries, 200);
    }
}
