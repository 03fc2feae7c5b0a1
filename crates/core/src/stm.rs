//! [`Stm`]: the eager engine at one shard.
//!
//! The eager protocol — ownership acquired at first encounter, writes
//! buffered until commit, a bounded stall and then abort-and-retry on
//! conflict — exists once, in [`ShardedStm`]. `Stm` is that engine built
//! with one table (`ShardMap::new(1, ..)`), so every transaction stays on
//! the single-shard path. It is generic over [`ConcurrentTable`], which is
//! the entire point: the same workload over a [`ConcurrentTaglessTable`]
//! and a [`ConcurrentTaggedTable`] exposes exactly the false-conflict cost
//! the paper analyses, on real threads rather than in Monte-Carlo form.

use tm_ownership::concurrent::ConcurrentTable;
use tm_ownership::{ConcurrentTaggedTable, ConcurrentTaglessTable, ThreadId};
use tm_telemetry::{NoopProbe, Probe};

use crate::contention::{ContentionPolicy, RetryPolicy};
use crate::engine::TmEngine;
use crate::heap::Heap;
use crate::readpath::ReadPathPolicy;
use crate::retry::{Aborted, RetryLimitExceeded};
use crate::sharded::{ReadTxn, ShardedStm, Txn};
use crate::stats::EngineStats;

/// STM-wide configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct StmConfig {
    /// Conflict reaction (see [`ContentionPolicy`]).
    pub contention: ContentionPolicy,
    /// Default whole-transaction retry budget (see
    /// [`TmEngine::run_configured`](crate::TmEngine::run_configured)).
    pub retry: RetryPolicy,
    /// Read-only-path tuning (see [`ReadPathPolicy`]).
    pub read_path: ReadPathPolicy,
}

/// A software transactional memory over a shared [`Heap`], generic in the
/// ownership-table organization `T` and the telemetry probe `P`: the eager
/// engine ([`ShardedStm`]) at one shard.
///
/// With the default [`NoopProbe`] every probe hook monomorphizes to
/// nothing — no clock reads, no event bookkeeping — so the telemetry layer
/// costs exactly zero unless a real probe (e.g.
/// [`Recorder`](tm_telemetry::Recorder)) is attached via
/// [`StmBuilder::probe`](crate::StmBuilder::probe).
#[derive(Debug)]
pub struct Stm<T: ConcurrentTable, P: Probe = NoopProbe>(ShardedStm<T, P>);

/// Shorthand for [`StmBuilder`](crate::StmBuilder)`::new().heap_words(..)
/// .table_entries(..).build_tagless()`: an STM backed by a **tagless**
/// table (paper Figure 1).
pub fn tagless_stm(heap_words: usize, table_entries: usize) -> Stm<ConcurrentTaglessTable> {
    crate::StmBuilder::new()
        .heap_words(heap_words)
        .table_entries(table_entries)
        .build_tagless()
}

/// Shorthand for [`StmBuilder`](crate::StmBuilder)`::new().heap_words(..)
/// .table_entries(..).build_tagged()`: an STM backed by a **tagged**
/// chained table (paper Figure 7).
pub fn tagged_stm(heap_words: usize, table_entries: usize) -> Stm<ConcurrentTaggedTable> {
    crate::StmBuilder::new()
        .heap_words(heap_words)
        .table_entries(table_entries)
        .build_tagged()
}

impl<T: ConcurrentTable> Stm<T> {
    /// Build an STM from a heap size, a table, and a configuration, with
    /// telemetry off (the zero-cost [`NoopProbe`]).
    pub fn new(heap_words: usize, table: T, config: StmConfig) -> Self {
        Self::with_probe(heap_words, table, config, NoopProbe)
    }
}

impl<T: ConcurrentTable, P: Probe> Stm<T, P> {
    /// Build an STM with an attached telemetry probe.
    pub fn with_probe(heap_words: usize, table: T, config: StmConfig, probe: P) -> Self {
        Self(ShardedStm::with_probe(
            heap_words,
            vec![table],
            config,
            probe,
        ))
    }

    /// The attached telemetry probe.
    pub fn probe(&self) -> &P {
        self.0.probe()
    }

    /// The ownership table (for stats inspection).
    pub fn table(&self) -> &T {
        self.0.shard_table(0)
    }

    /// The configuration.
    pub fn config(&self) -> &StmConfig {
        self.0.config()
    }

    /// Commit/abort counters so far.
    pub fn stats(&self) -> EngineStats {
        self.0.stats()
    }

    /// Strong-isolation non-transactional read (paper §6): consult the
    /// ownership table so the read cannot observe a transaction's
    /// speculative state, spinning while a writer holds the block.
    pub fn strong_read(&self, me: ThreadId, addr: u64) -> u64 {
        self.0.strong_read(me, addr)
    }

    /// Strong-isolation non-transactional write (paper §6); spins while any
    /// transaction holds the block.
    pub fn strong_write(&self, me: ThreadId, addr: u64, value: u64) {
        self.0.strong_write(me, addr, value)
    }
}

/// Delegates to the one-shard [`ShardedStm`].
impl<T: ConcurrentTable, P: Probe> TmEngine for Stm<T, P> {
    type Txn<'e>
        = Txn<'e, T, P>
    where
        Self: 'e;

    type ReadTxn<'e>
        = ReadTxn<'e, T, P>
    where
        Self: 'e;

    fn run_with<'s, R>(
        &'s self,
        me: ThreadId,
        policy: RetryPolicy,
        body: impl FnMut(&mut Txn<'s, T, P>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded> {
        self.0.run_with(me, policy, body)
    }

    fn run_read_with<'s, R>(
        &'s self,
        me: ThreadId,
        policy: RetryPolicy,
        body: impl FnMut(&mut ReadTxn<'s, T, P>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded> {
        self.0.run_read_with(me, policy, body)
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.0.retry_policy()
    }

    fn engine_stats(&self) -> EngineStats {
        self.0.stats()
    }

    fn heap(&self) -> &Heap {
        self.0.heap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ReadOps, TxnOps};
    use tm_ownership::TableConfig;

    #[test]
    fn read_write_commit() {
        let stm = tagged_stm(64, 256);
        stm.heap().store(0, 5);
        let r = stm.run(0, |txn| {
            let v = txn.read(0)?;
            txn.write(8, v + 1)?;
            Ok(v)
        });
        assert_eq!(r, 5);
        assert_eq!(stm.heap().load(8), 6);
        assert_eq!(stm.stats().commits, 1);
        assert_eq!(stm.stats().aborts, 0);
    }

    #[test]
    fn writes_are_buffered_until_commit() {
        let stm = tagged_stm(64, 256);
        stm.run(0, |txn| {
            txn.write(0, 99)?;
            // The heap must not see it yet.
            assert_eq!(stm.heap().load(0), 0);
            // But the transaction reads its own write.
            assert_eq!(txn.read(0)?, 99);
            Ok(())
        });
        assert_eq!(stm.heap().load(0), 99);
    }

    #[test]
    fn voluntary_retry_counts_as_abort() {
        let stm = tagless_stm(64, 256);
        let mut first = true;
        let r = stm.run(0, |txn| {
            if first {
                first = false;
                return txn.retry();
            }
            txn.write(0, 7)?;
            Ok(42)
        });
        assert_eq!(r, 42);
        let s = stm.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 1);
        assert_eq!(stm.heap().load(0), 7);
    }

    #[test]
    fn aborted_writes_discarded() {
        let stm = tagged_stm(64, 256);
        let mut first = true;
        stm.run(0, |txn| {
            txn.write(0, 1000)?;
            if first {
                first = false;
                return Err(Aborted);
            }
            Ok(())
        });
        // Final attempt wrote 1000 and committed; but between attempts the
        // heap must have stayed 0 — verified implicitly by the buffered test
        // above. Here: exactly one committed value.
        assert_eq!(stm.heap().load(0), 1000);
    }

    #[test]
    fn try_run_exhausts_budget() {
        let stm = tagged_stm(64, 256);
        let r: Result<(), _> = stm.try_run(0, 3, |txn| txn.retry());
        assert_eq!(r, Err(RetryLimitExceeded { attempts: 3 }));
        assert_eq!(stm.stats().aborts, 3);
        // The table must be clean afterwards.
        assert_eq!(
            stm.table().stats_snapshot().grants,
            stm.table().stats_snapshot().releases
        );
    }

    #[test]
    fn update_helper() {
        let stm = tagged_stm(64, 256);
        stm.heap().store(16, 10);
        let v = stm.run(0, |txn| txn.update(16, |x| x * 3));
        assert_eq!(v, 30);
        assert_eq!(stm.heap().load(16), 30);
    }

    #[test]
    fn grants_released_on_commit_and_abort() {
        let stm = tagless_stm(1024, 256);
        stm.run(0, |txn| {
            for i in 0..10 {
                txn.write(i * 8, i)?;
            }
            assert!(txn.grant_count() > 0);
            Ok(())
        });
        let t = stm.table().stats_snapshot();
        assert_eq!(t.grants, t.releases);
    }

    #[test]
    fn txn_drop_without_finish_releases() {
        // Simulate a panicking body: construct a Txn, acquire, drop it.
        let stm = tagged_stm(64, 256);
        {
            let mut txn = Txn::new(&stm.0, 0, false);
            txn.write(0, 1).unwrap();
            // dropped here without commit/rollback
        }
        let t = stm.table().stats_snapshot();
        assert_eq!(t.grants, t.releases, "drop must release grants");
    }

    #[test]
    fn concurrent_counter_tagged_is_exact() {
        let stm = std::sync::Arc::new(tagged_stm(64, 1024));
        let threads = 4;
        let increments = 500;
        crossbeam::scope(|s| {
            for id in 0..threads {
                let stm = &stm;
                s.spawn(move |_| {
                    for _ in 0..increments {
                        stm.run(id, |txn| txn.update(0, |v| v + 1).map(|_| ()));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(stm.heap().load(0), (threads as u64) * increments);
        assert_eq!(stm.stats().commits, (threads as u64) * increments);
    }

    #[test]
    fn concurrent_counter_tagless_is_exact() {
        let stm = std::sync::Arc::new(tagless_stm(64, 1024));
        let threads = 4;
        let increments = 500;
        crossbeam::scope(|s| {
            for id in 0..threads {
                let stm = &stm;
                s.spawn(move |_| {
                    for _ in 0..increments {
                        stm.run(id, |txn| txn.update(0, |v| v + 1).map(|_| ()));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(stm.heap().load(0), (threads as u64) * increments);
    }

    #[test]
    fn disjoint_data_conflicts_only_under_tagless() {
        // Deterministic false-conflict demonstration: two threads touch
        // *different* blocks (0 and 2) that alias in a 2-entry mask-hashed
        // table. While thread 0 holds its grant, thread 1's attempt must
        // abort under tagless and succeed under tagged.
        use std::sync::atomic::{AtomicBool, Ordering};
        use tm_ownership::HashKind;

        fn scenario<T: ConcurrentTable>(table: T) -> (bool, u64, u64) {
            let stm = Stm::new(256, table, StmConfig::default());
            let holding = AtomicBool::new(false);
            let proceed = AtomicBool::new(false);
            let mut peer_failed = false;
            crossbeam::scope(|s| {
                let (stm, holding, proceed) = (&stm, &holding, &proceed);
                s.spawn(move |_| {
                    stm.run(0, |t| {
                        t.write(0, 1)?; // block 0 → entry 0
                        holding.store(true, Ordering::Release);
                        while !proceed.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                        Ok(())
                    });
                });
                while !holding.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                // Different data, same entry: block 2 (addr 128) → entry 0.
                let r = stm.try_run(1, 1, |t| t.write(128, 2));
                peer_failed = r.is_err();
                proceed.store(true, Ordering::Release);
            })
            .unwrap();
            (peer_failed, stm.heap().load(0), stm.heap().load(128))
        }

        let cfg = TableConfig::new(2).with_hash(HashKind::Mask);
        let (tagless_failed, a, b) = scenario(ConcurrentTaglessTable::new(cfg.clone()));
        assert!(tagless_failed, "tagless must report the false conflict");
        assert_eq!(a, 1);
        assert_eq!(b, 0, "aborted write must not reach the heap");

        let (tagged_failed, a, b) = scenario(ConcurrentTaggedTable::new(cfg));
        assert!(
            !tagged_failed,
            "tagged must not conflict on distinct blocks"
        );
        assert_eq!(a, 1);
        assert_eq!(b, 2);
    }

    #[test]
    fn stall_policy_reduces_aborts_on_short_conflicts() {
        let config = StmConfig {
            contention: ContentionPolicy::Stall { max_spins: 200 },
            retry: RetryPolicy::Unbounded,
            read_path: ReadPathPolicy::default(),
        };
        let stm = std::sync::Arc::new(Stm::new(
            64,
            ConcurrentTaggedTable::new(TableConfig::new(256)),
            config,
        ));
        crossbeam::scope(|s| {
            for id in 0..4u32 {
                let stm = &stm;
                s.spawn(move |_| {
                    for _ in 0..200 {
                        stm.run(id, |t| t.update(0, |v| v + 1).map(|_| ()));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(stm.heap().load(0), 800);
        let s = stm.stats();
        // The policy must have spun at least sometimes under this contention.
        assert!(s.stall_retries > 0 || s.aborts == 0);
    }

    #[test]
    fn read_only_txns_touch_no_table_state() {
        let stm = tagged_stm(64, 256);
        stm.heap().store(0, 5);
        let before = stm.table().stats_snapshot();
        let v = stm.run_read(0, |txn| {
            let v = txn.read(0)?;
            assert_eq!(txn.read_count(), 1);
            Ok(v)
        });
        assert_eq!(v, 5);
        let after = stm.table().stats_snapshot();
        assert_eq!(before.grants, after.grants, "read path must not acquire");
        let s = stm.stats();
        assert_eq!(s.read_only_commits, 1);
        assert_eq!(s.commits, 0, "read-only commits stay off the write side");
    }

    #[test]
    fn read_only_snapshot_is_never_torn() {
        // A writer keeps two words equal inside each transaction; readers
        // using the table-free path must never observe the pair mid-publish.
        let stm = std::sync::Arc::new(tagged_stm(64, 1024));
        let rounds = 2000u64;
        crossbeam::scope(|s| {
            let w = &stm;
            s.spawn(move |_| {
                for _ in 0..rounds {
                    w.run(0, |t| {
                        let v = t.read(0)?;
                        t.write(0, v + 1)?;
                        t.write(8, v + 1)
                    });
                }
            });
            for id in 1..3u32 {
                let r = &stm;
                s.spawn(move |_| {
                    for _ in 0..rounds {
                        let (a, b) = r.run_read(id, |t| Ok((t.read(0)?, t.read(8)?)));
                        assert_eq!(a, b, "torn read-only snapshot");
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(stm.heap().load(0), rounds);
        let s = stm.stats();
        assert_eq!(s.read_only_commits, 2 * rounds);
        assert_eq!(s.commits, rounds);
    }

    #[test]
    fn strong_isolation_read_write() {
        let stm = tagged_stm(64, 256);
        stm.strong_write(9, 0, 77);
        assert_eq!(stm.strong_read(9, 0), 77);
        let s = stm.stats();
        assert_eq!(s.strong_reads, 1);
        assert_eq!(s.strong_writes, 1);
        // No grants leaked.
        let t = stm.table().stats_snapshot();
        assert_eq!(t.grants, t.releases);
    }

    #[test]
    fn strong_isolation_concurrent_with_transactions() {
        let stm = std::sync::Arc::new(tagged_stm(64, 1024));
        let rounds = 400u64;
        crossbeam::scope(|s| {
            let stm1 = &stm;
            s.spawn(move |_| {
                for _ in 0..rounds {
                    stm1.run(0, |t| {
                        let v = t.read(0)?;
                        t.write(0, v + 1)?;
                        t.write(8, v + 1)?; // keep the pair equal
                        Ok(())
                    });
                }
            });
            let stm2 = &stm;
            s.spawn(move |_| {
                for _ in 0..rounds {
                    // Strong reads may interleave between transactions but
                    // must never see a half-applied transaction: we read the
                    // pair under one strong read each; since both words are
                    // in block 0, the read-acquire excludes the writer.
                    let a = stm2.strong_read(1, 0);
                    let b = stm2.strong_read(1, 8);
                    // b is sampled after a: the counter may have advanced,
                    // but b can never exceed a by more than the writer's
                    // progress… the strong invariant we can check cheaply is
                    // monotonicity.
                    assert!(b + rounds >= a);
                }
            });
        })
        .unwrap();
        assert_eq!(stm.heap().load(0), rounds);
    }
}
