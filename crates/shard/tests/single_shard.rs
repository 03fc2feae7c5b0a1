//! One shard is the unsharded engine: a seeded single-threaded script of
//! read-write, aborting, budget-exhausting, read-only and strong-isolation
//! operations leaves the same heap and the same `EngineStats`, field for
//! field, on `StmBuilder::build_*` and on `.shards(1).build_sharded_*`, for
//! both table organizations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_shard::{ShardedStm, ShardedStmBuilder};
use tm_stm::{
    ConcurrentTable, EngineStats, ReadOps, RetryPolicy, Stm, StmBuilder, TmEngine, TxnOps,
};

const HEAP_WORDS: usize = 1 << 12;

/// Strong-isolation accesses, which live outside [`TmEngine`].
trait Strong {
    fn read(&self, addr: u64) -> u64;
    fn write(&self, addr: u64, value: u64);
}

impl<T: ConcurrentTable> Strong for Stm<T> {
    fn read(&self, addr: u64) -> u64 {
        self.strong_read(0, addr)
    }
    fn write(&self, addr: u64, value: u64) {
        self.strong_write(0, addr, value)
    }
}

impl<T: ConcurrentTable> Strong for ShardedStm<T> {
    fn read(&self, addr: u64) -> u64 {
        self.strong_read(0, addr)
    }
    fn write(&self, addr: u64, value: u64) {
        self.strong_write(0, addr, value)
    }
}

/// Run the seeded script; return the final heap and statistics.
fn script<E: TmEngine + Strong>(engine: &E, seed: u64) -> (Vec<u64>, EngineStats) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..2_000 {
        let addrs: Vec<u64> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(0..HEAP_WORDS as u64) * 8)
            .collect();
        let value = rng.gen_range(1..HEAP_WORDS as u64);
        match rng.gen_range(0..5u32) {
            // Read-modify-write over a few words.
            0 | 1 => engine.run(0, |txn| {
                for &a in &addrs {
                    txn.update_add(a, value)?;
                }
                Ok(())
            }),
            // A voluntary retry on the first attempt: one abort, then commit.
            2 => {
                let mut first = true;
                engine.run(0, |txn| {
                    txn.write(addrs[0], value)?;
                    if std::mem::take(&mut first) {
                        return txn.retry();
                    }
                    Ok(())
                })
            }
            // A bounded transaction that exhausts its budget; read-only, a
            // committed snapshot and an exhausted retry budget.
            3 => {
                let budget = rng.gen_range(1..4u32);
                assert!(engine.try_run(0, budget, |t| t.retry::<()>()).is_err());
                engine.run_read(0, |txn| {
                    addrs.iter().try_fold(0u64, |s, &a| Ok(s ^ txn.read(a)?))
                });
                let bounded = RetryPolicy::Bounded { max_attempts: 2 };
                assert!(engine
                    .run_read_with(0, bounded, |t| t.retry::<()>())
                    .is_err());
            }
            // Strong isolation outside any transaction.
            _ => Strong::write(engine, addrs[0], Strong::read(engine, value * 8)),
        }
    }
    let heap = (0..HEAP_WORDS as u64)
        .map(|w| engine.heap().load(w * 8))
        .collect();
    (heap, engine.engine_stats())
}

/// Run the script on both builds for a few seeds; compare field for field.
fn assert_same<A: TmEngine + Strong, B: TmEngine + Strong>(
    unsharded: impl Fn() -> A,
    one_shard: impl Fn() -> B,
) {
    for seed in [1, 7, 42] {
        let (heap, stats) = script(&unsharded(), seed);
        assert!(stats.commits > 0 && stats.aborts > 0 && stats.strong_reads > 0);
        assert!(stats.read_only_commits > 0 && stats.read_validation_retries > 0);
        assert!(heap.iter().any(|&w| w != 0));
        assert_eq!((heap, stats), script(&one_shard(), seed), "seed {seed}");
    }
}

fn builder() -> StmBuilder {
    StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(1 << 10)
}

#[test]
fn one_shard_tagged_is_the_unsharded_engine() {
    assert_same(
        || builder().build_tagged(),
        || builder().shards(1).build_sharded_tagged(),
    );
}

#[test]
fn one_shard_tagless_is_the_unsharded_engine() {
    assert_same(
        || builder().build_tagless(),
        || builder().shards(1).build_sharded_tagless(),
    );
}
