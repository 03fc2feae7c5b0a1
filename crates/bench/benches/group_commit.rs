//! Group commit ablation: per-operation cost of the service write path,
//! unbatched (one engine transaction per request) vs grouped (up to 32
//! key-disjoint requests folded into one transaction).
//!
//! Each iteration pushes a fixed burst of disjoint-key `Add` requests
//! from rotating sessions through a [`Batcher`] and executes every drained
//! group as one engine transaction — the exact code shape of a `tm-server`
//! shard flush, minus the channels. The measured gap is the amortized
//! fixed cost of a commit (ownership acquisition, publication, stats);
//! Eq. 8 is the reason the group's footprint stays bounded while it
//! amortizes (`W²` grows quadratically, so unbounded merging would buy
//! fixed-cost savings with retried work).
//!
//! Headline numbers live in `benches/README.md` next to the smoke-gate
//! floors they justify.

use criterion::{criterion_group, criterion_main, Criterion};
use tm_server::{BatchPolicy, Batcher, PendingWrite, WriteOp};
use tm_stm::{tagless_stm, TmEngine, TxnOps, WORD_BYTES};

const HEAP_WORDS: usize = 1 << 14;
const TABLE_ENTRIES: usize = 1 << 12;
/// Requests per measured burst; keys are disjoint so grouped mode can
/// coalesce maximally and the two modes commit identical work.
const BURST: u64 = 256;

fn run_burst<E: TmEngine>(engine: &E, policy: BatchPolicy) {
    let mut batcher = Batcher::new(policy);
    for i in 0..BURST {
        batcher.push(PendingWrite {
            session: i % 8,
            id: i,
            token: None,
            op: WriteOp::Add {
                key: i % HEAP_WORDS as u64,
                delta: 1,
            },
        });
    }
    for group in batcher.drain() {
        engine.run(0, |txn| {
            for pw in &group.ops {
                if let WriteOp::Add { key, delta } = &pw.op {
                    txn.update_add(key * WORD_BYTES, *delta)?;
                }
            }
            Ok(())
        });
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("group_commit");
    g.sample_size(20);

    let engine = tagless_stm(HEAP_WORDS, TABLE_ENTRIES);
    g.bench_function("unbatched_256_adds", |b| {
        b.iter(|| run_burst(&engine, BatchPolicy::unbatched()))
    });
    g.bench_function("grouped_256_adds", |b| {
        b.iter(|| run_burst(&engine, BatchPolicy::grouped()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
