//! The `engine-contended-*` workloads: a closed loop, in process, no server.
//!
//! Two threads run `uniform-mixed` bodies (8 reads + 4 read-modify-write
//! increments at uniform block addresses; 20% of transactions are instead
//! 12 reads through `run_read`) on a 64 Ki-word heap with a 1024-entry
//! table: footprints large relative to the table, the paper's regime.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_stm::{ReadOps, Recorder, StmBuilder, TmEngine, TxnOps};

use crate::layers::{acquire_release_ns, engine_layers, EngineLayers, EngineView, Footprint};
use crate::openloop::{latency_summary, percentile};
use crate::report::{median, Outcome};
use crate::timed::Timed;
use crate::{mix_seed, time_setups};

/// Worker threads (the engine's `C`).
pub const THREADS: u32 = 2;
/// Heap words.
pub const HEAP_WORDS: usize = 1 << 16;
/// Ownership-table entries.
pub const TABLE_ENTRIES: usize = 1024;
/// Plain reads per update transaction.
pub const READS: usize = 8;
/// Increments per update transaction.
pub const WRITES: usize = 4;
/// Percentage of transactions run read-only (with `READS + WRITES` reads).
pub const READ_ONLY_PCT: u32 = 20;
/// Throughput is the median over windows of this length.
pub const WINDOW: Duration = Duration::from_millis(200);
/// Every this-many-th transaction of a thread is timed (`latency_us`).
const SAMPLE_EVERY: u64 = 8;
const WARMUP: Duration = Duration::from_millis(300);

/// Engine under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Eager STM over the tagless table.
    EagerTagless,
    /// Eager STM over the tagged table.
    EagerTagged,
    /// Lazy TL2-style STM.
    LazyTl2,
}

impl Engine {
    /// Every engine, in workload order.
    pub const ALL: [Engine; 3] = [Engine::EagerTagless, Engine::EagerTagged, Engine::LazyTl2];

    /// Engine name as used in workload names.
    pub fn name(self) -> &'static str {
        match self {
            Engine::EagerTagless => "eager-tagless",
            Engine::EagerTagged => "eager-tagged",
            Engine::LazyTl2 => "lazy-tl2",
        }
    }

    /// The workload that runs this engine.
    pub fn workload(self) -> String {
        format!("engine-contended-{}", self.name())
    }
}

fn builder(classify: bool) -> StmBuilder {
    StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(TABLE_ENTRIES)
        .classify_conflicts(classify)
}

/// Run the workload on `engine`; `trace` selects the per-layer run.
pub fn run(engine: Engine, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let secs = Duration::from_secs(seconds);
    let mut out = match (engine, trace) {
        (Engine::EagerTagless, false) => untraced(seed, secs, || builder(false).build_tagless()),
        (Engine::EagerTagged, false) => untraced(seed, secs, || builder(false).build_tagged()),
        (Engine::LazyTl2, false) => untraced(seed, secs, || builder(false).build_lazy()),
        (Engine::EagerTagless, true) => traced(
            seed,
            secs,
            || builder(false).build_tagless(),
            || builder(true).build_tagless(),
        ),
        (Engine::EagerTagged, true) => traced(
            seed,
            secs,
            || builder(false).build_tagged(),
            || builder(true).build_tagged(),
        ),
        (Engine::LazyTl2, true) => traced(
            seed,
            secs,
            || builder(false).build_lazy(),
            || builder(true).probe(Arc::new(Recorder::new())).build_lazy(),
        ),
    };
    out.note("engine", engine.name());
    out.note(
        "shape",
        format!(
            "{THREADS} threads, {READS} reads + {WRITES} increments, {READ_ONLY_PCT}% read-only, \
             uniform over {HEAP_WORDS} words, {TABLE_ENTRIES} entries, {} ms windows",
            WINDOW.as_millis()
        ),
    );
    out
}

/// Draw one transaction's read and write addresses; returns whether it is
/// read-only.
pub fn draw(rng: &mut StdRng, reads: &mut Vec<u64>, writes: &mut Vec<u64>) -> bool {
    let blocks = (HEAP_WORDS as u64 * 8) / 64;
    let read_only = rng.gen_range(0..100u32) < READ_ONLY_PCT;
    reads.clear();
    writes.clear();
    let n_reads = if read_only { READS + WRITES } else { READS };
    reads.extend((0..n_reads).map(|_| rng.gen_range(0..blocks) * 64));
    if !read_only {
        writes.extend((0..WRITES).map(|_| rng.gen_range(0..blocks) * 64));
    }
    read_only
}

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Committed transactions per second, one entry per window.
    pub window_rates: Vec<f64>,
    /// Sampled per-transaction latencies (ns).
    pub latencies_ns: Vec<u64>,
    /// Committed transactions.
    pub txns: u64,
    /// Increments inside committed update transactions.
    pub write_ops: u64,
    /// Wall time of the phase.
    pub elapsed: Duration,
}

#[repr(align(128))]
#[derive(Default)]
struct Padded(AtomicU64);

/// Run the closed loop for `windows` windows of `window` each.
pub fn closed_loop<E: TmEngine>(
    engine: &E,
    seed: u64,
    phase: u64,
    windows: usize,
    window: Duration,
) -> LoopResult {
    let stop = AtomicBool::new(false);
    let counts: Vec<Padded> = (0..THREADS).map(|_| Padded::default()).collect();
    let total = |c: &[Padded]| c.iter().map(|p| p.0.load(Ordering::Relaxed)).sum::<u64>();
    let mut out = LoopResult::default();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|id| {
                let (stop, count) = (&stop, &counts[id as usize].0);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(mix_seed(seed, phase * 64 + u64::from(id)));
                    let (mut reads, mut writes) = (Vec::new(), Vec::new());
                    let (mut lat, mut write_ops, mut i) = (Vec::new(), 0u64, 0u64);
                    while !stop.load(Ordering::Relaxed) {
                        let read_only = draw(&mut rng, &mut reads, &mut writes);
                        let clock = (i % SAMPLE_EVERY == 0).then(Instant::now);
                        if read_only {
                            engine.run_read(id, |txn| {
                                for &a in &reads {
                                    txn.read(a)?;
                                }
                                Ok(())
                            });
                        } else {
                            engine.run(id, |txn| {
                                for &a in &reads {
                                    txn.read(a)?;
                                }
                                for &a in &writes {
                                    txn.update_add(a, 1)?;
                                }
                                Ok(())
                            });
                            write_ops += writes.len() as u64;
                        }
                        if let Some(c) = clock {
                            lat.push(c.elapsed().as_nanos() as u64);
                        }
                        count.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                    (lat, write_ops)
                })
            })
            .collect();
        let (mut last_n, mut last_t) = (total(&counts), Instant::now());
        for _ in 0..windows {
            std::thread::sleep(window);
            let (n, t) = (total(&counts), Instant::now());
            out.window_rates
                .push((n - last_n) as f64 / (t - last_t).as_secs_f64());
            (last_n, last_t) = (n, t);
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            let (lat, ops) = w.join().expect("worker panicked");
            out.latencies_ns.extend(lat);
            out.write_ops += ops;
        }
    });
    out.elapsed = t0.elapsed();
    out.txns = total(&counts);
    out
}

fn windows_in(length: Duration) -> usize {
    ((length.as_secs_f64() / WINDOW.as_secs_f64()) as usize).max(3)
}

/// Heap conservation: every committed increment is in the heap.
fn check_heap<E: TmEngine>(engine: &E, write_ops: u64, out: &mut Outcome) {
    let heap = engine.heap_sum(HEAP_WORDS);
    out.check(heap == write_ops, || {
        format!("heap checksum {heap} != committed write ops {write_ops}")
    });
}

fn untraced<E: EngineLayers>(seed: u64, seconds: Duration, build: impl Fn() -> E) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let setup_batch = |setups: &mut Vec<f64>| {
        time_setups(
            setups,
            || {
                let e = build();
                // Set-up includes first touch of the heap (the checksum
                // reads it).
                std::hint::black_box(e.heap_sum(HEAP_WORDS));
                e
            },
            drop,
        )
    };
    setup_batch(&mut setups);
    let engine = build();
    let warm = closed_loop(&engine, seed, 0, 1, WARMUP);
    let r = closed_loop(
        &engine,
        seed,
        1,
        windows_in(seconds.saturating_sub(WARMUP)),
        WINDOW,
    );
    check_heap(&engine, warm.write_ops + r.write_ops, &mut out);
    drop(engine);
    setup_batch(&mut setups);
    out.attempted = r.txns;
    let mut lat = r.latencies_ns;
    out.metric("setup_s", median(&setups), "s");
    // What one caller waits for one `run`/`run_read` call, retries
    // included: the median of the sampled calls. Two workers on two vCPUs
    // contend in parallel; when both share one CPU, calls are faster (one
    // runs at a time) and the time a caller is descheduled falls between
    // its calls, so this is not the inverse of the throughput below.
    out.metric("latency_us", percentile(&mut lat, 0.5) as f64 / 1e3, "us");
    out.metric("max_rate_ops_s", median(&r.window_rates), "1/s");
    out.note("call_latency", latency_summary(&mut lat));
    out.note(
        "window_rates",
        r.window_rates
            .iter()
            .map(|w| format!("{w:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    out
}

fn traced<E: EngineLayers, F: EngineLayers>(
    seed: u64,
    seconds: Duration,
    bare: impl Fn() -> E,
    classified: impl Fn() -> F,
) -> Outcome {
    let mut out = Outcome::default();
    let part = seconds.mul_f64(0.4);

    let engine = bare();
    let warm = closed_loop(&engine, seed, 0, 1, WARMUP);
    let plain = closed_loop(&engine, seed, 1, windows_in(part), WINDOW);
    check_heap(&engine, warm.write_ops + plain.write_ops, &mut out);
    let plain_rate = median(&plain.window_rates);

    let engine = Timed::new(classified());
    let warm = closed_loop(&engine, seed, 0, 1, WARMUP);
    engine.reset();
    let stats0 = engine.engine_stats();
    let false0 = engine.false_conflicts();
    let r = closed_loop(&engine, seed, 1, windows_in(part), WINDOW);
    let stats = engine.engine_stats().since(&stats0);
    let false_conflicts = engine.false_conflicts() - false0;
    check_heap(&engine, warm.write_ops + r.write_ops, &mut out);
    out.attempted = r.txns;
    let traced_rate = median(&r.window_rates);

    engine_layers(
        &mut out,
        &EngineView {
            run: &engine.run.snapshot(),
            read: &engine.read.snapshot(),
            stats: &stats,
            elapsed: r.elapsed.as_secs_f64(),
            threads: THREADS,
            false_conflicts,
            cross: 0,
            entries: engine.entries(),
        },
    );
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 1));
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let footprints: Vec<Footprint> = (0..20_000)
        .map(|_| {
            draw(&mut rng, &mut reads, &mut writes);
            reads
                .iter()
                .map(|&a| (a, false))
                .chain(writes.iter().map(|&a| (a, true)))
                .collect()
        })
        .collect();
    let (tagless, tagged) = acquire_release_ns(&footprints, TABLE_ENTRIES, 50_000_000);
    out.metric("ownership.acquire_release_ns.tagless", tagless, "ns");
    out.metric("ownership.acquire_release_ns.tagged", tagged, "ns");
    out.metric(
        "trace.overhead_pct",
        (plain_rate - traced_rate) / plain_rate * 100.0,
        "%",
    );
    out
}
