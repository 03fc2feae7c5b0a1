//! Read-outs of the ownership-table and model layers: table counters per
//! engine organization, a replay of a workload's footprints through bare
//! tables, and Eq. 8's prediction at the measured operating point.

use std::sync::Arc;
use std::time::Instant;

use tm_ownership::concurrent::{ConcurrentTable, Held};
use tm_ownership::{
    Access, AcquireOutcome, ConcurrentTaggedTable, ConcurrentTaglessTable, TableConfig,
};
use tm_shard::ShardedStm;
use tm_stm::{AbortCause, EngineStats, LazyStm, NoopProbe, Probe, Recorder, Stm, TmEngine};

use crate::report::Outcome;
use crate::timed::{ratio, CallSnapshot, Timed};

/// Organization-specific counters the benchmark reads from outside the
/// engine.
pub trait EngineLayers: TmEngine + Send + Sync + 'static {
    /// First-level ownership entries across all tables (the paper's `N`).
    fn entries(&self) -> usize;
    /// Aborts attributed to false conflicts (aliasing) so far. Zero unless
    /// the engine was built with conflict classification (eager) or a
    /// recording probe (lazy).
    fn false_conflicts(&self) -> u64;
    /// Commits that spanned more than one shard.
    fn cross_shard_commits(&self) -> u64 {
        0
    }
}

impl<T: ConcurrentTable + 'static, P: Probe + 'static> EngineLayers for Stm<T, P> {
    fn entries(&self) -> usize {
        self.table().num_entries()
    }
    fn false_conflicts(&self) -> u64 {
        self.table().stats_snapshot().false_conflicts
    }
}

impl<T: ConcurrentTable + 'static, P: Probe + 'static> EngineLayers for ShardedStm<T, P> {
    fn entries(&self) -> usize {
        (0..self.shard_count())
            .map(|s| self.shard_table(s).num_entries())
            .sum()
    }
    fn false_conflicts(&self) -> u64 {
        (0..self.shard_count())
            .map(|s| self.shard_table(s).stats_snapshot().false_conflicts)
            .sum()
    }
    fn cross_shard_commits(&self) -> u64 {
        ShardedStm::cross_shard_commits(self)
    }
}

impl EngineLayers for LazyStm<NoopProbe> {
    fn entries(&self) -> usize {
        self.table().num_entries()
    }
    fn false_conflicts(&self) -> u64 {
        0
    }
}

/// The lazy engine attributes abort causes only through a probe, so its
/// traced build carries a [`Recorder`].
impl EngineLayers for LazyStm<Arc<Recorder>> {
    fn entries(&self) -> usize {
        self.table().num_entries()
    }
    fn false_conflicts(&self) -> u64 {
        self.probe().snapshot().cause(AbortCause::FalseConflict)
    }
}

impl<E: EngineLayers> EngineLayers for Timed<E> {
    fn entries(&self) -> usize {
        self.inner().entries()
    }
    fn false_conflicts(&self) -> u64 {
        self.inner().false_conflicts()
    }
    fn cross_shard_commits(&self) -> u64 {
        self.inner().cross_shard_commits()
    }
}

/// Eq. 8 (`tm_model::lockstep::conflict_likelihood`) at a measured operating
/// point: `c` concurrent writers, mean write footprint `w` (in blocks,
/// rounded to the nearest whole block), read/write ratio `alpha`, `n`
/// entries.
pub fn eq8_predicted(c: u32, w: f64, alpha: f64, n: usize) -> f64 {
    tm_model::lockstep::conflict_likelihood(c, w.round() as u32, alpha, n as u64)
}

/// One transaction's footprint as byte addresses: `(address, is_write)`.
pub type Footprint = Vec<(u64, bool)>;

/// Mean nanoseconds per block for acquiring and then releasing every block
/// of each footprint, single-threaded, on a fresh tagless and a fresh
/// tagged table of `entries` entries. Repeats the replay until at least
/// `min_ns` has passed.
pub fn acquire_release_ns(footprints: &[Footprint], entries: usize, min_ns: u64) -> (f64, f64) {
    let cfg = TableConfig::new(entries);
    (
        replay(
            &ConcurrentTaglessTable::new(cfg.clone()),
            footprints,
            min_ns,
        ),
        replay(&ConcurrentTaggedTable::new(cfg), footprints, min_ns),
    )
}

fn replay<T: ConcurrentTable>(table: &T, footprints: &[Footprint], min_ns: u64) -> f64 {
    let mapper = table.config().mapper();
    let mut held: Vec<(u64, Held)> = Vec::new();
    let mut blocks = 0u64;
    let t0 = Instant::now();
    while blocks == 0 || (t0.elapsed().as_nanos() as u64) < min_ns {
        for fp in footprints {
            held.clear();
            for &(addr, write) in fp {
                let block = mapper.block_of(addr);
                let key = table.grant_key(block);
                let access = if write { Access::Write } else { Access::Read };
                let pos = held.iter().position(|&(k, _)| k == key);
                let before = pos.map_or(Held::None, |i| held[i].1);
                match table.acquire(0, block, access, before) {
                    // The log keeps one level per key; an upgrade raises it.
                    AcquireOutcome::Granted => match pos {
                        Some(i) => held[i].1 = before.after(access),
                        None => held.push((key, Held::None.after(access))),
                    },
                    AcquireOutcome::AlreadyHeld => {}
                    AcquireOutcome::Conflict(c) => {
                        panic!("single-threaded replay conflicted: {c:?}")
                    }
                }
                blocks += 1;
            }
            for &(key, level) in &held {
                table.release(0, key, level);
            }
        }
        if blocks == 0 {
            break;
        }
    }
    t0.elapsed().as_nanos() as f64 / blocks.max(1) as f64
}

/// Everything the engine-layer metrics are computed from.
pub struct EngineView<'a> {
    /// Timed update calls.
    pub run: &'a CallSnapshot,
    /// Timed read-only calls.
    pub read: &'a CallSnapshot,
    /// Engine counters over the measured phase.
    pub stats: &'a EngineStats,
    /// Measured phase length in seconds.
    pub elapsed: f64,
    /// Threads calling into the engine (its `C`).
    pub threads: u32,
    /// False-conflict aborts in the phase.
    pub false_conflicts: u64,
    /// Cross-shard commits in the phase.
    pub cross: u64,
    /// Ownership entries (`N`).
    pub entries: usize,
}

/// The engine, shard, ownership and model metrics.
pub fn engine_layers(out: &mut Outcome, v: &EngineView<'_>) {
    let s = v.stats;
    out.metric("engine.run_us_p50", v.run.ns_at(0.5) / 1e3, "us");
    out.metric("engine.run_us_p99", v.run.ns_at(0.99) / 1e3, "us");
    out.metric(
        "engine.attempts_per_run",
        v.run.attempts_per_call(),
        "count",
    );
    out.metric(
        "engine.aborts_per_commit",
        ratio(s.aborts, s.commits),
        "ratio",
    );
    out.metric(
        "engine.stall_retries_per_commit",
        ratio(s.stall_retries, s.commits),
        "ratio",
    );
    out.metric("engine.read_ns_p50", v.read.ns_at(0.5), "ns");
    out.metric(
        "engine.read_retries_per_read",
        ratio(s.read_validation_retries, s.read_only_commits),
        "ratio",
    );
    let busy_ns = (v.run.total_ns + v.read.total_ns) as f64;
    out.metric(
        "engine.busy_frac",
        busy_ns / (v.elapsed * 1e9 * f64::from(v.threads)),
        "ratio",
    );
    out.metric("shard.cross_shard_frac", ratio(v.cross, s.commits), "ratio");

    let w = s.mean_write_footprint();
    let alpha = s.mean_alpha();
    let measured = ratio(v.false_conflicts, s.commits);
    let predicted = eq8_predicted(v.threads, w, alpha, v.entries);
    out.metric("ownership.write_footprint", w, "blocks");
    out.metric("ownership.alpha", alpha, "ratio");
    out.metric("ownership.entries", v.entries as f64, "count");
    out.metric("ownership.false_conflicts_per_commit", measured, "ratio");
    out.metric("model.eq8_predicted", predicted, "ratio");
    out.metric(
        "model.eq8_ratio",
        if predicted > 0.0 {
            measured / predicted
        } else {
            0.0
        },
        "ratio",
    );
}
