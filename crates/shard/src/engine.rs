//! The sharded engine: per-shard tables and stats, eager single-shard
//! transactions, and the ordered two-phase cross-shard commit.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use tm_ownership::concurrent::{ConcurrentTable, Held};
use tm_ownership::{Access, AcquireOutcome, BlockMapper, ConflictClass, ThreadId};
use tm_stm::{
    Aborted, Backoff, EngineStats, Heap, PublishGate, ReadOps, RetryLimitExceeded, RetryPolicy,
    StmConfig, StmStats, StmStatsSnapshot, TmEngine, TxnOps,
};
use tm_telemetry::{AbortCause, NoopProbe, Probe};

use crate::map::ShardMap;
use crate::scratch::ShardScratchGuard;

/// Default spin budget per grant during the cross-shard commit's ordered
/// acquisition phase. Deliberately much larger than the eager stall budget:
/// under [`AcquireOrder::ShardOrdered`] every wait is on a *finite-duration*
/// holder (an eager transaction's bounded body or another committer's
/// commit phase), so waiting almost always beats aborting. The budget is a
/// backstop, not the correctness mechanism.
pub const DEFAULT_COMMIT_SPINS: u32 = 1 << 14;

/// Bounded rounds of mid-body read-log revalidation (cross mode) before an
/// attempt gives up and retries through backoff.
const REVALIDATE_ROUNDS: u32 = 64;

/// The order the cross-shard commit acquires its footprint's grants in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AcquireOrder {
    /// Strictly ascending `(shard index, grant key)` — the protocol's
    /// deadlock-freedom-by-construction order.
    #[default]
    ShardOrdered,
    /// Per-transaction first-touch order, unsorted. **A deliberately
    /// wrong mutant** kept so tests can prove the ordering is
    /// load-bearing: opposing cross-shard transactions acquire in opposite
    /// orders, produce circular waits, and burn the whole acquisition
    /// budget. To make those cycles materialize deterministically, on one
    /// hardware thread or many, the mutant also holds its first commit
    /// grant until another committer holds one too (a bounded wait; see
    /// `ShardedStm::unordered_rendezvous`). Never use outside
    /// protocol-validation tests.
    Unordered,
}

#[inline]
fn cause_of_class(class: ConflictClass) -> AbortCause {
    match class {
        ConflictClass::KnownFalse => AbortCause::FalseConflict,
        ConflictClass::KnownTrue => AbortCause::TrueConflict,
        ConflictClass::Unknown => AbortCause::UnknownConflict,
    }
}

#[inline]
fn elapsed_ns(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Monomorphization firewall for update bodies (mirrors `tm_stm`'s
/// `BodyFn`): the retry loop is compiled once per engine, not per closure.
type BodyFn<'b, 's, T, P, R> = &'b mut dyn FnMut(&mut ShardTxn<'s, T, P>) -> Result<R, Aborted>;

/// Erased read-only body for the wait-free read path.
type ReadBodyFn<'b, 's, T, P, R> =
    &'b mut dyn FnMut(&mut ShardReadTxn<'s, T, P>) -> Result<R, Aborted>;

/// One shard's conflict-detection state: its ownership table and its
/// commit-stream statistics (each internally striped and padded).
#[derive(Debug)]
struct ShardState<T> {
    table: T,
    stats: StmStats,
}

/// A sharded software transactional memory: `S` independent ownership
/// tables and statistics blocks routed by a [`ShardMap`], over **one**
/// heap and **one** publication gate.
///
/// See the crate docs for the protocol. Build via
/// [`ShardedStmBuilder`](crate::ShardedStmBuilder) terminals on
/// `tm_stm::StmBuilder` (`.shards(S).build_sharded_tagless()` etc.).
#[derive(Debug)]
pub struct ShardedStm<T: ConcurrentTable, P: Probe = NoopProbe> {
    heap: Heap,
    map: ShardMap,
    shards: Box<[ShardState<T>]>,
    config: StmConfig,
    order: AcquireOrder,
    commit_spins: u32,
    gate: PublishGate,
    cross_commits: AtomicU64,
    cross_aborts: AtomicU64,
    /// Sum over cross-shard commits of (span − 1): the per-shard commit
    /// counters record a cross-shard commit once *per participating shard*
    /// (so each shard's `mean_write_footprint` divides that shard's blocks
    /// by the commits that actually delivered them — the adaptive
    /// controllers size from a self-consistent window), and [`stats`]
    /// subtracts this to keep the engine-level aggregate exact.
    ///
    /// [`stats`]: ShardedStm::stats
    cross_extra_commits: AtomicU64,
    /// [`AcquireOrder::Unordered`] only: commit attempts currently holding
    /// at least one commit-phase grant. A bare count that publishes no
    /// other data, so `Relaxed` suffices.
    unordered_holders: AtomicU32,
    probe: P,
}

impl<T: ConcurrentTable> ShardedStm<T> {
    /// Build a sharded STM with telemetry off. `tables.len()` must equal
    /// `map.shards()`; every table must share one block geometry.
    pub fn new(heap_words: usize, tables: Vec<T>, map: ShardMap, config: StmConfig) -> Self {
        Self::with_probe(heap_words, tables, map, config, NoopProbe)
    }
}

impl<T: ConcurrentTable, P: Probe> ShardedStm<T, P> {
    /// Build a sharded STM with an attached telemetry probe.
    pub fn with_probe(
        heap_words: usize,
        tables: Vec<T>,
        map: ShardMap,
        config: StmConfig,
        probe: P,
    ) -> Self {
        assert_eq!(
            tables.len(),
            map.shards() as usize,
            "one table per shard required"
        );
        assert!(!tables.is_empty(), "need at least one shard");
        let block_bytes = tables[0].config().mapper().block_bytes();
        for t in &tables {
            assert_eq!(
                t.config().mapper().block_bytes(),
                block_bytes,
                "all shards must share one block geometry"
            );
        }
        ShardedStm {
            heap: Heap::new(heap_words),
            map,
            shards: tables
                .into_iter()
                .map(|table| ShardState {
                    table,
                    stats: StmStats::default(),
                })
                .collect(),
            config,
            order: AcquireOrder::default(),
            commit_spins: DEFAULT_COMMIT_SPINS,
            gate: PublishGate::default(),
            cross_commits: AtomicU64::new(0),
            cross_aborts: AtomicU64::new(0),
            cross_extra_commits: AtomicU64::new(0),
            unordered_holders: AtomicU32::new(0),
            probe,
        }
    }

    /// Replace the cross-shard acquisition order (builder-style; call
    /// before sharing the engine). [`AcquireOrder::Unordered`] is a
    /// test-only mutant — see its docs.
    pub fn with_acquire_order(mut self, order: AcquireOrder) -> Self {
        self.order = order;
        self
    }

    /// Replace the per-grant commit acquisition spin budget.
    pub fn with_commit_spins(mut self, spins: u32) -> Self {
        self.commit_spins = spins.max(1);
        self
    }

    /// The configured cross-shard acquisition order.
    pub fn acquire_order(&self) -> AcquireOrder {
        self.order
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The block → shard routing map.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The engine configuration.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// The attached telemetry probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Shard `shard`'s ownership table (per-shard inspection, and the
    /// handle per-shard adaptive controllers resize through).
    pub fn shard_table(&self, shard: usize) -> &T {
        &self.shards[shard].table
    }

    /// Shard `shard`'s statistics snapshot: the traffic that touched this
    /// shard. A cross-shard commit appears in *every* participating
    /// shard's counters (commit and footprint alike, so per-shard means
    /// stay self-consistent); [`stats`](Self::stats) de-duplicates.
    pub fn shard_stats(&self, shard: usize) -> StmStatsSnapshot {
        self.shards[shard].stats.snapshot()
    }

    /// Every shard's statistics snapshot, by shard index (see
    /// [`shard_stats`](Self::shard_stats) for cross-shard attribution).
    pub fn shard_snapshots(&self) -> Vec<StmStatsSnapshot> {
        self.shards.iter().map(|s| s.stats.snapshot()).collect()
    }

    /// Whole-engine statistics: the field-wise sum over shards, with
    /// cross-shard commits de-duplicated (each counts once per
    /// participating shard in the per-shard view, once here).
    pub fn stats(&self) -> StmStatsSnapshot {
        let mut total = StmStatsSnapshot::default();
        for s in &self.shards {
            let snap = s.stats.snapshot();
            total.commits += snap.commits;
            total.aborts += snap.aborts;
            total.stall_retries += snap.stall_retries;
            total.strong_reads += snap.strong_reads;
            total.strong_writes += snap.strong_writes;
            total.strong_stalls += snap.strong_stalls;
            total.committed_write_blocks += snap.committed_write_blocks;
            total.committed_grant_blocks += snap.committed_grant_blocks;
            total.read_only_commits += snap.read_only_commits;
            total.read_validation_retries += snap.read_validation_retries;
        }
        // Counters are read racily: a cross-shard committer bumps its
        // non-coordinator shards' commit counters before the extra
        // counter, so clamp instead of underflowing on a mid-commit
        // snapshot.
        let extra = self.cross_extra_commits.load(Ordering::Relaxed);
        total.commits = total.commits.saturating_sub(extra);
        total
    }

    /// Transactions whose committed footprint spanned ≥ 2 shards.
    pub fn cross_shard_commits(&self) -> u64 {
        self.cross_commits.load(Ordering::Relaxed)
    }

    /// Cross-shard commit attempts that aborted in the ordered acquisition
    /// or validation phase.
    pub fn cross_shard_aborts(&self) -> u64 {
        self.cross_aborts.load(Ordering::Relaxed)
    }

    /// The [`AcquireOrder::Unordered`] mutant's rendezvous, run by a commit
    /// attempt right after it takes its first grant: wait (yielding, for at
    /// most `commit_spins` rounds) until another attempt also holds one.
    /// Opposing committers then each request the other's first grant while
    /// it is held, so the circular wait the mutant exists to demonstrate
    /// forms whatever the scheduler does. The count drops when an attempt
    /// releases its grants.
    fn unordered_rendezvous(&self) {
        self.unordered_holders.fetch_add(1, Ordering::Relaxed);
        for _ in 0..self.commit_spins {
            if self.unordered_holders.load(Ordering::Relaxed) >= 2 {
                return;
            }
            std::thread::yield_now();
        }
    }

    #[inline]
    fn stat_shard(&self, shard: u32) -> &StmStats {
        &self.shards[shard as usize].stats
    }

    /// The retry loop behind `TmEngine::run_with`: eager attempts with
    /// transparent one-time escalation to cross-shard mode.
    fn run_with_budget<'s, R>(
        &'s self,
        me: ThreadId,
        max_attempts: u32,
        body: BodyFn<'_, 's, T, P, R>,
    ) -> Result<R, RetryLimitExceeded> {
        assert!(max_attempts >= 1, "need at least one attempt");
        let mut backoff = Backoff::new(me as u64);
        let mut attempts = 0u32;
        let mut cross = false;
        let txn_start = P::ENABLED.then(Instant::now);
        if P::ENABLED {
            self.probe.on_txn_begin(me);
        }
        loop {
            let attempt_start = P::ENABLED.then(Instant::now);
            let mut txn = ShardTxn::new(self, me, cross);
            let outcome = body(&mut txn).and_then(|r| txn.commit_attempt().map(|_| r));
            match outcome {
                Ok(r) => {
                    let shard = txn.commit_shard;
                    let span = txn.commit_span;
                    txn.finish();
                    self.stat_shard(shard).on_commit(me);
                    if span >= 2 {
                        self.cross_commits.fetch_add(1, Ordering::Relaxed);
                        if P::ENABLED {
                            self.probe.on_cross_shard_commit(me, span);
                        }
                    }
                    if P::ENABLED {
                        self.probe.on_commit(
                            me,
                            elapsed_ns(attempt_start),
                            elapsed_ns(txn_start),
                            u64::from(attempts) + 1,
                        );
                    }
                    return Ok(r);
                }
                Err(Aborted) => {
                    if txn.escalate && !cross {
                        // Mode switch, not contention: restart the body in
                        // cross-shard mode without burning an attempt or a
                        // backoff (and without touching abort counters).
                        cross = true;
                        txn.finish();
                        continue;
                    }
                    let cause = txn.abort_cause.take().unwrap_or(AbortCause::ExplicitRetry);
                    let shard = txn.first_shard.unwrap_or(0);
                    let commit_phase_abort = txn.commit_phase_abort;
                    txn.finish();
                    self.stat_shard(shard).on_abort(me);
                    if commit_phase_abort {
                        self.cross_aborts.fetch_add(1, Ordering::Relaxed);
                        if P::ENABLED {
                            self.probe.on_cross_shard_abort(me);
                        }
                    }
                    if P::ENABLED {
                        self.probe.on_abort(me, cause, elapsed_ns(attempt_start));
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

    /// The wait-free read-only path: identical to the unsharded eager
    /// engine's (the gate is engine-global, so shard routing never enters
    /// the picture). Read-side stats land in shard `me % S`.
    fn run_read_with_budget<'s, R>(
        &'s self,
        me: ThreadId,
        max_attempts: u32,
        body: ReadBodyFn<'_, 's, T, P, R>,
    ) -> Result<R, RetryLimitExceeded> {
        assert!(max_attempts >= 1, "need at least one attempt");
        let stat_shard = me as usize % self.shards.len();
        let mut backoff = Backoff::new(me as u64);
        let mut attempts = 0u32;
        let txn_start = P::ENABLED.then(Instant::now);
        loop {
            if P::ENABLED {
                self.probe.on_read_begin(me);
            }
            let mut epoch = self.gate.reader_epoch();
            let mut spins = 0u32;
            while epoch.is_none() && spins < self.config.read_path.max_spins {
                spins += 1;
                std::hint::spin_loop();
                epoch = self.gate.reader_epoch();
            }
            let outcome = match epoch {
                Some(epoch) => {
                    let mut txn = ShardReadTxn {
                        stm: self,
                        epoch,
                        reads: 0,
                    };
                    body(&mut txn)
                }
                None => Err(Aborted),
            };
            match outcome {
                Ok(r) => {
                    self.shards[stat_shard].stats.on_read_commit(me);
                    if P::ENABLED {
                        self.probe.on_read_commit(me, elapsed_ns(txn_start));
                    }
                    return Ok(r);
                }
                Err(Aborted) => {
                    self.shards[stat_shard].stats.on_read_validation_retry(me);
                    if P::ENABLED {
                        self.probe.on_read_validation_retry(me);
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
}

impl<T: ConcurrentTable, P: Probe> TmEngine for ShardedStm<T, P> {
    type Txn<'e>
        = ShardTxn<'e, T, P>
    where
        Self: 'e;

    type ReadTxn<'e>
        = ShardReadTxn<'e, T, P>
    where
        Self: 'e;

    fn run_with<'s, R>(
        &'s self,
        me: ThreadId,
        policy: RetryPolicy,
        mut body: impl FnMut(&mut ShardTxn<'s, T, P>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded> {
        self.run_with_budget(me, policy.budget(), &mut body)
    }

    fn run_read_with<'s, R>(
        &'s self,
        me: ThreadId,
        policy: RetryPolicy,
        mut body: impl FnMut(&mut ShardReadTxn<'s, T, P>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded> {
        self.run_read_with_budget(me, policy.budget(), &mut body)
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.config.retry
    }

    fn engine_stats(&self) -> EngineStats {
        self.stats().into()
    }

    fn heap(&self) -> &Heap {
        &self.heap
    }
}

/// An in-flight sharded transaction.
///
/// Starts **eager** (home-shard grants, exactly the unsharded protocol);
/// transparently restarts in **cross-shard** mode (grant-free body,
/// ordered commit-time acquisition) when it touches a second shard. See
/// the crate docs.
#[derive(Debug)]
pub struct ShardTxn<'s, T: ConcurrentTable, P: Probe = NoopProbe> {
    stm: &'s ShardedStm<T, P>,
    id: ThreadId,
    /// Cached block mapper (shared geometry across shards).
    mapper: BlockMapper,
    /// Cached eager-mode stall budget.
    max_spins: u32,
    scratch: ShardScratchGuard,
    /// Cross-shard mode (sticky across this transaction's attempts via the
    /// retry loop; an eager attempt that touches a second shard sets
    /// `escalate` and aborts).
    cross: bool,
    /// Eager mode: the shard of the first-touched block.
    home: Option<u32>,
    /// First shard touched in any mode (abort attribution).
    first_shard: Option<u32>,
    /// Cross mode: the publication-gate epoch the read log is valid at.
    epoch: Option<u64>,
    /// Set when an eager attempt touched a second shard: the retry loop
    /// restarts the body in cross-shard mode instead of counting an abort.
    escalate: bool,
    /// Set when a cross-shard commit failed in acquisition/validation
    /// (drives the `cross_shard_aborts` counter).
    commit_phase_abort: bool,
    /// Filled by a successful commit: the shard the commit is attributed
    /// to, and how many shards the footprint spanned.
    commit_shard: u32,
    commit_span: u32,
    stall_retries: u64,
    finished: bool,
    reads: u64,
    writes: u64,
    abort_cause: Option<AbortCause>,
}

impl<'s, T: ConcurrentTable, P: Probe> ShardTxn<'s, T, P> {
    fn new(stm: &'s ShardedStm<T, P>, id: ThreadId, cross: bool) -> Self {
        Self {
            stm,
            id,
            mapper: stm.shards[0].table.config().mapper(),
            max_spins: stm.config.contention.max_spins(),
            scratch: ShardScratchGuard::checkout(),
            cross,
            home: None,
            first_shard: None,
            epoch: None,
            escalate: false,
            commit_phase_abort: false,
            commit_shard: 0,
            commit_span: 1,
            stall_retries: 0,
            finished: false,
            reads: 0,
            writes: 0,
            abort_cause: None,
        }
    }

    /// This transaction's thread id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Whether this attempt is running in cross-shard mode.
    pub fn is_cross_shard(&self) -> bool {
        self.cross
    }

    /// Buffered (not yet committed) writes in this attempt.
    pub fn pending_writes(&self) -> usize {
        self.scratch.wbuf.len()
    }

    /// Eager mode: resolve the home shard, or escalate when `shard`
    /// differs from an already-pinned home.
    #[inline]
    fn pin_home(&mut self, shard: u32) -> Result<(), Aborted> {
        match self.home {
            None => {
                self.home = Some(shard);
                self.first_shard = Some(shard);
                Ok(())
            }
            Some(h) if h == shard => Ok(()),
            Some(_) => {
                self.escalate = true;
                Err(Aborted)
            }
        }
    }

    /// Eager-mode acquire on the home shard's table — the unsharded
    /// engine's acquire, verbatim.
    fn acquire_eager(&mut self, shard: u32, block: u64, access: Access) -> Result<(), Aborted> {
        let table = &self.stm.shards[shard as usize].table;
        let key = table.grant_key(block);
        let held = self.scratch.log.get(key).unwrap_or(Held::None);
        let mut spins = 0u32;
        loop {
            match table.acquire(self.id, block, access, held) {
                AcquireOutcome::Granted => {
                    self.scratch.log.insert(key, held.after(access));
                    if P::ENABLED {
                        self.stm.probe.on_grant(self.id);
                    }
                    return Ok(());
                }
                AcquireOutcome::AlreadyHeld => return Ok(()),
                AcquireOutcome::Conflict(c) => {
                    if spins >= self.max_spins {
                        if P::ENABLED {
                            self.abort_cause = Some(cause_of_class(c.class));
                        }
                        return Err(Aborted);
                    }
                    spins += 1;
                    self.stall_retries += 1;
                    if P::ENABLED {
                        self.stm.probe.on_stall(self.id);
                    }
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Spin for a quiescent publication-gate epoch (cross mode).
    fn spin_for_epoch(&self) -> Result<u64, Aborted> {
        let mut spins = 0u32;
        loop {
            if let Some(e) = self.stm.gate.reader_epoch() {
                return Ok(e);
            }
            if spins >= self.stm.config.read_path.max_spins {
                return Err(Aborted);
            }
            spins += 1;
            std::hint::spin_loop();
        }
    }

    /// Cross mode: the publication epoch moved — re-sample it and re-check
    /// every logged read value so the body keeps observing one consistent
    /// snapshot (opacity). Returns the fresh epoch.
    fn revalidate_read_log(&mut self) -> Result<u64, Aborted> {
        let stm = self.stm;
        for _ in 0..REVALIDATE_ROUNDS {
            let epoch = self.spin_for_epoch()?;
            let consistent = self
                .scratch
                .rlog
                .iter()
                .all(|&(addr, value)| stm.heap.load(addr) == value);
            if !consistent {
                if P::ENABLED {
                    self.abort_cause = Some(AbortCause::ValidationFailed);
                }
                return Err(Aborted);
            }
            // No publication may have raced the re-check itself.
            if stm.gate.still_at(epoch) {
                return Ok(epoch);
            }
        }
        Err(Aborted)
    }

    /// Cross-mode read: gate-validated heap load plus value logging; no
    /// ownership-table traffic at all.
    fn read_cross(&mut self, addr: u64, block: u64) -> Result<u64, Aborted> {
        let stm = self.stm;
        let mut epoch = match self.epoch {
            Some(e) => e,
            None => {
                let e = self.spin_for_epoch()?;
                self.epoch = Some(e);
                e
            }
        };
        loop {
            let value = stm.heap.load(addr);
            if stm.gate.still_at(epoch) {
                self.scratch.rlog.push((addr, value));
                if !self.scratch.read_blocks.contains(block)
                    && !self.scratch.write_blocks.contains(block)
                {
                    self.scratch.touched.push(block);
                }
                self.scratch.read_blocks.insert(block, ());
                return Ok(value);
            }
            epoch = self.revalidate_read_log()?;
            self.epoch = Some(epoch);
        }
    }

    /// Release every commit-phase grant (error paths and epilogue).
    fn release_commit_grants(&mut self) {
        let stm = self.stm;
        if stm.order == AcquireOrder::Unordered && !self.scratch.cgrants.is_empty() {
            stm.unordered_holders.fetch_sub(1, Ordering::Relaxed);
        }
        for &(shard, key, held) in self.scratch.cgrants.iter() {
            stm.shards[shard as usize].table.release(self.id, key, held);
        }
        self.scratch.cgrants.clear();
    }

    /// The ordered two-phase cross-shard commit. On success the write set
    /// is published (single gate bracket) and all grants are released; on
    /// failure everything acquired is released and the attempt aborts.
    fn commit_cross(&mut self) -> Result<(), Aborted> {
        let stm = self.stm;

        // Build the acquisition plan: one entry per touched block, in
        // first-touch order — written blocks at Write, read-only blocks at
        // Read. The real protocol then sorts by `(shard, key)`; the
        // `Unordered` mutant deliberately keeps the per-transaction
        // first-touch order, which is what makes opposing transactions
        // acquire in opposite orders and cycle.
        {
            let s = &mut *self.scratch;
            s.acq.clear();
            for i in 0..s.touched.len() {
                let block = s.touched[i];
                let write = s.write_blocks.contains(block);
                let shard = stm.map.shard_of(block);
                let key = stm.shards[shard as usize].table.grant_key(block);
                s.acq.push((shard, key, write, block));
            }
            if stm.order == AcquireOrder::ShardOrdered {
                // Ascending (shard, key); writes before reads on one key so
                // an aliasing read+write acquires Write directly.
                s.acq
                    .sort_unstable_by_key(|&(shard, key, write, _)| (shard, key, !write));
            }
        }

        // Phase 1: acquire, in plan order, each grant under the (large,
        // bounded) commit spin budget.
        for i in 0..self.scratch.acq.len() {
            let (shard, key, write, block) = self.scratch.acq[i];
            let access = if write { Access::Write } else { Access::Read };
            let held = self
                .scratch
                .cgrants
                .iter()
                .find(|g| g.0 == shard && g.1 == key)
                .map(|g| g.2)
                .unwrap_or(Held::None);
            if held == Held::Write || (held == Held::Read && !write) {
                continue; // already held at a sufficient level
            }
            let table = &stm.shards[shard as usize].table;
            let mut spins = 0u32;
            loop {
                match table.acquire(self.id, block, access, held) {
                    AcquireOutcome::Granted => {
                        let after = held.after(access);
                        let first = self.scratch.cgrants.is_empty();
                        match self
                            .scratch
                            .cgrants
                            .iter_mut()
                            .find(|g| g.0 == shard && g.1 == key)
                        {
                            Some(g) => g.2 = after,
                            None => self.scratch.cgrants.push((shard, key, after)),
                        }
                        if P::ENABLED {
                            stm.probe.on_grant(self.id);
                        }
                        if first && stm.order == AcquireOrder::Unordered {
                            stm.unordered_rendezvous();
                        }
                        break;
                    }
                    AcquireOutcome::AlreadyHeld => break,
                    AcquireOutcome::Conflict(c) => {
                        if spins >= stm.commit_spins {
                            if P::ENABLED {
                                self.abort_cause = Some(cause_of_class(c.class));
                            }
                            self.commit_phase_abort = true;
                            self.release_commit_grants();
                            return Err(Aborted);
                        }
                        spins += 1;
                        self.stall_retries += 1;
                        // Commit waits are long-budget; yield occasionally
                        // so a descheduled grant holder can run on
                        // oversubscribed machines.
                        if spins.is_multiple_of(256) {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        }

        // Phase 2a: validate the read log. Every checked word is covered
        // by a grant we now hold, so no writer can be mid-publication on
        // it — the loads below are stable.
        let consistent = self
            .scratch
            .rlog
            .iter()
            .all(|&(addr, value)| stm.heap.load(addr) == value);
        if !consistent {
            if P::ENABLED {
                self.abort_cause = Some(AbortCause::ValidationFailed);
            }
            self.commit_phase_abort = true;
            self.release_commit_grants();
            return Err(Aborted);
        }

        // Footprint accounting and attribution: the commit is counted in
        // the lowest participating shard; each shard's footprint counters
        // get the blocks that actually landed there.
        let mut span = 0u32;
        let mut coordinator = u32::MAX;
        {
            let s = &*self.scratch;
            let mut seen: u64 = 0; // shard bitmap (shards ≤ 64 by builder cap)
            for &(shard, ..) in s.acq.iter() {
                coordinator = coordinator.min(shard);
                let bit = 1u64 << (shard as u64 & 63);
                if seen & bit == 0 {
                    seen |= bit;
                    span += 1;
                }
            }
            let mut extra = 0u64;
            for shard_idx in 0..stm.shards.len() as u32 {
                if seen & (1u64 << (shard_idx as u64 & 63)) == 0 {
                    continue;
                }
                let writes = s
                    .write_blocks
                    .iter()
                    .filter(|&(b, _)| stm.map.shard_of(b) == shard_idx)
                    .count() as u64;
                let grants = s.acq.iter().filter(|&&(sh, ..)| sh == shard_idx).count() as u64;
                stm.stat_shard(shard_idx)
                    .on_commit_footprint(self.id, writes, grants);
                // Pair the blocks just recorded with a commit event in the
                // same shard (the coordinator's lands in the retry loop):
                // a shard whose counters carried cross-shard write blocks
                // but no commits would hand its adaptive controller an
                // unboundedly inflated mean footprint, and the controller
                // would answer with a multi-million-entry resize.
                if shard_idx != coordinator {
                    stm.stat_shard(shard_idx).on_commit(self.id);
                    extra += 1;
                }
            }
            if extra > 0 {
                stm.cross_extra_commits.fetch_add(extra, Ordering::Relaxed);
            }
        }
        self.commit_shard = if coordinator == u32::MAX {
            0
        } else {
            coordinator
        };
        self.commit_span = span.max(1);

        // Phase 2b: publish everything inside one gate bracket — readers
        // on the wait-free path observe the whole cross-shard write set or
        // none of it — then release.
        if !self.scratch.wbuf.is_empty() {
            stm.gate.publish_begin(self.id);
            for (addr, value) in self.scratch.wbuf.iter() {
                stm.heap.store(addr, value);
            }
            stm.gate.publish_end(self.id);
        }
        self.release_commit_grants();
        Ok(())
    }

    /// Eager-mode commit: the unsharded engine's commit on the home shard.
    fn commit_eager(&mut self) {
        let stm = self.stm;
        let shard = self.home.unwrap_or(0);
        stm.stat_shard(shard).on_commit_footprint(
            self.id,
            self.scratch.write_blocks.len() as u64,
            self.scratch.log.len() as u64,
        );
        if !self.scratch.wbuf.is_empty() {
            stm.gate.publish_begin(self.id);
            for (addr, value) in self.scratch.wbuf.iter() {
                stm.heap.store(addr, value);
            }
            stm.gate.publish_end(self.id);
        }
        self.commit_shard = shard;
        self.commit_span = 1;
    }

    /// Commit this attempt. Infallible in eager mode; in cross-shard mode
    /// the ordered acquisition or validation can abort.
    fn commit_attempt(&mut self) -> Result<(), Aborted> {
        if self.cross {
            self.commit_cross()
        } else {
            self.commit_eager();
            Ok(())
        }
    }

    /// Attempt epilogue (commit, abort, and escalation paths): release
    /// home-shard grants and any commit-phase grants still held, flush the
    /// batched stall counter.
    fn finish(&mut self) {
        if self.finished {
            return;
        }
        let stm = self.stm;
        if let Some(home) = self.home {
            let table = &stm.shards[home as usize].table;
            for (key, held) in self.scratch.log.iter() {
                table.release(self.id, key, held);
            }
        }
        if !self.scratch.cgrants.is_empty() {
            self.release_commit_grants();
        }
        stm.stat_shard(self.first_shard.unwrap_or(0))
            .add_stall_retries(self.id, self.stall_retries);
        self.stall_retries = 0;
        self.finished = true;
    }
}

impl<T: ConcurrentTable, P: Probe> Drop for ShardTxn<'_, T, P> {
    fn drop(&mut self) {
        // A panic inside the body must not leak grants in any shard.
        self.finish();
    }
}

impl<T: ConcurrentTable, P: Probe> ReadOps for ShardTxn<'_, T, P> {
    fn read(&mut self, addr: u64) -> Result<u64, Aborted> {
        self.reads += 1;
        if let Some(v) = self.scratch.wbuf.get(addr) {
            return Ok(v);
        }
        let block = self.mapper.block_of(addr);
        let shard = self.stm.map.shard_of(block);
        if self.cross {
            if self.first_shard.is_none() {
                self.first_shard = Some(shard);
            }
            return self.read_cross(addr, block);
        }
        self.pin_home(shard)?;
        self.acquire_eager(shard, block, Access::Read)?;
        Ok(self.stm.heap.load(addr))
    }

    fn read_count(&self) -> u64 {
        self.reads
    }
}

impl<T: ConcurrentTable, P: Probe> TxnOps for ShardTxn<'_, T, P> {
    fn write(&mut self, addr: u64, value: u64) -> Result<(), Aborted> {
        self.writes += 1;
        let block = self.mapper.block_of(addr);
        let shard = self.stm.map.shard_of(block);
        if self.cross {
            if self.first_shard.is_none() {
                self.first_shard = Some(shard);
            }
            if !self.scratch.write_blocks.contains(block)
                && !self.scratch.read_blocks.contains(block)
            {
                self.scratch.touched.push(block);
            }
        } else {
            self.pin_home(shard)?;
            self.acquire_eager(shard, block, Access::Write)?;
        }
        self.scratch.write_blocks.insert(block, ());
        self.scratch.wbuf.insert(addr, value);
        Ok(())
    }

    fn write_count(&self) -> u64 {
        self.writes
    }
}

/// An in-flight read-only transaction on the sharded engine: identical to
/// the unsharded eager engine's (engine-global gate epoch, bare heap
/// loads, per-read validation). Cross-shard commits publish under one
/// bracket, so this path can never observe a torn cross-shard write set.
#[derive(Debug)]
pub struct ShardReadTxn<'s, T: ConcurrentTable, P: Probe = NoopProbe> {
    stm: &'s ShardedStm<T, P>,
    epoch: u64,
    reads: u64,
}

impl<T: ConcurrentTable, P: Probe> ReadOps for ShardReadTxn<'_, T, P> {
    fn read(&mut self, addr: u64) -> Result<u64, Aborted> {
        let value = self.stm.heap.load(addr);
        if !self.stm.gate.still_at(self.epoch) {
            return Err(Aborted);
        }
        self.reads += 1;
        Ok(value)
    }

    fn read_count(&self) -> u64 {
        self.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ShardedStmBuilder;
    use tm_stm::StmBuilder;

    fn engine(shards: usize) -> ShardedStm<tm_stm::ConcurrentTaglessTable> {
        StmBuilder::new()
            .heap_words(1 << 12)
            .table_entries(1 << 10)
            .shards(shards)
            .build_sharded_tagless()
    }

    /// Word address at the start of `shard`'s block range.
    fn addr_in(stm: &ShardedStm<tm_stm::ConcurrentTaglessTable>, shard: u32) -> u64 {
        stm.shard_map().block_range(shard).start * 64
    }

    #[test]
    fn single_shard_txn_commits_on_home_shard() {
        let stm = engine(4);
        stm.run(0, |txn| {
            let v = txn.read(8)?;
            txn.write(8, v + 41)?;
            txn.write(128, 1) // distinct 64-byte block, same shard
        });
        assert_eq!(stm.heap().load(8), 41);
        assert_eq!(stm.heap().load(128), 1);
        let snaps = stm.shard_snapshots();
        assert_eq!(snaps[0].commits, 1);
        assert_eq!(snaps[0].committed_write_blocks, 2);
        for s in &snaps[1..] {
            assert_eq!(s.commits, 0);
        }
        assert_eq!(stm.cross_shard_commits(), 0);
        assert_eq!(stm.stats().commits, 1);
    }

    #[test]
    fn cross_shard_transfer_escalates_and_commits_once() {
        let stm = engine(4);
        let a = addr_in(&stm, 0);
        let b = addr_in(&stm, 3);
        stm.heap().store(a, 100);
        stm.run(0, |txn| {
            let v = txn.read(a)?;
            txn.write(a, v - 30)?;
            let w = txn.read(b)?;
            txn.write(b, w + 30)
        });
        assert_eq!(stm.heap().load(a), 70);
        assert_eq!(stm.heap().load(b), 30);
        assert_eq!(stm.cross_shard_commits(), 1);
        assert_eq!(stm.cross_shard_aborts(), 0);
        // Escalation must not surface as an abort, and the aggregate
        // counts the transaction exactly once.
        let total = stm.stats();
        assert_eq!(total.commits, 1);
        assert_eq!(total.aborts, 0);
        // The per-shard view records it once per *participating* shard —
        // blocks and commits stay paired, so each shard's mean footprint
        // (the adaptive controllers' sizing input) reflects the traffic
        // that actually landed there.
        assert_eq!(stm.shard_stats(0).commits, 1);
        assert_eq!(stm.shard_stats(3).commits, 1);
        assert_eq!(stm.shard_stats(1).commits, 0);
        assert_eq!(stm.shard_stats(0).committed_write_blocks, 1);
        assert_eq!(stm.shard_stats(3).committed_write_blocks, 1);
    }

    #[test]
    fn cross_shard_read_only_footprint_validates() {
        let stm = engine(2);
        let a = addr_in(&stm, 0);
        let b = addr_in(&stm, 1);
        stm.heap().store(a, 3);
        stm.heap().store(b, 4);
        let sum = stm.run(0, |txn| Ok(txn.read(a)? + txn.read(b)?));
        assert_eq!(sum, 7);
        assert_eq!(stm.cross_shard_commits(), 1);
        assert_eq!(stm.stats().committed_write_blocks, 0);
    }

    #[test]
    fn one_shard_is_the_unsharded_protocol() {
        let stm = engine(1);
        for t in 0..4u32 {
            stm.run(t, |txn| {
                let v = txn.read(0)?;
                txn.write(0, v + 1)
            });
        }
        assert_eq!(stm.heap().load(0), 4);
        assert_eq!(stm.cross_shard_commits(), 0);
        assert_eq!(stm.stats().commits, 4);
    }

    #[test]
    fn run_read_sees_committed_state() {
        let stm = engine(4);
        let a = addr_in(&stm, 1);
        stm.run(0, |txn| txn.write(a, 9));
        let v = stm.run_read(1, |txn| txn.read(a));
        assert_eq!(v, 9);
        assert!(stm
            .shard_snapshots()
            .iter()
            .any(|s| s.read_only_commits == 1));
    }

    #[test]
    fn writes_read_back_through_the_buffer_in_both_modes() {
        let stm = engine(4);
        let a = addr_in(&stm, 0);
        let b = addr_in(&stm, 2);
        stm.run(0, |txn| {
            txn.write(a, 5)?;
            assert_eq!(txn.read(a)?, 5); // eager mode: own write visible
            txn.write(b, 6)?; // escalates; body restarts
            assert_eq!(txn.read(a)?, 5); // cross mode: own write visible
            assert_eq!(txn.read(b)?, 6);
            Ok(())
        });
        assert_eq!(stm.heap().load(a), 5);
        assert_eq!(stm.heap().load(b), 6);
    }

    #[test]
    fn unordered_mutant_is_constructible_and_still_commits_solo() {
        // Solo (uncontended) cross-shard txns succeed even under the
        // mutant order; only *opposing* committers deadlock (covered by
        // the atomicity integration test).
        let stm = engine(4).with_acquire_order(AcquireOrder::Unordered);
        assert_eq!(stm.acquire_order(), AcquireOrder::Unordered);
        let a = addr_in(&stm, 0);
        let b = addr_in(&stm, 3);
        stm.run(0, |txn| {
            txn.write(b, 1)?;
            txn.write(a, 2)
        });
        assert_eq!(stm.heap().load(a), 2);
        assert_eq!(stm.heap().load(b), 1);
        assert_eq!(stm.cross_shard_commits(), 1);
    }

    #[test]
    fn cross_shard_commit_probe_hooks_fire() {
        use std::sync::Arc;
        use tm_telemetry::Recorder;

        let recorder = Arc::new(Recorder::new());
        let stm = StmBuilder::new()
            .heap_words(1 << 12)
            .table_entries(1 << 10)
            .shards(4)
            .probe(Arc::clone(&recorder))
            .build_sharded_tagless();
        let b = stm.shard_map().block_range(2).start * 64;
        stm.run(0, |txn| {
            txn.write(0, 1)?;
            txn.write(b, 2)
        });
        let snap = recorder.snapshot();
        assert_eq!(snap.cross_shard_commits, 1);
        assert_eq!(snap.txn.count(), 1);
    }
}
