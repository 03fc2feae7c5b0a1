//! The eager engine: `S` ownership tables routed by a [`ShardMap`] over one
//! heap, eager single-shard transactions, and the ordered two-phase
//! cross-shard commit.
//!
//! This is the crate's **only eager engine**. [`Stm`](crate::Stm) is this
//! engine at one shard (`ShardMap::new(1, ..)`), where every transaction
//! stays in eager mode and pays one shard lookup per access over a
//! single-table design; `tm-shard`'s builder terminals mint it at `S > 1`.
//! One table is the ceiling on raw scale — every grant funnels through it —
//! so at `S > 1` the **conflict-detection state** (ownership table, commit
//! statistics and, via `tm-adaptive`, the resize controller) is partitioned
//! by cache-block address, while **one heap and one publication gate** keep
//! the typed layer, `tm-structs` and the wait-free `run_read` path working
//! unchanged.
//!
//! # Protocol
//!
//! Transactions start in **eager mode**, pinned to the shard of their
//! first-touched block (the *home* shard): ownership of the block under
//! each accessed word is acquired at first encounter in the home shard's
//! table, writes are buffered privately, a conflicting acquire stalls
//! (bounded, per [`ContentionPolicy`](crate::ContentionPolicy)) and then
//! aborts, and commit publishes the buffer inside one publication-gate
//! bracket. Eager acquisition plus abort-on-conflict means no deadlock.
//!
//! The first access to a second shard **escalates** the transaction: the
//! attempt is abandoned (grants released, nothing published) and the body
//! restarts in **cross-shard mode** — a restart, not an abort, so it is not
//! counted, backed off or charged to the retry budget. Cross-shard mode
//! acquires *no* grants during the body. Reads are served from a
//! publication-gate-validated heap snapshot (the same epoch scheme as
//! `run_read`, with whole-read-log revalidation when the epoch moves),
//! values are logged, and writes stay buffered. Commit is then an ordered
//! two-phase protocol:
//!
//! 1. **Acquire**: grants for the full footprint — write blocks at
//!    `Access::Write`, read blocks at `Access::Read` — are acquired in
//!    strictly ascending `(shard index, grant key)` order, spinning on
//!    conflict up to a (large, bounded) budget.
//! 2. **Validate + publish**: every logged read value is re-checked
//!    against the heap (grant holds make the checked words stable), then
//!    all buffered stores are published inside a single publication-gate
//!    bracket ([`readpath`](crate::readpath)) and every grant is released.
//!
//! **Deadlock freedom**: all *blocking* acquisition in the system is the
//! cross-shard commit phase, and it is globally ordered — two committers
//! can never wait on each other in a cycle. Eager-mode transactions
//! acquire unordered but never block unboundedly (bounded stall, then
//! abort-and-release), so every wait in the system terminates. The
//! [`AcquireOrder::Unordered`] mutant exists purely to *prove* the
//! ordering is load-bearing: under opposing cross-shard transfers it
//! produces circular waits that exhaust the acquisition budget.
//!
//! **Reader atomicity**: the publication gate is shared by every shard,
//! and a cross-shard commit publishes its entire write set inside one
//! bracket — a `run_read` transaction can never observe a half-committed
//! cross-shard transaction, regardless of how many shards it spans.
//!
//! The retry loop around attempts is the crate's one retry driver (shared
//! with the lazy engine); this module supplies only begin, commit and
//! abort.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use tm_ownership::concurrent::{ConcurrentTable, Held};
use tm_ownership::{Access, AcquireOutcome, BlockMapper, ConflictClass, ThreadId};
use tm_telemetry::{AbortCause, NoopProbe, Probe};

use crate::contention::RetryPolicy;
use crate::engine::{ReadOps, TmEngine, TxnOps};
use crate::heap::Heap;
use crate::map::ShardMap;
use crate::readpath::PublishGate;
use crate::retry::{self, Abandon, Aborted, Attempts, RetryLimitExceeded};
use crate::scratch::ScratchGuard;
use crate::stats::{EngineStats, StmStats};
use crate::stm::StmConfig;

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

/// Map a table-attributed [`ConflictClass`] to the telemetry taxonomy.
#[inline]
pub(crate) fn cause_of_class(class: ConflictClass) -> AbortCause {
    match class {
        ConflictClass::KnownFalse => AbortCause::FalseConflict,
        ConflictClass::KnownTrue => AbortCause::TrueConflict,
        ConflictClass::Unknown => AbortCause::UnknownConflict,
    }
}

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
/// See the [module docs](self) for the protocol. [`Stm`](crate::Stm) is
/// this engine at one shard; `tm-shard`'s `ShardedStmBuilder` terminals on
/// [`StmBuilder`](crate::StmBuilder) build it at any shard count
/// (`.shards(S).build_sharded_tagless()` etc.).
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
    /// Build an STM with one shard per table, with telemetry off. Every
    /// table must share one block geometry.
    pub fn new(heap_words: usize, tables: Vec<T>, config: StmConfig) -> Self {
        Self::with_probe(heap_words, tables, config, NoopProbe)
    }
}

impl<T: ConcurrentTable, P: Probe> ShardedStm<T, P> {
    /// Build an STM with one shard per table and an attached telemetry
    /// probe. The heap's blocks are cut into `tables.len()` contiguous
    /// spans ([`ShardMap::for_heap`]).
    pub fn with_probe(heap_words: usize, tables: Vec<T>, config: StmConfig, probe: P) -> Self {
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
            map: ShardMap::for_heap(tables.len(), heap_words, block_bytes),
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
    pub fn shard_stats(&self, shard: usize) -> EngineStats {
        self.shards[shard].stats.snapshot()
    }

    /// Every shard's statistics snapshot, by shard index (see
    /// [`shard_stats`](Self::shard_stats) for cross-shard attribution).
    pub fn shard_snapshots(&self) -> Vec<EngineStats> {
        self.shards.iter().map(|s| s.stats.snapshot()).collect()
    }

    /// Whole-engine statistics: the field-wise sum over shards, with
    /// cross-shard commits de-duplicated (each counts once per
    /// participating shard in the per-shard view, once here).
    pub fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for s in self.shards.iter() {
            s.stats.add_to(&mut total);
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

    /// A quiescent publication-gate epoch, spinning up to
    /// [`ReadPathPolicy::max_spins`](crate::ReadPathPolicy::max_spins) while
    /// a publication is in flight (windows are a handful of relaxed stores,
    /// so the budget almost always suffices).
    fn quiescent_epoch(&self) -> Option<u64> {
        let mut epoch = self.gate.reader_epoch();
        let mut spins = 0u32;
        while epoch.is_none() && spins < self.config.read_path.max_spins {
            spins += 1;
            std::hint::spin_loop();
            epoch = self.gate.reader_epoch();
        }
        epoch
    }

    /// The block under `addr` (every shard shares one block geometry).
    #[inline]
    fn block_of(&self, addr: u64) -> u64 {
        self.shards[0].table.config().mapper().block_of(addr)
    }

    /// A strong-isolation access (paper §6): acquire the block in its
    /// shard's table for the duration of `op`, spinning while a
    /// transaction holds it.
    fn strong<R>(&self, me: ThreadId, addr: u64, access: Access, op: impl FnOnce() -> R) -> R {
        // Invariant across spins — derive once, as `Txn` does.
        let block = self.block_of(addr);
        let shard = &self.shards[self.map.shard_of(block) as usize];
        shard.stats.on_strong(me, access == Access::Write);
        loop {
            match shard.table.acquire(me, block, access, Held::None) {
                AcquireOutcome::Granted => {
                    let r = op();
                    shard
                        .table
                        .release(me, shard.table.grant_key(block), Held::None.after(access));
                    return r;
                }
                // Only possible if the caller misuses a transaction's id;
                // access without a release obligation.
                AcquireOutcome::AlreadyHeld => return op(),
                AcquireOutcome::Conflict(_) => {
                    shard.stats.on_strong_stall(me);
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Strong-isolation non-transactional read (paper §6): consult the
    /// block's ownership table so the read cannot observe a transaction's
    /// speculative state, spinning while a writer holds the block.
    pub fn strong_read(&self, me: ThreadId, addr: u64) -> u64 {
        self.strong(me, addr, Access::Read, || self.heap.load(addr))
    }

    /// Strong-isolation non-transactional write (paper §6); spins while any
    /// transaction holds the block.
    pub fn strong_write(&self, me: ThreadId, addr: u64, value: u64) {
        self.strong(me, addr, Access::Write, || self.heap.store(addr, value))
    }
}

impl<T: ConcurrentTable, P: Probe> TmEngine for ShardedStm<T, P> {
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
        mut body: impl FnMut(&mut Txn<'s, T, P>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded> {
        retry::run(self, me, policy.budget(), &mut body)
    }

    fn run_read_with<'s, R>(
        &'s self,
        me: ThreadId,
        policy: RetryPolicy,
        mut body: impl FnMut(&mut ReadTxn<'s, T, P>) -> Result<R, Aborted>,
    ) -> Result<R, RetryLimitExceeded> {
        retry::run_read(self, me, policy.budget(), &mut body)
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.config.retry
    }

    fn engine_stats(&self) -> EngineStats {
        self.stats()
    }

    fn heap(&self) -> &Heap {
        &self.heap
    }
}

impl<T: ConcurrentTable, P: Probe> Attempts for ShardedStm<T, P> {
    type P = P;

    fn probe(&self) -> &P {
        &self.probe
    }

    fn begin(&self, me: ThreadId, restarted: bool) -> Txn<'_, T, P> {
        // Escalation is sticky: once restarted, every later attempt of the
        // transaction runs in cross-shard mode.
        Txn::new(self, me, restarted)
    }

    fn commit<'s>(&'s self, mut txn: Txn<'s, T, P>) -> Result<(), Abandon> {
        let me = txn.id;
        let Ok((shard, span)) = txn.commit_attempt() else {
            // Only the cross-shard commit can fail, in its ordered
            // acquisition or validation phase.
            self.cross_aborts.fetch_add(1, Ordering::Relaxed);
            if P::ENABLED {
                self.probe.on_cross_shard_abort(me);
            }
            return Err(self.abort(txn));
        };
        txn.finish();
        self.stat_shard(shard).on_commit(me);
        if span >= 2 {
            self.cross_commits.fetch_add(1, Ordering::Relaxed);
            if P::ENABLED {
                self.probe.on_cross_shard_commit(me, span);
            }
        }
        Ok(())
    }

    fn abort<'s>(&'s self, mut txn: Txn<'s, T, P>) -> Abandon {
        if txn.escalate {
            // Mode switch, not contention: touch no abort counter.
            txn.finish();
            return Abandon::Restart;
        }
        let me = txn.id;
        let cause = txn.abort_cause.take().unwrap_or(AbortCause::ExplicitRetry);
        let shard = txn.home.unwrap_or(0);
        txn.finish();
        self.stat_shard(shard).on_abort(me);
        Abandon::Abort(cause)
    }

    /// The wait-free read-only path: wait out any in-flight publication,
    /// then serve the body from the bare heap with per-read gate
    /// validation. No scratch is checked out and no ownership-table grant
    /// is ever acquired — readers impose zero table footprint on writers.
    /// The gate is engine-global, so shard routing never enters the
    /// picture.
    fn begin_read(&self, _me: ThreadId) -> Option<ReadTxn<'_, T, P>> {
        self.quiescent_epoch().map(|epoch| ReadTxn {
            stm: self,
            epoch,
            reads: 0,
        })
    }

    /// Read-side stats land in shard `me % S`.
    fn read_stats(&self, me: ThreadId) -> &StmStats {
        &self.shards[me as usize % self.shards.len()].stats
    }
}

/// An in-flight transaction on the eager engine: the per-thread ownership
/// log (grant key → held level) and the speculative write buffer the
/// paper's §2.1 describes.
///
/// Starts **eager** (home-shard grants); transparently restarts in
/// **cross-shard** mode (grant-free body, ordered commit-time acquisition)
/// when it touches a second shard — never at one shard. See the
/// [module docs](self). All per-attempt structures live in a recycled
/// [`TxnScratch`](crate::TxnScratch) checked out of the thread's pool, and
/// the block mapper plus the contention policy's spin budget are cached
/// inline, so a steady-state attempt performs no heap allocation, no
/// rehash and no configuration re-derivation on any access.
#[derive(Debug)]
pub struct Txn<'s, T: ConcurrentTable, P: Probe = NoopProbe> {
    stm: &'s ShardedStm<T, P>,
    id: ThreadId,
    /// Cached block mapper (shared geometry across shards).
    mapper: BlockMapper,
    /// Cached eager-mode stall budget.
    max_spins: u32,
    scratch: ScratchGuard,
    /// Cross-shard mode (sticky across this transaction's attempts via the
    /// retry driver; an eager attempt that touches a second shard sets
    /// `escalate` and abandons the attempt).
    cross: bool,
    /// The shard of the first-touched block: in eager mode every grant
    /// lives there; in either mode aborts and stalls are attributed to it.
    home: Option<u32>,
    /// Cross mode: the publication-gate epoch the read log is valid at.
    epoch: Option<u64>,
    /// Set when an eager attempt touched a second shard: the retry driver
    /// restarts the body in cross-shard mode instead of counting an abort.
    escalate: bool,
    /// Stall-policy re-attempts this attempt; flushed to the shared
    /// (striped) stats once per attempt instead of once per spin.
    stall_retries: u64,
    finished: bool,
    reads: u64,
    writes: u64,
    /// Cause of the abort that ended this attempt (telemetry only; set at
    /// the conflict site, consumed by [`Attempts::abort`]).
    abort_cause: Option<AbortCause>,
}

impl<'s, T: ConcurrentTable, P: Probe> Txn<'s, T, P> {
    pub(crate) fn new(stm: &'s ShardedStm<T, P>, id: ThreadId, cross: bool) -> Self {
        Self {
            stm,
            id,
            mapper: stm.shards[0].table.config().mapper(),
            max_spins: stm.config.contention.max_spins(),
            scratch: ScratchGuard::checkout(),
            cross,
            home: None,
            epoch: None,
            escalate: false,
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

    /// Distinct home-shard ownership grants currently held (eager mode).
    pub fn grant_count(&self) -> usize {
        self.scratch.log.len()
    }

    /// Whether this attempt is running in cross-shard mode.
    pub fn is_cross_shard(&self) -> bool {
        self.cross
    }

    /// Buffered (not yet committed) writes in this attempt.
    pub fn pending_writes(&self) -> usize {
        self.scratch.wbuf.len()
    }

    /// The shard owning `block`. The first touch pins the home shard; in
    /// eager mode a touch of any other shard escalates the attempt.
    #[inline]
    fn route(&mut self, block: u64) -> Result<u32, Aborted> {
        let shard = self.stm.map.shard_of(block);
        match self.home {
            None => self.home = Some(shard),
            Some(home) if home != shard && !self.cross => {
                self.escalate = true;
                return Err(Aborted);
            }
            Some(_) => {}
        }
        Ok(shard)
    }

    /// Eager-mode acquire on the home shard's table. Everything invariant
    /// across the stall-retry spins — grant key, currently-held level —
    /// is resolved once, before the loop; each re-attempt is just the
    /// table CAS/probe plus a pause.
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

    /// Whether every logged read value still matches the heap.
    fn read_log_holds(&self) -> bool {
        let heap = &self.stm.heap;
        self.scratch
            .rlog
            .iter()
            .all(|&(addr, value)| heap.load(addr) == value)
    }

    /// Publish the write buffer inside one publication-gate bracket, so the
    /// table-free read path observes all of it or none.
    fn publish(&self) {
        if !self.scratch.wbuf.is_empty() {
            let stm = self.stm;
            stm.gate.publish_begin(self.id);
            for (addr, value) in self.scratch.wbuf.iter() {
                stm.heap.store(addr, value);
            }
            stm.gate.publish_end(self.id);
        }
    }

    /// Cross mode: the publication epoch moved — re-sample it and re-check
    /// every logged read value so the body keeps observing one consistent
    /// snapshot (opacity). Returns the fresh epoch.
    fn revalidate_read_log(&mut self) -> Result<u64, Aborted> {
        let stm = self.stm;
        for _ in 0..REVALIDATE_ROUNDS {
            let epoch = stm.quiescent_epoch().ok_or(Aborted)?;
            if !self.read_log_holds() {
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
                let e = stm.quiescent_epoch().ok_or(Aborted)?;
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

    /// Release every commit-phase grant (the attempt epilogue).
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
    /// is published (single gate bracket); either way the grants acquired
    /// here are released by [`finish`](Self::finish).
    fn commit_cross(&mut self) -> Result<(u32, u32), Aborted> {
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
        if !self.read_log_holds() {
            if P::ENABLED {
                self.abort_cause = Some(AbortCause::ValidationFailed);
            }
            return Err(Aborted);
        }

        // Footprint accounting and attribution: the commit is counted in
        // the lowest participating shard; each shard's footprint counters
        // get the blocks that actually landed there.
        let s = &*self.scratch;
        let coordinator = s.acq.iter().map(|&(shard, ..)| shard).min().unwrap_or(0);
        let mut span = 0u32;
        {
            let mut seen: u64 = 0; // shard bitmap (shards ≤ 64 by builder cap)
            for &(shard, ..) in s.acq.iter() {
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
                // same shard (the coordinator's lands in `Attempts::commit`):
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
        // Phase 2b: publish everything inside one gate bracket — readers
        // on the wait-free path observe the whole cross-shard write set or
        // none of it.
        self.publish();
        Ok((coordinator, span.max(1)))
    }

    /// Commit this attempt. Cross-shard mode runs the ordered two-phase
    /// commit, which can abort. Eager mode cannot fail: it records the
    /// footprint in the home shard (distinct written blocks, the model's
    /// `W`, and grants held, `(1+α)·W`) and publishes the buffered writes;
    /// the table's Release/Acquire transitions order the (relaxed) heap
    /// stores before any later reader's loads, and [`finish`](Self::finish)
    /// releases the grants afterwards.
    ///
    /// Returns the shard the commit is attributed to and how many shards
    /// the footprint spanned.
    fn commit_attempt(&mut self) -> Result<(u32, u32), Aborted> {
        if self.cross {
            return self.commit_cross();
        }
        let shard = self.home.unwrap_or(0);
        self.stm.stat_shard(shard).on_commit_footprint(
            self.id,
            self.scratch.write_blocks.len() as u64,
            self.scratch.log.len() as u64,
        );
        self.publish();
        Ok((shard, 1))
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
        self.release_commit_grants();
        stm.stat_shard(self.home.unwrap_or(0))
            .add_stall_retries(self.id, self.stall_retries);
        self.stall_retries = 0;
        self.finished = true;
    }
}

impl<T: ConcurrentTable, P: Probe> Drop for Txn<'_, T, P> {
    fn drop(&mut self) {
        // A panic inside the body (or an early return path we didn't see)
        // must not leak grants in any shard, or the batched stall count.
        self.finish();
    }
}

impl<T: ConcurrentTable, P: Probe> ReadOps for Txn<'_, T, P> {
    fn read(&mut self, addr: u64) -> Result<u64, Aborted> {
        self.reads += 1;
        if let Some(v) = self.scratch.wbuf.get(addr) {
            return Ok(v);
        }
        let block = self.mapper.block_of(addr);
        let shard = self.route(block)?;
        if self.cross {
            return self.read_cross(addr, block);
        }
        self.acquire_eager(shard, block, Access::Read)?;
        Ok(self.stm.heap.load(addr))
    }

    fn read_count(&self) -> u64 {
        self.reads
    }
}

impl<T: ConcurrentTable, P: Probe> TxnOps for Txn<'_, T, P> {
    fn write(&mut self, addr: u64, value: u64) -> Result<(), Aborted> {
        self.writes += 1;
        let block = self.mapper.block_of(addr);
        let shard = self.route(block)?;
        if !self.cross {
            self.acquire_eager(shard, block, Access::Write)?;
        } else if !self.scratch.write_blocks.contains(block)
            && !self.scratch.read_blocks.contains(block)
        {
            self.scratch.touched.push(block);
        }
        self.scratch.write_blocks.insert(block, ());
        self.scratch.wbuf.insert(addr, value);
        Ok(())
    }

    fn write_count(&self) -> u64 {
        self.writes
    }
}

/// An in-flight **read-only** transaction on the eager engine: three words
/// on the stack, no scratch checkout, no ownership-table access.
///
/// Each read loads the heap word directly and then validates against the
/// publication gate (see the `readpath` module docs): if no commit-time
/// publication has started since this transaction's begin epoch, every
/// value read so far belongs to one quiescent heap snapshot. Cross-shard
/// commits publish under one bracket, so this path never observes a torn
/// cross-shard write set.
#[derive(Debug)]
pub struct ReadTxn<'s, T: ConcurrentTable, P: Probe = NoopProbe> {
    stm: &'s ShardedStm<T, P>,
    epoch: u64,
    reads: u64,
}

impl<T: ConcurrentTable, P: Probe> ReadOps for ReadTxn<'_, T, P> {
    fn read(&mut self, addr: u64) -> Result<u64, Aborted> {
        let value = self.stm.heap.load(addr);
        // Load first, fence, then re-check the gate: if any publication
        // started since begin, the value may be torn — abort and retry.
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
    use crate::StmBuilder;
    use tm_ownership::ConcurrentTaglessTable;

    const HEAP_WORDS: usize = 1 << 12;

    /// A tagless engine over `shards` shards sharing a 1024-entry budget,
    /// with probe `probe`.
    fn engine_probed<P: Probe>(shards: usize, probe: P) -> ShardedStm<ConcurrentTaglessTable, P> {
        let b = StmBuilder::new()
            .heap_words(HEAP_WORDS)
            .table_entries(1 << 10)
            .shards(shards);
        let tables = (0..shards)
            .map(|_| ConcurrentTaglessTable::new(b.shard_table_config()))
            .collect();
        ShardedStm::with_probe(HEAP_WORDS, tables, b.stm_config(), probe)
    }

    fn engine(shards: usize) -> ShardedStm<ConcurrentTaglessTable> {
        engine_probed(shards, NoopProbe)
    }

    /// Word address at the start of `shard`'s block range.
    fn addr_in(stm: &ShardedStm<ConcurrentTaglessTable>, shard: u32) -> u64 {
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
        let stm = engine_probed(4, Arc::clone(&recorder));
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
