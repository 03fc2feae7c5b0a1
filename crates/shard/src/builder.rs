//! [`StmBuilder`] terminals for the sharded engine.

use tm_ownership::concurrent::ConcurrentTable;
use tm_ownership::{ConcurrentTaggedTable, ConcurrentTaglessTable};
use tm_stm::{Probe, ShardedStm, StmBuilder};

/// Terminal methods extending [`StmBuilder`] with the sharded engine, so
/// sharded builds read exactly like unsharded ones:
///
/// ```
/// use tm_shard::ShardedStmBuilder;
/// use tm_stm::{StmBuilder, TmEngine, TxnOps};
///
/// let stm = StmBuilder::new()
///     .heap_words(1 << 12)
///     .table_entries(1 << 10) // TOTAL budget, split across shards
///     .shards(4)
///     .build_sharded_tagless();
/// stm.run(0, |txn| txn.write(0, 7));
/// assert_eq!(stm.heap().load(0), 7);
/// ```
///
/// The builder's `table_entries` is the **total** entry budget: each shard
/// gets `ceil(entries / shards)` so a sharded engine and an unsharded one
/// at the same `table_entries` occupy (essentially) the same memory — the
/// comparison the harness's `--shards` axis makes is equal-resource, not
/// S-times-the-table.
pub trait ShardedStmBuilder {
    /// The probe type the built engine carries, inherited from the
    /// builder's `.probe(..)` axis.
    type Probe: Probe;

    /// A sharded eager STM over per-shard **tagless** tables (paper
    /// Figure 1 geometry per shard).
    fn build_sharded_tagless(&self) -> ShardedStm<ConcurrentTaglessTable, Self::Probe>;

    /// A sharded eager STM over per-shard **tagged** chained tables (paper
    /// Figure 7 geometry per shard).
    fn build_sharded_tagged(&self) -> ShardedStm<ConcurrentTaggedTable, Self::Probe>;

    /// A sharded eager STM over caller-built tables, one per shard in
    /// shard order — the extension point for wrapped tables (`tm-adaptive`
    /// resizable shards, instrumented tables). Build each from
    /// [`StmBuilder::shard_table_config`] so geometry knobs apply.
    fn build_sharded_with_tables<T: ConcurrentTable>(
        &self,
        tables: Vec<T>,
    ) -> ShardedStm<T, Self::Probe>;
}

impl<P: Probe + Clone> ShardedStmBuilder for StmBuilder<P> {
    type Probe = P;

    fn build_sharded_tagless(&self) -> ShardedStm<ConcurrentTaglessTable, P> {
        let cfg = self.shard_table_config();
        let tables = (0..self.configured_shards())
            .map(|_| ConcurrentTaglessTable::new(cfg.clone()))
            .collect();
        self.build_sharded_with_tables(tables)
    }

    fn build_sharded_tagged(&self) -> ShardedStm<ConcurrentTaggedTable, P> {
        let cfg = self.shard_table_config();
        let tables = (0..self.configured_shards())
            .map(|_| ConcurrentTaggedTable::new(cfg.clone()))
            .collect();
        self.build_sharded_with_tables(tables)
    }

    fn build_sharded_with_tables<T: ConcurrentTable>(&self, tables: Vec<T>) -> ShardedStm<T, P> {
        assert_eq!(
            tables.len(),
            self.configured_shards(),
            "table count must match the configured shard count"
        );
        ShardedStm::with_probe(
            self.configured_heap_words(),
            tables,
            self.stm_config(),
            self.configured_probe(),
        )
    }
}
