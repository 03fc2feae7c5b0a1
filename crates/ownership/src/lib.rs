//! Ownership-table organizations for word-based software transactional memory.
//!
//! This crate implements the central data structure studied by Zilles & Rajwar
//! in *"Transactional Memory and the Birthday Paradox"* (SPAA 2007): the
//! **ownership table** that word-based STMs (and the STM fallback path of
//! hybrid TMs) use to track which transaction currently has read or write
//! permission over which regions of memory.
//!
//! Two organizations are provided, in both sequential (for Monte-Carlo
//! simulation) and concurrent (for a real multi-threaded STM) variants:
//!
//! * **Tagless** ([`TaglessTable`], [`ConcurrentTaglessTable`]) — the design
//!   used by most published word-based STMs (paper Figure 1). An entry grants
//!   permission at the granularity of *every* address that hashes to it, so
//!   distinct addresses that merely alias in the table produce **false
//!   conflicts**. The paper shows the false-conflict rate grows quadratically
//!   with transaction footprint and concurrency.
//! * **Tagged** ([`TaggedTable`], [`ConcurrentTaggedTable`]) — the alternative
//!   the paper advocates (Figure 7): each entry stores the address tag and
//!   chains aliasing records, so only genuine data conflicts are reported.
//!   The common case (zero or one record per entry) needs no indirection.
//!
//! Memory addresses are mapped to cache blocks by [`BlockMapper`] and blocks
//! to table entries by a pluggable [`HashKind`]; [`stats::TableStats`]
//! aggregates the occupancy, aliasing, and conflict counters the paper's
//! experiments measure.
//!
//! # Example
//!
//! ```
//! use tm_ownership::{Access, AcquireOutcome, HashKind, OwnershipTable, TableConfig, TaglessTable, TaggedTable};
//!
//! let cfg = TableConfig::new(1024).with_block_bytes(64).with_hash(HashKind::Mask);
//! let mut tagless = TaglessTable::new(cfg.clone());
//! let mut tagged = TaggedTable::new(cfg);
//!
//! // Two transactions touch *different* blocks that alias in a small table.
//! let (a, b) = (0u32, 1u32);
//! let block_x = 0x100 >> 6;
//! let block_y = block_x + 1024; // same entry under the mask hash
//!
//! assert!(matches!(tagless.acquire(a, block_x, Access::Write), AcquireOutcome::Granted));
//! // Tagless: false conflict — the table cannot tell the blocks apart.
//! assert!(matches!(tagless.acquire(b, block_y, Access::Write), AcquireOutcome::Conflict(_)));
//!
//! assert!(matches!(tagged.acquire(a, block_x, Access::Write), AcquireOutcome::Granted));
//! // Tagged: the chain keeps both records; no conflict.
//! assert!(matches!(tagged.acquire(b, block_y, Access::Write), AcquireOutcome::Granted));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod concurrent;
mod entry;
mod footprint;
mod hashing;
pub mod smallmap;
pub mod stats;
mod tagged;
mod tagless;
pub(crate) mod util;
pub mod versioned;

pub use concurrent::{ConcurrentTaggedTable, ConcurrentTaglessTable, GrantSnapshot};
pub use entry::{Access, AcquireOutcome, Conflict, ConflictClass, ConflictKind, Mode, ThreadId};
pub use footprint::TxnFootprint;
pub use hashing::{BlockAddr, BlockMapper, EntryIndex, HashKind, TableConfig};
pub use smallmap::{FastHashState, SmallKey, SmallMap};
pub use tagged::{Bucket, OwnershipRecord, TaggedTable};
pub use tagless::TaglessTable;
pub use versioned::{
    classify_fp, fingerprint_of, Stamp, VersionedStats, VersionedTable, FP_NONE, FP_SATURATED,
};

/// Common interface over sequential ownership-table organizations.
///
/// Both [`TaglessTable`] and [`TaggedTable`] implement this trait so
/// simulators and benchmarks can be generic over the organization under
/// study. Acquire/release granularity is a *cache block address* (see
/// [`BlockMapper`]); the table maps it to an entry internally.
pub trait OwnershipTable {
    /// Number of entries in the first-level table (the paper's `N`).
    fn num_entries(&self) -> usize;

    /// Attempt to obtain `access` permission on `block` for transaction `txn`.
    fn acquire(&mut self, txn: ThreadId, block: BlockAddr, access: Access) -> AcquireOutcome;

    /// Drop one unit of permission previously granted to `txn` on `block`.
    ///
    /// Callers (transaction descriptors) are responsible for releasing
    /// exactly what was granted; see [`TxnFootprint`] for the bookkeeping
    /// helper used throughout this workspace.
    fn release(&mut self, txn: ThreadId, block: BlockAddr, access: Access);

    /// Release every grant `txn` holds (used at transaction commit/abort).
    fn release_all(&mut self, txn: ThreadId);

    /// Number of entries currently holding at least one grant.
    fn occupancy(&self) -> usize;

    /// Statistics accumulated since construction or the last reset.
    fn stats(&self) -> &stats::TableStats;

    /// Reset all statistics counters (but not table contents).
    fn reset_stats(&mut self);

    /// Remove every grant and reset occupancy to zero (stats are kept).
    fn clear(&mut self);

    /// The configuration the table was built with.
    fn config(&self) -> &TableConfig;

    /// Map a block address to its entry index (exposed for analysis code).
    fn entry_of(&self, block: BlockAddr) -> EntryIndex {
        self.config().entry_of(block)
    }
}
