//! The sharded face of `tm-stm`'s one eager engine: [`StmBuilder`]
//! terminals that build [`ShardedStm`] at any shard count.
//!
//! The engine itself — the per-shard ownership tables and statistics, eager
//! single-shard transactions, escalation to cross-shard mode, and the
//! ordered two-phase cross-shard commit — lives in `tm_stm::sharded`, where
//! [`tm_stm::Stm`] is the same engine at one shard. This crate keeps the
//! builder extension ([`ShardedStmBuilder`]), which splits the builder's
//! total table-entry budget evenly across `S` shards, and re-exports the
//! engine types it mints. See `tm_stm::sharded` for the protocol.
//!
//! [`StmBuilder`]: tm_stm::StmBuilder
//!
//! # Quick start
//!
//! ```
//! use tm_shard::ShardedStmBuilder;
//! use tm_stm::{ReadOps, StmBuilder, TmEngine, TxnOps};
//!
//! let stm = StmBuilder::new()
//!     .heap_words(1 << 12)
//!     .table_entries(1 << 10)
//!     .shards(4)
//!     .build_sharded_tagless();
//! assert_eq!(stm.shard_count(), 4);
//!
//! // A transfer across the first and last shard commits atomically.
//! let far = (stm.shard_map().block_range(3).start) * 64;
//! stm.heap().store(0, 100);
//! stm.run(0, |txn| {
//!     let v = txn.read(0)?;
//!     txn.write(0, v - 30)?;
//!     txn.write(far, 30)
//! });
//! assert_eq!(stm.heap().load(0) + stm.heap().load(far), 100);
//! assert_eq!(stm.cross_shard_commits(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod builder;

pub use builder::ShardedStmBuilder;
pub use tm_stm::{AcquireOrder, ShardMap, ShardedStm, DEFAULT_COMMIT_SPINS};
