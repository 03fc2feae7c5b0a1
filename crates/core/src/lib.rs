//! A word-based software transactional memory with pluggable ownership
//! tables — and **one transaction API over every engine**.
//!
//! This crate is the executable substrate of Zilles & Rajwar's *Transactional
//! Memory and the Birthday Paradox* (SPAA 2007). The paper's claim is that
//! false-conflict scaling is a property of the *ownership-table
//! organization*, not of any one STM protocol; the crate's API is shaped by
//! that claim. Two traits define the whole surface:
//!
//! * [`TxnOps`] — what a transaction body does: `read`/`write`/`update`/
//!   `retry` plus per-attempt counters. Data structures and workloads are
//!   written once against it. Its supertrait [`ReadOps`] is the read-only
//!   subset, and the bound on [`TmEngine::run_read`] bodies — so read-only
//!   transactions cannot write *by construction*.
//! * [`TmEngine`] — what runs bodies: `run`/`try_run`/`run_with` under a
//!   pluggable [`RetryPolicy`], the wait-free read-only path (`run_read`,
//!   tuned by [`ReadPathPolicy`]), the shared [`Heap`], and a unified
//!   [`EngineStats`] snapshot (`since()`, `abort_ratio()`) that makes
//!   cross-engine measurements commensurable.
//!
//! Two protocols implement them, and the ownership table is the only
//! thing that varies within each:
//!
//! * **Eager** — one engine, [`ShardedStm`] (module [`sharded`]): eager
//!   ownership acquisition, buffered writes, bounded stall then
//!   abort-and-retry. [`Stm`] is its one-shard face, built by
//!   [`StmBuilder::build_tagless`] over the tagless table (paper Figure 1)
//!   most published word-based STMs use — cheap per-access metadata, but
//!   transactions touching *different* data abort each other whenever
//!   their blocks alias: the **false conflicts** whose birthday-paradox
//!   scaling is the paper's subject — or by [`StmBuilder::build_tagged`]
//!   over the tagged, chained table (paper Figure 7) the paper advocates,
//!   where only genuine data conflicts abort anyone. It is generic over
//!   [`ConcurrentTable`], so wrapped organizations (e.g. `tm-adaptive`'s
//!   online-resizable table) slot in the same way, and `tm-shard` builds
//!   it at `S > 1` shards.
//! * **Lazy TL2-style** ([`StmBuilder::build_lazy`]) — [`LazyStm`], an
//!   invisible-reader, commit-time-locking engine over the versioned
//!   tagless table, demonstrating that the false-conflict law survives a
//!   complete protocol change.
//!
//! Both run every attempt through one retry driver, which owns the attempt
//! budget, randomized exponential backoff and the telemetry probe
//! sequence; an engine supplies only how an attempt begins, commits and
//! aborts.
//!
//! Above the word-granular traits sits the **typed object layer** (the
//! [`typed`] module): [`TxWord`]/[`TxLayout`] codecs map values onto
//! consecutive heap words, [`TRef<T>`] is a typed handle whose
//! `get`/`set`/`update` compose into any transaction, [`Region`] allocates
//! static layout, and [`TxAlloc`] allocates and frees cells *inside*
//! transactions (aborts roll allocations back). User code — including all
//! of `tm-structs` — never touches a raw address.
//!
//! The eager engine adds optionally bounded stalling
//! ([`ContentionPolicy::Stall`]) and optional **strong isolation**
//! ([`Stm::strong_read`]/[`Stm::strong_write`]) where even
//! non-transactional accesses consult the table (paper §6).
//!
//! # One body, every engine
//!
//! [`StmBuilder`] is the single constructor; each engine is a typed
//! terminal. The same closure runs unchanged on all of them:
//!
//! ```
//! use tm_stm::{ReadOps, StmBuilder, TmEngine, TxnOps};
//!
//! // Transfer 30 from account A to account B, atomically.
//! fn transfer<E: TmEngine>(stm: &E) -> (u64, u64) {
//!     stm.heap().store(0, 100); // account A
//!     stm.heap().store(512 * 8, 50); // account B (word 512)
//!     stm.run(0, |txn| {
//!         let a = txn.read(0)?;
//!         let b = txn.read(512 * 8)?;
//!         txn.write(0, a - 30)?;
//!         txn.write(512 * 8, b + 30)?;
//!         Ok(())
//!     });
//!     (stm.heap().load(0), stm.heap().load(512 * 8))
//! }
//!
//! let builder = StmBuilder::new().heap_words(1024).table_entries(4096);
//! assert_eq!(transfer(&builder.build_tagged()), (70, 80));
//! assert_eq!(transfer(&builder.build_tagless()), (70, 80));
//! assert_eq!(transfer(&builder.build_lazy()), (70, 80));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod alloc;
mod contention;
mod engine;
mod heap;
pub mod lazy;
mod map;
pub mod readpath;
mod region;
mod retry;
pub mod scratch;
pub mod sharded;
mod stats;
mod stm;
pub mod typed;

pub use alloc::TxAlloc;
pub use contention::{ContentionPolicy, RetryPolicy};
pub use engine::{ReadOps, StmBuilder, TmEngine, TxnOps};
pub use heap::{Heap, WORD_BYTES};
pub use lazy::{LazyReadTxn, LazyStm, LazyTxn};
pub use map::ShardMap;
pub use readpath::ReadPathPolicy;
pub use region::Region;
pub use retry::{Aborted, RetryLimitExceeded};
pub use scratch::{SmallKey, SmallMap, TxnScratch};
pub use sharded::{AcquireOrder, ReadTxn, ShardedStm, Txn, DEFAULT_COMMIT_SPINS};
pub use stats::EngineStats;
pub use stm::{tagged_stm, tagless_stm, Stm, StmConfig};
pub use typed::{CapacityError, TRef, TxLayout, TxResult, TxWord};

// Re-export the table types users need to build custom configurations.
pub use tm_ownership::concurrent::{ConcurrentTable, Held};
pub use tm_ownership::{ConcurrentTaggedTable, ConcurrentTaglessTable, HashKind, TableConfig};

// Re-export the telemetry layer: engines are generic over `Probe`, the
// default `NoopProbe` compiles the instrumentation away, and `Recorder`
// is the batteries-included histogram/abort-cause/flight-recorder probe.
pub use tm_telemetry::{
    AbortCause, EventKind, Histogram, NoopProbe, Probe, Recorder, ShardStats, TelemetrySnapshot,
    TxnEvent,
};
