//! A versioned (invisible-reader) tagless ownership table.
//!
//! The paper's §2.1 notes that "even STM implementations that do not visibly
//! track readers would need to assign an ownership table entry for the read
//! location to record version numbers". This module is that organization —
//! the per-stripe versioned-lock array of TL2/McRT-style STMs:
//!
//! * each entry packs a **write-lock bit** and a **version number**;
//! * readers never write the table: they sample the version, read the data,
//!   and *validate* the version at commit;
//! * writers lock entries at commit, publish, and release by storing a
//!   fresh version.
//!
//! The table is still **tagless**: every block hashing to an entry shares
//! its version word, so a commit that bumps an entry's version spuriously
//! invalidates concurrent readers of *different* blocks that merely alias
//! there. The paper's birthday-paradox analysis applies to this organization
//! unchanged — false conflicts just surface as validation aborts instead of
//! acquisition conflicts, which `tm-stm`'s lazy engine demonstrates.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::entry::ConflictClass;
use crate::hashing::{BlockAddr, EntryIndex, TableConfig};

/// Entry encoding: bit 0 = locked, bits 1..34 = version, bits 34..64 = the
/// *fingerprint* of the block the last writer (or current locker) covered.
///
/// The fingerprint lets an aborting reader attribute its abort: if the
/// version moved (or the entry is locked) and the recorded fingerprint names
/// a *different* block than the one being read, the invalidation was pure
/// table aliasing — a false conflict. Fingerprints are exact for block
/// addresses below 2^30 − 2 (every workload in this workspace) and saturate
/// above; 0 means "unknown". The version field wraps at 2^33 (~8.6 G
/// writing commits), far beyond any run this repo performs.
const LOCKED: u64 = 1;
const VERSION_BITS: u32 = 33;
const VERSION_MASK: u64 = (1 << VERSION_BITS) - 1;
const FP_SHIFT: u32 = 1 + VERSION_BITS;

/// Fingerprint value meaning "no information".
pub const FP_NONE: u32 = 0;
/// Fingerprint value meaning "block address out of encodable range".
pub const FP_SATURATED: u32 = (1 << 30) - 1;

/// The block fingerprint stored in an entry word: exact (`block + 1`) below
/// the saturation bound, [`FP_SATURATED`] above it.
#[inline]
pub fn fingerprint_of(block: BlockAddr) -> u32 {
    if block >= (FP_SATURATED - 1) as u64 {
        FP_SATURATED
    } else {
        block as u32 + 1
    }
}

/// Classify a conflict by comparing the fingerprint found in an entry word
/// (`theirs`: the block of the writer that locked or last bumped it)
/// against the fingerprint of the block accessed there (`mine`). Unknown or
/// saturated fingerprints on either side prove nothing.
#[inline]
pub fn classify_fp(theirs: u32, mine: u32) -> ConflictClass {
    if theirs == FP_NONE || theirs == FP_SATURATED || mine == FP_NONE || mine == FP_SATURATED {
        ConflictClass::Unknown
    } else if theirs == mine {
        ConflictClass::KnownTrue
    } else {
        ConflictClass::KnownFalse
    }
}

#[inline]
fn pack(version: u64, locked: bool, fp: u32) -> u64 {
    ((version & VERSION_MASK) << 1) | locked as u64 | ((fp as u64) << FP_SHIFT)
}

/// A snapshot of one entry's versioned lock word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamp {
    /// The version at sampling time.
    pub version: u64,
    /// Whether the entry was write-locked.
    pub locked: bool,
    /// Fingerprint of the block the last writer (or, while locked, the
    /// locking writer) covered at this entry; [`FP_NONE`] when unknown.
    pub fp: u32,
}

impl Stamp {
    #[inline]
    fn from_word(word: u64) -> Self {
        Stamp {
            version: (word >> 1) & VERSION_MASK,
            locked: word & LOCKED != 0,
            fp: (word >> FP_SHIFT) as u32,
        }
    }
}

/// Statistics counters for the versioned table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VersionedStats {
    /// Version samples taken by readers.
    pub samples: u64,
    /// Samples that found the entry locked.
    pub sampled_locked: u64,
    /// Successful lock acquisitions.
    pub locks: u64,
    /// Failed lock attempts (entry already locked).
    pub lock_conflicts: u64,
    /// Commit-time validations performed.
    pub validations: u64,
    /// Validations that failed (version moved or entry locked by another).
    pub validation_failures: u64,
}

#[derive(Debug, Default)]
struct Counters {
    samples: AtomicU64,
    sampled_locked: AtomicU64,
    locks: AtomicU64,
    lock_conflicts: AtomicU64,
    validations: AtomicU64,
    validation_failures: AtomicU64,
}

/// The versioned-lock ownership table (thread-safe).
#[derive(Debug)]
pub struct VersionedTable {
    cfg: TableConfig,
    entries: Vec<AtomicU64>,
    counters: Counters,
}

impl VersionedTable {
    /// Build a table from `cfg`; all entries start unlocked at version 0.
    pub fn new(cfg: TableConfig) -> Self {
        let n = cfg.num_entries();
        let mut entries = Vec::with_capacity(n);
        entries.resize_with(n, || AtomicU64::new(pack(0, false, FP_NONE)));
        Self {
            cfg,
            entries,
            counters: Counters::default(),
        }
    }

    /// Convenience constructor with default geometry.
    pub fn with_entries(n: usize) -> Self {
        Self::new(TableConfig::new(n))
    }

    /// The configuration.
    pub fn config(&self) -> &TableConfig {
        &self.cfg
    }

    /// Number of entries (the paper's `N`).
    pub fn num_entries(&self) -> usize {
        self.cfg.num_entries()
    }

    /// Entry index covering `block`.
    #[inline]
    pub fn entry_of(&self, block: BlockAddr) -> EntryIndex {
        self.cfg.entry_of(block)
    }

    /// Sample the versioned lock word of `entry` (reader protocol step 1;
    /// repeated after the data read to detect concurrent writers).
    #[inline]
    pub fn sample(&self, entry: EntryIndex) -> Stamp {
        self.counters.samples.fetch_add(1, Ordering::Relaxed);
        let s = Stamp::from_word(self.entries[entry].load(Ordering::Acquire));
        if s.locked {
            self.counters.sampled_locked.fetch_add(1, Ordering::Relaxed);
        }
        s
    }

    /// Attempt to write-lock `entry`, expecting it unlocked at `version`.
    /// Returns whether the lock was obtained. Equivalent to
    /// [`VersionedTable::try_lock_fp`] with no fingerprint.
    #[inline]
    pub fn try_lock(&self, entry: EntryIndex, version: u64) -> bool {
        self.try_lock_fp(entry, version, FP_NONE).is_ok()
    }

    /// Attempt to write-lock `entry`, expecting it unlocked at `version`,
    /// installing `fp` (the fingerprint of the block being written) in the
    /// locked word so concurrent aborters can classify their conflicts
    /// against this lock. On failure, returns the stamp that blocked the
    /// lock: the word as this attempt saw it, which a later sample may no
    /// longer show (the blocking locker may have restored the entry since).
    #[inline]
    pub fn try_lock_fp(&self, entry: EntryIndex, version: u64, fp: u32) -> Result<(), Stamp> {
        // Load-check-CAS rather than a blind CAS: the stored word carries the
        // previous writer's fingerprint, which the caller cannot know.
        let cell = &self.entries[entry];
        let cur = cell.load(Ordering::Acquire);
        let s = Stamp::from_word(cur);
        let result = if s.locked || s.version != version {
            Err(s)
        } else {
            cell.compare_exchange(
                cur,
                pack(version, true, fp),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(|_| ())
            .map_err(Stamp::from_word)
        };
        let counter = match result {
            Ok(()) => &self.counters.locks,
            Err(_) => &self.counters.lock_conflicts,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Release a lock previously obtained with [`VersionedTable::try_lock`],
    /// installing `new_version` (writer commit). The fingerprint installed
    /// at lock time is preserved: the entry now names the block the
    /// committing writer covered.
    #[inline]
    pub fn unlock_bump(&self, entry: EntryIndex, new_version: u64) {
        let s = Stamp::from_word(self.entries[entry].load(Ordering::Relaxed));
        debug_assert!(s.locked, "unlock_bump on unlocked entry");
        self.entries[entry].store(pack(new_version, false, s.fp), Ordering::Release);
    }

    /// Release a lock restoring the pre-lock version (writer abort), with no
    /// fingerprint information. Prefer [`VersionedTable::unlock_restore_fp`]
    /// when the pre-lock stamp is at hand.
    #[inline]
    pub fn unlock_restore(&self, entry: EntryIndex, old_version: u64) {
        self.unlock_restore_fp(entry, old_version, FP_NONE);
    }

    /// Release a lock restoring the pre-lock version *and* fingerprint
    /// (writer abort): readers that later fail against this entry classify
    /// against the original writer's block, not the aborted locker's.
    #[inline]
    pub fn unlock_restore_fp(&self, entry: EntryIndex, old_version: u64, old_fp: u32) {
        debug_assert!(
            Stamp::from_word(self.entries[entry].load(Ordering::Relaxed)).locked,
            "unlock_restore on unlocked entry"
        );
        self.entries[entry].store(pack(old_version, false, old_fp), Ordering::Release);
    }

    /// Commit-time read validation: the entry must be unlocked and still at
    /// `expected_version`. `locked_by_me` lets a transaction pass entries it
    /// locked itself (read-write overlap at the same entry). On failure,
    /// returns the stamp that failed it.
    #[inline]
    pub fn validate(
        &self,
        entry: EntryIndex,
        expected_version: u64,
        locked_by_me: bool,
    ) -> Result<(), Stamp> {
        self.counters.validations.fetch_add(1, Ordering::Relaxed);
        let s = Stamp::from_word(self.entries[entry].load(Ordering::Acquire));
        if s.version == expected_version && (!s.locked || locked_by_me) {
            Ok(())
        } else {
            self.counters
                .validation_failures
                .fetch_add(1, Ordering::Relaxed);
            Err(s)
        }
    }

    /// Copy the statistics counters.
    pub fn stats(&self) -> VersionedStats {
        VersionedStats {
            samples: self.counters.samples.load(Ordering::Relaxed),
            sampled_locked: self.counters.sampled_locked.load(Ordering::Relaxed),
            locks: self.counters.locks.load(Ordering::Relaxed),
            lock_conflicts: self.counters.lock_conflicts.load(Ordering::Relaxed),
            validations: self.counters.validations.load(Ordering::Relaxed),
            validation_failures: self.counters.validation_failures.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::HashKind;

    fn table(n: usize) -> VersionedTable {
        VersionedTable::new(TableConfig::new(n).with_hash(HashKind::Mask))
    }

    #[test]
    fn sample_lock_bump_cycle() {
        let t = table(16);
        let e = t.entry_of(3);
        let s = t.sample(e);
        assert_eq!(
            s,
            Stamp {
                version: 0,
                locked: false,
                fp: FP_NONE
            }
        );

        assert!(t.try_lock(e, 0));
        assert!(t.sample(e).locked);
        // Second lock attempt fails.
        assert!(!t.try_lock(e, 0));

        t.unlock_bump(e, 7);
        let s = t.sample(e);
        assert_eq!(
            s,
            Stamp {
                version: 7,
                locked: false,
                fp: FP_NONE
            }
        );
    }

    #[test]
    fn fingerprint_installed_preserved_and_restored() {
        let t = table(16);
        let e = 4;
        // Lock with block 9's fingerprint; a bump preserves it.
        assert!(t.try_lock_fp(e, 0, fingerprint_of(9)).is_ok());
        assert_eq!(t.sample(e).fp, fingerprint_of(9));
        t.unlock_bump(e, 1);
        let s = t.sample(e);
        assert!(!s.locked);
        assert_eq!(s.fp, fingerprint_of(9));
        assert_eq!(
            classify_fp(s.fp, fingerprint_of(10)),
            ConflictClass::KnownFalse
        );
        assert_eq!(
            classify_fp(s.fp, fingerprint_of(9)),
            ConflictClass::KnownTrue
        );

        // An aborting locker restores the previous writer's fingerprint.
        assert!(t.try_lock_fp(e, 1, fingerprint_of(25)).is_ok());
        assert_eq!(t.sample(e).fp, fingerprint_of(25));
        t.unlock_restore_fp(e, 1, s.fp);
        let s = t.sample(e);
        assert_eq!((s.version, s.locked, s.fp), (1, false, fingerprint_of(9)));

        // Unknown and saturated fingerprints prove nothing, on either side.
        let mine = fingerprint_of(3);
        for (theirs, mine) in [
            (FP_NONE, mine),
            (FP_SATURATED, mine),
            (fingerprint_of(9), FP_NONE),
            (fingerprint_of(9), FP_SATURATED),
        ] {
            assert_eq!(classify_fp(theirs, mine), ConflictClass::Unknown);
        }
        assert_eq!(fingerprint_of(u64::MAX), FP_SATURATED);
    }

    #[test]
    fn failed_lock_reports_the_blocking_stamp_after_restore() {
        // A writer of block 25 finds the entry locked by a writer of block
        // 9, which then aborts and restores the entry — to the block-25
        // writer's *own* earlier fingerprint. The blocking stamp must name
        // block 9 (false conflict); a re-sample would read as a true one.
        let t = table(16);
        let e = 4;
        t.try_lock_fp(e, 0, fingerprint_of(25)).unwrap();
        t.unlock_bump(e, 1);
        t.try_lock_fp(e, 1, fingerprint_of(9)).unwrap();
        let seen = t.try_lock_fp(e, 1, fingerprint_of(25)).unwrap_err();
        assert_eq!(t.validate(e, 1, false).unwrap_err(), seen);
        t.unlock_restore_fp(e, 1, fingerprint_of(25));

        assert_eq!((seen.locked, seen.fp), (true, fingerprint_of(9)));
        let mine = fingerprint_of(25);
        assert_eq!(classify_fp(seen.fp, mine), ConflictClass::KnownFalse);
        assert_eq!(classify_fp(t.sample(e).fp, mine), ConflictClass::KnownTrue);
    }

    #[test]
    fn lock_fails_on_stale_version() {
        let t = table(16);
        let e = 5;
        assert!(t.try_lock(e, 0));
        t.unlock_bump(e, 1);
        // Expecting the old version: must fail even though unlocked.
        assert!(!t.try_lock(e, 0));
        assert!(t.try_lock(e, 1));
        t.unlock_restore(e, 1);
        assert_eq!(t.sample(e).version, 1);
    }

    #[test]
    fn validation_semantics() {
        let t = table(16);
        let e = 2;
        assert!(t.validate(e, 0, false).is_ok());
        assert!(t.validate(e, 9, false).is_err());
        assert!(t.try_lock(e, 0));
        assert!(
            t.validate(e, 0, false).is_err(),
            "locked by another txn must fail"
        );
        assert!(t.validate(e, 0, true).is_ok(), "own lock passes");
        t.unlock_bump(e, 3);
        assert!(t.validate(e, 0, false).is_err(), "version moved");
        assert!(t.validate(e, 3, false).is_ok());
    }

    #[test]
    fn aliasing_blocks_share_version_word() {
        // The tagless property: blocks 3 and 19 share entry 3 in a 16-entry
        // mask table, so bumping one invalidates readers of the other.
        let t = table(16);
        let (e_a, e_b) = (t.entry_of(3), t.entry_of(19));
        assert_eq!(e_a, e_b);
        let read_stamp = t.sample(e_a);
        assert!(t.try_lock(e_b, 0));
        t.unlock_bump(e_b, 1);
        assert!(
            t.validate(e_a, read_stamp.version, false).is_err(),
            "reader of block 3 must be (falsely) invalidated by writer of block 19"
        );
    }

    #[test]
    fn stats_accumulate() {
        let t = table(16);
        t.sample(0);
        t.try_lock(0, 0);
        t.sample(0); // locked sample
        t.try_lock(0, 0); // conflict
        let _ = t.validate(0, 0, true);
        let _ = t.validate(0, 5, false); // failure
        let s = t.stats();
        assert_eq!(s.samples, 2);
        assert_eq!(s.sampled_locked, 1);
        assert_eq!(s.locks, 1);
        assert_eq!(s.lock_conflicts, 1);
        assert_eq!(s.validations, 2);
        assert_eq!(s.validation_failures, 1);
    }

    #[test]
    fn concurrent_lock_exclusivity() {
        use std::sync::atomic::AtomicU32;
        let t = std::sync::Arc::new(table(8));
        let in_cs = AtomicU32::new(0);
        crossbeam::scope(|s| {
            for _ in 0..4 {
                let (t, in_cs) = (&t, &in_cs);
                s.spawn(move |_| {
                    for _ in 0..2_000 {
                        let st = t.sample(0);
                        if !st.locked && t.try_lock(0, st.version) {
                            assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                            in_cs.fetch_sub(1, Ordering::SeqCst);
                            t.unlock_bump(0, st.version + 1);
                        }
                    }
                });
            }
        })
        .unwrap();
        let s = t.stats();
        assert!(s.locks > 0);
        assert_eq!(t.sample(0).version, s.locks);
    }
}
