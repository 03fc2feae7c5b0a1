//! The wait-free read-only path: a publication gate for the eager engine.
//!
//! Eager transactions buffer writes privately and publish them to the heap
//! only inside commit, after every ownership grant is held. A read-only
//! transaction that never touches the ownership table therefore needs just
//! one guarantee: it must not observe a *partially published* write set.
//! The `PublishGate` provides exactly that, as a sharded seqlock:
//!
//! - A committing writer with a non-empty write buffer bumps its shard's
//!   `ingress` counter, publishes its buffered stores, then bumps `egress`.
//! - A reader samples the gate at begin: if the summed `ingress` equals the
//!   summed `egress`, no publication is in flight and the sum is the
//!   reader's *epoch*. After every heap load it re-sums `ingress`; if the
//!   sum still equals the epoch, no publication even **started** since
//!   begin, so everything it has read belongs to one quiescent snapshot.
//!
//! Writers never wait for readers (they only increment their own shard —
//! wait-free), and readers never block writers; a reader that races a
//! publication simply retries. Ordering argument, given that heap loads
//! and stores are `Relaxed`:
//!
//! - Writer: `ingress.fetch_add(Relaxed)` → `fence(Release)` → heap stores
//!   → `egress.fetch_add(Release)`. The release fence orders the ingress
//!   bump before every heap store as observed through any later acquire.
//! - Reader validation: heap load → `fence(Acquire)` → `ingress` loads.
//!   If the reader observed any store from writer W's publication, the
//!   acquire fence after the load synchronizes with W's release fence, so
//!   the re-summed `ingress` includes W's bump and no longer equals the
//!   begin epoch — the read is rejected. Contrapositive: an accepted read
//!   saw no in-flight publication.
//! - Reader begin sums `egress` **before** `ingress` (both `Acquire`). For
//!   any writer whose `egress` bump is included, the `Release`-`Acquire`
//!   pair makes its earlier `ingress` bump visible to the later ingress
//!   loads, so the observed ingress multiset always covers the observed
//!   egress multiset per shard; sum equality therefore means every started
//!   publication had finished, and `Acquire` on `egress` makes all of its
//!   stores visible to the reader's subsequent loads.
//!
//! Sixteen shards selected by thread id keep the writer-side bumps off a
//! single shared line (same stripe discipline as the stats stripes); the
//! reader-side sum walks sixteen padded lines, a fine trade because the
//! eager reader validates with one fence plus sixteen relaxed loads and
//! still performs no CAS, takes no lock, and allocates nothing.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::stats::Padded;

/// Tuning for the read-only path, set via `StmBuilder::read_path`.
///
/// The eager engine spins at `run_read` begin while a writer is mid-publication;
/// the lazy engine spins per read while a commit-time lock is held. Once
/// the budget is spent the attempt aborts and re-enters through the
/// engine's normal retry/backoff policy, so a stalled writer cannot wedge a
/// reader in a silent spin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadPathPolicy {
    /// Spins before an attempt gives up and retries through backoff.
    pub max_spins: u32,
}

impl Default for ReadPathPolicy {
    fn default() -> Self {
        // Publication windows are a handful of relaxed stores, so a small
        // budget rides out almost every race without burning a backoff.
        ReadPathPolicy { max_spins: 64 }
    }
}

impl ReadPathPolicy {
    /// A policy that spins `max_spins` times before backing off.
    pub fn spins(max_spins: u32) -> Self {
        ReadPathPolicy { max_spins }
    }
}

/// Shards in the gate. Power of two (index by mask), matching the stats
/// stripe count so one thread id picks the same slot in both.
const GATE_SHARDS: usize = 16;

#[derive(Debug, Default)]
struct GateShard {
    ingress: AtomicU64,
    egress: AtomicU64,
}

/// The sharded seqlock described in the module docs. One gate covers one
/// heap: a multi-shard commit publishing under a single bracket is atomic
/// to every reader of that heap.
#[derive(Debug)]
pub(crate) struct PublishGate {
    shards: Box<[Padded<GateShard>]>,
}

impl Default for PublishGate {
    fn default() -> Self {
        PublishGate {
            shards: (0..GATE_SHARDS).map(|_| Padded::default()).collect(),
        }
    }
}

impl PublishGate {
    #[inline]
    fn shard(&self, me: u32) -> &GateShard {
        &self.shards[me as usize & (GATE_SHARDS - 1)].0
    }

    /// Writer prologue: announce an in-flight publication. Must be paired
    /// with [`publish_end`](Self::publish_end) on the same thread id, with
    /// the heap stores in between. Wait-free: one uncontended-by-readers
    /// RMW plus a fence.
    #[inline]
    pub(crate) fn publish_begin(&self, me: u32) {
        self.shard(me).ingress.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::Release);
    }

    /// Writer epilogue: the publication is complete.
    #[inline]
    pub(crate) fn publish_end(&self, me: u32) {
        self.shard(me).egress.fetch_add(1, Ordering::Release);
    }

    /// Reader begin: `Some(epoch)` when no publication is in flight, `None`
    /// when one is (caller spins or aborts). Egress is summed first — see
    /// the module docs for why that order is load-bearing.
    #[inline]
    pub(crate) fn reader_epoch(&self) -> Option<u64> {
        let mut egress = 0u64;
        for shard in self.shards.iter() {
            egress += shard.0.egress.load(Ordering::Acquire);
        }
        let mut ingress = 0u64;
        for shard in self.shards.iter() {
            ingress += shard.0.ingress.load(Ordering::Acquire);
        }
        (ingress == egress).then_some(ingress)
    }

    /// Reader validation: true when no publication has *started* since the
    /// epoch was taken, i.e. every load so far came from one quiescent
    /// snapshot.
    #[inline]
    pub(crate) fn still_at(&self, epoch: u64) -> bool {
        fence(Ordering::Acquire);
        let mut ingress = 0u64;
        for shard in self.shards.iter() {
            ingress += shard.0.ingress.load(Ordering::Relaxed);
        }
        ingress == epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_has_spin_budget() {
        assert!(ReadPathPolicy::default().max_spins > 0);
        assert_eq!(ReadPathPolicy::spins(7).max_spins, 7);
    }

    #[test]
    fn gate_tracks_publications() {
        let gate = PublishGate::default();
        let epoch = gate.reader_epoch().expect("quiescent at start");
        assert!(gate.still_at(epoch));

        gate.publish_begin(3);
        // Mid-publication: no epoch is available and the old one is stale.
        assert_eq!(gate.reader_epoch(), None);
        assert!(!gate.still_at(epoch));
        gate.publish_end(3);

        let next = gate.reader_epoch().expect("quiescent after publish");
        assert_eq!(next, epoch + 1);
        assert!(gate.still_at(next));
    }

    #[test]
    fn shards_sum_across_thread_ids() {
        let gate = PublishGate::default();
        // Thread ids 0 and 16 share a shard; 1 does not. The sums must be
        // shard-layout-independent.
        for me in [0u32, 16, 1] {
            gate.publish_begin(me);
            gate.publish_end(me);
        }
        assert_eq!(gate.reader_epoch(), Some(3));
    }
}
