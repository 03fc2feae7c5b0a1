//! Group commit: coalescing compatible writes from different sessions into
//! one transaction.
//!
//! Every committed transaction pays fixed costs — ownership acquisition,
//! commit publication, stats — on top of its per-word work, and every
//! *extra* transaction in flight raises the paper's false-conflict
//! probability (Eq. 8 is quadratic in footprint but also `C(C−1)` in the
//! number of concurrent transactions). Group commit amortizes the fixed
//! cost and shrinks effective concurrency: a shard folds adjacent write
//! requests — possibly from different sessions — into one engine
//! transaction when their footprints are **compatible**.
//!
//! The compatibility rule is deliberately conservative:
//!
//! 1. **key-disjoint** — a request joins a group only if none of its
//!    canonical keys is already in the group. Disjointness makes every
//!    request's result independent of its position inside the batch, so
//!    batching can never change an individual response.
//! 2. **bounded footprint** — the group's total distinct-key count stays
//!    ≤ [`BatchPolicy::max_footprint`]. The abort probability of the merged
//!    transaction grows quadratically with its footprint (the paper's `W²`
//!    law), so unbounded merging would trade fixed-cost savings for
//!    retried *work*, which is the worse side of the trade.
//! 3. **self-clocking flush** — the shard flushes as soon as its inbox
//!    has nothing more queued, or once the batcher holds
//!    [`BatchPolicy::max_ops`] requests across all its groups. A lone
//!    write therefore commits at once, and groups grow only while a
//!    backlog exists: the load sets the group size, which keeps `W` as
//!    small as the load allows.
//!
//! Requests that fail rule 1 or 2 against the *open* group seal it and
//! start a new one; groups flush in FIFO order, so per-session request
//! order is preserved (a session's later write can never land in an
//! earlier group than its predecessor).

use std::collections::HashSet;
use std::sync::Arc;

use crate::fault::{CrashPoint, FaultState};

/// A write operation with canonicalized keys, ready to fold into a group.
#[derive(Clone, Debug)]
pub struct PendingWrite {
    /// Session that issued it (responses route back here).
    pub session: u64,
    /// Correlation id echoed in the response.
    pub id: u64,
    /// Idempotency token, when the request carried one (recovery and the
    /// response path use it to complete or abandon the dedup entry).
    pub token: Option<u64>,
    /// The operation itself.
    pub op: WriteOp,
}

/// The mutating operations, post-canonicalization (keys already reduced
/// modulo the store's key universe).
#[derive(Clone, Debug)]
pub enum WriteOp {
    /// Overwrite `key` with `value`.
    Put {
        /// Canonical key.
        key: u64,
        /// Stored value.
        value: u64,
    },
    /// `key += delta` (wrapping); response carries the new value.
    Add {
        /// Canonical key.
        key: u64,
        /// Added amount.
        delta: u64,
    },
    /// `k += delta` for every key, atomically.
    MultiAdd {
        /// Canonical keys (may repeat; repeats apply repeatedly).
        keys: Vec<u64>,
        /// Added amount per key.
        delta: u64,
    },
    /// Overwrite each key with its paired value, atomically. `keys` and
    /// `values` are parallel vectors of equal length (split apart so the
    /// footprint accounting can borrow the keys as one slice).
    MultiPut {
        /// Canonical keys (a repeated key keeps its last value).
        keys: Vec<u64>,
        /// Value written to the same-index key.
        values: Vec<u64>,
    },
}

impl WriteOp {
    /// The keys the operation touches.
    pub fn keys(&self) -> &[u64] {
        match self {
            WriteOp::Put { key, .. } | WriteOp::Add { key, .. } => std::slice::from_ref(key),
            WriteOp::MultiAdd { keys, .. } | WriteOp::MultiPut { keys, .. } => keys,
        }
    }
}

/// Group-commit policy knobs. When to flush is not one of them: the shard
/// flushes whenever its inbox runs dry (see the module docs, rule 3).
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Maximum requests pending in the batcher, across all its groups,
    /// before the shard flushes; hence also the most requests folded into
    /// one transaction. `1` disables group commit entirely (every write is
    /// its own transaction).
    pub max_ops: usize,
    /// Maximum distinct keys a merged transaction may touch (the `W` cap;
    /// see the module docs for why this is bounded).
    pub max_footprint: usize,
}

impl BatchPolicy {
    /// One transaction per request — the baseline group commit is measured
    /// against.
    pub fn unbatched() -> Self {
        Self {
            max_ops: 1,
            max_footprint: usize::MAX,
        }
    }

    /// A moderate default: up to 32 pending requests, and up to 128 keys
    /// per transaction.
    pub fn grouped() -> Self {
        Self {
            max_ops: 32,
            max_footprint: 128,
        }
    }
}

/// One sealed-or-open group: the requests that will run as one transaction.
#[derive(Debug, Default)]
pub struct Group {
    /// Folded requests, in arrival order.
    pub ops: Vec<PendingWrite>,
    keys: HashSet<u64>,
}

impl Group {
    /// Distinct keys across the group.
    pub fn footprint(&self) -> usize {
        self.keys.len()
    }

    fn accepts(&self, op: &WriteOp, policy: &BatchPolicy) -> bool {
        if self.ops.len() >= policy.max_ops {
            return false;
        }
        let keys = op.keys();
        if keys.iter().any(|k| self.keys.contains(k)) {
            return false; // rule 1: key-disjoint
        }
        // Rule 2, where a key repeated inside the op counts once. Ops are
        // short, so the distinct count is a scan over the op's own prefix;
        // it stops as soon as the count overflows the room left.
        let room = policy.max_footprint.saturating_sub(self.keys.len());
        if keys.len() <= room {
            return true;
        }
        let mut fresh = 0;
        for (i, k) in keys.iter().enumerate() {
            if !keys[..i].contains(k) {
                fresh += 1;
                if fresh > room {
                    return false;
                }
            }
        }
        true
    }

    fn push(&mut self, op: PendingWrite) {
        self.keys.extend(op.op.keys().iter().copied());
        self.ops.push(op);
    }
}

/// The per-shard write coalescer. Single-threaded by design: each shard
/// owns one, so no locking — cross-session coalescing happens because one
/// shard serves many sessions.
#[derive(Debug)]
pub struct Batcher {
    policy: BatchPolicy,
    groups: Vec<Group>,
    /// Armed fault plan, when chaos testing injects crashes here.
    faults: Option<Arc<FaultState>>,
}

impl Batcher {
    /// New empty batcher under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        Self::with_faults(policy, None)
    }

    /// New empty batcher whose `push` evaluates the
    /// [`CrashPoint::BatchEnqueue`] crash point against `faults`.
    pub fn with_faults(policy: BatchPolicy, faults: Option<Arc<FaultState>>) -> Self {
        Self {
            policy,
            groups: Vec::new(),
            faults,
        }
    }

    /// Enqueue a write. Joins the open (last) group when compatible,
    /// otherwise seals it and opens a new one.
    ///
    /// Crash point: an injected panic fires *before* the write is
    /// enqueued, modeling a failure between admission and the batcher —
    /// recovery must release the admission budget and poison the caller.
    pub fn push(&mut self, op: PendingWrite) {
        if let Some(f) = &self.faults {
            f.crash_point(CrashPoint::BatchEnqueue);
        }
        match self.groups.last_mut() {
            Some(g) if g.accepts(&op.op, &self.policy) => g.push(op),
            _ => {
                let mut g = Group::default();
                g.push(op);
                self.groups.push(g);
            }
        }
    }

    /// Nothing enqueued?
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Does any pending group hold a write from `session`? Reads from that
    /// session must flush first to preserve per-session response order and
    /// read-your-writes (groups are small, so the scan is cheap).
    pub fn has_session(&self, session: u64) -> bool {
        self.groups
            .iter()
            .any(|g| g.ops.iter().any(|op| op.session == session))
    }

    /// Must the shard flush before taking another message? True once the
    /// batcher holds [`BatchPolicy::max_ops`] requests across its groups.
    /// Overlapping keys seal groups after a few ops, so this total, not
    /// any one group's fill, is what bounds the batcher under backlog.
    pub fn should_flush(&self) -> bool {
        self.groups.iter().map(|g| g.ops.len()).sum::<usize>() >= self.policy.max_ops
    }

    /// Take every pending group, FIFO.
    pub fn drain(&mut self) -> Vec<Group> {
        std::mem::take(&mut self.groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(session: u64, id: u64, key: u64) -> PendingWrite {
        PendingWrite {
            session,
            id,
            token: None,
            op: WriteOp::Add { key, delta: 1 },
        }
    }

    fn multi_add(session: u64, keys: &[u64]) -> PendingWrite {
        PendingWrite {
            session,
            id: session,
            token: None,
            op: WriteOp::MultiAdd {
                keys: keys.to_vec(),
                delta: 1,
            },
        }
    }

    fn policy(max_ops: usize, max_footprint: usize) -> BatchPolicy {
        BatchPolicy {
            max_ops,
            max_footprint,
        }
    }

    #[test]
    fn disjoint_ops_coalesce_into_one_group() {
        let mut b = Batcher::new(policy(8, 64));
        for k in 0..5 {
            b.push(add(k, k, k));
        }
        let groups = b.drain();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].ops.len(), 5);
        assert_eq!(groups[0].footprint(), 5);
    }

    #[test]
    fn key_overlap_seals_the_group() {
        let mut b = Batcher::new(policy(8, 64));
        b.push(add(0, 0, 7));
        b.push(add(1, 1, 8));
        b.push(add(2, 2, 7)); // same key as op 0 → new group
        let groups = b.drain();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].ops.len(), 2);
        assert_eq!(groups[1].ops.len(), 1);
    }

    #[test]
    fn footprint_cap_seals_the_group() {
        let mut b = Batcher::new(policy(8, 4));
        b.push(multi_add(0, &[0, 1, 2]));
        b.push(multi_add(1, &[3, 4])); // 3 + 2 > 4 → sealed
        assert_eq!(b.drain().len(), 2);
    }

    #[test]
    fn repeated_keys_count_once_but_still_conflict() {
        // A key repeated inside one op counts once against max_footprint:
        // {0, 1} plus the single distinct key 2 fits a footprint of 3.
        let mut b = Batcher::new(policy(8, 3));
        b.push(multi_add(0, &[0, 1]));
        b.push(multi_add(1, &[2, 2, 2, 2]));
        let groups = b.drain();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].footprint(), 3);

        // Two new distinct keys overflow the same cap, however repeated.
        b.push(multi_add(0, &[0, 1]));
        b.push(multi_add(1, &[2, 3, 2, 3]));
        assert_eq!(b.drain().len(), 2);

        // An op that repeats a key already in the group still seals it.
        b.push(multi_add(0, &[5]));
        b.push(multi_add(1, &[5, 5]));
        assert_eq!(b.drain().len(), 2);
    }

    #[test]
    fn max_ops_triggers_flush_and_unbatched_never_groups() {
        // Writes to one key seal a group each: no group is full, but the
        // batcher holds max_ops requests across its groups and must flush.
        let mut b = Batcher::new(policy(3, 64));
        b.push(add(0, 0, 7));
        b.push(add(1, 1, 7));
        assert!(!b.should_flush());
        b.push(add(2, 2, 7));
        assert!(b.should_flush(), "max_ops pending must flush");
        assert_eq!(b.drain().len(), 3);
        assert!(!b.should_flush(), "drain resets the pending count");

        let mut u = Batcher::new(BatchPolicy::unbatched());
        u.push(add(0, 0, 0));
        assert!(u.should_flush(), "max_ops=1 flushes every write");
        u.push(add(1, 1, 1));
        let groups = u.drain();
        assert_eq!(groups.len(), 2, "max_ops=1 means one txn per request");
        assert!(u.is_empty());
    }

    #[test]
    fn push_crash_point_fires_before_enqueue() {
        use crate::fault::{CrashSchedule, FaultPlan, FrameFaults};
        let plan = FaultPlan {
            seed: 0,
            frame: FrameFaults::default(),
            crashes: vec![CrashSchedule {
                point: CrashPoint::BatchEnqueue,
                at_hit: 2,
            }],
            abort_storm_per_mille: 0,
        };
        let mut b = Batcher::with_faults(policy(8, 64), Some(plan.arm()));
        b.push(add(0, 0, 0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.push(add(1, 1, 1))));
        assert!(r.is_err(), "second push must hit the scheduled crash");
        // The crash fired before enqueue: the write is NOT in the batcher.
        let groups = b.drain();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].ops.len(), 1);
        assert_eq!(groups[0].ops[0].id, 0);
    }

    #[test]
    fn fifo_order_preserved_across_groups() {
        // A session's second write lands in a later group than its first
        // even when the second would fit an earlier-sealed group.
        let mut b = Batcher::new(policy(8, 64));
        b.push(add(0, 0, 1));
        b.push(add(0, 1, 1)); // overlaps → seals group 0
        b.push(add(0, 2, 2)); // joins group 1 (disjoint with key 1)
        let groups = b.drain();
        assert_eq!(groups.len(), 2);
        let order: Vec<u64> = groups
            .iter()
            .flat_map(|g| g.ops.iter().map(|o| o.id))
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
