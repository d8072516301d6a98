//! Per-node replicas: the read side of both replication backends.
//!
//! A [`Replica`] is a node-local copy of the state at a log position,
//! advanced by replaying committed entries — with the same hole rule as
//! every other fold: a claimed-but-uncommitted slot is skipped. The
//! `Replicated` and `NodeReplicated` backends read from the same
//! replicas and differ in how writes reach the log (a direct append vs a
//! flat-combined batch, see [`super::node_replicated`]) and in when a
//! replica exists:
//!
//! * `Replicated` replicas are **eager**: every node holds one from the
//!   moment the cell enters the policy, every operation first catches
//!   the caller's replica up to the tail with bounds-checked entry
//!   reads, and a catch-up that advanced publishes the node's applied
//!   watermark.
//! * `NodeReplicated` replicas are **lazy**: materialized on first use
//!   as one snapshot fetch of the footprint, and advanced with cheap
//!   unchecked entry reads only when the node asks
//!   ([`SyncCell::sync_replica`]).
//!
//! [`SyncCell::read_local`] serves either kind with **zero fabric
//! operations** once the replica exists.

use super::{lines, unframe, CellInner, SyncCell, SyncPolicy, SyncState};
use rack_sim::{NodeCtx, SimError};

/// A node-local copy of the state: everything below log index
/// `applied` folded in.
#[derive(Debug)]
pub(super) struct Replica<T> {
    pub(super) state: T,
    pub(super) applied: u64,
}

impl<T: SyncState> CellInner<T> {
    /// A replica of the folded state at its log position.
    fn snapshot(&self) -> Replica<T> {
        Replica {
            state: self.state.clone(),
            applied: self.applied,
        }
    }

    /// Give every node a replica of the folded state, free of charge:
    /// the caller has just published every node's watermark at
    /// `applied` (cell allocation, or the quiesce of a policy switch).
    pub(super) fn materialize_all(&mut self) {
        for me in 0..self.replicas.len() {
            self.replicas[me] = Some(self.snapshot());
        }
    }

    /// Node `me`'s replica state, or the folded state if it has none.
    pub(super) fn replica_state(&self, me: usize) -> &T {
        self.replicas[me].as_ref().map_or(&self.state, |r| &r.state)
    }

    /// The state a read on node `me` sees: its replica on the
    /// `Replicated` backend (caught up by the pre-op), the folded state
    /// otherwise.
    pub(super) fn view(&self, me: usize) -> &T {
        if self.policy == SyncPolicy::Replicated {
            self.replica_state(me)
        } else {
            &self.state
        }
    }
}

impl<T: SyncState> SyncCell<T> {
    /// One snapshot fetch of the state footprint (replica
    /// materialization, or a catch-up whose entries were collected).
    fn charge_snapshot(&self, ctx: &NodeCtx) {
        let lat = ctx.latency();
        ctx.charge(
            lines(self.footprint_bytes) * (lat.invalidate_line_ns + lat.local_write_ns)
                + lat.global_read_ns,
        );
    }

    /// Materialize `me`'s replica if absent: a copy of the folded state,
    /// charged as one snapshot fetch.
    fn materialize(&self, ctx: &NodeCtx, inner: &mut CellInner<T>, me: usize) {
        if inner.replicas[me].is_none() {
            self.charge_snapshot(ctx);
            inner.replicas[me] = Some(inner.snapshot());
        }
    }

    /// Advance `me`'s replica (if it exists) to `target` by replaying
    /// committed entries, holes skipped. When GC collected entries the
    /// replica still needed, it re-snapshots instead.
    ///
    /// An eager (`Replicated`) replica reads each entry bounds-checked,
    /// pays the local apply for every slot it passes, and publishes its
    /// watermark afterwards. Its snapshot is the one at the log head, so
    /// it still replays every retained entry; the folded state it copies
    /// is exactly that snapshot plus that replay.
    pub(super) fn replica_catch_up(
        &self,
        ctx: &NodeCtx,
        inner: &mut CellInner<T>,
        me: usize,
        target: u64,
    ) -> Result<(), SimError> {
        let eager = inner.policy == SyncPolicy::Replicated;
        let CellInner {
            state,
            applied,
            replicas,
            ..
        } = inner;
        let Some(rep) = replicas[me].as_mut() else {
            return Ok(());
        };
        if rep.applied >= target {
            return Ok(());
        }
        let head = self.log.head(ctx)?;
        let mut idx = rep.applied;
        if rep.applied < head {
            self.charge_snapshot(ctx);
            rep.state = state.clone();
            rep.applied = *applied;
            idx = if eager { head } else { rep.applied };
        }
        while idx < target {
            let entry = if eager {
                self.log.read(ctx, idx)?
            } else {
                self.log.read_entry(ctx, idx)?
            };
            let op = entry.as_deref().and_then(unframe).map(|(_, op)| op);
            if idx >= rep.applied {
                if let Some(op) = op {
                    rep.state.apply(op);
                }
                rep.applied = idx + 1;
            }
            if eager || op.is_some() {
                ctx.charge(ctx.latency().local_write_ns);
            }
            idx += 1;
        }
        if eager {
            self.applied_cells[me].store(ctx, target)?;
        }
        Ok(())
    }

    /// Read from this node's replica with **zero fabric operations**
    /// once it exists (a lazy replica's first use materializes it). The
    /// replica is a consistent — possibly stale — prefix of the log; use
    /// [`SyncCell::sync_replica`] first (or [`SyncCell::read`]) when the
    /// read is linearization-sensitive. Falls back to [`SyncCell::read`]
    /// on the non-replicated backends.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for a node the cell was not sized for.
    pub fn read_local<R>(&self, ctx: &NodeCtx, f: impl FnOnce(&T) -> R) -> Result<R, SimError> {
        let me = self.me(ctx)?;
        let mut inner = self.inner.lock();
        if !matches!(
            inner.policy,
            SyncPolicy::Replicated | SyncPolicy::NodeReplicated
        ) {
            drop(inner);
            return self.read(ctx, f);
        }
        self.materialize(ctx, &mut inner, me);
        ctx.charge(ctx.latency().local_read_ns);
        let out = f(inner.replica_state(me));
        self.post_op(ctx, &mut inner, me, true, false)?;
        Ok(out)
    }

    /// Explicitly catch this node's replica up to the current log tail
    /// (materializing it first if needed). Returns the replica's applied
    /// watermark.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn sync_replica(&self, ctx: &NodeCtx) -> Result<u64, SimError> {
        let me = self.me(ctx)?;
        let mut inner = self.inner.lock();
        self.materialize(ctx, &mut inner, me);
        let tail = self.log.tail(ctx)?;
        self.replica_catch_up(ctx, &mut inner, me, tail)?;
        Ok(inner.replicas[me].as_ref().map_or(0, |r| r.applied))
    }

    /// Rebuild this node's replica from `init` by replaying the whole
    /// committed log (holes skipped) — the restart path for a node whose
    /// local copy is lost or untrusted. The replica resumes at the
    /// replayed tail, so later catch-ups apply only new entries, and
    /// the node's watermark is published. Returns the entries replayed.
    /// Complete only while the log has not been garbage collected (as
    /// [`SyncCell::replay`]).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn recover_replica(&self, ctx: &NodeCtx, init: T) -> Result<u64, SimError> {
        let me = self.me(ctx)?;
        let (state, replayed, tail) = self.replay_to_tail(ctx, init)?;
        self.inner.lock().replicas[me] = Some(Replica {
            state,
            applied: tail,
        });
        self.applied_cells[me].store(ctx, tail)?;
        Ok(replayed)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
    use rack_sim::{Rack, RackConfig};
    use std::sync::Arc;

    /// Toy state: a register supporting add / set ops.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Counter {
        value: u64,
        ops: u64,
    }

    impl SyncState for Counter {
        fn apply(&mut self, op: &[u8]) {
            let Some((&kind, v)) = op.split_first() else {
                return;
            };
            let Ok(v) = v.try_into().map(u64::from_le_bytes) else {
                return;
            };
            if kind == 0 {
                self.value += v;
            } else {
                self.value = v;
            }
            self.ops += 1;
        }
    }

    fn add(v: u64) -> Vec<u8> {
        let mut op = vec![0u8];
        op.extend_from_slice(&v.to_le_bytes());
        op
    }

    fn set(v: u64) -> Vec<u8> {
        let mut op = vec![1u8];
        op.extend_from_slice(&v.to_le_bytes());
        op
    }

    fn replicated(rack: &Rack, capacity: usize) -> Arc<SyncCell<Counter>> {
        SyncCell::alloc(
            rack.global(),
            "test_replicas",
            SyncCellConfig::new(2, SyncPolicy::Replicated).with_log(capacity, 64),
            Counter::default(),
        )
        .unwrap()
    }

    #[test]
    fn replicas_converge_across_nodes() {
        let rack = Rack::new(RackConfig::small_test());
        let c = replicated(&rack, 64);
        let (n0, n1) = (rack.node(0), rack.node(1));
        c.update(&n0, &add(5)).unwrap();
        c.update(&n1, &add(7)).unwrap();
        c.update(&n0, &set(100)).unwrap();
        c.update(&n1, &add(1)).unwrap();
        for n in [&n0, &n1] {
            assert_eq!(c.read(n, |s| (s.value, s.ops)).unwrap(), (101, 4));
            assert_eq!(c.read_local(n, |s| (s.value, s.ops)).unwrap(), (101, 4));
        }
    }

    #[test]
    fn caught_up_read_only_checks_the_tail() {
        let rack = Rack::new(RackConfig::small_test());
        let c = replicated(&rack, 64);
        let n0 = rack.node(0);
        c.update(&rack.node(1), &add(1)).unwrap();
        c.read(&n0, |s| s.value).unwrap(); // replays node 1's op
        let before = n0.stats().snapshot();
        let t0 = n0.clock().now();
        assert_eq!(c.read(&n0, |s| s.value).unwrap(), 1);
        let after = n0.stats().snapshot();
        // One uncached tail load plus the local read; no watermark store.
        let lat = n0.latency();
        assert_eq!(
            n0.clock().now() - t0,
            lat.global_read_ns + lat.local_read_ns
        );
        assert_eq!(after.global_writes, before.global_writes);
        assert_eq!(after.global_atomics, before.global_atomics);
    }

    #[test]
    fn watermarks_track_each_replica() {
        let rack = Rack::new(RackConfig::small_test());
        let c = replicated(&rack, 16);
        let n0 = rack.node(0);
        c.update(&n0, &add(1)).unwrap();
        c.update(&n0, &add(2)).unwrap();
        let mark = |n: usize| c.applied_cells[n].load(&n0).unwrap();
        assert_eq!((mark(0), mark(1)), (2, 0), "node 1 never caught up");
        c.read(&rack.node(1), |_| ()).unwrap();
        assert_eq!(mark(1), 2, "catch-up publishes the watermark");
    }

    #[test]
    fn gc_behind_a_lagging_replica_resnapshots() {
        let rack = Rack::new(RackConfig::small_test());
        let c = replicated(&rack, 4);
        let (n0, n1) = (rack.node(0), rack.node(1));
        for i in 0..4 {
            c.update(&n0, &add(i)).unwrap();
        }
        assert!(c.update(&n0, &add(9)).is_err(), "log full until GC");
        c.gc(&n0).unwrap();
        c.update(&n0, &add(9)).unwrap();
        // Node 1 lags behind the collected entries: it pays one snapshot
        // fetch, then replays the retained entry.
        let lat = n1.latency();
        let t0 = n1.clock().now();
        assert_eq!(c.read(&n1, |s| (s.value, s.ops)).unwrap(), (15, 5));
        let snapshot = lat.invalidate_line_ns + lat.local_write_ns + lat.global_read_ns;
        assert!(n1.clock().now() - t0 > snapshot);
        assert_eq!(c.read_local(&n1, |s| s.value).unwrap(), 15);
    }

    #[test]
    fn recover_replica_does_not_double_apply() {
        for policy in [SyncPolicy::Replicated, SyncPolicy::NodeReplicated] {
            let rack = Rack::new(RackConfig::small_test());
            let c: Arc<SyncCell<Counter>> = SyncCell::alloc(
                rack.global(),
                "test_recover",
                SyncCellConfig::new(2, policy).with_log(64, 64),
                Counter::default(),
            )
            .unwrap();
            let (n0, n1) = (rack.node(0), rack.node(1));
            c.update(&n0, &add(5)).unwrap();
            c.update(&n0, &add(7)).unwrap();
            // Node 1 restarts: rebuild its replica from the log.
            assert_eq!(c.recover_replica(&n1, Counter::default()).unwrap(), 2);
            assert_eq!(c.applied_cells[1].load(&n0).unwrap(), 2, "{policy}");
            assert_eq!(c.read_local(&n1, |s| (s.value, s.ops)).unwrap(), (12, 2));
            // New ops after the rebuild apply exactly once.
            c.update(&n0, &add(1)).unwrap();
            c.sync_replica(&n1).unwrap();
            assert_eq!(
                c.read_local(&n1, |s| (s.value, s.ops)).unwrap(),
                (13, 3),
                "{policy}"
            );
        }
    }
}
