//! Checkpointing integrated with quiescence-based synchronization.
//!
//! Paper §3.2: *"Data checkpointing can be incorporated with multiple
//! object versions in quiescence-based synchronization."* A checkpoint
//! here pins the RCU epoch for its duration, so every version it copies
//! is guaranteed to stay allocated while being read (reclamation respects
//! pins — see [`crate::sync::reclaim`]). Snapshots are themselves stored
//! in global memory with per-object checksums so restores can verify
//! integrity.

use crate::alloc::object::GlobalAllocator;
use crate::sync::rcu::EpochManager;
use crate::wire::fnv1a;
use rack_sim::{GAddr, NodeCtx, SimError};
use std::collections::HashMap;
use std::sync::Arc;

/// One object captured in a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// Caller's object identifier.
    pub id: u64,
    /// The object's live location at capture time.
    pub src: GAddr,
    /// Where the snapshot copy lives.
    pub copy: GAddr,
    /// Object length in bytes.
    pub len: usize,
    /// Checksum of the captured content.
    pub sum: u64,
}

/// A completed checkpoint of a set of objects.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    entries: HashMap<u64, CheckpointEntry>,
    /// Epoch pinned while the checkpoint was taken.
    pub epoch: u64,
    /// Simulated time at which the capture completed.
    pub at_ns: u64,
}

impl Checkpoint {
    /// Entry for object `id`, if captured.
    pub fn entry(&self, id: u64) -> Option<&CheckpointEntry> {
        self.entries.get(&id)
    }

    /// Number of captured objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the checkpoint is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total snapshot bytes.
    pub fn bytes(&self) -> usize {
        self.entries.values().map(|e| e.len).sum()
    }

    /// All entries (deterministic order by id).
    pub fn entries(&self) -> Vec<CheckpointEntry> {
        let mut v: Vec<CheckpointEntry> = self.entries.values().copied().collect();
        v.sort_by_key(|e| e.id);
        v
    }
}

/// Captures and restores checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    alloc: GlobalAllocator,
    epochs: Arc<EpochManager>,
}

impl CheckpointManager {
    /// A manager drawing snapshot storage from `alloc` and pinning
    /// epochs on `epochs`.
    pub fn new(alloc: GlobalAllocator, epochs: Arc<EpochManager>) -> Self {
        CheckpointManager { alloc, epochs }
    }

    /// Capture `(id, addr, len)` objects into a new checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates allocation and memory errors; a poisoned source object
    /// fails the checkpoint (callers should checkpoint *before* faults).
    pub fn capture(
        &self,
        ctx: &NodeCtx,
        objects: &[(u64, GAddr, usize)],
    ) -> Result<Checkpoint, SimError> {
        let pin = self.epochs.pin(ctx)?;
        let epoch = self.epochs.current(ctx)?;
        let result = self.capture_inner(ctx, objects);
        self.epochs.unpin(pin);
        let entries = result?;
        Ok(Checkpoint {
            entries,
            epoch,
            at_ns: ctx.clock().now(),
        })
    }

    fn capture_inner(
        &self,
        ctx: &NodeCtx,
        objects: &[(u64, GAddr, usize)],
    ) -> Result<HashMap<u64, CheckpointEntry>, SimError> {
        let mut entries = HashMap::new();
        for &(id, src, len) in objects {
            ctx.invalidate(src, len);
            let mut buf = vec![0u8; len];
            ctx.read(src, &mut buf)?;
            let copy = self.alloc.alloc(ctx, len)?;
            ctx.write(copy, &buf)?;
            ctx.writeback(copy, len);
            entries.insert(
                id,
                CheckpointEntry {
                    id,
                    src,
                    copy,
                    len,
                    sum: fnv1a(&buf),
                },
            );
        }
        Ok(entries)
    }

    /// Incremental capture: reuse `base`'s snapshot for objects not in
    /// `dirty`, copy only dirty ones. Objects absent from `base` are
    /// always copied.
    ///
    /// # Errors
    ///
    /// As [`CheckpointManager::capture`].
    pub fn capture_incremental(
        &self,
        ctx: &NodeCtx,
        base: &Checkpoint,
        objects: &[(u64, GAddr, usize)],
        dirty: &[u64],
    ) -> Result<Checkpoint, SimError> {
        let to_copy: Vec<(u64, GAddr, usize)> = objects
            .iter()
            .copied()
            .filter(|(id, _, _)| dirty.contains(id) || base.entry(*id).is_none())
            .collect();
        let mut ckpt = self.capture(ctx, &to_copy)?;
        for (id, _, _) in objects {
            if !ckpt.entries.contains_key(id) {
                if let Some(e) = base.entry(*id) {
                    ckpt.entries.insert(*id, *e);
                }
            }
        }
        Ok(ckpt)
    }

    /// Restore object `id` from `ckpt` back to its source location,
    /// scrubbing poisoned words first. Returns the restored byte count.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if `id` was not captured or the snapshot
    /// itself fails its checksum; memory errors are propagated.
    pub fn restore(&self, ctx: &NodeCtx, ckpt: &Checkpoint, id: u64) -> Result<usize, SimError> {
        let e = ckpt
            .entry(id)
            .ok_or_else(|| SimError::Protocol(format!("object {id} not in checkpoint")))?;
        ctx.invalidate(e.copy, e.len);
        let mut buf = vec![0u8; e.len];
        ctx.read(e.copy, &mut buf)?;
        if fnv1a(&buf) != e.sum {
            return Err(SimError::Protocol(format!(
                "checkpoint copy of object {id} corrupt"
            )));
        }
        // Scrub any poison at the destination, then rewrite and publish.
        ctx.global().scrub(e.src, e.len);
        ctx.invalidate(e.src, e.len);
        ctx.write(e.src, &buf)?;
        ctx.writeback(e.src, e.len);
        Ok(e.len)
    }

    /// Release a checkpoint's snapshot storage, in object-id order: the
    /// free order decides which addresses later allocations reuse, so it
    /// must not depend on the map's per-process hash order.
    pub fn discard(&self, ctx: &NodeCtx, ckpt: Checkpoint) {
        for e in ckpt.entries() {
            self.alloc.free(ctx, e.copy, e.len);
        }
    }

    /// The allocator backing snapshot storage.
    pub fn allocator(&self) -> &GlobalAllocator {
        &self.alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    fn setup() -> (Rack, CheckpointManager) {
        let rack = Rack::new(RackConfig::small_test());
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        (rack.clone(), CheckpointManager::new(alloc, epochs))
    }

    #[test]
    fn capture_then_restore_after_poison() {
        let (rack, cm) = setup();
        let n0 = rack.node(0);
        let obj = rack.global().alloc(64, 8).unwrap();
        n0.write(obj, &[9; 64]).unwrap();
        n0.writeback(obj, 64);

        let ckpt = cm.capture(&n0, &[(1, obj, 64)]).unwrap();
        assert_eq!(ckpt.len(), 1);
        assert_eq!(ckpt.bytes(), 64);

        rack.faults().poison_memory(rack.global(), obj, 16, 100);
        n0.invalidate(obj, 64); // drop cached copy so the fault is visible
        assert!(n0.read_u64(obj).is_err());

        let restored = cm.restore(&n0, &ckpt, 1).unwrap();
        assert_eq!(restored, 64);
        let mut buf = [0u8; 64];
        n0.invalidate(obj, 64);
        n0.read(obj, &mut buf).unwrap();
        assert_eq!(buf, [9; 64]);
    }

    #[test]
    fn restore_unknown_object_fails() {
        let (rack, cm) = setup();
        let n0 = rack.node(0);
        let ckpt = cm.capture(&n0, &[]).unwrap();
        assert!(ckpt.is_empty());
        assert!(cm.restore(&n0, &ckpt, 1).is_err());
    }

    #[test]
    fn incremental_copies_only_dirty() {
        let (rack, cm) = setup();
        let n0 = rack.node(0);
        let a = rack.global().alloc(64, 8).unwrap();
        let b = rack.global().alloc(64, 8).unwrap();
        n0.write(a, &[1; 64]).unwrap();
        n0.write(b, &[2; 64]).unwrap();
        n0.writeback(a, 64);
        n0.writeback(b, 64);
        let objects = [(1u64, a, 64usize), (2, b, 64)];
        let base = cm.capture(&n0, &objects).unwrap();

        n0.write(b, &[3; 64]).unwrap();
        n0.writeback(b, 64);
        let inc = cm.capture_incremental(&n0, &base, &objects, &[2]).unwrap();
        // Clean object shares the base copy; dirty one got a fresh copy.
        assert_eq!(inc.entry(1).unwrap().copy, base.entry(1).unwrap().copy);
        assert_ne!(inc.entry(2).unwrap().copy, base.entry(2).unwrap().copy);

        // Restoring from the incremental checkpoint yields the new data.
        rack.global().poison(b, 64);
        cm.restore(&n0, &inc, 2).unwrap();
        let mut buf = [0u8; 64];
        n0.invalidate(b, 64);
        n0.read(b, &mut buf).unwrap();
        assert_eq!(buf, [3; 64]);
    }

    #[test]
    fn corrupt_snapshot_refuses_restore() {
        let (rack, cm) = setup();
        let n0 = rack.node(0);
        let obj = rack.global().alloc(64, 8).unwrap();
        let ckpt = cm.capture(&n0, &[(1, obj, 64)]).unwrap();
        // Corrupt the snapshot copy itself.
        let copy = ckpt.entry(1).unwrap().copy;
        rack.node(1).store_uncached_u64(copy, 0xdead).unwrap();
        assert!(matches!(
            cm.restore(&n0, &ckpt, 1),
            Err(SimError::Protocol(_))
        ));
    }

    #[test]
    fn discard_recycles_snapshot_storage() {
        let (rack, cm) = setup();
        let n0 = rack.node(0);
        let obj = rack.global().alloc(64, 8).unwrap();
        let ckpt = cm.capture(&n0, &[(1, obj, 64)]).unwrap();
        cm.discard(&n0, ckpt);
        assert_eq!(cm.allocator().free_count(64), 1);
    }

    #[test]
    fn discard_order_makes_recycled_copies_repeat() {
        // Which recycled address each object's next copy lands on follows
        // the free order; it must be the same on every freshly built rack.
        let recycled_copies = || {
            let (rack, cm) = setup();
            let n0 = rack.node(0);
            let objects: Vec<(u64, GAddr, usize)> = (0..8)
                .map(|id| (id, rack.global().alloc(64, 8).unwrap(), 64))
                .collect();
            cm.discard(&n0, cm.capture(&n0, &objects).unwrap());
            let again = cm.capture(&n0, &objects).unwrap();
            again.entries().iter().map(|e| e.copy).collect::<Vec<_>>()
        };
        let first = recycled_copies();
        for _ in 0..7 {
            assert_eq!(recycled_copies(), first);
        }
    }
}
