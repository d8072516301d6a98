//! Journaling integrated with the synchronization mechanism.
//!
//! Paper §3.4: *"we expect to enhance journaling in FlacOS to
//! simultaneously improve reliability and scalability by integrating it
//! with synchronization mechanism."* In this implementation the
//! integration is total: the committed-op log of the metadata
//! [`SyncCell`](flacdk::sync::SyncCell) (replication policy) *is* the
//! write-ahead journal. Every metadata mutation is durable in global
//! memory (committed log slot) before any replica applies it, so
//! recovering a node — or mounting a fresh one — is simply a cell
//! replay.

use crate::memfs::FsShared;
use crate::meta::MetaReplica;
use rack_sim::{NodeCtx, SimError};

/// Journal state summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalInfo {
    /// Oldest retained entry.
    pub head: u64,
    /// One past the newest entry.
    pub tail: u64,
    /// Entries currently retained.
    pub depth: u64,
}

/// Inspect the journal (metadata op log) of `shared`.
///
/// # Errors
///
/// Propagates memory errors.
pub fn journal_info(ctx: &NodeCtx, shared: &FsShared) -> Result<JournalInfo, SimError> {
    let head = shared.meta().log_head(ctx)?;
    let tail = shared.meta().committed(ctx)?;
    Ok(JournalInfo {
        head,
        tail,
        depth: tail - head,
    })
}

/// Rebuild file-system metadata by replaying the journal from its head.
///
/// A node that crashed mid-append leaves a hole (a claimed slot that
/// never committed); replay skips it, as every replica does — the op
/// was never acknowledged. Returns the recovered replica and the number
/// of entries replayed.
///
/// The caller must ensure the journal has not been truncated past state
/// it needs (FlacOS only advances the journal head after a metadata
/// checkpoint, which this prototype does not take — so the journal
/// retains the full history and recovery is always total).
///
/// # Errors
///
/// Propagates memory errors.
pub fn recover_meta(ctx: &NodeCtx, shared: &FsShared) -> Result<(MetaReplica, u64), SimError> {
    shared.meta().replay(ctx, MetaReplica::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockDevice;
    use crate::memfs::MemFs;
    use flacdk::alloc::GlobalAllocator;
    use flacdk::sync::rcu::EpochManager;
    use flacdk::sync::reclaim::RetireList;
    use rack_sim::{Rack, RackConfig};
    use std::sync::Arc;

    fn setup() -> (Rack, Arc<FsShared>) {
        let rack = Rack::new(RackConfig::small_test().with_global_mem(64 << 20));
        let alloc = GlobalAllocator::new(rack.global().clone());
        let epochs = EpochManager::alloc(rack.global(), rack.node_count()).unwrap();
        let shared = FsShared::alloc(
            rack.global(),
            rack.node_count(),
            alloc,
            epochs,
            RetireList::new(),
            Arc::new(BlockDevice::nvme(rack.global(), rack.node_count()).unwrap()),
        )
        .unwrap();
        (rack, shared)
    }

    #[test]
    fn journal_replay_recovers_metadata() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared.clone(), rack.node(0));
        fs.mkdir("/srv").unwrap();
        fs.write_file("/srv/app.conf", b"threads=8").unwrap();
        fs.write_file("/srv/data.bin", &vec![1u8; 5000]).unwrap();
        fs.unlink("/srv/app.conf").unwrap();

        // Node 0 "crashes": rebuild purely from the journal on node 1.
        let (recovered, replayed) = recover_meta(&rack.node(1), &shared).unwrap();
        assert!(replayed >= 4);
        assert_eq!(recovered.resolve("/srv/app.conf"), None);
        let data_ino = recovered.resolve("/srv/data.bin").unwrap();
        assert_eq!(recovered.attr(data_ino).unwrap().size, 5000);
        assert_eq!(
            recovered.readdir(recovered.resolve("/srv").unwrap()),
            vec!["data.bin"]
        );
    }

    #[test]
    fn recovered_replica_matches_live_replica() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared.clone(), rack.node(0));
        for i in 0..20 {
            fs.write_file(&format!("/f{i}"), &[i as u8]).unwrap();
        }
        let live = fs
            .with_meta(|m| (m.inode_count(), m.readdir(crate::meta::ROOT_INO)))
            .unwrap();
        let (recovered, _) = recover_meta(&rack.node(1), &shared).unwrap();
        assert_eq!(
            (
                recovered.inode_count(),
                recovered.readdir(crate::meta::ROOT_INO)
            ),
            live
        );
    }

    #[test]
    fn journal_info_reports_depth() {
        let (rack, shared) = setup();
        let mut fs = MemFs::mount(shared.clone(), rack.node(0));
        let before = journal_info(&rack.node(0), &shared).unwrap();
        fs.mkdir("/x").unwrap();
        fs.write_file("/x/y", b"z").unwrap();
        let after = journal_info(&rack.node(0), &shared).unwrap();
        // mkdir + create + set_size = 3 entries.
        assert_eq!(after.depth - before.depth, 3);
        assert_eq!(after.head, 0);
    }
}
