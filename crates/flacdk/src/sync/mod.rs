//! Level-2 FlacDK library: synchronization interfaces.
//!
//! Paper §3.2: lock-based synchronization over rack-scale shared memory is
//! ineffective — locks hammer a few contended lines whose coherence must
//! then be maintained in software, on top of high fabric latency. FlacDK
//! therefore provides, besides a baseline [`spinlock::GlobalSpinLock`]
//! (kept for comparison and for rarely-contended slow paths), the three
//! lock-free families the paper identifies:
//!
//! * **Replication** ([`SyncPolicy::Replicated`] and
//!   [`SyncPolicy::NodeReplicated`] on a [`cell::SyncCell`]) — every node
//!   holds a local replica; a shared [`oplog::SharedOpLog`] carries
//!   mutations, replayed on each node. Reads are node-local; only writes
//!   touch the fabric.
//! * **Delegation** ([`delegation`]) — state is partitioned; each
//!   partition has one owner node that executes all operations on it,
//!   with other nodes shipping requests over the interconnect.
//! * **Quiescence** ([`rcu`]) — RCU-style multi-version updates: writers
//!   publish fresh copies and retire old ones; [`reclaim`] frees retired
//!   versions once no reader *and no checkpoint* can still reference
//!   them. Because readers always consume freshly-published blocks, the
//!   stale-cache-line problem turns into plain RCU version tracking
//!   (the "bounded incoherence" idea the paper cites).

pub mod cell;
pub mod delegation;
pub mod oplog;
pub mod rcu;
pub mod reclaim;
pub mod spinlock;

pub use cell::{
    AdaptiveConfig, SyncCell, SyncCellConfig, SyncPolicy, SyncRecover, SyncState, FRAME_BYTES,
};
pub use delegation::{DelegationClient, DelegationServer, Service};
pub use oplog::SharedOpLog;
pub use rcu::{EpochManager, RcuHandle, VersionedCell};
pub use reclaim::RetireList;
pub use spinlock::GlobalSpinLock;
