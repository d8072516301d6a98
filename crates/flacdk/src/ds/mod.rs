//! Level-3 FlacDK library: high-level concurrent data structures.
//!
//! Paper §3.2: *"The last library provides high-level concurrent data
//! structures, such as vector, hash tables, ring buffer, and radix
//! tree."* Each structure is built on one of the lock-free families,
//! chosen to match its access pattern:
//!
//! * [`ringbuf::SpscRing`] — publish/consume ring over global memory,
//!   the zero-copy IPC transport of §3.5.
//! * [`radix::RadixTree`] — RCU copy-on-write radix tree; backs the
//!   shared page cache (§3.4) and page-table-like indexes (§3.3).
//!
//! Replicated tables are a [`SyncState`](crate::sync::SyncState) inside a
//! [`SyncCell`](crate::sync::SyncCell) rather than a data structure of
//! their own: the file-system metadata and the socket name table are
//! built that way.

pub mod radix;
pub mod ringbuf;

pub use radix::RadixTree;
pub use ringbuf::SpscRing;
