//! # FlacDK — the FlacOS Development Kit
//!
//! FlacDK is the lowest layer of FlacOS (paper §3.2): a toolkit of
//! synchronization, memory-management, and reliability mechanisms that
//! both the FlacOS kernel subsystems and applications build on. All of it
//! targets the hostile memory model enforced by [`rack_sim`]: global
//! memory is slow, **not cache coherent**, and fails.
//!
//! ## The three libraries (paper §3.2 "Synchronization")
//!
//! 1. **Hardware operations** ([`hw`]) — typed wrappers over fabric
//!    atomics, memory barriers, and cache flush/invalidate/write-back.
//! 2. **Synchronization interfaces** ([`sync`]) — a baseline global
//!    spinlock plus the three lock-free families the paper identifies:
//!    *replication* (per-node replicas of a [`sync::SyncCell`] fed by its
//!    shared operation log, NR-style), *delegation* ([`sync::delegation`],
//!    ffwd-style request shipping to a partition owner), and
//!    *quiescence* ([`sync::rcu`], epoch-based multi-version RCU with
//!    interval reclamation).
//! 3. **Concurrent data structures** ([`ds`]) — ring buffer and radix
//!    tree built from the primitives above; replicated tables are
//!    [`sync::SyncState`]s inside a [`sync::SyncCell`].
//!
//! ## Memory management (paper §3.2 "Memory management")
//!
//! [`alloc`] provides the object-granularity global allocator (hooked
//! into epoch reclamation) and hotness-driven layout packing.
//!
//! ## Reliability (paper §3.2 "Reliability")
//!
//! [`reliability`] covers the fault-handling pipeline — monitoring,
//! fault detection, checkpointing, and log-replay recovery —
//! *co-designed* with the synchronization layer: checkpoints
//! pin RCU epochs so multi-version objects double as snapshots, and the
//! shared operation log doubles as a redo log.

pub mod alloc;
pub mod ds;
pub mod hw;
pub mod reliability;
pub mod sync;
pub mod wire;

pub use rack_sim::{GAddr, NodeCtx, Rack, RackConfig, SimError};
