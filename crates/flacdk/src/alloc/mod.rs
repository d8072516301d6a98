//! FlacDK memory management (paper §3.2 "Memory management").
//!
//! Two of the paper's three pieces (runtime object relocation between
//! tiers is not reproduced here; page-granularity tiering lives in
//! `flacos-tier`):
//!
//! 1. [`object::GlobalAllocator`] — an object-granularity allocator over
//!    the global pool with size-class free lists, designed to be fed by
//!    the RCU reclamation path ([`crate::sync::reclaim`]) rather than by
//!    immediate frees.
//! 2. [`hotness::HotnessTracker`] — per-object access-frequency tracking
//!    with exponential decay, driving layout packing decisions.

pub mod hotness;
pub mod object;

pub use hotness::HotnessTracker;
pub use object::GlobalAllocator;
