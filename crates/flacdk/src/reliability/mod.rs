//! FlacDK reliability mechanisms (paper §3.2 "Reliability").
//!
//! *"These mechanisms cover the entire fault handling process, including
//! system monitoring, failure prediction, fault detection, checkpointing,
//! and recovery."* — one module per stage this reproduction models
//! (failure prediction is not reproduced):
//!
//! * [`monitor`] — heartbeat table in global memory; suspects silent nodes.
//! * [`detect`] — checksum guards over global regions; detects both
//!   poisoned words (read faults) and silent corruption.
//! * [`checkpoint`] — epoch-pinned object snapshots; reuses the RCU
//!   multi-version machinery (the sync/reliability co-design).
//!
//! Recovery is composed from these stages elsewhere: op-log replay is
//! [`crate::sync::SyncCell::replay`], and `flacos-fault`'s
//! `RecoveryOrchestrator` scrubs and restores fault boxes from
//! checkpoints.

pub mod checkpoint;
pub mod detect;
pub mod monitor;

pub use checkpoint::{Checkpoint, CheckpointManager};
pub use detect::{Detection, FaultDetector};
pub use monitor::{HealthMonitor, NodeHealth};
