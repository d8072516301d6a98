//! The `flac-faultstorm` campaign harness: seeded rack-wide fault
//! storms driven against booted FlacOS subsystems, with
//! cross-subsystem invariant checking.
//!
//! Every campaign implements [`Campaign`]: it boots its rack from
//! `(seed, steps)`, names its [`StormConfig`], reacts to each
//! [`StormOp`] a [`StormCampaign`] injects underneath its workload
//! (node crashes and restarts, severed links, poisoned memory), and
//! once the storm heals checks its invariants and returns its typed
//! [`Stats`]. One generic driver, [`run`], owns what the campaigns
//! share: the storm run, the violations list and the
//! [`CampaignReport`]. [`main`] is the `flac-faultstorm` command line
//! over the [`CAMPAIGNS`] table.
//!
//! ```text
//! flac-faultstorm <rack|tiering|sync|nr-sync|store|all> [--seeds N] [--steps M] [--seed X] [--verify]
//! ```
//!
//! * `--seeds N` — campaigns per name, seeds `X, X+1, …, X+N-1` (default 8)
//! * `--steps M` — scheduled storm steps per campaign (default 120)
//! * `--seed X`  — base seed, decimal or `0x` hex (default 0xF1AC_5708)
//! * `--verify`  — run every seed twice; the replay must reproduce the
//!   whole outcome
//!
//! Everything derives from the campaign seed, so a replay of a seed
//! reproduces the whole outcome — survival row, violations, event log
//! and rack metrics — the property asserted in this module's tests and
//! checked by `flac-faultstorm --verify`. To reproduce a failing
//! campaign, re-run its name with `--seeds 1 --seed <seed>` from its
//! survival row.

use flac_store::{BackendConfig, ChunkStore, ShardedBackends, StoreConfig};
use flacdk::reliability::checkpoint::CheckpointManager;
use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy};
use flacos::FlacRack;
use flacos_fault::fault_box::FaultBoxBuilder;
use flacos_fault::recovery::RecoveryOrchestrator;
use flacos_fault::redundancy::{Protection, RedundancyPolicy};
use flacos_fs::memfs::MemFs;
use flacos_ipc::{MsgRpcClient, MsgRpcServer, RetryPolicy};
use flacos_mem::addr::VirtAddr;
use flacos_mem::dedup::PageDeduper;
use flacos_mem::fault::FrameAllocator;
use flacos_mem::tlb::Tlb;
use flacos_mem::{AddressSpace, PhysFrame, Pte};
use flacos_tier::{LocalFramePool, Migration};
use rack_sim::storm::{StormCampaign, StormConfig, StormCounts, StormOp};
use rack_sim::{GAddr, LAddr, NodeCtx, NodeId, Rack, RackConfig, SimError};
use serverless::image::ContainerImage;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

/// Nodes in every campaign rack.
const NODES: usize = 4;

/// A campaign's typed survival counters: the middle cells of its
/// survival row.
pub trait Stats {
    /// Column headers of [`Stats::cells`].
    const HEADER: &'static str;

    /// The counters as survival-row cells.
    fn cells(&self) -> String;
}

/// One fault-storm campaign: a workload on its own rack, the storm
/// shape run underneath it, and the invariants checked after the heal.
pub trait Campaign: Sized {
    /// The campaign's survival counters.
    type Stats: Stats;

    /// Boot the rack and the workload for a `(seed, steps)` campaign.
    fn boot(seed: u64, steps: u32) -> (Rack, Self);

    /// The storm shape: `steps` scheduled steps of crashes and restarts
    /// unless the campaign needs more.
    fn config(&self, steps: u32) -> StormConfig {
        crash_only(steps)
    }

    /// React to `op` at `step`. Faults were already injected into
    /// `rack`; the returned outcome becomes the step's event-log entry,
    /// and every invariant the step breaks is pushed to `broken`.
    fn react(&mut self, rack: &Rack, step: u32, op: StormOp, broken: &mut Vec<String>) -> String;

    /// After the heal: push every broken invariant to `broken` and
    /// return the counters.
    fn check(self, rack: &Rack, broken: &mut Vec<String>) -> Self::Stats;
}

/// Outcome of one campaign: the storm's counts, the campaign's typed
/// counters, the deterministic event log, any invariant violations and
/// the rack metrics.
#[derive(Debug, Clone)]
pub struct CampaignReport<S> {
    /// The seed the campaign ran from.
    pub seed: u64,
    /// Per-class storm operation counts.
    pub counts: StormCounts,
    /// Total executed steps (heal steps included).
    pub events: usize,
    /// The campaign's own counters.
    pub stats: S,
    /// Invariant violations (empty on a surviving campaign).
    pub violations: Vec<String>,
    /// The byte-identical replay artifact.
    pub log_text: String,
    /// The merged rack metrics after the campaign.
    pub metrics: rack_sim::RackReport,
}

impl<S: Stats> CampaignReport<S> {
    /// Whether every invariant held.
    pub fn survived(&self) -> bool {
        self.violations.is_empty()
    }

    /// Header matching [`CampaignReport::row`].
    pub fn header() -> String {
        format!(
            "seed               | steps | cr/rs | {} | verdict",
            S::HEADER
        )
    }

    /// One summary row for the survival table.
    pub fn row(&self) -> String {
        let verdict = if self.survived() {
            "ok".to_string()
        } else {
            format!("{} VIOLATIONS", self.violations.len())
        };
        format!(
            "{:#018x} | {:>5} | {:>2}/{:<2} | {} | {verdict}",
            self.seed,
            self.events,
            self.counts.crashes,
            self.counts.restarts,
            self.stats.cells()
        )
    }

    /// Whether `replay` reproduced this report's whole outcome: the
    /// survival row, violations, event log and rendered rack metrics.
    pub fn same_outcome(&self, replay: &Self) -> bool {
        self.row() == replay.row()
            && self.violations == replay.violations
            && self.log_text == replay.log_text
            && self.metrics.to_string() == replay.metrics.to_string()
    }
}

/// Run one seeded campaign end to end and check its invariants.
///
/// Fully deterministic: the same `(seed, steps)` reproduces the whole
/// report.
///
/// # Panics
///
/// Panics if the rack cannot boot (global memory exhausted) — a harness
/// bug, not a campaign outcome.
pub fn run<C: Campaign>(seed: u64, steps: u32) -> CampaignReport<C::Stats> {
    let (rack, mut campaign) = C::boot(seed, steps);
    let mut violations = Vec::new();
    let storm = StormCampaign::new(seed, campaign.config(steps)).run(&rack, |step, op, rack| {
        campaign.react(rack, step, *op, &mut violations)
    });
    let stats = campaign.check(&rack, &mut violations);
    CampaignReport {
        seed,
        counts: storm.counts,
        events: storm.events.len(),
        stats,
        violations,
        log_text: storm.log_text(),
        metrics: rack.metrics_report(),
    }
}

/// The crash-and-restart-only storm every campaign but [`RackCampaign`]
/// runs.
fn crash_only(steps: u32) -> StormConfig {
    StormConfig {
        steps,
        min_live_nodes: 2,
        link_fail_weight: 0,
        link_restore_weight: 0,
        poison_weight: 0,
        delayed_writeback_weight: 0,
        poison_region: None,
        ..StormConfig::default()
    }
}

/// A bare 4-node rack with 64 MiB of global memory.
fn small_rack(seed: u64) -> Rack {
    Rack::new(
        RackConfig::n_node(NODES)
            .with_global_mem(64 << 20)
            .with_seed(seed ^ 0xF1AC),
    )
}

/// The round-robin writer of `step`: the first live node at or after
/// `step` modulo the node count.
fn live_writer(rack: &Rack, step: u32) -> Option<usize> {
    let n = rack.node_count();
    (step as usize..step as usize + n)
        .map(|k| k % n)
        .find(|&k| rack.is_alive(NodeId(k)))
}

/// The lowest-numbered live node: the survivor that runs recovery.
fn lowest_live(rack: &Rack) -> usize {
    (0..rack.node_count())
        .find(|&k| rack.is_alive(NodeId(k)))
        .expect("min_live_nodes >= 2")
}

/// The node hosting the message-fabric RPC server.
const SERVER_NODE: usize = 1;
/// RPC request port / base reply port.
const RPC_PORT: u16 = 40;
const REPLY_PORT_BASE: u16 = 50;
/// Scrub-region geometry (the storm's poison target).
const SCRUB_WORDS: usize = 64;
/// Known-good pattern word `i` of the scrub region holds.
const SCRUB_PATTERN: u64 = 0xC0DE_F1AC_0000_0000;
/// Fault-boxed applications and their initial homes.
const APP_HOMES: [usize; 2] = [2, 3];

/// Counters of the [`RackCampaign`].
#[derive(Debug, Clone, Default)]
pub struct RackStats {
    /// File writes acknowledged (journaled + page cache).
    pub fs_commits: u64,
    /// File-system operations that failed under faults (not violations:
    /// they were never acknowledged).
    pub fs_degraded: u64,
    /// Journal replays performed on node restart.
    pub fs_replays: u64,
    /// Journal entries replayed across all restarts.
    pub fs_entries_replayed: u64,
    /// RPC calls acknowledged to the client.
    pub rpc_acked: u64,
    /// RPC calls abandoned after retry exhaustion or a down server.
    pub rpc_degraded: u64,
    /// Distinct calls the server handler actually executed.
    pub rpc_executed: u64,
    /// Retried requests answered from the server's reply cache.
    pub rpc_dup_suppressed: u64,
    /// Call ids issued by clients.
    pub rpc_issued: u64,
    /// Dirty scratch lines explicitly written back (committed).
    pub scratch_flushed: u64,
    /// Dirty scratch lines lost to a crash before writeback (expected
    /// crash semantics, not violations).
    pub scratch_lost: u64,
    /// Poisoned words scrubbed and repaired.
    pub scrubs: u64,
    /// Fault boxes re-elected onto a surviving node.
    pub reelections: u64,
}

impl Stats for RackStats {
    const HEADER: &'static str = "fs ok/deg | rpc ok/deg | rpl | re# | scr";

    fn cells(&self) -> String {
        format!(
            "{:>4}/{:<4} | {:>4}/{:<4} | {:>3} | {:>3} | {:>3}",
            self.fs_commits,
            self.fs_degraded,
            self.rpc_acked,
            self.rpc_degraded,
            self.fs_replays,
            self.reelections,
            self.scrubs
        )
    }
}

/// The rack-wide campaign: a booted 4-node [`FlacRack`] spreads real
/// work across the subsystems — journaled file writes, message-fabric
/// RPCs with retry, fault-boxed applications, dirty cache lines
/// awaiting writeback — while the storm crashes nodes, severs links and
/// poisons memory underneath it. The reaction layer exercises RPC
/// retry-with-backoff, fault-box re-election and journal replay on
/// restart. Invariants checked after the heal:
///
/// 1. **No lost committed writes** — every file write acknowledged to
///    the workload is readable with its exact content, and every dirty
///    scratch line that was explicitly written back survives in global
///    memory.
/// 2. **No double-delivery** — the RPC server executed every
///    acknowledged call exactly once (duplicate suppression absorbs
///    retries; executions never exceed issued call ids).
/// 3. **Liveness after recovery** — once healed, every node can write
///    and read the shared file system, the RPC path answers, and every
///    fault-boxed application's state is intact on its (possibly
///    re-elected) home.
pub struct RackCampaign {
    seed: u64,
    /// One mount per node over a shared campaign directory.
    fs: Vec<MemFs>,
    server: MsgRpcServer,
    /// One persistent client per node, so call ids never repeat within
    /// a campaign.
    clients: Vec<MsgRpcClient>,
    orch: RecoveryOrchestrator,
    scrub_base: GAddr,
    /// One fresh cache line per dirty write, so a lost (crashed-away)
    /// line can never alias a committed one.
    scratch_base: GAddr,
    next_slot: u64,
    /// Acknowledged file writes: (path, content).
    committed: Vec<(String, String)>,
    /// Dirty, unflushed lines: (node, addr, value).
    pending: Vec<(usize, GAddr, u64)>,
    /// Written-back lines: must survive.
    flushed: Vec<(GAddr, u64)>,
    stats: RackStats,
}

/// Known-good content of word `addr` of the scrub region at `base`.
fn scrub_word(base: GAddr, addr: GAddr) -> u64 {
    SCRUB_PATTERN ^ ((addr.0 - base.0) / 8)
}

impl RackCampaign {
    /// One RPC from `caller`, retried with backoff; the server answers
    /// `ack:<args>`.
    fn call(&mut self, caller: usize, args: &[u8]) -> Result<Vec<u8>, SimError> {
        let server = &mut self.server;
        self.clients[caller].call_with_retry(args, &RetryPolicy::default(), &mut |_| {
            server
                .drain(&mut |req: &[u8]| [b"ack:".as_slice(), req].concat())
                .map(|_| ())
        })
    }
}

impl Campaign for RackCampaign {
    type Stats = RackStats;

    fn boot(seed: u64, steps: u32) -> (Rack, Self) {
        let flac =
            FlacRack::boot(RackConfig::n_node(NODES).with_seed(seed ^ 0xF1AC)).expect("boot");
        let rack = flac.sim().clone();
        let n = rack.node_count();

        let mut fs: Vec<MemFs> = (0..n)
            .map(|i| MemFs::mount(flac.fs_shared().clone(), rack.node(i)))
            .collect();
        fs[0].mkdir("/storm").expect("mkdir /storm");
        let server = MsgRpcServer::new(rack.node(SERVER_NODE), RPC_PORT);
        let clients = (0..n)
            .map(|i| {
                MsgRpcClient::new(
                    rack.node(i),
                    NodeId(SERVER_NODE),
                    RPC_PORT,
                    REPLY_PORT_BASE + i as u16,
                )
            })
            .collect();

        // Fault-boxed applications with checkpoint protection.
        let mut orch = RecoveryOrchestrator::new();
        for (app_id, &home) in APP_HOMES.iter().enumerate() {
            let home_ctx = rack.node(home);
            let fbox = FaultBoxBuilder::new(app_id as u64)
                .stack_pages(1)
                .heap_pages(2)
                .build(
                    &home_ctx,
                    rack.global(),
                    flac.alloc().clone(),
                    flac.frames(),
                    flac.epochs().clone(),
                )
                .expect("fault box");
            fbox.space()
                .write(
                    &home_ctx,
                    fbox.heap_va(0),
                    format!("app-{app_id}").as_bytes(),
                )
                .expect("seed app state");
            let protection = Protection::new(
                RedundancyPolicy::PeriodicCheckpoint { period_ns: 1 },
                CheckpointManager::new(flac.alloc().clone(), flac.epochs().clone()),
            );
            orch.register(&home_ctx, fbox, protection)
                .expect("register");
        }

        // Scrub region: the storm's poison target, filled with a known
        // pattern the reaction layer repairs word by word.
        let scrub_base = rack
            .global()
            .alloc(SCRUB_WORDS * 8, 64)
            .expect("scrub region");
        for w in 0..SCRUB_WORDS as u64 {
            let addr = GAddr(scrub_base.0 + w * 8);
            rack.node(0)
                .store_uncached_u64(addr, scrub_word(scrub_base, addr))
                .expect("fill scrub region");
        }
        let scratch_base = rack
            .global()
            .alloc(64 * steps as usize + 64, 64)
            .expect("scratch region");
        let campaign = RackCampaign {
            seed,
            fs,
            server,
            clients,
            orch,
            scrub_base,
            scratch_base,
            next_slot: 0,
            committed: Vec::new(),
            pending: Vec::new(),
            flushed: Vec::new(),
            stats: RackStats::default(),
        };
        (rack, campaign)
    }

    fn config(&self, steps: u32) -> StormConfig {
        StormConfig {
            steps,
            min_live_nodes: 2,
            poison_region: Some((self.scrub_base, SCRUB_WORDS * 8)),
            ..StormConfig::default()
        }
    }

    fn react(&mut self, rack: &Rack, step: u32, op: StormOp, broken: &mut Vec<String>) -> String {
        match op {
            StormOp::Workload => {
                // Flush the oldest pending dirty line whose node is live.
                let mut note = String::new();
                if let Some(i) = self
                    .pending
                    .iter()
                    .position(|&(node, _, _)| rack.is_alive(NodeId(node)))
                {
                    let (node, addr, value) = self.pending.remove(i);
                    rack.node(node).writeback(addr, 8);
                    self.flushed.push((addr, value));
                    note = format!(", flushed {addr}");
                }
                // A committed file write from the round-robin writer.
                let writer = live_writer(rack, step).expect("min_live_nodes >= 2");
                let path = format!("/storm/f{:04}", self.committed.len());
                let content = format!("s{:016x}-{step:04}", self.seed);
                if let Err(e) = self.fs[writer].write_file(&path, content.as_bytes()) {
                    self.stats.fs_degraded += 1;
                    return format!("fs write degraded on n{writer}: {e}{note}");
                }
                self.committed.push((path.clone(), content));
                self.stats.fs_commits += 1;
                // An RPC from the first live non-server node.
                if !rack.is_alive(NodeId(SERVER_NODE)) {
                    self.stats.rpc_degraded += 1;
                    return format!("wrote {path} on n{writer}; rpc skipped (server down){note}");
                }
                let Some(caller) =
                    (0..rack.node_count()).find(|&k| k != SERVER_NODE && rack.is_alive(NodeId(k)))
                else {
                    self.stats.rpc_degraded += 1;
                    return format!("wrote {path} on n{writer}; rpc skipped (no caller){note}");
                };
                self.stats.rpc_issued += 1;
                let args = format!("step-{step:04}");
                match self.call(caller, args.as_bytes()) {
                    Ok(reply) if reply == format!("ack:{args}").into_bytes() => {
                        self.stats.rpc_acked += 1;
                        format!("wrote {path} on n{writer}; rpc acked from n{caller}{note}")
                    }
                    Ok(_) => {
                        broken.push(format!("step {step}: rpc reply mismatch for {args}"));
                        format!("rpc reply MISMATCH on step {step}")
                    }
                    Err(e) => {
                        self.stats.rpc_degraded += 1;
                        format!("wrote {path} on n{writer}; rpc degraded from n{caller}: {e}{note}")
                    }
                }
            }
            StormOp::DelayedWriteback { node } => {
                let node_idx = node.0;
                if !rack.is_alive(node) {
                    return format!("dirty write skipped: n{node_idx} down");
                }
                let addr = GAddr(self.scratch_base.0 + self.next_slot * 64);
                self.next_slot += 1;
                let value = self.seed ^ (u64::from(step) << 32) ^ addr.0;
                match rack.node(node_idx).write_u64(addr, value) {
                    Ok(()) => {
                        self.pending.push((node_idx, addr, value));
                        format!("dirty write on n{node_idx} @ {addr} (unflushed)")
                    }
                    Err(e) => format!("dirty write failed on n{node_idx}: {e}"),
                }
            }
            StormOp::CrashNode { node } => {
                let node_idx = node.0;
                // Dirty, un-written-back lines on the victim die with it.
                let before = self.pending.len();
                self.pending.retain(|&(owner, _, _)| owner != node_idx);
                let lost = before - self.pending.len();
                self.stats.scratch_lost += lost as u64;
                // Re-elect every fault box homed there onto a survivor.
                let rescuer = lowest_live(rack);
                match self.orch.handle_node_crash(&rack.node(rescuer), node) {
                    Ok(rehomed) => {
                        self.stats.reelections += rehomed.len() as u64;
                        format!(
                            "crash n{node_idx}: {lost} dirty lines lost, re-homed {rehomed:?} \
                             onto n{rescuer}"
                        )
                    }
                    Err(e) => {
                        broken.push(format!("step {step}: re-election failed: {e}"));
                        format!("crash n{node_idx}: re-election FAILED: {e}")
                    }
                }
            }
            StormOp::RestartNode { node } => {
                let node_idx = node.0;
                // The restarted node's local replica is gone: rebuild the
                // mount purely from the journal.
                match self.fs[node_idx].recover() {
                    Ok(replayed) => {
                        self.stats.fs_replays += 1;
                        self.stats.fs_entries_replayed += replayed;
                        format!("restart n{node_idx}: journal replayed {replayed} entries")
                    }
                    Err(e) => {
                        broken.push(format!("step {step}: journal replay failed: {e}"));
                        format!("restart n{node_idx}: journal replay FAILED: {e}")
                    }
                }
            }
            StormOp::FailLink { from, to } => {
                format!("link n{}->n{} severed; workload continues", from.0, to.0)
            }
            StormOp::RestoreLink { from, to } => {
                format!("link n{}->n{} restored", from.0, to.0)
            }
            StormOp::PoisonWord { addr } => {
                // Scrub and repair from the known-good pattern.
                let fixer = lowest_live(rack);
                let ctx = rack.node(fixer);
                ctx.global().scrub(addr, 8);
                match ctx.store_uncached_u64(addr, scrub_word(self.scrub_base, addr)) {
                    Ok(()) => {
                        self.stats.scrubs += 1;
                        format!("poison @ {addr}: scrubbed and repaired by n{fixer}")
                    }
                    Err(e) => {
                        broken.push(format!("step {step}: scrub failed at {addr}: {e}"));
                        format!("poison @ {addr}: repair FAILED: {e}")
                    }
                }
            }
        }
    }

    fn check(mut self, rack: &Rack, broken: &mut Vec<String>) -> RackStats {
        // Post-heal: flush every remaining dirty line (all nodes live).
        while let Some((node, addr, value)) = self.pending.pop() {
            rack.node(node).writeback(addr, 8);
            self.flushed.push((addr, value));
        }

        // Invariant 1: no lost committed writes.
        for (path, content) in &self.committed {
            match self.fs[0].read_file(path) {
                Ok(data) if data == content.as_bytes() => {}
                Ok(data) => broken.push(format!(
                    "committed {path} corrupted: want {:?}, got {:?}",
                    content,
                    String::from_utf8_lossy(&data)
                )),
                Err(e) => broken.push(format!("committed {path} unreadable: {e}")),
            }
        }
        for &(addr, value) in &self.flushed {
            match rack.node(0).load_uncached_u64(addr) {
                Ok(got) if got == value => {}
                Ok(got) => broken.push(format!(
                    "flushed scratch {addr} lost: want {value:#x}, got {got:#x}"
                )),
                Err(e) => broken.push(format!("flushed scratch {addr} unreadable: {e}")),
            }
        }
        for w in 0..SCRUB_WORDS as u64 {
            let addr = GAddr(self.scrub_base.0 + w * 8);
            let want = scrub_word(self.scrub_base, addr);
            match rack.node(0).load_uncached_u64(addr) {
                Ok(got) if got == want => {}
                Ok(got) => broken.push(format!(
                    "scrub word {addr} wrong: want {want:#x}, got {got:#x}"
                )),
                Err(e) => broken.push(format!("scrub word {addr} unreadable: {e}")),
            }
        }

        // Invariant 2: no double-delivery.
        let executed = self.server.executed();
        if executed < self.stats.rpc_acked {
            broken.push(format!(
                "rpc executed {executed} < acked {} — an acked call was never executed",
                self.stats.rpc_acked
            ));
        }
        if executed > self.stats.rpc_issued {
            broken.push(format!(
                "rpc executed {executed} > issued {} — some call id executed twice",
                self.stats.rpc_issued
            ));
        }

        // Invariant 3: liveness after recovery.
        for (i, mount) in self.fs.iter_mut().enumerate() {
            if !rack.is_alive(NodeId(i)) {
                broken.push(format!("node {i} still down after heal"));
                continue;
            }
            let path = format!("/storm/liveness-n{i}");
            match mount.write_file(&path, b"alive") {
                Ok(_) => match mount.read_file(&path) {
                    Ok(data) if data == b"alive" => {}
                    _ => broken.push(format!("post-heal read failed on node {i}")),
                },
                Err(e) => broken.push(format!("post-heal write failed on node {i}: {e}")),
            }
        }
        let caller = if SERVER_NODE == 0 { 1 } else { 0 };
        match self.call(caller, b"post-heal") {
            Ok(reply) if reply == b"ack:post-heal" => self.stats.rpc_issued += 1,
            other => broken.push(format!("post-heal rpc failed: {other:?}")),
        }
        for (app_id, _) in APP_HOMES.iter().enumerate() {
            let fbox = self.orch.fault_box(app_id as u64).expect("registered");
            let home = rack.node(fbox.home().0);
            let want = format!("app-{app_id}");
            let mut buf = vec![0u8; want.len()];
            match fbox.space().read(&home, fbox.heap_va(0), &mut buf) {
                Ok(()) if buf == want.as_bytes() => {}
                other => broken.push(format!(
                    "app {app_id} state lost on n{} after storm: {other:?}",
                    fbox.home().0
                )),
            }
        }

        RackStats {
            rpc_executed: self.server.executed(),
            rpc_dup_suppressed: self.server.dup_suppressed(),
            scratch_flushed: self.flushed.len() as u64,
            ..self.stats
        }
    }
}

/// Pages in the tiering campaign's shared address space.
const TIER_PAGES: u64 = 48;
/// Local-DRAM budget of the campaign's migrating node, in pages.
const TIER_BUDGET_PAGES: usize = 8;
/// The node running promotions/demotions (and crashing mid-flight).
const TIER_NODE: usize = 0;
/// Address-space id of the campaign workload.
const TIER_ASID: u64 = 1;

/// Counters of the [`TieringCampaign`].
#[derive(Debug, Clone, Default)]
pub struct TieringStats {
    /// Page writes acknowledged to the workload.
    pub writes_committed: u64,
    /// Page writes skipped (page migrating or its home node down).
    pub writes_skipped: u64,
    /// Migrations committed global → local.
    pub promotions: u64,
    /// Migrations committed local → global.
    pub demotions: u64,
    /// Mid-flight migrations rolled back (survivor abort after a crash,
    /// plus the end-of-campaign cleanup abort if one was in flight).
    pub aborts: u64,
}

impl Stats for TieringStats {
    const HEADER: &'static str = "wr ok/skip | prom | demo | abt";

    fn cells(&self) -> String {
        format!(
            "{:>4}/{:<4} | {:>4} | {:>4} | {:>3}",
            self.writes_committed,
            self.writes_skipped,
            self.promotions,
            self.demotions,
            self.aborts
        )
    }
}

/// Rack-wide shootdown that only expects the live nodes to participate
/// (dead peers have no stale TLB; acks from stragglers are not awaited).
fn shootdown_live(
    tlbs: &mut [Tlb],
    rack: &Rack,
    initiator: usize,
    asid: u64,
    vpn: u64,
) -> Result<(), SimError> {
    let peers: Vec<NodeId> = tlbs.iter().map(Tlb::node_id).collect();
    let expected = tlbs[initiator].begin_shootdown(&peers, asid, vpn)?;
    for (i, tlb) in tlbs.iter_mut().enumerate() {
        if i != initiator && rack.is_alive(NodeId(i)) {
            tlb.service_shootdowns()?;
        }
    }
    let _ = tlbs[initiator].collect_acks(expected);
    Ok(())
}

/// The page-tiering campaign: node 0 continuously promotes and demotes
/// pages of a shared address space (one migration stage per workload
/// step) while the storm crashes and restarts nodes underneath it, and
/// every node keeps writing to non-migrating pages. Invariants checked
/// after the heal:
///
/// 1. **No lost committed writes** — every page holds exactly the last
///    content a write acknowledged, whether the page was promoted,
///    demoted, or caught mid-migration by a crash (the old copy stays
///    authoritative until commit, so a survivor's abort loses nothing).
/// 2. **No torn mappings** — no PTE is left with the `Migrating` guard.
/// 3. **Budget accounting** — the migrating node never holds more local
///    pages than its budget.
pub struct TieringCampaign {
    seed: u64,
    n0: Arc<NodeCtx>,
    space: AddressSpace,
    frames: FrameAllocator,
    pool: LocalFramePool,
    tlbs: Vec<Tlb>,
    /// The last acknowledged content of every page.
    model: Vec<Vec<u8>>,
    /// vpn → local frame of pages promoted onto `TIER_NODE` (ordered,
    /// so the demotion victim — the smallest vpn — is deterministic).
    promoted: BTreeMap<u64, LAddr>,
    /// One in-flight staged migration: (migration, promote?).
    in_flight: Option<(Migration, bool)>,
    mig_cursor: u64,
    stats: TieringStats,
}

impl TieringCampaign {
    /// Return `frame` to the pool it came from.
    fn free(&mut self, ctx: &NodeCtx, frame: PhysFrame) {
        match frame {
            PhysFrame::Global(g) => self.frames.free(ctx, g),
            PhysFrame::Local(_, l) => self.pool.free(l),
        }
    }

    /// Roll `m` back from `ctx` (the old copy stays authoritative) and
    /// release its target frame.
    fn abort(&mut self, ctx: &Arc<NodeCtx>, m: &Migration) {
        m.abort(ctx, &self.space).expect("abort");
        self.free(ctx, m.new_frame());
        self.stats.aborts += 1;
    }

    /// Run one migration micro-step on the tiering node; returns the
    /// event-log note.
    fn migrate(&mut self, rack: &Rack) -> String {
        let n0 = self.n0.clone();
        let Some((mut m, promote)) = self.in_flight.take() else {
            // Choose the next migration: demote the smallest promoted vpn
            // when at budget, else promote the cursor's next global page.
            let (vpn, dst, promote) = if self.promoted.len() >= TIER_BUDGET_PAGES {
                let vpn = *self.promoted.keys().next().expect("non-empty");
                let dst = PhysFrame::Global(self.frames.alloc(&n0).expect("frame"));
                (vpn, dst, false)
            } else {
                let vpn = self.mig_cursor % TIER_PAGES;
                self.mig_cursor += 1;
                if self.promoted.contains_key(&vpn) {
                    return format!(", vpn {vpn} already local");
                }
                let dst = PhysFrame::Local(n0.id(), self.pool.alloc(&n0).expect("local frame"));
                (vpn, dst, true)
            };
            let kind = if promote { "promote" } else { "demote" };
            return match Migration::begin(&n0, &self.space, vpn, dst) {
                Ok(m) => {
                    self.in_flight = Some((m, promote));
                    format!(", {kind} of vpn {vpn} began")
                }
                Err(e) => format!(", {kind} begin failed: {e}"),
            };
        };
        let vpn = m.vpn();
        if m.copy(&n0, &self.space).is_err() {
            self.abort(&n0, &m);
            return format!(", copy of vpn {vpn} failed; aborted");
        }
        let dst = m.new_frame();
        let tlbs = &mut self.tlbs;
        let old = m
            .commit(&n0, &self.space, &mut |asid, vpn| {
                shootdown_live(tlbs, rack, TIER_NODE, asid, vpn)
            })
            .expect("commit");
        self.free(&n0, old.frame);
        if promote {
            let PhysFrame::Local(_, l) = dst else {
                unreachable!("promotion targets a local frame")
            };
            self.promoted.insert(vpn, l);
            self.stats.promotions += 1;
            format!(", promoted vpn {vpn}")
        } else {
            self.promoted.remove(&vpn);
            self.stats.demotions += 1;
            format!(", demoted vpn {vpn}")
        }
    }
}

impl Campaign for TieringCampaign {
    type Stats = TieringStats;

    fn boot(seed: u64, _steps: u32) -> (Rack, Self) {
        let flac =
            FlacRack::boot(RackConfig::n_node(NODES).with_seed(seed ^ 0xF1AC)).expect("boot");
        let rack = flac.sim().clone();
        let n0 = rack.node(TIER_NODE);
        let space = AddressSpace::alloc(
            TIER_ASID,
            rack.global(),
            flac.alloc().clone(),
            flac.epochs().clone(),
            flac.retired().clone(),
        )
        .expect("address space");
        let frames = FrameAllocator::new(rack.global().clone());
        let mut model = Vec::new();
        for vpn in 0..TIER_PAGES {
            let f = frames.alloc(&n0).expect("frame");
            space
                .map(&n0, vpn, Pte::new(PhysFrame::Global(f), true))
                .expect("map");
            let content = format!("init-{vpn:04}").into_bytes();
            space
                .write(&n0, VirtAddr::from_vpn(vpn), &content)
                .expect("seed page");
            model.push(content);
        }
        let tlbs = (0..rack.node_count())
            .map(|i| Tlb::new(rack.node(i), 64))
            .collect();
        let campaign = TieringCampaign {
            seed,
            n0,
            space,
            frames,
            pool: LocalFramePool::new(),
            tlbs,
            model,
            promoted: BTreeMap::new(),
            in_flight: None,
            mig_cursor: 0,
            stats: TieringStats::default(),
        };
        (rack, campaign)
    }

    fn react(&mut self, rack: &Rack, step: u32, op: StormOp, _: &mut Vec<String>) -> String {
        match op {
            StormOp::Workload => {
                let note = if rack.is_alive(NodeId(TIER_NODE)) {
                    self.migrate(rack)
                } else {
                    format!(", tier idle (n{TIER_NODE} down)")
                };

                // A committed write to a round-robin page from the node
                // that can reach its frame.
                let vpn = u64::from(step) % TIER_PAGES;
                let lowest_live = lowest_live(rack);
                let pte = self
                    .space
                    .translate(&rack.node(lowest_live), VirtAddr::from_vpn(vpn))
                    .expect("walk")
                    .expect("mapped");
                if pte.migrating {
                    self.stats.writes_skipped += 1;
                    return format!("write vpn {vpn} skipped: migrating{note}");
                }
                let writer = match pte.frame {
                    PhysFrame::Local(home, _) if !rack.is_alive(home) => {
                        self.stats.writes_skipped += 1;
                        return format!(
                            "write vpn {vpn} skipped: local home n{} down{note}",
                            home.0
                        );
                    }
                    PhysFrame::Local(home, _) => home.0,
                    PhysFrame::Global(_) => lowest_live,
                };
                let content = format!("s{:016x}-{step:04}", self.seed).into_bytes();
                match self
                    .space
                    .write(&rack.node(writer), VirtAddr::from_vpn(vpn), &content)
                {
                    Ok(()) => {
                        self.model[vpn as usize] = content;
                        self.stats.writes_committed += 1;
                        format!("wrote vpn {vpn} from n{writer}{note}")
                    }
                    Err(e) => {
                        self.stats.writes_skipped += 1;
                        format!("write vpn {vpn} degraded on n{writer}: {e}{note}")
                    }
                }
            }
            StormOp::CrashNode { node } => {
                let node_idx = node.0;
                // The crash-consistency story: a survivor rolls back any
                // migration the dead node left mid-flight — the old copy
                // is still authoritative, so nothing is lost.
                if node_idx != TIER_NODE {
                    return format!("crash n{node_idx}: workload continues");
                }
                let Some((m, _)) = self.in_flight.take() else {
                    return format!("crash n{node_idx}: tiering paused, no migration in flight");
                };
                let rescuer = lowest_live(rack);
                self.abort(&rack.node(rescuer), &m);
                format!(
                    "crash n{node_idx}: survivor n{rescuer} aborted mid-flight \
                     migration of vpn {} (old copy authoritative)",
                    m.vpn()
                )
            }
            StormOp::RestartNode { node } => {
                // A restarted node boots with a cold TLB.
                self.tlbs[node.0].flush_asid(TIER_ASID);
                format!("restart n{}: TLB cold, tiering resumes", node.0)
            }
            _ => "unused op class (weight 0)".to_string(),
        }
    }

    fn check(mut self, rack: &Rack, broken: &mut Vec<String>) -> TieringStats {
        // Post-heal: roll back any still-open migration window.
        if let Some((m, _)) = self.in_flight.take() {
            let n0 = self.n0.clone();
            self.abort(&n0, &m);
        }

        // Invariant 1: no lost committed writes, readable from any node.
        for (vpn, want) in (0..TIER_PAGES).zip(&self.model) {
            let pte = match self.space.translate(&self.n0, VirtAddr::from_vpn(vpn)) {
                Ok(Some(pte)) => pte,
                other => {
                    broken.push(format!("vpn {vpn} unmapped after storm: {other:?}"));
                    continue;
                }
            };
            // Invariant 2: no torn mappings.
            if pte.migrating {
                broken.push(format!("vpn {vpn} left with the Migrating guard set"));
                continue;
            }
            // Read through the frame's home so local pages are reachable.
            let reader = match pte.frame {
                PhysFrame::Local(home, _) => rack.node(home.0),
                PhysFrame::Global(_) => self.n0.clone(),
            };
            let mut buf = vec![0u8; want.len()];
            match self.space.read(&reader, VirtAddr::from_vpn(vpn), &mut buf) {
                Ok(()) if &buf == want => {}
                Ok(()) => broken.push(format!(
                    "vpn {vpn} corrupted: want {:?}, got {:?}",
                    String::from_utf8_lossy(want),
                    String::from_utf8_lossy(&buf)
                )),
                Err(e) => broken.push(format!("vpn {vpn} unreadable: {e}")),
            }
        }

        // Invariant 3: budget accounting.
        if self.promoted.len() > TIER_BUDGET_PAGES {
            broken.push(format!(
                "local tier over budget: {} > {TIER_BUDGET_PAGES} pages",
                self.promoted.len()
            ));
        }
        self.stats
    }
}

/// The shared ledger under the sync campaigns' cell: committed entries
/// in commit order (so divergence is directly visible).
#[derive(Debug, Default, Clone)]
struct SyncLedger {
    entries: Vec<(u32, u32)>,
}

impl flacdk::sync::SyncState for SyncLedger {
    fn apply(&mut self, op: &[u8]) {
        let mut d = flacdk::wire::Decoder::new(op);
        if let (Ok(node), Ok(step)) = (d.u32(), d.u32()) {
            self.entries.push((node, step));
        }
    }
}

fn sync_op(node: usize, step: u32) -> Vec<u8> {
    let mut e = flacdk::wire::Encoder::new();
    e.put_u32(node as u32).put_u32(step);
    e.into_vec()
}

/// Counters of the [`SyncCampaign`] and the [`NrSyncCampaign`].
#[derive(Debug, Clone, Default)]
pub struct SyncStats {
    /// Updates acknowledged (committed to the cell's op log).
    pub ops_committed: u64,
    /// Updates skipped because no live node could issue them.
    pub ops_skipped: u64,
    /// Delegation owners (or, node-replicated, combiners) re-elected
    /// after a crash.
    pub reelections: u64,
    /// Entries the post-heal log replay reconstructed.
    pub replayed: u64,
}

impl Stats for SyncStats {
    const HEADER: &'static str = "op ok/skip | re# | rplay";

    fn cells(&self) -> String {
        format!(
            "{:>4}/{:<4} | {:>3} | {:>5}",
            self.ops_committed, self.ops_skipped, self.reelections, self.replayed
        )
    }
}

/// What the two sync-cell campaigns share: the ledger cell wired into
/// crash recovery, and the model of acknowledged ops.
struct Ledger {
    cell: Arc<SyncCell<SyncLedger>>,
    orch: RecoveryOrchestrator,
    /// Acknowledged ops keyed by commit index: the model the final state
    /// must match exactly.
    model: Vec<(u64, (u32, u32))>,
    steps: u32,
    stats: SyncStats,
}

impl Ledger {
    /// A bare rack and a `policy` ledger cell attached to a
    /// [`RecoveryOrchestrator`], the same path `FlacRack` wires up.
    fn boot(seed: u64, steps: u32, name: &'static str, policy: SyncPolicy) -> (Rack, Self) {
        let rack = small_rack(seed);
        // A generously sized log and no gc() calls: the whole campaign
        // must stay replayable for the replay invariant.
        let cell = SyncCell::alloc(
            rack.global(),
            name,
            SyncCellConfig::new(rack.node_count(), policy).with_log(4096, 48),
            SyncLedger::default(),
        )
        .expect("cell");
        let mut orch = RecoveryOrchestrator::new();
        orch.attach_sync(cell.clone());
        let campaign = Ledger {
            cell,
            orch,
            model: Vec::new(),
            steps,
            stats: SyncStats::default(),
        };
        (rack, campaign)
    }

    /// The post-heal invariants; `lost` names what a final state that
    /// disagrees with the model means.
    ///
    /// 1. **No committed update lost** — the cell's final state holds
    ///    exactly the acknowledged ops, in commit (log) order.
    /// 2. **Replay-verified** — replaying the cell's op log from scratch
    ///    ([`SyncCell::replay`]) reconstructs the identical state.
    /// 3. **Liveness** — every node is back, and one more update lands
    ///    through the healed owner or combiner path.
    fn check(mut self, rack: &Rack, lost: &str, broken: &mut Vec<String>) -> SyncStats {
        self.model.sort_unstable_by_key(|&(idx, _)| idx);
        let expected: Vec<(u32, u32)> = self.model.iter().map(|&(_, op)| op).collect();
        let n0 = rack.node(0);
        let final_entries = self
            .cell
            .read(&n0, |l| l.entries.clone())
            .expect("final read");
        if final_entries != expected {
            broken.push(format!(
                "committed ops {lost}: cell has {} entries, model {}",
                final_entries.len(),
                expected.len()
            ));
        }

        let (replayed_state, replayed) = self
            .cell
            .replay(&n0, SyncLedger::default())
            .expect("log replay");
        if replayed_state.entries != expected {
            broken.push(format!(
                "log replay diverged: {} replayed entries vs {} committed",
                replayed_state.entries.len(),
                expected.len()
            ));
        }

        for i in 0..rack.node_count() {
            if !rack.is_alive(NodeId(i)) {
                broken.push(format!("node {i} still down after heal"));
            }
        }
        let want = self.model.len() + 1;
        match self.cell.update(&n0, &sync_op(0, self.steps)) {
            Ok(_) => {
                let len = self
                    .cell
                    .read(&n0, |l| l.entries.len())
                    .expect("post-heal read");
                if len != want {
                    broken.push(format!(
                        "post-heal update invisible: {len} entries vs {want} expected"
                    ));
                }
            }
            Err(e) => broken.push(format!("post-heal update failed: {e}")),
        }
        SyncStats {
            ops_committed: self.model.len() as u64,
            replayed,
            ..self.stats
        }
    }
}

/// The delegated sync-cell campaign: every live node commits updates
/// into one **delegated** [`SyncCell`] while the storm crashes and
/// restarts nodes underneath it — including the delegation owner
/// mid-stream. Crashes route through
/// [`RecoveryOrchestrator::handle_node_crash`] with the cell attached
/// ([`RecoveryOrchestrator::attach_sync`]), so a dead owner is
/// re-elected and the committed op log drained by a survivor. The
/// post-heal invariants are the shared ledger checks: no committed
/// update lost across any re-election, the op log replays to the
/// identical state, and every node can still commit.
pub struct SyncCampaign(Ledger);

impl Campaign for SyncCampaign {
    type Stats = SyncStats;

    fn boot(seed: u64, steps: u32) -> (Rack, Self) {
        let (rack, ledger) = Ledger::boot(seed, steps, "storm_ledger", SyncPolicy::Delegated);
        (rack, SyncCampaign(ledger))
    }

    fn react(&mut self, rack: &Rack, step: u32, op: StormOp, broken: &mut Vec<String>) -> String {
        let l = &mut self.0;
        match op {
            StormOp::Workload => {
                // A round-robin live node commits one update; a second live
                // node reads and must see every previously committed op.
                let Some(writer) = live_writer(rack, step) else {
                    l.stats.ops_skipped += 1;
                    return "update skipped: no live writer".to_string();
                };
                match l.cell.update(&rack.node(writer), &sync_op(writer, step)) {
                    Ok(idx) => {
                        l.model.push((idx, (writer as u32, step)));
                        let committed = l.model.len();
                        let reader = (0..rack.node_count())
                            .rev()
                            .find(|&k| rack.is_alive(NodeId(k)))
                            .expect("live reader");
                        let seen = l
                            .cell
                            .read(&rack.node(reader), |l| l.entries.len())
                            .expect("read");
                        if seen < committed {
                            broken.push(format!(
                                "step {step}: n{reader} sees {seen} < {committed} committed"
                            ));
                        }
                        format!("op {idx} committed from n{writer}, n{reader} sees {seen}")
                    }
                    Err(e) => {
                        l.stats.ops_skipped += 1;
                        format!("update degraded on n{writer}: {e}")
                    }
                }
            }
            StormOp::CrashNode { node } => {
                let node_idx = node.0;
                let rescuer = lowest_live(rack);
                let ctx = rack.node(rescuer);
                let owner_before = l.cell.owner_node(&ctx).expect("owner");
                match l.orch.handle_node_crash(&ctx, node) {
                    Ok(_) => {
                        let owner_after = l.cell.owner_node(&ctx).expect("owner");
                        if owner_before != Some(node) {
                            return format!("crash n{node_idx}: owner {owner_before:?} unaffected");
                        }
                        l.stats.reelections += 1;
                        format!(
                            "crash n{node_idx}: delegation owner died; n{rescuer} re-elected \
                             (owner now {owner_after:?})"
                        )
                    }
                    Err(e) => {
                        broken.push(format!("step {step}: sync recovery failed: {e}"));
                        format!("crash n{node_idx}: sync recovery FAILED: {e}")
                    }
                }
            }
            StormOp::RestartNode { node } => {
                format!("restart n{}: rejoins as a plain client", node.0)
            }
            _ => "unused op class (weight 0)".to_string(),
        }
    }

    fn check(self, rack: &Rack, broken: &mut Vec<String>) -> SyncStats {
        self.0.check(rack, "lost or reordered", broken)
    }
}

/// The **node-replicated** sync-cell campaign: the flat-combining
/// counterpart of [`SyncCampaign`]. Live nodes drive the split
/// publication protocol ([`SyncCell::nr_publish`] →
/// [`SyncCell::nr_combine`] → [`SyncCell::nr_poll`]), and on a seeded
/// schedule the campaign kills a combiner **mid-batch** — in both fatal
/// windows:
///
/// * *before the tail CAS* — the role is claimed and the slots are
///   drained, but nothing committed; re-election must commit every
///   stranded publication exactly once;
/// * *after the append* — the batch is committed but no slot was
///   consumed and the role never released; re-election must dedup
///   against the committed window and **not** double-apply.
///
/// After every recovery the stranded publishers' polls must return a
/// log index (no published op lost), and the cell must hold exactly
/// the model's ops (no double-apply). The storm's own node crashes and
/// restarts run underneath throughout. The post-heal invariants match
/// [`SyncCampaign`]'s; `reelections` counts combiner re-elections.
pub struct NrSyncCampaign(Ledger);

impl NrSyncCampaign {
    /// Two publishers strand ops, the last live node claims the
    /// combiner role and dies in one of the two fatal windows, and a
    /// survivor's recovery must land every stranded op exactly once.
    fn kill_combiner_mid_batch(
        &mut self,
        rack: &Rack,
        step: u32,
        live_nodes: &[usize],
        broken: &mut Vec<String>,
    ) -> String {
        let l = &mut self.0;
        let publishers = [live_nodes[0], live_nodes[1]];
        let victim = *live_nodes.last().expect("nonempty");
        for &p in &publishers {
            if let Err(e) = l.cell.nr_publish(&rack.node(p), &sync_op(p, step)) {
                broken.push(format!("step {step}: publish failed on n{p}: {e}"));
                return format!("mid-batch stage failed: publish on n{p}: {e}");
            }
        }
        let before_cas = step.is_multiple_of(2);
        let armed = if before_cas {
            l.cell.nr_combine_crash_before_append(&rack.node(victim))
        } else {
            l.cell.nr_combine_crash_after_append(&rack.node(victim))
        };
        if let Err(e) = armed {
            broken.push(format!("step {step}: combiner claim failed: {e}"));
            return format!("mid-batch stage failed: claim on n{victim}: {e}");
        }
        rack.faults().crash_node(NodeId(victim), u64::from(step));
        let rescuer = lowest_live(rack);
        if let Err(e) = l
            .orch
            .handle_node_crash(&rack.node(rescuer), NodeId(victim))
        {
            broken.push(format!("step {step}: mid-batch recovery failed: {e}"));
            return format!("mid-batch recovery FAILED: {e}");
        }
        l.stats.reelections += 1;
        // Every stranded publication must have landed exactly once; the
        // poll hands back its committed index.
        for &p in &publishers {
            match l.cell.nr_poll(&rack.node(p)) {
                Ok(Some(idx)) => l.model.push((idx, (p as u32, step))),
                other => broken.push(format!(
                    "step {step}: op from n{p} lost across combiner crash: {other:?}"
                )),
            }
        }
        let seen = l
            .cell
            .read(&rack.node(rescuer), |l| l.entries.len())
            .expect("read");
        if seen != l.model.len() {
            broken.push(format!(
                "step {step}: {seen} entries vs {} committed (lost or double-applied)",
                l.model.len()
            ));
        }
        rack.faults().restart_node(NodeId(victim), u64::from(step));
        format!(
            "combiner n{victim} died mid-batch ({}); n{rescuer} re-elected, \
             {} stranded ops recovered, {seen} total",
            if before_cas {
                "before tail CAS"
            } else {
                "after append"
            },
            publishers.len()
        )
    }
}

impl Campaign for NrSyncCampaign {
    type Stats = SyncStats;

    fn boot(seed: u64, steps: u32) -> (Rack, Self) {
        let (rack, ledger) =
            Ledger::boot(seed, steps, "storm_nr_ledger", SyncPolicy::NodeReplicated);
        (rack, NrSyncCampaign(ledger))
    }

    fn react(&mut self, rack: &Rack, step: u32, op: StormOp, broken: &mut Vec<String>) -> String {
        match op {
            StormOp::Workload => {
                let live_nodes: Vec<usize> = (0..rack.node_count())
                    .filter(|&k| rack.is_alive(NodeId(k)))
                    .collect();
                // Every third workload step with enough live actors stages a
                // mid-batch combiner crash instead of a clean round.
                if step % 3 == 2 && live_nodes.len() >= 4 {
                    return self.kill_combiner_mid_batch(rack, step, &live_nodes, broken);
                }
                // Clean round: round-robin publisher, a different live
                // combiner drains, the publisher polls its index.
                let l = &mut self.0;
                let Some(writer) = live_writer(rack, step) else {
                    l.stats.ops_skipped += 1;
                    return "publish skipped: no live writer".to_string();
                };
                if let Err(e) = l
                    .cell
                    .nr_publish(&rack.node(writer), &sync_op(writer, step))
                {
                    l.stats.ops_skipped += 1;
                    return format!("publish degraded on n{writer}: {e}");
                }
                let combiner = live_nodes
                    .iter()
                    .rev()
                    .copied()
                    .find(|&k| k != writer)
                    .unwrap_or(writer);
                match l.cell.nr_combine(&rack.node(combiner)) {
                    Ok(combined) => match l.cell.nr_poll(&rack.node(writer)) {
                        Ok(Some(idx)) => {
                            l.model.push((idx, (writer as u32, step)));
                            format!(
                                "op {idx} published from n{writer}, combined ({combined}) by \
                                 n{combiner}"
                            )
                        }
                        other => {
                            broken.push(format!(
                                "step {step}: publication from n{writer} unacknowledged: {other:?}"
                            ));
                            format!("publication from n{writer} UNACKNOWLEDGED")
                        }
                    },
                    Err(e) => {
                        broken.push(format!("step {step}: combine failed on n{combiner}: {e}"));
                        format!("combine FAILED on n{combiner}: {e}")
                    }
                }
            }
            StormOp::CrashNode { node } => {
                let rescuer = lowest_live(rack);
                match self.0.orch.handle_node_crash(&rack.node(rescuer), node) {
                    Ok(_) => format!("crash n{}: slots drained by n{rescuer}", node.0),
                    Err(e) => {
                        broken.push(format!("step {step}: sync recovery failed: {e}"));
                        format!("crash n{}: sync recovery FAILED: {e}", node.0)
                    }
                }
            }
            StormOp::RestartNode { node } => {
                format!("restart n{}: rejoins with a cold replica", node.0)
            }
            _ => "unused op class (weight 0)".to_string(),
        }
    }

    fn check(self, rack: &Rack, broken: &mut Vec<String>) -> SyncStats {
        self.0.check(rack, "lost, duplicated, or reordered", broken)
    }
}

/// Images in the chunk-store campaign's catalogue.
const STORE_IMAGES: usize = 3;
/// Pages per campaign image.
const STORE_IMAGE_PAGES: u64 = 64;
/// Layers per campaign image (adjacent images share half by content).
const STORE_IMAGE_LAYERS: usize = 4;
/// Max missing hashes one claim step grabs.
const STORE_CLAIM_LIMIT: usize = 24;

/// Counters of the [`StoreCampaign`].
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// Fetch claims won across the campaign.
    pub claims_won: u64,
    /// Chunks downloaded and committed present.
    pub committed: u64,
    /// In-flight claims aborted by crash recovery.
    pub aborted: u64,
    /// Chunks found already resident by claim steps.
    pub rack_hits: u64,
    /// Workload steps skipped (writer down, nothing to do).
    pub skipped: u64,
}

impl Stats for StoreStats {
    const HEADER: &'static str = "clm/cmt | abt | hits | skip";

    fn cells(&self) -> String {
        format!(
            "{:>4}/{:<4} | {:>3} | {:>4} | {:>4}",
            self.claims_won, self.committed, self.aborted, self.rack_hits, self.skipped
        )
    }
}

/// The chunk-store campaign: live nodes cold-start overlapping
/// container images through the content-addressed store's two-phase
/// `claim`/`complete` protocol while the storm crashes and restarts
/// nodes underneath them — including fetchers *between* claim and
/// commit, the mid-fetch window. Crashes route through
/// [`RecoveryOrchestrator::handle_node_crash`] with the store attached
/// as a [`flacdk::sync::SyncRecover`], so a dead fetcher's in-flight
/// claims are aborted by an `ABORT` op in the shared log and survivors
/// re-claim the work. Invariants checked after the heal:
///
/// 1. **No duplicate downloads** — every chunk that ended up resident
///    was shipped by its backend shard exactly once, rack-wide, no
///    matter how many claims were aborted and re-taken.
/// 2. **Index consistent** — no `Fetching` entry survives the heal,
///    every catalogue chunk is present, and the deduper holds exactly
///    one frame per unique chunk.
/// 3. **Replay-verified** — replaying the index's committed op log from
///    scratch reproduces the identical present map (the campaign never
///    calls `gc()` so the whole history stays replayable).
pub struct StoreCampaign {
    images: Vec<ContainerImage>,
    catalogue: BTreeSet<u64>,
    store: Arc<ChunkStore>,
    orch: RecoveryOrchestrator,
    /// Claims won but not yet completed: (node, won hashes). The window
    /// between the two phases is exactly where a crash hurts.
    pending: Vec<(usize, Vec<u64>)>,
    stats: StoreStats,
}

impl Campaign for StoreCampaign {
    type Stats = StoreStats;

    fn boot(seed: u64, _steps: u32) -> (Rack, Self) {
        let rack = small_rack(seed);
        // Overlapping catalogue: image k's layer seeds are 100+2k ..
        // 100+2k+4, so adjacent images share two of four layers by content.
        let images: Vec<ContainerImage> = (0..STORE_IMAGES)
            .map(|k| {
                ContainerImage::synthetic(
                    &format!("img-{k}"),
                    STORE_IMAGE_PAGES,
                    STORE_IMAGE_LAYERS,
                    100 + 2 * k as u64,
                )
            })
            .collect();
        let backends = Arc::new(ShardedBackends::uniform(
            4,
            BackendConfig {
                bandwidth_bytes_per_sec: 500_000_000,
                per_request_ns: 100_000,
                per_chunk_ns: 100,
            },
        ));
        let mut catalogue = BTreeSet::new();
        for img in &images {
            img.publish(&backends);
            catalogue.extend(img.chunk_hashes());
        }
        let dedup = Arc::new(PageDeduper::new(FrameAllocator::new(rack.global().clone())));
        // A generously sized log and no gc() calls: the whole campaign
        // must stay replayable for invariant 3.
        let store = ChunkStore::alloc(
            rack.global(),
            backends,
            dedup,
            StoreConfig::new(rack.node_count())
                .with_log(2048, 1024)
                .with_claim_batch(STORE_CLAIM_LIMIT),
        )
        .expect("store");
        let mut orch = RecoveryOrchestrator::new();
        orch.attach_sync(store.clone());
        let campaign = StoreCampaign {
            images,
            catalogue,
            store,
            orch,
            pending: Vec::new(),
            stats: StoreStats::default(),
        };
        (rack, campaign)
    }

    fn react(&mut self, rack: &Rack, step: u32, op: StormOp, broken: &mut Vec<String>) -> String {
        match op {
            StormOp::Workload => {
                let Some(worker) = live_writer(rack, step) else {
                    self.stats.skipped += 1;
                    return "store step skipped: no live worker".to_string();
                };
                let ctx = rack.node(worker);
                // Finish this node's oldest pending fetch first (the
                // single-flight discipline: one node never claims more
                // while sitting on won-but-unfetched work).
                if let Some(i) = self.pending.iter().position(|&(node, _)| node == worker) {
                    let (_, won) = self.pending.remove(i);
                    return match self.store.complete(&ctx, &won) {
                        Ok(done) => {
                            self.stats.committed += done.committed;
                            if done.lost.is_empty() {
                                format!("n{worker} completed {} chunk(s)", done.committed)
                            } else {
                                format!(
                                    "n{worker} completed {} chunk(s), lost {} to recovery",
                                    done.committed,
                                    done.lost.len()
                                )
                            }
                        }
                        Err(e) => {
                            broken.push(format!("step {step}: complete failed on n{worker}: {e}"));
                            format!("n{worker} complete FAILED: {e}")
                        }
                    };
                }
                // Otherwise claim a slice of the step's image. Hashes other
                // nodes hold in `Fetching` stay theirs (single-flight);
                // this node only takes what is absent.
                let image = step as usize % STORE_IMAGES;
                let all = self.images[image].chunk_hashes();
                let off = (step as usize * STORE_CLAIM_LIMIT) % all.len().max(1);
                let hashes: Vec<u64> = all
                    .iter()
                    .cycle()
                    .skip(off)
                    .take(STORE_CLAIM_LIMIT)
                    .copied()
                    .collect();
                match self.store.claim(&ctx, &hashes) {
                    Ok(outcome) => {
                        self.stats.claims_won += outcome.won.len() as u64;
                        self.stats.rack_hits += outcome.present.len() as u64;
                        let msg = format!(
                            "n{worker} claim on img-{image}: won {}, present {}, in-flight {}",
                            outcome.won.len(),
                            outcome.present.len(),
                            outcome.in_flight.len()
                        );
                        if !outcome.won.is_empty() {
                            self.pending.push((worker, outcome.won));
                        }
                        msg
                    }
                    Err(e) => {
                        broken.push(format!("step {step}: claim failed on n{worker}: {e}"));
                        format!("n{worker} claim FAILED: {e}")
                    }
                }
            }
            StormOp::CrashNode { node } => {
                let node_idx = node.0;
                // The dead fetcher's won-but-unfetched work dies with it;
                // recovery aborts its index claims so survivors re-claim.
                let before = self.pending.len();
                self.pending.retain(|&(owner, _)| owner != node_idx);
                let dropped = before - self.pending.len();
                let rescuer = lowest_live(rack);
                match self.orch.handle_node_crash(&rack.node(rescuer), node) {
                    Ok(_) => format!(
                        "crash n{node_idx} mid-fetch: {dropped} pending batch(es) dropped, \
                         claims aborted by n{rescuer}"
                    ),
                    Err(e) => {
                        broken.push(format!("step {step}: store recovery failed: {e}"));
                        format!("crash n{node_idx}: store recovery FAILED: {e}")
                    }
                }
            }
            StormOp::RestartNode { node } => {
                format!("restart n{}: rejoins with no claims", node.0)
            }
            _ => "unused op class (weight 0)".to_string(),
        }
    }

    fn check(mut self, rack: &Rack, broken: &mut Vec<String>) -> StoreStats {
        // Post-heal: resolve every still-pending claim, then a survivor
        // finishes all the starts (every claim is now either completed or
        // owned by a live node that just completed it, so ensure cannot
        // block on a dead fetcher).
        let n0 = rack.node(0);
        while let Some((node, won)) = self.pending.pop() {
            match self.store.complete(&rack.node(node), &won) {
                Ok(done) => self.stats.committed += done.committed,
                Err(e) => broken.push(format!("post-heal complete on n{node} failed: {e}")),
            }
        }
        for img in &self.images {
            match self.store.ensure(&n0, &img.chunk_hashes()) {
                Ok(rep) => self.stats.committed += rep.fetched,
                Err(e) => broken.push(format!("post-heal ensure failed: {e}")),
            }
        }

        // Invariant 1: no duplicate downloads, rack-wide.
        for &h in &self.catalogue {
            let fetches = self.store.backends().fetch_count(h);
            if fetches != 1 {
                broken.push(format!(
                    "chunk {h:#018x} shipped {fetches} times — single-flight broken"
                ));
            }
        }

        // Invariant 2: index consistent after the heal.
        let (fetching, present) = self
            .store
            .peek_index(|s| (s.fetching_count(), s.present_count()));
        if fetching != 0 {
            broken.push(format!("{fetching} Fetching entries survived the heal"));
        }
        if present != self.catalogue.len() {
            broken.push(format!(
                "index holds {present} present chunks, catalogue has {}",
                self.catalogue.len()
            ));
        }
        let unique_frames = self.store.dedup().stats().unique_frames;
        if unique_frames != self.catalogue.len() as u64 {
            broken.push(format!(
                "deduper holds {unique_frames} frames for {} unique chunks",
                self.catalogue.len()
            ));
        }

        // Invariant 3: log replay reproduces the identical present map.
        match self.store.replay_matches(&n0) {
            Ok(true) => {}
            Ok(false) => broken.push("log replay diverged from the live index".into()),
            Err(e) => broken.push(format!("log replay failed: {e}")),
        }

        StoreStats {
            aborted: self.store.stats().claims_aborted,
            ..self.stats
        }
    }
}

/// A campaign's seed sweep ([`sweep`]): the seeds, the steps per
/// campaign, and whether to verify replays.
pub type Sweep = fn(Range<u64>, u32, bool) -> u64;

/// Every campaign, by command-line name.
pub static CAMPAIGNS: &[(&str, Sweep)] = &[
    ("rack", sweep::<RackCampaign>),
    ("tiering", sweep::<TieringCampaign>),
    ("sync", sweep::<SyncCampaign>),
    ("nr-sync", sweep::<NrSyncCampaign>),
    ("store", sweep::<StoreCampaign>),
];

/// Run campaign `C` once per seed, printing its survival table and the
/// last campaign's rack metrics; with `verify`, run every seed twice and
/// require the replay to reproduce the whole outcome. Returns the number
/// of violations plus diverged replays.
pub fn sweep<C: Campaign>(seeds: Range<u64>, steps: u32, verify: bool) -> u64 {
    println!("{}", CampaignReport::<C::Stats>::header());
    let mut failures = 0;
    let mut last = None;
    for seed in seeds {
        let report = run::<C>(seed, steps);
        println!("{}", report.row());
        for v in &report.violations {
            println!("    violation: {v}");
            failures += 1;
        }
        if verify && !report.same_outcome(&run::<C>(seed, steps)) {
            println!("    violation: replay of seed {seed:#x} DIVERGED");
            failures += 1;
        }
        last = Some(report);
    }
    if let Some(r) = last {
        println!(
            "\nrack metrics of the last campaign (seed {:#018x}):\n{}",
            r.seed, r.metrics
        );
    }
    failures
}

const USAGE: &str = "usage: flac-faultstorm <rack|tiering|sync|nr-sync|store|all> \
                     [--seeds N] [--steps M] [--seed X] [--verify]";

/// A parsed `flac-faultstorm` command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    /// A [`CAMPAIGNS`] name, or `all`.
    name: String,
    seeds: Range<u64>,
    steps: u32,
    verify: bool,
}

/// Parse the command line (without the program name).
///
/// # Errors
///
/// An unknown or missing campaign name, an unknown flag, a flag missing
/// or with a malformed value, or a seed range past `u64::MAX`.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let (name, flags) = args.split_first().ok_or("missing campaign name")?;
    if name != "all" && !CAMPAIGNS.iter().any(|(n, _)| n == name) {
        return Err(format!("unknown campaign {name:?}"));
    }
    let (mut seeds, mut steps, mut base, mut verify) = (8u64, 120u32, 0xF1AC_5708u64, false);
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        if flag == "--verify" {
            verify = true;
            continue;
        }
        if !["--seeds", "--steps", "--seed"].contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = flags
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag}: {e}");
        match (flag.as_str(), value.strip_prefix("0x")) {
            ("--seeds", _) => seeds = value.parse().map_err(bad)?,
            ("--steps", _) => steps = value.parse().map_err(bad)?,
            (_, Some(hex)) => base = u64::from_str_radix(&hex.replace('_', ""), 16).map_err(bad)?,
            (_, None) => base = value.parse().map_err(bad)?,
        }
    }
    let end = base
        .checked_add(seeds)
        .ok_or_else(|| format!("seeds {base:#x} + {seeds} overflow u64"))?;
    Ok(Args {
        name: name.clone(),
        seeds: base..end,
        steps,
        verify,
    })
}

/// Run the `flac-faultstorm` command line `args` (without the program
/// name) and return the process exit code: 0 when every campaign
/// survived, 1 on an invariant violation or a diverged replay, 2 on a
/// usage error.
pub fn main(args: &[String]) -> i32 {
    let Args {
        name,
        seeds,
        steps,
        verify,
    } = match parse_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flac-faultstorm: {e}\n{USAGE}");
            return 2;
        }
    };
    println!(
        "flac-faultstorm {name}: seeds {seeds:#x?} x {steps} steps, replays verified: {verify}"
    );
    let mut failures = 0;
    for (campaign, sweep) in CAMPAIGNS {
        if name == "all" || name == *campaign {
            println!("\n{campaign} campaign:");
            failures += sweep(seeds.clone(), steps, verify);
        }
    }
    if failures > 0 {
        eprintln!("\nflac-faultstorm: {failures} invariant violation(s)");
        return 1;
    }
    println!("\nflac-faultstorm: all campaigns survived, all invariants held");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `C` and require every invariant to hold.
    fn survives<C: Campaign>(seed: u64, steps: u32) -> CampaignReport<C::Stats> {
        let r = run::<C>(seed, steps);
        assert!(
            r.survived(),
            "seed {seed:#x} violations: {:?}",
            r.violations
        );
        r
    }

    /// A replay of `seed` reproduces the whole outcome; seed + 1 does not.
    fn replays<C: Campaign>(seed: u64) {
        let a = run::<C>(seed, 60);
        assert!(
            a.same_outcome(&run::<C>(seed, 60)),
            "same seed, same outcome"
        );
        assert_ne!(
            a.log_text,
            run::<C>(seed + 1, 60).log_text,
            "different seeds diverge"
        );
    }

    /// `count` summed over the surviving seed sweep 1..=6 at 60 steps.
    fn sweep_total<C: Campaign>(count: impl Fn(&C::Stats) -> u64) -> u64 {
        (1..=6)
            .map(|seed| count(&survives::<C>(seed, 60).stats))
            .sum()
    }

    #[test]
    fn smoke_campaign_survives() {
        let r = survives::<RackCampaign>(0xF1AC_5708, 60);
        assert!(r.stats.fs_commits > 0, "workload actually committed writes");
        assert!(r.counts.crashes > 0, "storm actually crashed nodes");
    }

    #[test]
    fn replay_is_byte_identical() {
        replays::<RackCampaign>(42);
    }

    #[test]
    fn acked_rpcs_execute_exactly_once() {
        let s = survives::<RackCampaign>(0xD15EA5E, 80).stats;
        assert!(s.rpc_executed >= s.rpc_acked);
        assert!(s.rpc_executed <= s.rpc_issued);
    }

    #[test]
    fn tiering_campaign_survives_and_migrates() {
        let r = survives::<TieringCampaign>(0xF1AC_71E4, 60);
        assert!(r.stats.promotions > 0, "migrations actually committed");
        assert!(
            r.stats.writes_committed > 0,
            "workload actually wrote pages"
        );
        assert!(r.counts.crashes > 0, "storm actually crashed nodes");
    }

    #[test]
    fn tiering_replay_is_byte_identical() {
        replays::<TieringCampaign>(7);
    }

    #[test]
    fn sync_campaign_survives_and_replays() {
        let r = survives::<SyncCampaign>(0xF1AC_5C11, 60);
        assert!(
            r.stats.ops_committed > 0,
            "workload actually committed updates"
        );
        assert_eq!(
            r.stats.replayed, r.stats.ops_committed,
            "log covers every commit"
        );
        assert!(r.counts.crashes > 0, "storm actually crashed nodes");
    }

    #[test]
    fn sync_replay_is_byte_identical() {
        replays::<SyncCampaign>(11);
    }

    #[test]
    fn some_seed_kills_the_delegation_owner_mid_storm() {
        // The headline invariant — owner crash mid-delegation loses no
        // committed op — must actually fire across a small seed sweep.
        let reelections = sweep_total::<SyncCampaign>(|s| s.reelections);
        assert!(reelections > 0, "no campaign crashed the delegation owner");
    }

    #[test]
    fn nr_sync_campaign_survives_combiner_deaths_mid_batch() {
        let s = survives::<NrSyncCampaign>(0xF1AC_5C11, 60).stats;
        assert!(s.ops_committed > 0, "workload actually committed updates");
        assert_eq!(s.replayed, s.ops_committed, "log covers every commit");
        assert!(
            s.reelections > 0,
            "no combiner was killed mid-batch; the campaign must exercise both fatal windows"
        );
    }

    #[test]
    fn nr_sync_replay_is_byte_identical() {
        replays::<NrSyncCampaign>(31);
    }

    #[test]
    fn nr_seed_sweep_kills_combiners_in_both_windows() {
        // Both fatal windows — before the tail CAS and after the append
        // — must fire across a small seed sweep, and no published op
        // may be lost or double-applied in either.
        let mid_batch = sweep_total::<NrSyncCampaign>(|s| s.reelections);
        assert!(mid_batch >= 2, "mid-batch combiner deaths barely fired");
    }

    #[test]
    fn some_seed_crashes_the_migrating_node_mid_flight() {
        // The crash-consistency path (survivor abort, old copy
        // authoritative) must actually fire across a small seed sweep.
        let aborts = sweep_total::<TieringCampaign>(|s| s.aborts);
        assert!(aborts > 0, "no campaign crashed n0 mid-migration");
    }

    #[test]
    fn store_campaign_survives_without_duplicate_downloads() {
        let r = survives::<StoreCampaign>(0xF1AC_5704, 60);
        assert!(r.stats.claims_won > 0, "workload actually claimed chunks");
        assert!(r.stats.committed > 0, "workload actually committed chunks");
        assert!(r.counts.crashes > 0, "storm actually crashed nodes");
    }

    #[test]
    fn store_replay_is_byte_identical() {
        replays::<StoreCampaign>(21);
    }

    #[test]
    fn some_seed_crashes_a_claim_holder_mid_fetch() {
        // The headline invariant — a fetcher crash between claim and
        // commit triggers recovery aborts, yet no chunk is ever shipped
        // twice — must actually fire across a small seed sweep.
        let aborted = sweep_total::<StoreCampaign>(|s| s.aborted);
        assert!(aborted > 0, "no campaign crashed a claim holder mid-fetch");
    }

    #[test]
    fn every_campaign_sweeps_clean_with_replays_verified() {
        for (name, sweep) in CAMPAIGNS {
            assert_eq!(sweep(0..2, 20, true), 0, "{name}");
        }
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn command_lines_parse() {
        for name in CAMPAIGNS.iter().map(|(name, _)| *name).chain(["all"]) {
            let args = parse(&[name]).unwrap();
            let want = Args {
                name: name.to_string(),
                seeds: 0xF1AC_5708..0xF1AC_5710,
                steps: 120,
                verify: false,
            };
            assert_eq!(args, want);
        }
        let args = parse(&["sync", "--seed", "0xF1AC_5708", "--seeds", "2", "--verify"]).unwrap();
        assert_eq!((args.seeds, args.verify), (0xF1AC_5708..0xF1AC_570A, true));
        let args = parse(&["all", "--seed", "0", "--seeds", "24", "--steps", "60"]).unwrap();
        assert_eq!((args.seeds, args.steps), (0..24, 60));
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        for (args, expect) in [
            (&[][..], "missing campaign"),
            (&["chaos"][..], "unknown campaign"),
            (&["--tiering"][..], "unknown campaign"),
            (&["rack", "--store"][..], "unknown argument"),
            (&["rack", "--seeds"][..], "--seeds needs a value"),
            (&["store", "--steps", "many"][..], "--steps: invalid digit"),
            (
                &["tiering", "--seed", "0xF1AC_57G8"][..],
                "--seed: invalid digit",
            ),
            (
                &["rack", "--seed", "0xFFFFFFFFFFFFFFFF", "--seeds", "2"][..],
                "overflow u64",
            ),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(expect), "{args:?}: {err}");
        }
        assert_eq!(main(&["nope".to_string()]), 2);
    }
}
