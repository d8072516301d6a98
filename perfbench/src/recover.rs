//! `recover`: processes on a kernel booted with `FlacRack::boot` on
//! `RackConfig::pod(4, 2)`, with a node crash on a seeded schedule.
//!
//! Each node spawns [`PROCS_PER_NODE`] processes (`NodeOs::spawn`, which
//! takes the first checkpoint; two `Criticality::Low`, checkpointed,
//! and one `Criticality::Medium`, replicated; `Criticality::High` votes
//! at execution time and keeps no state a crash could be recovered
//! from, so it is left out). Each step a process makes zipf 64-byte
//! reads and writes of its heap through `Process::run`, TLB-fronted
//! (`Tlb::lookup`, else a page-table walk and `Tlb::fill`), plus reads
//! of its node's shared region, which the node's tiering daemon
//! manages. Each round every node calls `NodeOs::tick` and `tier_tick`
//! over its region. Heap plus region exceed both the TLB (1024 entries)
//! and the tier budget (a quarter of local DRAM).
//!
//! Processes are re-protected only when they are recovered, not by a
//! per-step `protect_tick`, and a repetition has one crash:
//! `CheckpointManager::discard` frees a checkpoint's copies in `HashMap`
//! order, and any later capture (a periodic one, or the re-protection
//! at a second crash) reuses those frames in a different order each
//! run, so simulated times would differ between runs of one seed.
//!
//! Fault-box heaps are not handed to the tiering daemon: a promoted
//! heap page would leave the box's global frame — the unit checkpoint,
//! restore and adoption work on — stale, and a crashed node's local
//! frame unreachable.
//!
//! On a seeded schedule one node crashes (`FaultInjector::crash_node`).
//! Its processes are placed on survivors (`RackScheduler::place`),
//! adopted (`FaultBox::adopt`), rolled back (`Process::recover`),
//! checked byte-for-byte against their last checkpoint, and re-protected;
//! then the rack's `sync_recovery()` cells run `recover_after_crash` and
//! the node restarts. Every read is also checked against the shadow
//! copy the benchmark keeps of each heap and region.

use crate::counters::{self, RackSample};
use crate::stats;
use crate::trace::{Tracer, UNTIMED_REQUEST};
use crate::{Rep, SimMetrics};
use flacos::{FlacRack, NodeOs, Process};
use flacos_fault::redundancy::Criticality;
use flacos_mem::addr::VirtAddr;
use flacos_mem::tlb::Tlb;
use flacos_mem::{AddressSpace, PhysFrame, Pte, PAGE_SIZE};
use flacos_tier::TierTickReport;
use rack_sim::{LAddr, NodeCtx, NodeId, RackConfig, SimError, SplitMix64, Zipf};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Processes per node: the last one is `Medium`, the others `Low`.
const PROCS_PER_NODE: usize = 3;
/// Heap pages of a `Low` / `Medium` process.
const LOW_HEAP_PAGES: usize = 256;
const MEDIUM_HEAP_PAGES: usize = 32;
/// Pages of each node's tiered shared region.
const REGION_PAGES: usize = 512;
/// Node-local DRAM; a quarter of it is the tier budget (128 pages).
const LOCAL_MEM_BYTES: usize = 2 << 20;
const GLOBAL_MEM_BYTES: usize = 96 << 20;
/// Rounds of the timed phase; each runs one step of every process.
const ROUNDS: usize = 20;
/// A process step runs `TXNS_PER_STEP` transactions of
/// `ACCESSES_PER_TXN` accesses; the transaction is the unit op.
const TXNS_PER_STEP: usize = 32;
const ACCESSES_PER_TXN: usize = 8;
/// Bytes per access.
const ACCESS_BYTES: usize = 64;
/// Shares (permille) of region reads and of heap writes.
const REGION_PERMILLE: u64 = 300;
const WRITE_PERMILLE: u64 = 300;
/// Crashes per repetition (see the module docs for why only one).
const CRASHES: usize = 1;
/// Access-popularity skew.
const ZIPF_SKEW: f64 = 0.99;
/// Address-space id of node `n`'s region is `REGION_ASID + n`.
const REGION_ASID: u64 = 0x7E61_0000_0000;
/// Tail percentile reported.
pub const TAIL_P: f64 = 99.9;

struct Proc {
    process: Process,
    heap: Vec<u8>,
    checkpoint: Vec<u8>,
    zipf: Zipf,
    rng: SplitMix64,
}

struct World {
    rack: FlacRack,
    oses: Vec<NodeOs>,
    regions: Vec<AddressSpace>,
    region_zipf: Zipf,
    procs: Vec<Proc>,
}

/// Deterministic content of 64-byte line `line` of node `node`'s region.
fn region_line(node: usize, vpn: u64, line: usize) -> [u8; ACCESS_BYTES] {
    let mut rng = SplitMix64::new(((node as u64) << 48) ^ (vpn << 8) ^ line as u64);
    let mut out = [0u8; ACCESS_BYTES];
    for chunk in out.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

fn frame_at(frame: PhysFrame, offset: usize) -> PhysFrame {
    match frame {
        PhysFrame::Global(a) => PhysFrame::Global(a.offset(offset as u64)),
        PhysFrame::Local(n, a) => PhysFrame::Local(n, LAddr(a.0 + offset)),
    }
}

/// Translate through the node's TLB, walking the page table on a miss.
fn translate(
    tlb: &mut Tlb,
    space: &AddressSpace,
    ctx: &Arc<NodeCtx>,
    vpn: u64,
) -> Result<Pte, SimError> {
    if let Some(pte) = tlb.lookup(space.asid(), vpn) {
        return Ok(pte);
    }
    let pte = space
        .translate(ctx, VirtAddr::from_vpn(vpn))?
        .ok_or_else(|| SimError::Protocol(format!("vpn {vpn} unmapped")))?;
    tlb.fill(space.asid(), vpn, pte);
    Ok(pte)
}

fn setup(seed: u64, tracer: &mut Tracer) -> Result<World, SimError> {
    let mut config = RackConfig::pod(4, 2).with_global_mem(GLOBAL_MEM_BYTES);
    config.local_mem_bytes = LOCAL_MEM_BYTES;
    let rack = FlacRack::boot(config)?;
    let nodes = rack.sim().node_count();
    let mut oses: Vec<NodeOs> = (0..nodes).map(|n| rack.node_os(n)).collect();
    let mut regions = Vec::with_capacity(nodes);
    for (n, os) in oses.iter().enumerate() {
        let node = os.node();
        let space = AddressSpace::alloc(
            REGION_ASID + n as u64,
            rack.sim().global(),
            rack.alloc().clone(),
            rack.epochs().clone(),
            rack.retired().clone(),
        )?;
        let mut page = vec![0u8; PAGE_SIZE];
        for vpn in 0..REGION_PAGES as u64 {
            let frame = rack.frames().alloc(node)?;
            space.map(node, vpn, Pte::new(PhysFrame::Global(frame), true))?;
            for (line, chunk) in page.chunks_mut(ACCESS_BYTES).enumerate() {
                chunk.copy_from_slice(&region_line(n, vpn, line));
            }
            space.write(node, VirtAddr::from_vpn(vpn), &page)?;
        }
        regions.push(space);
    }
    let mut procs = Vec::new();
    let mut rng = SplitMix64::new(seed ^ 0x09EC_07E4);
    tracer.set_request(UNTIMED_REQUEST);
    for (n, os) in oses.iter_mut().enumerate() {
        for j in 0..PROCS_PER_NODE {
            let (pages, criticality) = if j + 1 == PROCS_PER_NODE {
                (MEDIUM_HEAP_PAGES, Criticality::Medium)
            } else {
                (LOW_HEAP_PAGES, Criticality::Low)
            };
            let node = os.node().clone();
            let span = tracer.begin("flacos.spawn", &node);
            let process = os.spawn(pages, criticality)?;
            tracer.end(span, &node);
            let heap = vec![0u8; pages * PAGE_SIZE];
            procs.push(Proc {
                process,
                checkpoint: heap.clone(),
                heap,
                zipf: Zipf::new(pages, ZIPF_SKEW),
                rng: SplitMix64::new(rng.next_u64() ^ n as u64),
            });
        }
    }
    Ok(World {
        rack,
        oses,
        regions,
        region_zipf: Zipf::new(REGION_PAGES, ZIPF_SKEW),
        procs,
    })
}

/// Per-repetition tallies.
#[derive(Default)]
struct Tally {
    latencies: Vec<u64>,
    failed: u64,
    attempted: u64,
    tier: TierTickReport,
    restored: u64,
    recovery_ns: Vec<u64>,
    recovery_bytes: Vec<u64>,
}

/// One step of process `p` on its home node `n`.
fn step(
    w: &mut World,
    p: usize,
    n: usize,
    tracer: &mut Tracer,
    t: &mut Tally,
) -> Result<(), SimError> {
    let node = w.oses[n].node().clone();
    let World {
        oses,
        regions,
        region_zipf,
        procs,
        ..
    } = w;
    let sampler = oses[n].tier().ring();
    let tlb = oses[n].tlb_mut();
    let region = &regions[n];
    let proc = &mut procs[p];
    let run = tracer.begin("flacos.process.run", &node);
    proc.process.run(&node, |ctx, fbox| {
        let mut buf = [0u8; ACCESS_BYTES];
        for _ in 0..TXNS_PER_STEP {
            let t0 = ctx.clock().now();
            for _ in 0..ACCESSES_PER_TXN {
                let line = proc.rng.next_below((PAGE_SIZE / ACCESS_BYTES) as u64) as usize;
                let offset = line * ACCESS_BYTES;
                let to_region = proc.rng.next_below(1000) < REGION_PERMILLE;
                let span = tracer.begin("flacos-mem.access", ctx);
                let ok = if to_region {
                    let vpn = region_zipf.sample(&mut proc.rng) as u64;
                    let pte = translate(tlb, region, ctx, vpn)?;
                    region.read_frame(ctx, frame_at(pte.frame, offset), &mut buf)?;
                    sampler.record(ctx.id(), region.asid(), vpn);
                    buf == region_line(n, vpn, line)
                } else {
                    let page = proc.zipf.sample(&mut proc.rng);
                    let vpn = fbox.heap_va((page * PAGE_SIZE) as u64).vpn();
                    let pte = translate(tlb, fbox.space(), ctx, vpn)?;
                    let at = page * PAGE_SIZE + offset;
                    let shadow = &mut proc.heap[at..at + ACCESS_BYTES];
                    if proc.rng.next_below(1000) < WRITE_PERMILLE && pte.writable {
                        for chunk in buf.chunks_mut(8) {
                            chunk.copy_from_slice(&proc.rng.next_u64().to_le_bytes());
                        }
                        fbox.space()
                            .write_frame(ctx, frame_at(pte.frame, offset), &buf)?;
                        shadow.copy_from_slice(&buf);
                        true
                    } else {
                        fbox.space()
                            .read_frame(ctx, frame_at(pte.frame, offset), &mut buf)?;
                        buf[..] == shadow[..]
                    }
                };
                tracer.end(span, ctx);
                t.attempted += 1;
                if !ok {
                    t.failed += 1;
                }
            }
            t.latencies.push(ctx.clock().now() - t0);
        }
        Ok(())
    })?;
    tracer.end(run, &node);
    Ok(())
}

/// Crash `crashed`, recover its processes on survivors, restart it.
/// `corrupt_heap` flips one byte of the first victim's heap after the
/// rollback, so tests can show the check counts it.
fn crash(
    w: &mut World,
    crashed: usize,
    tracer: &mut Tracer,
    t: &mut Tally,
    corrupt_heap: bool,
) -> Result<(), SimError> {
    let sim = w.rack.sim().clone();
    let t_detect = sim.max_time_ns();
    let dead = NodeId(crashed);
    let coordinator = (0..sim.node_count())
        .find(|&n| n != crashed)
        .expect("a rack has more than one node");
    let coord = sim.node(coordinator);
    coord.clock().advance_to(t_detect);
    let root = tracer.begin("recover.crash", &coord);
    sim.faults().crash_node(dead, t_detect);

    let victims: Vec<usize> = (0..w.procs.len())
        .filter(|&p| w.procs[p].process.home() == dead)
        .collect();
    let mut done = coord.clock().now();
    let mut bytes = 0u64;
    for (i, &v) in victims.iter().enumerate() {
        let span = tracer.begin("flacos.scheduler.place", &coord);
        let target = w
            .rack
            .scheduler()
            .place(&coord, |id| id != dead && sim.is_alive(id))?;
        tracer.end(span, &coord);
        let node = sim.node(target.0);
        node.clock().advance_to(t_detect);
        let proc = &mut w.procs[v];

        let span = tracer.begin("flacos-fault.adopt", &node);
        proc.process.fault_box_mut().adopt(&node)?;
        w.rack.scheduler().task_finished(&node, dead)?;
        w.rack.scheduler().task_started(&node, target)?;
        tracer.end(span, &node);

        let span = tracer.begin("flacos-fault.restore", &node);
        let restored = proc.process.recover(&node)? as u64;
        tracer.end(span, &node);
        t.restored += restored;

        if corrupt_heap && i == 0 {
            let fbox = proc.process.fault_box();
            fbox.space()
                .write(&node, fbox.heap_va(5), &[!proc.checkpoint[5]])?;
        }
        let span = tracer.begin("recover.verify", &node);
        let mut heap = vec![0u8; proc.heap.len()];
        let fbox = proc.process.fault_box();
        fbox.space().read(&node, fbox.heap_va(0), &mut heap)?;
        tracer.end(span, &node);
        t.attempted += 1;
        if heap != proc.checkpoint {
            t.failed += 1;
        }
        if corrupt_heap && i == 0 {
            fbox.space()
                .write(&node, fbox.heap_va(5), &proc.checkpoint[5..6])?;
        }
        proc.heap.copy_from_slice(&proc.checkpoint);

        let span = tracer.begin("flacos-fault.reprotect", &node);
        proc.process.protect_now(&node)?;
        tracer.end(span, &node);
        bytes += restored + proc.process.fault_box().state_bytes() as u64;
        done = done.max(node.clock().now());
    }

    let span = tracer.begin("flacdk.sync.recover_after_crash", &coord);
    for cell in w.rack.sync_recovery() {
        cell.recover_after_crash(&coord, dead)?;
    }
    tracer.end(span, &coord);
    done = done.max(coord.clock().now());
    sim.faults().restart_node(dead, done);
    tracer.end(root, &coord);
    t.recovery_ns.push(done - t_detect);
    t.recovery_bytes.push(bytes);
    Ok(())
}

/// The seeded crash schedule: (round, node) pairs.
fn schedule(seed: u64, nodes: usize) -> Vec<(usize, usize)> {
    let mut rng = SplitMix64::new(seed ^ 0x000C_2A54);
    (0..CRASHES)
        .map(|c| {
            let round = 3 + 4 * c + rng.next_below(3) as usize;
            (round, rng.next_below(nodes as u64) as usize)
        })
        .collect()
}

fn timed_phase(
    w: &mut World,
    seed: u64,
    tracer: &mut Tracer,
    t: &mut Tally,
    corrupt_heap: bool,
) -> Result<u64, SimError> {
    let nodes = w.oses.len();
    let crashes = schedule(seed, nodes);
    let sim = w.rack.sim().clone();
    let t0 = sim.max_time_ns();
    for n in sim.nodes() {
        n.clock().advance_to(t0);
    }
    for round in 0..ROUNDS {
        tracer.set_request(round as u64);
        for n in 0..nodes {
            let homed: Vec<usize> = (0..w.procs.len())
                .filter(|&p| w.procs[p].process.home() == NodeId(n))
                .collect();
            for p in homed {
                step(w, p, n, tracer, t)?;
            }
            let node = w.oses[n].node().clone();
            let span = tracer.begin("flacos.tick", &node);
            w.oses[n].tick()?;
            tracer.end(span, &node);
            let span = tracer.begin("flacos-tier.tick", &node);
            let r = w.oses[n].tier_tick(&w.regions[n])?;
            tracer.end(span, &node);
            t.tier.promoted += r.promoted;
            t.tier.demoted += r.demoted;
            t.tier.bytes_migrated += r.bytes_migrated;
            t.tier.shootdowns += r.shootdowns;
            t.tier.region_promotions += r.region_promotions;
        }
        for (i, &(_, node)) in crashes.iter().enumerate().filter(|(_, c)| c.0 == round) {
            tracer.set_request(1_000_000 + i as u64);
            crash(w, node, tracer, t, corrupt_heap && i == 0)?;
        }
    }
    Ok(sim.max_time_ns() - t0)
}

/// One repetition: boot and spawn, run the rounds with crashes.
pub fn run(seed: u64, tracer: &mut Tracer) -> Result<Rep, String> {
    let err = |e: SimError| e.to_string();
    let setup_started = crate::cpu_seconds();
    let mut w = setup(seed, tracer).map_err(err)?;
    let setup_s = crate::cpu_seconds() - setup_started;

    let before = RackSample::take(w.rack.sim());
    let tlb_before: Vec<_> = w.oses.iter_mut().map(|os| os.tlb_mut().stats()).collect();
    let mut t = Tally::default();
    let timed = crate::cpu_seconds();
    let makespan_ns = timed_phase(&mut w, seed, tracer, &mut t, false).map_err(err)?;
    let timed_host_s = crate::cpu_seconds() - timed;
    let after = RackSample::take(w.rack.sim());

    let mut counters = BTreeMap::new();
    counters::rack_layers(&before, &after, &mut counters);
    let (mut hits, mut misses, mut rounds, mut serviced) = (0, 0, 0, 0);
    for (os, b) in w.oses.iter_mut().zip(&tlb_before) {
        let a = os.tlb_mut().stats();
        hits += a.hits - b.hits;
        misses += a.misses - b.misses;
        rounds += a.shootdown_rounds - b.shootdown_rounds;
        serviced += a.shootdowns_serviced - b.shootdowns_serviced;
    }
    t.recovery_ns.sort_unstable();
    t.recovery_bytes.sort_unstable();
    let recovery_ns = stats::percentile(&t.recovery_ns, 50.0);
    let recovery_bytes = stats::percentile(&t.recovery_bytes, 50.0);
    for (name, v) in [
        (
            "flacos-mem.tlb.hit_ratio",
            counters::ratio(hits, hits + misses),
        ),
        ("flacos-mem.tlb.shootdown_rounds", rounds as f64),
        ("flacos-mem.tlb.shootdowns_serviced", serviced as f64),
        ("flacos-tier.promoted", t.tier.promoted as f64),
        ("flacos-tier.demoted", t.tier.demoted as f64),
        ("flacos-tier.bytes_migrated", t.tier.bytes_migrated as f64),
        ("flacos-tier.shootdowns", t.tier.shootdowns as f64),
        (
            "flacos-tier.region_promotions",
            t.tier.region_promotions as f64,
        ),
        ("flacos-fault.restored_bytes", t.restored as f64),
        ("sim_recovery_ns", recovery_ns as f64),
        ("recovery_bytes", recovery_bytes as f64),
    ] {
        counters.insert(name, v);
    }

    let accesses = t.latencies.len() as u64;
    t.latencies.sort_unstable();
    Ok(Rep {
        setup_s,
        timed_host_s,
        ops: accesses,
        attempted: t.attempted,
        failed: t.failed,
        sim: SimMetrics {
            p50_ns: stats::percentile(&t.latencies, 50.0),
            tail_ns: stats::tail(&t.latencies, TAIL_P)?,
            goodput_rps: accesses as f64 / (makespan_ns as f64 / 1e9),
            makespan_ns,
            recovery_ns,
            recovery_bytes,
        },
        counters,
        timed_charged_ns: counters::charged_by_node(&before, &after),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_phase(seed: u64, corrupt: bool) -> Tally {
        let mut tracer = Tracer::new(false);
        let mut w = setup(seed, &mut tracer).unwrap();
        let mut t = Tally::default();
        timed_phase(&mut w, seed, &mut tracer, &mut t, corrupt).unwrap();
        t
    }

    #[test]
    fn crashes_recover_every_heap_intact() {
        let t = run_phase(5, false);
        assert_eq!(t.failed, 0);
        assert_eq!(t.recovery_ns.len(), CRASHES);
        assert!(t.restored > 0);
        assert!(t.tier.promoted > 0, "the region is hot enough to tier");
    }

    #[test]
    fn a_corrupt_recovered_heap_is_counted() {
        let t = run_phase(5, true);
        assert_eq!(t.failed, 1);
    }
}
