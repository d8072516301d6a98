//! `flac-bench sync` — writer-scaling gate for the node-replicated
//! `SyncCell` tier (ablation A10).
//!
//! §3.2's coordination story ends with a write-side question: once
//! writers spread across nodes, does the flat-combined node-replicated
//! log actually beat per-op delegation? This bench sweeps writer count
//! × read ratio over one shared cell under both backends and measures
//! simulated nanoseconds per operation.
//!
//! The write round models concurrent arrival, which a serial driver
//! cannot produce through `update()` alone: each writer publishes its
//! pending ops as **one** batch publication
//! ([`SyncCell::nr_publish_batch`] — one flush plus one fabric atomic
//! for [`OPS_PER_PUB`] ops), the round's combiner drains every slot and
//! commits the whole round with one log-tail CAS
//! ([`SyncCell::nr_combine`]), and the publishers poll their slots for
//! the acknowledgement ([`SyncCell::nr_poll`]). The delegated arm
//! issues the same ops through `update()` one at a time — delegation
//! has no batching story; every remote op pays its own request/reply
//! messages and log append.
//!
//! Reads follow each backend's natural idiom for a round of reads
//! against the same snapshot: the node-replicated reader catches its
//! replica up **once** ([`SyncCell::sync_replica`]) and serves the
//! round's reads from it ([`SyncCell::read_local`]); delegation has no
//! per-node replica, so every read pays the fabric
//! ([`SyncCell::read`]).
//!
//! A separate probe pins the read story: after an explicit
//! [`SyncCell::sync_replica`], node-local reads
//! ([`SyncCell::read_local`]) must perform **zero** fabric operations —
//! verified against the rack's hardware counters, not the cost model.
//!
//! Everything is simulated time on a seedless deterministic driver, so
//! every point is re-run and must reproduce exactly (`parity`).

use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
use flacdk::wire::{Decoder, Encoder};
use rack_sim::{Rack, RackConfig};
use std::sync::Arc;

/// Nodes in the simulated rack.
pub const NODES: usize = 8;
/// Writer counts swept (1 is reference only; the gate binds at ≥ 2).
pub const WRITER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Read percentages swept.
pub const READ_PCTS: [u32; 3] = [0, 50, 90];
/// The writer counts where the gate demands strict wins (§gate).
pub const MULTI_WRITER: [usize; 3] = [2, 4, 8];
/// Ops each writer batches into one publication per round (sized to
/// the 48-byte log entries' publication slots).
pub const OPS_PER_PUB: usize = 2;

/// Sweep dimensions and sizes.
#[derive(Debug, Clone, Copy)]
pub struct SyncScaleConfig {
    /// Write rounds per point (each round = one [`OPS_PER_PUB`]-op
    /// publication per writer, plus the ratio's reads).
    pub rounds: usize,
    /// Marks the report as a smoke run.
    pub quick: bool,
}

impl SyncScaleConfig {
    /// CI smoke: enough rounds to exercise every path, ~seconds.
    pub fn quick() -> Self {
        SyncScaleConfig {
            rounds: 40,
            quick: true,
        }
    }

    /// The committed-report configuration.
    pub fn full() -> Self {
        SyncScaleConfig {
            rounds: 400,
            quick: false,
        }
    }
}

/// The shared state under test: per-node op tallies.
#[derive(Debug, Default, Clone)]
struct Tally {
    counts: Vec<u64>,
    total: u64,
}

impl SyncState for Tally {
    fn apply(&mut self, op: &[u8]) {
        let mut d = Decoder::new(op);
        let (Ok(node), Ok(amount)) = (d.u32(), d.u64()) else {
            return;
        };
        if let Some(slot) = self.counts.get_mut(node as usize) {
            *slot += amount;
            self.total += amount;
        }
    }
}

fn tally_op(node: usize, amount: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(node as u32).put_u64(amount);
    e.into_vec()
}

/// One measured cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncPoint {
    /// `"delegated"` or `"node_replicated"`.
    pub policy: String,
    /// Concurrent writers this point models.
    pub writers: usize,
    /// Percentage of operations that are reads.
    pub read_pct: u32,
    /// Total operations measured (writes + reads).
    pub ops: u64,
    /// Simulated nanoseconds across all operations.
    pub total_ns: u64,
    /// The same workload re-run from scratch (must equal `total_ns`).
    pub total_ns_rerun: u64,
    /// `total_ns / ops`.
    pub avg_ns_per_op: u64,
}

impl SyncPoint {
    /// Seeded-rerun reproducibility.
    pub fn parity(&self) -> bool {
        self.total_ns == self.total_ns_rerun
    }
}

fn alloc_cell(rack: &Rack, policy: SyncPolicy) -> Arc<SyncCell<Tally>> {
    SyncCell::alloc(
        rack.global(),
        "sync_scale",
        SyncCellConfig::new(NODES, policy).with_log(8192, 48),
        Tally {
            counts: vec![0; NODES],
            total: 0,
        },
    )
    .expect("cell alloc")
}

/// Reads interleaved per round for a given per-round write count and
/// read ratio.
fn reads_per_round(write_ops: usize, read_pct: u32) -> usize {
    if read_pct >= 100 {
        return write_ops * 16;
    }
    (write_ops * read_pct as usize) / (100 - read_pct as usize)
}

/// Drive one (policy, writers, read_pct) point and return
/// `(ops, total simulated ns)`.
fn run_point(policy: SyncPolicy, writers: usize, read_pct: u32, rounds: usize) -> (u64, u64) {
    let rack = Rack::new(RackConfig::n_node(NODES));
    let cell = alloc_cell(&rack, policy);
    let mut ops = 0u64;
    let mut total_ns = 0u64;
    let write_ops = writers * OPS_PER_PUB;
    let reads = reads_per_round(write_ops, read_pct);
    for round in 0..rounds {
        if policy == SyncPolicy::NodeReplicated {
            // Concurrent arrival: every writer publishes its round's
            // ops as one batch publication, node 0 combines the lot
            // with one log-tail CAS, and the publishers poll their
            // acknowledgement. Publish + poll are charged to the
            // publisher.
            for w in 0..writers {
                let node = rack.node(w);
                let t0 = node.clock().now();
                let batch = [tally_op(w, 1), tally_op(w, 1)];
                let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
                cell.nr_publish_batch(&node, &refs).expect("publish");
                ops += OPS_PER_PUB as u64;
                total_ns += node.clock().now() - t0;
            }
            let combiner = rack.node(0);
            let t0 = combiner.clock().now();
            let combined = cell.nr_combine(&combiner).expect("combine");
            assert_eq!(combined, write_ops as u64, "one combine drains the round");
            total_ns += combiner.clock().now() - t0;
            for w in 0..writers {
                let node = rack.node(w);
                let t0 = node.clock().now();
                let landed = cell.nr_poll(&node).expect("poll");
                assert!(landed.is_some(), "combiner consumed every publication");
                total_ns += node.clock().now() - t0;
            }
        } else {
            for w in 0..writers {
                let node = rack.node(w);
                for _ in 0..OPS_PER_PUB {
                    let t0 = node.clock().now();
                    cell.update(&node, &tally_op(w, 1)).expect("update");
                    ops += 1;
                    total_ns += node.clock().now() - t0;
                }
            }
        }
        // The round's reads all land on one reader node and see the
        // round's committed writes.
        let expect = ((round + 1) * write_ops) as u64;
        let reader = rack.node(NODES - 1);
        if policy == SyncPolicy::NodeReplicated && reads > 0 {
            let t0 = reader.clock().now();
            cell.sync_replica(&reader).expect("sync replica");
            for _ in 0..reads {
                let got = cell.read_local(&reader, |t| t.total).expect("read");
                assert_eq!(got, expect, "synced replica serves the round's reads");
                ops += 1;
            }
            total_ns += reader.clock().now() - t0;
        } else {
            for _ in 0..reads {
                let t0 = reader.clock().now();
                let got = cell.read(&reader, |t| t.total).expect("read");
                assert_eq!(got, expect, "linearizable read");
                ops += 1;
                total_ns += reader.clock().now() - t0;
            }
        }
    }
    // Both arms must agree on the final state — same committed history.
    let expect = (rounds * write_ops) as u64;
    assert_eq!(
        cell.read(&rack.node(0), |t| t.total).expect("final read"),
        expect,
        "all writes committed"
    );
    (ops, total_ns)
}

/// Run the full sweep; every point is driven twice for parity.
pub fn run_sweep(cfg: SyncScaleConfig) -> Vec<SyncPoint> {
    let mut out = Vec::new();
    for &writers in &WRITER_COUNTS {
        for &read_pct in &READ_PCTS {
            for (policy, label) in [
                (SyncPolicy::Delegated, "delegated"),
                (SyncPolicy::NodeReplicated, "node_replicated"),
            ] {
                let (ops, total_ns) = run_point(policy, writers, read_pct, cfg.rounds);
                let (_, total_ns_rerun) = run_point(policy, writers, read_pct, cfg.rounds);
                out.push(SyncPoint {
                    policy: label.to_string(),
                    writers,
                    read_pct,
                    ops,
                    total_ns,
                    total_ns_rerun,
                    avg_ns_per_op: total_ns / ops.max(1),
                });
            }
        }
    }
    out
}

/// The zero-fabric-read probe: warm a node-replicated cell, catch one
/// node's replica up, then count the **hardware** fabric operations a
/// burst of [`SyncCell::read_local`] calls performs. Returns that count
/// (the gate requires 0).
pub fn run_replica_probe() -> u64 {
    let rack = Rack::new(RackConfig::n_node(NODES));
    let cell = alloc_cell(&rack, SyncPolicy::NodeReplicated);
    for i in 0..24usize {
        cell.update(&rack.node(i % 4), &tally_op(i % 4, 1))
            .expect("warm write");
    }
    let reader = rack.node(NODES - 1);
    cell.sync_replica(&reader).expect("sync replica");
    // First read_local materializes nothing further; measure a burst.
    cell.read_local(&reader, |t| t.total).expect("warm read");
    let before = reader.stats().snapshot();
    for _ in 0..64 {
        let total = cell.read_local(&reader, |t| t.total).expect("read");
        assert_eq!(total, 24);
    }
    let after = reader.stats().snapshot();
    (after.global_reads - before.global_reads)
        + (after.global_writes - before.global_writes)
        + (after.global_atomics - before.global_atomics)
        + (after.messages_sent - before.messages_sent)
}

/// NUMA combiner-placement probe: the same round-robin write workload
/// on a flat rack versus a two-rack pod with an interleaved memory
/// home. Returns `(flat, pod)` totals of the
/// `sync/nr_combiner_remote_claims` counter — the flat rack has no
/// distance classes (every claim is "near", so always 0), while the
/// pod counts each combine won by a node away from the op log's home
/// leaf, the traffic the claim tie-break steers toward the home.
pub fn run_numa_probe(rounds: usize) -> (u64, u64) {
    let mut out = [0u64; 2];
    for (slot, rack) in [
        Rack::new(RackConfig::n_node(NODES)),
        Rack::new(RackConfig::pod(NODES / 2, 2)),
    ]
    .into_iter()
    .enumerate()
    {
        let cell = alloc_cell(&rack, SyncPolicy::NodeReplicated);
        for _ in 0..rounds {
            for w in 0..NODES {
                cell.update(&rack.node(w), &tally_op(w, 1)).expect("update");
            }
        }
        out[slot] = (0..NODES)
            .map(|n| {
                rack.node(n)
                    .stats()
                    .snapshot()
                    .subsystems
                    .iter()
                    .find(|c| c.subsystem == "sync" && c.name == "nr_combiner_remote_claims")
                    .map_or(0, |c| c.value)
            })
            .sum::<u64>();
    }
    (out[0], out[1])
}

/// Deterministic invariants enforced by `--gate` and re-enforced by
/// [`check`] on the committed report:
///
/// * rerun parity at every point;
/// * node-replicated ≤ delegated ns/op at **every** multi-writer point
///   (writers ≥ 2, all read ratios);
/// * node-replicated strictly faster on the pure-write sweep at ≥ 2 of
///   the {2, 4, 8}-writer points;
/// * the replica-hit read path performed exactly 0 fabric operations.
pub fn gate(report: &ParsedSyncReport) -> Vec<String> {
    let (points, replica_hit_fabric_ops) = (&report.points, report.replica_hit_fabric_ops);
    let mut failures = Vec::new();
    for p in points {
        if !p.parity() {
            failures.push(format!(
                "rerun divergence at ({}, writers={}, reads={}%): {} vs {} ns",
                p.policy, p.writers, p.read_pct, p.total_ns, p.total_ns_rerun
            ));
        }
    }
    let find = |policy: &str, writers: usize, read_pct: u32| {
        points
            .iter()
            .find(|p| p.policy == policy && p.writers == writers && p.read_pct == read_pct)
    };
    let mut strict_wins = 0;
    for &writers in &MULTI_WRITER {
        for &read_pct in &READ_PCTS {
            let (Some(nr), Some(del)) = (
                find("node_replicated", writers, read_pct),
                find("delegated", writers, read_pct),
            ) else {
                failures.push(format!(
                    "missing (writers={writers}, reads={read_pct}%) pair"
                ));
                continue;
            };
            if nr.avg_ns_per_op > del.avg_ns_per_op {
                failures.push(format!(
                    "node_replicated loses at writers={writers}, reads={read_pct}%: \
                     {} vs {} ns/op",
                    nr.avg_ns_per_op, del.avg_ns_per_op
                ));
            }
            if read_pct == 0 && nr.avg_ns_per_op < del.avg_ns_per_op {
                strict_wins += 1;
            }
        }
    }
    if strict_wins < 2 {
        failures.push(format!(
            "node_replicated must strictly win ≥ 2 of the pure-write \
             {{2,4,8}}-writer points; won {strict_wins}"
        ));
    }
    if replica_hit_fabric_ops != 0 {
        failures.push(format!(
            "replica-hit reads performed {replica_hit_fabric_ops} fabric ops; must be 0"
        ));
    }
    failures
}

/// Render the committed JSON report (one `results[]` object per line —
/// the shape [`crate::report`] re-reads exactly).
pub fn to_json(cfg: SyncScaleConfig, points: &[SyncPoint], replica_hit_fabric_ops: u64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"sync-scale\",\n");
    out.push_str(&format!("  \"quick\": {},\n", cfg.quick));
    out.push_str(&format!("  \"nodes\": {NODES},\n"));
    out.push_str(&format!("  \"rounds\": {},\n", cfg.rounds));
    out.push_str(&format!(
        "  \"replica_hit_fabric_ops\": {replica_hit_fabric_ops},\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"writers\": {}, \"read_pct\": {}, \"ops\": {}, \
             \"total_ns\": {}, \"total_ns_rerun\": {}, \"avg_ns_per_op\": {}}}{}\n",
            p.policy,
            p.writers,
            p.read_pct,
            p.ops,
            p.total_ns,
            p.total_ns_rerun,
            p.avg_ns_per_op,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A `BENCH_sync.json` report re-read from disk.
#[derive(Debug, Clone)]
pub struct ParsedSyncReport {
    /// Whether the report came from a `--quick` smoke run.
    pub quick: bool,
    /// The committed replica-hit fabric-op count.
    pub replica_hit_fabric_ops: u64,
    /// Every measurement point, in report order.
    pub points: Vec<SyncPoint>,
}

/// Re-read a report produced by [`to_json`], via the shared
/// [`crate::report`] one-object-per-line extraction.
///
/// # Errors
///
/// Returns a description of the first malformed line or missing field.
pub fn parse_report(json: &str) -> Result<ParsedSyncReport, String> {
    let quick = crate::report::parse_quick(json)?;
    let replica_hit_fabric_ops = crate::report::object_with(json, "replica_hit_fabric_ops")?
        .u64_field("replica_hit_fabric_ops")?;
    let mut points = Vec::new();
    for obj in crate::report::objects_with(json, "policy") {
        points.push(SyncPoint {
            policy: obj.str_field("policy")?,
            writers: obj.usize_field("writers")?,
            read_pct: obj.u64_field("read_pct")? as u32,
            ops: obj.u64_field("ops")?,
            total_ns: obj.u64_field("total_ns")?,
            total_ns_rerun: obj.u64_field("total_ns_rerun")?,
            avg_ns_per_op: obj.u64_field("avg_ns_per_op")?,
        });
    }
    if points.is_empty() {
        return Err("no results[] entries found".into());
    }
    Ok(ParsedSyncReport {
        quick,
        replica_hit_fabric_ops,
        points,
    })
}

/// The strict acceptance check applied to the committed
/// `BENCH_sync.json` (`flac-bench sync --check`): full run, full sweep
/// coverage, and every [`gate`] invariant.
pub fn check(report: &ParsedSyncReport) -> Vec<String> {
    let mut failures = Vec::new();
    if report.quick {
        failures.push("committed report must come from a full run, not --quick".into());
    }
    for &writers in &WRITER_COUNTS {
        for &read_pct in &READ_PCTS {
            for policy in ["delegated", "node_replicated"] {
                if !report
                    .points
                    .iter()
                    .any(|p| p.policy == policy && p.writers == writers && p.read_pct == read_pct)
                {
                    failures.push(format!(
                        "missing point ({policy}, writers={writers}, reads={read_pct}%)"
                    ));
                }
            }
        }
    }
    failures.extend(gate(report));
    failures
}

/// Run the sweep and both probes, printing each point, and render the
/// report.
pub fn run(quick: bool) -> String {
    let cfg = if quick {
        SyncScaleConfig::quick()
    } else {
        SyncScaleConfig::full()
    };
    println!("  {} write rounds per point", cfg.rounds);
    let points = run_sweep(cfg);
    for p in &points {
        println!("  {p:?}");
    }
    let probe = run_replica_probe();
    println!("  replica-hit read path: {probe} fabric ops across 64 reads");
    let (flat, pod) = run_numa_probe(if quick { 8 } else { 64 });
    println!("  NUMA combiner placement: remote combiner claims flat={flat} pod={pod}");
    to_json(cfg, &points, probe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_passes_its_own_gate() {
        let failures = gate(&parse_report(&run(true)).expect("parse"));
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn report_roundtrips_and_checks() {
        let cfg = SyncScaleConfig::quick();
        let points = run_sweep(cfg);
        let probe = run_replica_probe();
        let json = to_json(cfg, &points, probe);
        let parsed = parse_report(&json).expect("parse");
        assert_eq!(parsed.points.len(), points.len());
        assert_eq!(parsed.replica_hit_fabric_ops, probe);
        for (a, b) in parsed.points.iter().zip(points.iter()) {
            assert_eq!(a, b);
        }
        // A quick report fails the committed-report check on exactly
        // the quick flag.
        let failures = check(&parsed);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("--quick"));
    }

    #[test]
    fn replica_probe_counts_zero_fabric_ops() {
        assert_eq!(run_replica_probe(), 0);
    }

    #[test]
    fn numa_probe_counts_remote_claims_only_on_the_pod() {
        let (flat, pod) = run_numa_probe(4);
        assert_eq!(flat, 0, "uniform home: no node is remote from the log");
        assert!(pod > 0, "interleaved pod: off-home combines are counted");
    }

    #[test]
    fn sweep_is_deterministic() {
        let (ops_a, ns_a) = super::run_point(SyncPolicy::NodeReplicated, 4, 50, 10);
        let (ops_b, ns_b) = super::run_point(SyncPolicy::NodeReplicated, 4, 50, 10);
        assert_eq!((ops_a, ns_a), (ops_b, ns_b));
    }
}
