//! Ablation A1 — synchronization methods on non-coherent shared memory.
//!
//! Compares the baseline global spinlock (with the mandatory
//! flush/invalidate discipline) against the paper's three lock-free
//! families on a shared counter object, across read ratios and node
//! counts. The expected shape: locking pays fabric atomics *plus* cache
//! maintenance on every operation; replication makes reads local;
//! delegation makes the owner's operations local; RCU makes reads
//! wait-free at publish-cost writes.

use flacdk::alloc::GlobalAllocator;
use flacdk::sync::delegation::{call_stepped, DelegationClient, DelegationServer};
use flacdk::sync::rcu::{EpochManager, VersionedCell};
use flacdk::sync::reclaim::RetireList;
use flacdk::sync::spinlock::GlobalSpinLock;
use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
use rack_sim::{NodeId, Rack, RackConfig};

/// Methods under comparison.
pub const METHODS: [&str; 4] = ["spinlock", "replication", "delegation", "rcu"];

/// One measured configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncRow {
    /// Synchronization method.
    pub method: &'static str,
    /// Nodes participating.
    pub nodes: usize,
    /// Percent of operations that are reads.
    pub read_pct: u32,
    /// Mean per-operation latency in simulated ns.
    pub mean_op_ns: u64,
}

#[derive(Debug, Default, Clone)]
struct CounterReplica {
    value: u64,
}

impl SyncState for CounterReplica {
    fn apply(&mut self, op: &[u8]) {
        self.value += u64::from_le_bytes(op.try_into().unwrap_or([0; 8]));
    }
}

fn is_read(i: usize, read_pct: u32) -> bool {
    (i as u32 % 100) < read_pct
}

/// Run one (method, nodes, read_pct) cell with `ops` operations spread
/// round-robin across nodes.
///
/// Contention model: nodes issue operations in closed-loop rounds. Each
/// method's *serial section* is tracked in virtual time — an operation
/// cannot enter it before the previous one left. For the lock that is
/// the whole critical section; for the lock-free methods it is a single
/// fabric atomic (log-tail claim / pointer CAS); delegation serializes
/// naturally at the owner. This is what makes the paper's point
/// measurable: locks serialize *work*, the lock-free families serialize
/// only one atomic.
pub fn run_cell(method: &'static str, nodes: usize, read_pct: u32, ops: usize) -> SyncRow {
    run_cell_on(
        &Rack::new(RackConfig::n_node(nodes)),
        method,
        nodes,
        read_pct,
        ops,
    )
}

fn run_cell_on(
    rack: &Rack,
    method: &'static str,
    nodes: usize,
    read_pct: u32,
    ops: usize,
) -> SyncRow {
    let mut total_ns = 0u64;
    // Virtual-time point at which the method's serial section frees up.
    let mut serial_free_at = 0u64;

    match method {
        "spinlock" => {
            let lock = GlobalSpinLock::alloc(rack.global()).expect("lock");
            let data = rack.global().alloc(8, 8).expect("data");
            for i in 0..ops {
                let node = rack.node(i % nodes);
                let t0 = node.clock().now();
                // Queue behind the previous holder.
                node.clock().advance_to(serial_free_at);
                let guard = lock.lock(&node).expect("lock");
                if is_read(i, read_pct) {
                    let mut buf = [0u8; 8];
                    guard.read_sync(data, &mut buf).expect("read");
                } else {
                    let mut buf = [0u8; 8];
                    guard.read_sync(data, &mut buf).expect("read");
                    let v = u64::from_le_bytes(buf) + 1;
                    guard.write_sync(data, &v.to_le_bytes()).expect("write");
                }
                drop(guard);
                // The WHOLE critical section was serial.
                serial_free_at = node.clock().now();
                total_ns += node.clock().now() - t0;
            }
        }
        "replication" => {
            // A fixed-policy cell: per-node replicas fed by the shared log.
            let cell = SyncCell::alloc(
                rack.global(),
                "a1_counter",
                SyncCellConfig::new(nodes, SyncPolicy::Replicated).with_log(4096, 64),
                CounterReplica::default(),
            )
            .expect("cell");
            for i in 0..ops {
                let node = rack.node(i % nodes);
                let t0 = node.clock().now();
                if is_read(i, read_pct) {
                    cell.read(&node, |c| c.value).expect("read");
                } else {
                    // Only the log-tail claim (one fabric atomic) is serial.
                    node.clock().advance_to(serial_free_at);
                    let claim_start = node.clock().now();
                    cell.update(&node, &1u64.to_le_bytes()).expect("update");
                    serial_free_at = claim_start + node.latency().global_atomic_ns;
                }
                total_ns += node.clock().now() - t0;
                // Keep the bounded log drained, as a deployment would.
                if i % 512 == 511 {
                    for n in 0..nodes {
                        cell.sync_replica(&rack.node(n)).expect("sync");
                    }
                    cell.gc(&rack.node(0)).expect("gc");
                }
            }
        }
        "delegation" => {
            let mut server = DelegationServer::new(rack.node(0), 500, {
                let mut value = 0u64;
                move |req: &[u8]| {
                    if req == b"r" {
                        value.to_le_bytes().to_vec()
                    } else {
                        value += 1;
                        vec![1]
                    }
                }
            });
            let clients: Vec<DelegationClient> = (1..nodes)
                .map(|i| DelegationClient::new(rack.node(i), NodeId(0), 500, 600 + i as u16))
                .collect();
            for i in 0..ops {
                let from = i % nodes;
                let req: &[u8] = if is_read(i, read_pct) { b"r" } else { b"w" };
                if from == 0 {
                    let node = rack.node(0);
                    let t0 = node.clock().now();
                    server.execute_local(req);
                    total_ns += node.clock().now() - t0;
                } else {
                    let client = &clients[from - 1];
                    let node = client.node().clone();
                    let t0 = node.clock().now();
                    call_stepped(client, &mut server, req).expect("call");
                    // Response causality: the reply arrives no earlier
                    // than the server finished.
                    node.clock().advance_to(server.node().clock().now());
                    total_ns += node.clock().now() - t0;
                }
            }
        }
        "rcu" => {
            let alloc = GlobalAllocator::new(rack.global().clone());
            let mgr = EpochManager::alloc(rack.global(), nodes).expect("epochs");
            let retired = RetireList::new();
            let cell = VersionedCell::alloc(rack.global()).expect("cell");
            cell.write(&rack.node(0), &alloc, &mgr, &retired, &0u64.to_le_bytes())
                .expect("init");
            for i in 0..ops {
                let node = rack.node(i % nodes);
                let t0 = node.clock().now();
                if is_read(i, read_pct) {
                    let guard = mgr.handle(node.clone()).read_lock().expect("lock");
                    cell.read(&node, &guard).expect("read");
                } else {
                    let guard = mgr.handle(node.clone()).read_lock().expect("lock");
                    let cur = cell
                        .read(&node, &guard)
                        .expect("read")
                        .map(|b| u64::from_le_bytes(b.try_into().unwrap_or([0; 8])))
                        .unwrap_or(0);
                    drop(guard);
                    // Only the publish CAS is serial.
                    node.clock().advance_to(serial_free_at);
                    let cas_start = node.clock().now();
                    cell.write(&node, &alloc, &mgr, &retired, &(cur + 1).to_le_bytes())
                        .expect("write");
                    serial_free_at = cas_start + node.latency().global_atomic_ns;
                    retired.reclaim(&node, &mgr, &alloc).expect("reclaim");
                }
                total_ns += node.clock().now() - t0;
            }
        }
        other => panic!("unknown method {other}"),
    }

    SyncRow {
        method,
        nodes,
        read_pct,
        mean_op_ns: total_ns / ops as u64,
    }
}

/// Rack-wide metrics behind one representative cell (RCU, 2 nodes,
/// 50% reads): operation counts, latency histograms, subsystem counters.
pub fn metrics(ops: usize) -> rack_sim::RackReport {
    let rack = Rack::new(RackConfig::n_node(2));
    rack.enable_tracing();
    run_cell_on(&rack, "rcu", 2, 50, ops);
    rack.metrics_report()
}

/// Run the full sweep: every method × node counts × read ratios.
pub fn run(ops: usize) -> Vec<SyncRow> {
    let mut rows = Vec::new();
    for method in METHODS {
        for nodes in [2usize, 4, 8] {
            for read_pct in [0u32, 50, 90, 100] {
                rows.push(run_cell(method, nodes, read_pct, ops));
            }
        }
    }
    rows
}

/// Render the sweep.
pub fn report(rows: &[SyncRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.method.to_string(),
                r.nodes.to_string(),
                format!("{}%", r.read_pct),
                crate::table::fmt_ns(r.mean_op_ns),
            ]
        })
        .collect();
    format!(
        "Ablation A1: synchronization methods under incoherence (mean op latency)\n\n{}",
        crate::table::render(&["method", "nodes", "reads", "mean latency"], &table_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_mostly_replication_beats_lock() {
        let lock = run_cell("spinlock", 2, 90, 100);
        let repl = run_cell("replication", 2, 90, 100);
        assert!(
            repl.mean_op_ns < lock.mean_op_ns,
            "replication ({}) must beat locking ({}) at 90% reads",
            repl.mean_op_ns,
            lock.mean_op_ns
        );
    }

    #[test]
    fn rcu_reads_are_cheap() {
        let reads = run_cell("rcu", 2, 100, 100);
        let writes = run_cell("rcu", 2, 0, 100);
        assert!(reads.mean_op_ns < writes.mean_op_ns);
    }

    #[test]
    fn all_methods_produce_rows() {
        for m in METHODS {
            let row = run_cell(m, 2, 50, 60);
            assert!(row.mean_op_ns > 0, "{m} measured nothing");
        }
    }

    #[test]
    fn report_covers_methods() {
        let rows: Vec<SyncRow> = METHODS.iter().map(|m| run_cell(m, 2, 50, 40)).collect();
        let text = report(&rows);
        for m in METHODS {
            assert!(text.contains(m));
        }
    }
}
