//! Per-layer counters read from the crates' public stats over a timed
//! phase: rack-wide cache, fabric and per-cost-class charges from
//! `Rack::metrics_report`, and `CounterRegistry` subsystem counters.

use rack_sim::{CostClass, Rack, StatsSnapshot};
use std::collections::BTreeMap;

/// Per-layer metric name of each cost class's charged ns.
const CLASS_METRICS: [(CostClass, &str); 8] = [
    (CostClass::Local, "rack-sim.charged.local_ns"),
    (CostClass::GlobalRead, "rack-sim.charged.global_read_ns"),
    (CostClass::GlobalWrite, "rack-sim.charged.global_write_ns"),
    (CostClass::Uncached, "rack-sim.charged.uncached_ns"),
    (CostClass::Atomic, "rack-sim.charged.atomic_ns"),
    (CostClass::CacheMaint, "rack-sim.charged.cache_maint_ns"),
    (CostClass::Message, "rack-sim.charged.message_ns"),
    (CostClass::Compute, "rack-sim.charged.compute_ns"),
];

/// A point-in-time copy of every node's stats.
#[derive(Debug, Clone)]
pub struct RackSample {
    nodes: Vec<StatsSnapshot>,
}

impl RackSample {
    /// Sample every node of `rack`.
    pub fn take(rack: &Rack) -> Self {
        let report = rack.metrics_report();
        RackSample {
            nodes: report.per_node,
        }
    }

    /// Subsystem counter `subsystem/name` summed over the rack.
    pub fn subsystem(&self, subsystem: &str, name: &str) -> u64 {
        self.nodes
            .iter()
            .flat_map(|n| &n.subsystems)
            .filter(|c| c.subsystem == subsystem && c.name == name)
            .map(|c| c.value)
            .sum()
    }
}

/// Subsystem counter growth between two samples.
pub fn subsystem_delta(
    before: &RackSample,
    after: &RackSample,
    subsystem: &str,
    name: &str,
) -> u64 {
    after.subsystem(subsystem, name) - before.subsystem(subsystem, name)
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Record the rack-wide per-layer counters of the phase between
/// `before` and `after`.
pub fn rack_layers(before: &RackSample, after: &RackSample, out: &mut BTreeMap<&'static str, f64>) {
    let mut merged = StatsSnapshot::default();
    for a in &after.nodes {
        merged.merge(a);
    }
    let mut base = StatsSnapshot::default();
    for b in &before.nodes {
        base.merge(b);
    }
    for (class, name) in CLASS_METRICS {
        let d = merged.histogram(class).total_ns - base.histogram(class).total_ns;
        out.insert(name, d as f64);
    }
    let hits = merged.cache_hits - base.cache_hits;
    let misses = merged.cache_misses - base.cache_misses;
    out.insert("rack-sim.cache.hit_ratio", ratio(hits, hits + misses));
    out.insert("rack-sim.cache.misses", misses as f64);
    out.insert(
        "rack-sim.cache.writebacks",
        (merged.cache_writebacks - base.cache_writebacks) as f64,
    );
    out.insert(
        "rack-sim.fabric.atomics",
        (merged.global_atomics - base.global_atomics) as f64,
    );
    out.insert(
        "rack-sim.fabric.messages",
        (merged.messages_sent - base.messages_sent) as f64,
    );
    out.insert(
        "rack-sim.fabric.message_bytes",
        (merged.message_bytes - base.message_bytes) as f64,
    );
    out.insert(
        "rack-sim.fabric.bytes_copied",
        (merged.bytes_copied - base.bytes_copied) as f64,
    );
    for (name, counter) in [
        ("flacdk.sync.reelections", "reelections"),
        (
            "flacdk.sync.nr_combiner_remote_claims",
            "nr_combiner_remote_claims",
        ),
        ("flacdk.sync.policy_switch", "policy_switch"),
    ] {
        out.insert(name, subsystem_delta(before, after, "sync", counter) as f64);
    }
}

/// Simulated ns charged on each node between two samples.
pub fn charged_by_node(before: &RackSample, after: &RackSample) -> Vec<u64> {
    before
        .nodes
        .iter()
        .zip(&after.nodes)
        .map(|(b, a)| a.total_charged_ns() - b.total_charged_ns())
        .collect()
}
