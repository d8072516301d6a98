//! `flacos-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve|coldstart|recover --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives one simulated rack (`RackConfig::pod(4, 2)`)
//! from one host thread through the crates' public APIs, checks every
//! output, and reports two clocks: *sim* metrics from the nodes'
//! `SimClock`s (deterministic per seed) and *host* metrics (what the
//! simulator itself costs). A run repeats the seeded workload until
//! `--seconds` have passed; every repetition must reproduce the first
//! one's sim metrics exactly, and host metrics are medians over the
//! repetitions (see `perfbench/README.md`). `--trace 1` alternates
//! untraced and traced repetitions and reports the per-layer table
//! instead of the end-to-end one.
//!
//! The last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod calibrate;
mod coldstart;
mod counters;
mod recover;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// Simulated-clock results of one repetition; two repetitions of one
/// seed must compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// Median unit-op latency.
    pub p50_ns: u64,
    /// The workload's tail percentile of unit-op latency.
    pub tail_ns: u64,
    /// Correct unit ops per simulated second (for `serve`: the highest
    /// offered rate that meets the tail limit).
    pub goodput_rps: f64,
    /// Simulated span of the timed phase.
    pub makespan_ns: u64,
    /// Median crash-to-verified recovery time (`recover` only).
    pub recovery_ns: u64,
    /// Median bytes restored and re-replicated per crash (`recover`).
    pub recovery_bytes: u64,
}

/// One repetition of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host CPU seconds of set-up before timing starts.
    pub setup_s: f64,
    /// Host CPU seconds of the timed phase.
    pub timed_host_s: f64,
    /// Unit ops completed in the timed phase.
    pub ops: u64,
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Ops that failed or returned a wrong output.
    pub failed: u64,
    /// Simulated-clock results.
    pub sim: SimMetrics,
    /// Per-layer counters read from the crates' public stats.
    pub counters: BTreeMap<&'static str, f64>,
    /// Simulated ns charged to each node over the timed phase.
    pub timed_charged_ns: Vec<u64>,
}

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("sim_p50_ns", "ns"),
    ("sim_tail_ns", "ns"),
    ("sim_goodput_rps", "1/s"),
    ("sim_makespan_ns", "ns"),
    ("host_peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported with `--trace 1`. Span-derived names end
/// in `.calls`, `.sim_ns`, `.charged_ns`, `.host_ns` or `.self_host_ns`;
/// the rest come from the crates' public counters. A layer the workload
/// does not touch reads 0.
const PER_LAYER: [(&str, &str); 89] = [
    ("redis-mini.server.poll.calls", "count"),
    ("redis-mini.server.poll.sim_ns", "ns"),
    ("redis-mini.server.poll.charged_ns", "ns"),
    ("redis-mini.server.poll.host_ns", "ns"),
    ("redis-mini.server.charged_ns_per_frame", "ns"),
    ("redis-mini.server.frames_per_batch", "ratio"),
    ("redis-mini.client.send.calls", "count"),
    ("redis-mini.client.send.sim_ns", "ns"),
    ("redis-mini.client.send.charged_ns", "ns"),
    ("redis-mini.client.send.host_ns", "ns"),
    ("redis-mini.client.recv.calls", "count"),
    ("redis-mini.client.recv.sim_ns", "ns"),
    ("redis-mini.client.recv.charged_ns", "ns"),
    ("redis-mini.client.recv.host_ns", "ns"),
    ("redis-mini.get.sim_p50_ns", "ns"),
    ("redis-mini.write.sim_p50_ns", "ns"),
    ("flacos-ipc.backpressure_ratio", "ratio"),
    ("flacos-ipc.msgs_sent", "count"),
    ("flacos-ipc.bytes_sent", "bytes"),
    ("loadgen.late_ns_p50", "ns"),
    ("loadgen.late_ns_max", "ns"),
    ("loadgen.backlog_max", "count"),
    ("serverless.start.cold.calls", "count"),
    ("serverless.start.cold.sim_ns", "ns"),
    ("serverless.start.cold.host_ns", "ns"),
    ("serverless.start.shared.calls", "count"),
    ("serverless.start.shared.sim_ns", "ns"),
    ("serverless.start.shared.host_ns", "ns"),
    ("serverless.start.hot.calls", "count"),
    ("serverless.start.hot.sim_ns", "ns"),
    ("serverless.start.hot.host_ns", "ns"),
    ("serverless.manifest.sim_ns", "ns"),
    ("serverless.fetch.sim_ns", "ns"),
    ("serverless.init.sim_ns", "ns"),
    ("flac-store.chunks_fetched", "count"),
    ("flac-store.bytes_fetched", "bytes"),
    ("flac-store.rack_hits", "count"),
    ("flac-store.coalesced", "count"),
    ("flac-store.claims_lost", "count"),
    ("flac-store.reuse_ratio", "ratio"),
    ("flac-store.verify.host_ns", "ns"),
    ("flacdk.sync.reelections", "count"),
    ("flacdk.sync.nr_combiner_remote_claims", "count"),
    ("flacdk.sync.policy_switch", "count"),
    ("flacdk.sync.recover_after_crash.sim_ns", "ns"),
    ("flacos-mem.access.calls", "count"),
    ("flacos-mem.access.sim_ns", "ns"),
    ("flacos-mem.access.charged_ns", "ns"),
    ("flacos-mem.access.host_ns", "ns"),
    ("flacos-mem.tlb.hit_ratio", "ratio"),
    ("flacos-mem.tlb.shootdown_rounds", "count"),
    ("flacos-mem.tlb.shootdowns_serviced", "count"),
    ("flacos.process.run.self_host_ns", "ns"),
    ("flacos-tier.tick.calls", "count"),
    ("flacos-tier.tick.sim_ns", "ns"),
    ("flacos-tier.tick.host_ns", "ns"),
    ("flacos-tier.promoted", "count"),
    ("flacos-tier.demoted", "count"),
    ("flacos-tier.bytes_migrated", "bytes"),
    ("flacos-tier.shootdowns", "count"),
    ("flacos-tier.region_promotions", "count"),
    ("flacos.scheduler.place.calls", "count"),
    ("flacos.scheduler.place.sim_ns", "ns"),
    ("flacos.spawn.sim_ns", "ns"),
    ("flacos-fault.adopt.sim_ns", "ns"),
    ("flacos-fault.restore.sim_ns", "ns"),
    ("flacos-fault.reprotect.sim_ns", "ns"),
    ("flacos-fault.restored_bytes", "bytes"),
    ("recover.crash.self_host_ns", "ns"),
    ("sim_recovery_ns", "ns"),
    ("recovery_bytes", "bytes"),
    ("rack-sim.cache.hit_ratio", "ratio"),
    ("rack-sim.cache.misses", "count"),
    ("rack-sim.cache.writebacks", "count"),
    ("rack-sim.charged.local_ns", "ns"),
    ("rack-sim.charged.global_read_ns", "ns"),
    ("rack-sim.charged.global_write_ns", "ns"),
    ("rack-sim.charged.uncached_ns", "ns"),
    ("rack-sim.charged.atomic_ns", "ns"),
    ("rack-sim.charged.cache_maint_ns", "ns"),
    ("rack-sim.charged.message_ns", "ns"),
    ("rack-sim.charged.compute_ns", "ns"),
    ("rack-sim.fabric.atomics", "count"),
    ("rack-sim.fabric.messages", "count"),
    ("rack-sim.fabric.message_bytes", "bytes"),
    ("rack-sim.fabric.bytes_copied", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
    ("host_ops_per_s", "1/s"),
];

/// CPU seconds of one [`calibrate::reference_pass`] on the host that
/// `setup_s` is reported for (an unloaded two-vCPU Xeon VM).
const REFERENCE_PASS_S: f64 = 0.05;

/// Suffixes of span-derived per-layer metrics.
const SPAN_FIELDS: [&str; 5] = ["calls", "sim_ns", "charged_ns", "host_ns", "self_host_ns"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Serve,
    Coldstart,
    Recover,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "serve" => Ok(Workload::Serve),
            "coldstart" => Ok(Workload::Coldstart),
            "recover" => Ok(Workload::Recover),
            _ => Err(format!("unknown workload {s:?} (serve|coldstart|recover)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Coldstart => "coldstart",
            Workload::Recover => "recover",
        }
    }

    fn run(self, seed: u64, tracer: &mut Tracer) -> Result<Rep, String> {
        match self {
            Workload::Serve => serve::run(seed, tracer),
            Workload::Coldstart => coldstart::run(seed, tracer),
            Workload::Recover => recover::run(seed, tracer),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// Host facts that tell a noisy host-time run apart from a steady one.
fn run_record(args: &Args) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into());
    let command_line = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_cpus\": {cpus}, \
         \"loadavg_1m\": \"{load}\", \"rustc\": \"{}\", \"git_commit\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.trace,
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
    )
}

/// CPU seconds this thread has run (`CLOCK_THREAD_CPUTIME_ID`, to the
/// nanosecond): time the host gives to other work is not counted.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Span-derived value of per-layer metric `name`, if it names a span.
fn span_metric(totals: &BTreeMap<&'static str, trace::LayerTotals>, name: &str) -> Option<f64> {
    let (prefix, field) = name.rsplit_once('.')?;
    if !SPAN_FIELDS.contains(&field) {
        return None;
    }
    let t = totals.get(prefix)?;
    Some(match field {
        "calls" => t.calls,
        "sim_ns" => t.sim_ns,
        "charged_ns" => t.charged_ns,
        "host_ns" => t.host_ns,
        _ => t.self_host_ns,
    } as f64)
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            // A non-finite value has already failed the run; JSON has
            // no spelling for it.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The first simulated result or counter in which `b` differs from `a`.
fn difference(a: &Rep, b: &Rep) -> Option<String> {
    if a.sim != b.sim {
        return Some(format!("{:?} vs {:?}", a.sim, b.sim));
    }
    a.counters
        .iter()
        .find(|(k, v)| b.counters.get(*k) != Some(v))
        .map(|(k, v)| format!("{k}: {v} vs {:?}", b.counters.get(k)))
}

/// Outcome of a whole run: checks, totals and the metrics to print.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn run(args: &Args) -> Result<RunResult, String> {
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut last_tracer = None;
    let mut peak_rss = 0.0;
    let mut problems = Vec::new();
    let mut refs = Vec::new();
    // At least three repetitions (two of each kind when tracing), then
    // until the measuring time is used up.
    while plain.len() < if args.trace { 2 } else { 3 }
        || start.elapsed().as_secs_f64() < args.seconds
    {
        refs.push(calibrate::reference_pass());
        plain.push(args.workload.run(args.seed, &mut Tracer::new(false))?);
        if plain.len() == 1 {
            // One repetition's peak: later ones only add allocator churn.
            peak_rss = peak_rss_mib();
        }
        if args.trace {
            let mut tracer = Tracer::new(true);
            let rep = args.workload.run(args.seed, &mut tracer)?;
            let covered = trace::top_level_charged(tracer.spans(), rep.timed_charged_ns.len());
            if covered != rep.timed_charged_ns {
                problems.push(format!(
                    "traced repetition {}: per-node charges {:?} ns, but top-level spans cover {covered:?} ns",
                    traced.len(),
                    rep.timed_charged_ns
                ));
            }
            traced.push(rep);
            last_tracer = Some(tracer);
        }
    }

    let first = &plain[0];
    for (i, rep) in plain.iter().enumerate().skip(1) {
        if let Some(diff) = difference(first, rep) {
            problems.push(format!(
                "repetition {i} did not reproduce repetition 0: {diff}"
            ));
        }
    }
    for (i, rep) in traced.iter().enumerate() {
        if let Some(diff) = difference(first, rep) {
            problems.push(format!(
                "traced repetition {i} differs from the untraced run: {diff}"
            ));
        }
    }
    let reps = plain.iter().chain(&traced);
    let attempted: u64 = reps.clone().map(|r| r.attempted).sum();
    let failed: u64 = reps.map(|r| r.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} ops failed or were wrong"));
    }

    // Host metrics are medians over the repetitions, so one repetition
    // the host slowed down does not move them.
    let median_of =
        |reps: &[Rep], f: fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<f64>>());
    let metrics: Vec<(&'static str, &'static str, f64)> = if let Some(tracer) = last_tracer {
        let rep = traced.last().expect("a traced repetition ran");
        let totals = trace::totals(tracer.spans());
        let overhead =
            median_of(&traced, |r| r.timed_host_s) / median_of(&plain, |r| r.timed_host_s) - 1.0;
        write_spans(args, &tracer);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "trace.overhead_ratio" => overhead,
                    "error_rate" => failed as f64 / attempted.max(1) as f64,
                    "host_ops_per_s" => median_of(&plain, |r| r.ops as f64 / r.timed_host_s),
                    _ => span_metric(&totals, name)
                        .or_else(|| rep.counters.get(name).copied())
                        .unwrap_or(0.0),
                };
                (name, unit, value)
            })
            .collect()
    } else {
        let sim = &first.sim;
        let values = [
            sim.p50_ns as f64,
            sim.tail_ns as f64,
            sim.goodput_rps,
            sim.makespan_ns as f64,
            peak_rss,
            // Scaled by the reference pass timed just before each
            // set-up: the host's speed drifts by a third over minutes,
            // and the ratio does not.
            stats::median(
                &plain
                    .iter()
                    .zip(&refs)
                    .map(|(r, pass)| r.setup_s / pass * REFERENCE_PASS_S)
                    .collect::<Vec<f64>>(),
            ),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    for (name, _, value) in &metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is {value}"));
        }
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let per_rep: Vec<String> = plain
        .iter()
        .zip(&refs)
        .map(|(r, f)| format!("{:.3}+{:.3}/{:.4}", r.setup_s, r.timed_host_s, f))
        .collect();
    eprintln!(
        "perfbench: CPU s per untraced repetition (set-up+timed): {}",
        per_rep.join(" ")
    );
    eprintln!(
        "perfbench: {} seed {}: {} repetitions{}, error_rate {}",
        args.workload.name(),
        args.seed,
        plain.len(),
        if args.trace {
            " (+ as many traced)"
        } else {
            ""
        },
        failed as f64 / attempted.max(1) as f64
    );
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// Write the last traced repetition's spans under `.bench_out/`.
fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_tsv(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    match written {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve|coldstart|recover --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    println!("run_record {}", run_record(&args));
    match run(&args) {
        Ok(r) => {
            for (name, unit, value) in &r.metrics {
                println!("metric {name} = {value} {unit}");
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                r.correct,
                r.attempted.max(1),
                r.failed,
                json_metrics(&r.metrics)
            );
            if !r.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn span_metrics_read_their_field() {
        let mut totals = BTreeMap::new();
        totals.insert(
            "flacos-tier.tick",
            trace::LayerTotals {
                calls: 3,
                sim_ns: 30,
                charged_ns: 20,
                host_ns: 9,
                self_host_ns: 4,
            },
        );
        assert_eq!(span_metric(&totals, "flacos-tier.tick.calls"), Some(3.0));
        assert_eq!(span_metric(&totals, "flacos-tier.tick.host_ns"), Some(9.0));
        assert_eq!(span_metric(&totals, "flacos-tier.promoted"), None);
    }
}
