//! `bench::cache_scale` — wall-clock scalability of the sharded node cache.
//!
//! Unlike every other module in this crate, which measures *simulated*
//! nanoseconds, this benchmark measures **real** time: it pits the
//! sharded, bank-locked [`rack_sim::cache::NodeCache`] against a faithful
//! port of the pre-shard design (one mutex around a `HashMap` + lazy LRU
//! queue, stats copied out under the lock after every operation) and
//! reports aggregate operations per wall-clock second at 1..=8 threads.
//!
//! Both implementations run the *identical* deterministic per-thread op
//! sequence (seeded [`SplitMix64`], disjoint working sets per thread), so
//! besides throughput the run cross-checks the cost model: the total
//! simulated nanoseconds charged by the two designs must be equal, and
//! equal across thread counts. A divergence fails the `--gate` check.
//!
//! `flac-bench cache` ([`crate::driver`]) writes the results as
//! `BENCH_cache.json`; `scripts/verify.sh` runs it in `--quick --gate`
//! mode as a smoke test and `--check`s the committed report.

use rack_sim::cache::{CacheConfig, CacheStats, NodeCache};
use rack_sim::sync::Mutex;
use rack_sim::{GAddr, GlobalMemory, LatencyModel, SimError, SplitMix64, LINE_SIZE};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Thread counts exercised by the sweep (the gate compares the ends).
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Hit ratios swept by a run (permille). The miss-heavy 500 sweep is
/// part of *both* modes: it is the one that exposed the serialized
/// miss path, so the smoke run must keep exercising it.
pub const HIT_RATIOS: [u64; 2] = [950, 500];

/// Minimum host CPUs for the 4x multi-thread speedup target to be
/// physically meaningful (see [`host_cpus`]).
pub const SPEEDUP_TARGET_MIN_CPUS: usize = 8;

/// Cache-op driver interface shared by the two implementations.
pub trait DriverCache: Sync {
    /// Human-readable implementation name used in the report.
    fn name(&self) -> &'static str;
    /// Cached read; returns simulated cost.
    ///
    /// # Errors
    ///
    /// Propagates memory errors, as [`rack_sim::cache::NodeCache::read`].
    fn read(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &mut [u8],
    ) -> Result<u64, SimError>;
    /// Cached write; returns simulated cost.
    ///
    /// # Errors
    ///
    /// Propagates memory errors, as [`rack_sim::cache::NodeCache::write`].
    fn write(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &[u8],
    ) -> Result<u64, SimError>;
    /// Drop cached lines; returns simulated cost.
    fn invalidate(&self, lat: &LatencyModel, addr: GAddr, len: usize) -> u64;
}

impl DriverCache for NodeCache {
    fn name(&self) -> &'static str {
        "sharded"
    }
    fn read(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &mut [u8],
    ) -> Result<u64, SimError> {
        NodeCache::read(self, global, lat, addr, buf)
    }
    fn write(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &[u8],
    ) -> Result<u64, SimError> {
        NodeCache::write(self, global, lat, addr, buf)
    }
    fn invalidate(&self, lat: &LatencyModel, addr: GAddr, len: usize) -> u64 {
        NodeCache::invalidate(self, lat, addr, len)
    }
}

#[derive(Debug, Clone)]
struct BLine {
    data: [u8; LINE_SIZE],
    dirty: bool,
    lru_tick: u64,
}

#[derive(Debug)]
struct BaselineInner {
    lines: HashMap<u64, BLine>,
    tick: u64,
    stats: CacheStats,
    lru_queue: VecDeque<(u64, u64)>,
    max_lines: usize,
}

/// Faithful port of the pre-shard node cache: every operation takes one
/// node-wide mutex, LRU is a lazily-compacted tick queue, and (as the old
/// `NodeCtx` did) the whole `CacheStats` struct is copied out under the
/// lock and re-published after each op.
#[derive(Debug)]
pub struct BaselineCache {
    inner: Mutex<BaselineInner>,
    published: [AtomicU64; 6],
}

impl BaselineCache {
    /// An empty baseline cache with `max_lines` capacity.
    pub fn new(max_lines: usize) -> Self {
        BaselineCache {
            inner: Mutex::new(BaselineInner {
                lines: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
                lru_queue: VecDeque::new(),
                max_lines,
            }),
            published: Default::default(),
        }
    }

    fn publish(&self, s: CacheStats) {
        for (cell, v) in self.published.iter().zip([
            s.hits,
            s.misses,
            s.allocs,
            s.writebacks,
            s.invalidations,
            s.evictions,
        ]) {
            cell.store(v, Ordering::Relaxed);
        }
    }
}

impl BaselineInner {
    fn touch(&mut self, line_id: u64) {
        self.tick += 1;
        if let Some(l) = self.lines.get_mut(&line_id) {
            l.lru_tick = self.tick;
            self.lru_queue.push_back((line_id, self.tick));
        }
        if self.lru_queue.len() > self.lines.len() * 4 + 64 {
            let lines = &self.lines;
            self.lru_queue
                .retain(|(id, t)| lines.get(id).map(|l| l.lru_tick == *t).unwrap_or(false));
        }
    }

    fn enforce_capacity(&mut self, global: &GlobalMemory, lat: &LatencyModel) -> u64 {
        let mut cost = 0;
        while self.lines.len() > self.max_lines {
            let victim = loop {
                match self.lru_queue.pop_front() {
                    Some((id, t)) => {
                        if self
                            .lines
                            .get(&id)
                            .map(|l| l.lru_tick == t)
                            .unwrap_or(false)
                        {
                            break Some(id);
                        }
                    }
                    None => break None,
                }
            };
            let victim = match victim.or_else(|| {
                self.lines
                    .iter()
                    .min_by_key(|(id, l)| (l.lru_tick, **id))
                    .map(|(id, _)| *id)
            }) {
                Some(v) => v,
                None => break,
            };
            let line = self.lines.remove(&victim).expect("present");
            self.stats.evictions += 1;
            if line.dirty {
                if global
                    .write_bytes(GAddr(victim * LINE_SIZE as u64), &line.data)
                    .is_ok()
                {
                    self.stats.writebacks += 1;
                }
                cost += lat.writeback_line_ns;
            }
        }
        cost
    }

    fn fetch_line(
        &mut self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        line_id: u64,
        first_miss: bool,
    ) -> Result<u64, SimError> {
        let mut data = [0u8; LINE_SIZE];
        global.read_bytes(GAddr(line_id * LINE_SIZE as u64), &mut data)?;
        self.tick += 1;
        self.lines.insert(
            line_id,
            BLine {
                data,
                dirty: false,
                lru_tick: self.tick,
            },
        );
        self.lru_queue.push_back((line_id, self.tick));
        self.stats.misses += 1;
        let mut cost = if first_miss {
            lat.global_read_ns
        } else {
            lat.transfer_ns(LINE_SIZE).max(1)
        };
        cost += self.enforce_capacity(global, lat);
        Ok(cost)
    }
}

impl DriverCache for BaselineCache {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn read(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &mut [u8],
    ) -> Result<u64, SimError> {
        let mut inner = self.inner.lock();
        let mut cost = 0u64;
        let mut pos = 0usize;
        let mut a = addr.0;
        let mut missed = false;
        while pos < buf.len() {
            let line_id = a / LINE_SIZE as u64;
            let in_line = (a % LINE_SIZE as u64) as usize;
            let take = (LINE_SIZE - in_line).min(buf.len() - pos);
            if inner.lines.contains_key(&line_id) {
                inner.stats.hits += 1;
                cost += lat.cache_hit_ns;
                inner.touch(line_id);
            } else {
                cost += inner.fetch_line(global, lat, line_id, !missed)?;
                missed = true;
            }
            let line = inner.lines.get(&line_id).expect("just ensured");
            buf[pos..pos + take].copy_from_slice(&line.data[in_line..in_line + take]);
            pos += take;
            a += take as u64;
        }
        let stats = inner.stats;
        drop(inner);
        self.publish(stats);
        Ok(cost)
    }

    fn write(
        &self,
        global: &GlobalMemory,
        lat: &LatencyModel,
        addr: GAddr,
        buf: &[u8],
    ) -> Result<u64, SimError> {
        let mut inner = self.inner.lock();
        let mut cost = 0u64;
        let mut pos = 0usize;
        let mut a = addr.0;
        let mut missed = false;
        while pos < buf.len() {
            let line_id = a / LINE_SIZE as u64;
            let in_line = (a % LINE_SIZE as u64) as usize;
            let take = (LINE_SIZE - in_line).min(buf.len() - pos);
            if inner.lines.contains_key(&line_id) {
                inner.stats.hits += 1;
                cost += lat.cache_hit_ns;
                inner.touch(line_id);
            } else if take == LINE_SIZE {
                inner.stats.allocs += 1;
                inner.tick += 1;
                let tick = inner.tick;
                inner.lines.insert(
                    line_id,
                    BLine {
                        data: [0u8; LINE_SIZE],
                        dirty: false,
                        lru_tick: tick,
                    },
                );
                inner.lru_queue.push_back((line_id, tick));
                cost += lat.cache_hit_ns;
                cost += inner.enforce_capacity(global, lat);
            } else {
                cost += inner.fetch_line(global, lat, line_id, !missed)?;
                missed = true;
            }
            let line = inner.lines.get_mut(&line_id).expect("just ensured");
            line.data[in_line..in_line + take].copy_from_slice(&buf[pos..pos + take]);
            line.dirty = true;
            pos += take;
            a += take as u64;
        }
        let stats = inner.stats;
        drop(inner);
        self.publish(stats);
        Ok(cost)
    }

    fn invalidate(&self, lat: &LatencyModel, addr: GAddr, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let mut inner = self.inner.lock();
        let mut cost = 0;
        let mut first = true;
        let last = addr.0.saturating_add(len as u64 - 1) / LINE_SIZE as u64;
        for line_id in (addr.0 / LINE_SIZE as u64)..=last {
            if inner.lines.remove(&line_id).is_some() {
                inner.stats.invalidations += 1;
                cost += if first {
                    lat.invalidate_line_ns
                } else {
                    lat.invalidate_extra_line_ns
                };
                first = false;
            }
        }
        let stats = inner.stats;
        drop(inner);
        self.publish(stats);
        cost
    }
}

/// Parameters of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Operations per thread in the timed region.
    pub ops_per_thread: u64,
    /// Cache lines in each thread's (disjoint) working set.
    pub lines_per_thread: u64,
    /// Target hit ratio in permille (e.g. 950 = 95 % of reads hit).
    pub hit_permille: u64,
    /// Base RNG seed; thread `t` uses `seed + t`.
    pub seed: u64,
    /// Measurement repetitions per point; best (shortest) run is kept, so
    /// one bad scheduling quantum cannot sink a point.
    pub reps: u32,
}

impl ScaleConfig {
    /// Full-run parameters (committed `BENCH_cache.json`).
    pub fn full(hit_permille: u64) -> Self {
        ScaleConfig {
            ops_per_thread: 200_000,
            lines_per_thread: 2048,
            hit_permille,
            seed: 0xCAC4E_5CA1E,
            reps: 3,
        }
    }

    /// Quick parameters for the ~1 s CI smoke run.
    pub fn quick(hit_permille: u64) -> Self {
        ScaleConfig {
            ops_per_thread: 30_000,
            reps: 2,
            ..Self::full(hit_permille)
        }
    }
}

/// Result of one (implementation, thread count) measurement.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Implementation name (`"sharded"` / `"baseline"`).
    pub cache_impl: String,
    /// Worker threads driving the cache.
    pub threads: usize,
    /// Hit-ratio target in permille.
    pub hit_permille: u64,
    /// Total cache operations across all threads.
    pub total_ops: u64,
    /// Wall-clock duration of the timed region, nanoseconds.
    pub elapsed_ns: u64,
    /// Aggregate throughput, operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Total *simulated* nanoseconds charged — must match between the two
    /// implementations for the same (threads, hit_permille) workload.
    pub sim_ns: u64,
}

/// One thread's deterministic op stream against `cache`.
///
/// Returns (ops performed, simulated ns charged). The mix is ~1/8 writes;
/// a miss is forced by invalidating the target line first with
/// probability `1 - hit_permille/1000`.
fn drive(
    cache: &dyn DriverCache,
    global: &GlobalMemory,
    lat: &LatencyModel,
    cfg: ScaleConfig,
    thread_idx: usize,
) -> (u64, u64) {
    let mut rng = SplitMix64::new(cfg.seed + thread_idx as u64);
    let base_line = thread_idx as u64 * cfg.lines_per_thread;
    let mut sim_ns = 0u64;
    let mut ops = 0u64;
    let mut buf = [0u8; 8];
    for _ in 0..cfg.ops_per_thread {
        let line = base_line + rng.next_below(cfg.lines_per_thread);
        let addr = GAddr(line * LINE_SIZE as u64);
        if rng.next_below(1000) >= cfg.hit_permille {
            sim_ns += cache.invalidate(lat, addr, 8);
            ops += 1;
        }
        if rng.next_below(8) == 0 {
            buf = line.to_le_bytes();
            sim_ns += cache.write(global, lat, addr, &buf).expect("in bounds");
        } else {
            sim_ns += cache.read(global, lat, addr, &mut buf).expect("in bounds");
        }
        ops += 1;
    }
    std::hint::black_box(buf);
    (ops, sim_ns)
}

/// Measure one implementation at one thread count.
pub fn run_point(cache: &dyn DriverCache, cfg: ScaleConfig, threads: usize) -> ScalePoint {
    let global = GlobalMemory::new((threads as u64 * cfg.lines_per_thread) as usize * LINE_SIZE);
    let lat = LatencyModel::hccs();

    // Warm every working set before the timed region so the measured
    // hit ratio matches `hit_permille` instead of cold-start misses.
    for t in 0..threads {
        let base = t as u64 * cfg.lines_per_thread;
        for l in 0..cfg.lines_per_thread {
            let mut b = [0u8; 8];
            cache
                .read(&global, &lat, GAddr((base + l) * LINE_SIZE as u64), &mut b)
                .expect("warm-up read in bounds");
        }
    }

    let barrier = Barrier::new(threads + 1);
    let (elapsed_ns, per_thread) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let global = &global;
                let lat = &lat;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    drive(cache, global, lat, cfg, t)
                })
            })
            .collect();
        // Timestamp BEFORE entering the barrier: workers cannot start
        // until main arrives, so this bounds the timed region from above
        // even if main is descheduled right after the release (on a
        // single-core host the workers may otherwise run — or finish —
        // before a post-barrier `Instant::now()` executes).
        let start = Instant::now();
        barrier.wait();
        let per_thread: Vec<(u64, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (start.elapsed().as_nanos() as u64, per_thread)
    });

    let total_ops: u64 = per_thread.iter().map(|(o, _)| o).sum();
    let sim_ns: u64 = per_thread.iter().map(|(_, s)| s).sum();
    ScalePoint {
        cache_impl: cache.name().to_string(),
        threads,
        hit_permille: cfg.hit_permille,
        total_ops,
        elapsed_ns,
        ops_per_sec: total_ops as f64 / (elapsed_ns.max(1) as f64 / 1e9),
        sim_ns,
    }
}

/// Best-of-`reps` measurement: a fresh cache per rep (so every rep runs
/// the identical deterministic workload) and the shortest wall-clock kept.
fn best_point(
    make: &dyn Fn() -> Box<dyn DriverCache>,
    cfg: ScaleConfig,
    threads: usize,
) -> ScalePoint {
    (0..cfg.reps.max(1))
        .map(|_| run_point(&*make(), cfg, threads))
        .max_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec))
        .expect("at least one rep")
}

/// Sweep both implementations over `thread_counts` at one hit ratio.
pub fn run_sweep(cfg: ScaleConfig, thread_counts: &[usize]) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    for &threads in thread_counts {
        points.push(best_point(
            &|| Box::new(NodeCache::new(CacheConfig::default())),
            cfg,
            threads,
        ));
        points.push(best_point(
            &|| Box::new(BaselineCache::new(CacheConfig::default().max_lines)),
            cfg,
            threads,
        ));
    }
    points
}

/// Derived gate metrics for one hit ratio.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSummary {
    /// Hit-ratio target in permille.
    pub hit_permille: u64,
    /// sharded / baseline throughput at 1 thread (target: ≥ 0.95).
    pub single_thread_ratio: f64,
    /// sharded / baseline throughput at the top of the sweep (target: ≥ 4).
    pub speedup_top: f64,
    /// Thread count the speedup was taken at.
    pub top_threads: usize,
    /// Minimum sharded / baseline throughput ratio over every measured
    /// thread count. The miss-heavy gate requires this ≥ 1 at
    /// `hit_permille = 500` in the committed report: the sharded cache
    /// must never lose to the single-mutex baseline.
    pub min_thread_ratio: f64,
    /// Whether both impls charged identical simulated ns at every point.
    pub sim_ns_parity: bool,
}

/// Compute the gate metrics from one hit ratio's points; `None` when
/// some sharded point (or the 1-thread or top pair) lacks its partner.
pub fn summarize(points: &[ScalePoint]) -> Option<ScaleSummary> {
    let get = |name: &str, threads: usize| {
        points
            .iter()
            .find(|p| p.cache_impl == name && p.threads == threads)
    };
    let ratio = |threads: usize| {
        Some(get("sharded", threads)?.ops_per_sec / get("baseline", threads)?.ops_per_sec)
    };
    let top = points.iter().map(|p| p.threads).max()?;
    let mut parity = true;
    let mut min_ratio = f64::INFINITY;
    for p in points.iter().filter(|p| p.cache_impl == "sharded") {
        let base = get("baseline", p.threads)?;
        parity &= p.sim_ns == base.sim_ns;
        min_ratio = min_ratio.min(p.ops_per_sec / base.ops_per_sec);
    }
    Some(ScaleSummary {
        hit_permille: points[0].hit_permille,
        single_thread_ratio: ratio(1)?,
        speedup_top: ratio(top)?,
        top_threads: top,
        min_thread_ratio: min_ratio,
        sim_ns_parity: parity,
    })
}

/// CPUs the benchmark process may actually run on.
///
/// Wall-clock *parallel* speedup is physically bounded by this: on a
/// 1-CPU host, 8 threads time-slice one core and aggregate throughput
/// can only reflect per-op efficiency, never parallel scaling. The gate
/// therefore arms the 4x speedup target only when enough CPUs exist.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Render the full report (all sweeps + summaries) as a JSON document.
/// Hand-rolled: the workspace is hermetic, so no serde.
pub fn to_json(sweeps: &[(Vec<ScalePoint>, ScaleSummary)], quick: bool, cpus: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"cache_scale\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"line_size\": {LINE_SIZE},\n"));
    out.push_str(&format!("  \"host_cpus\": {cpus},\n"));
    out.push_str(&format!(
        "  \"speedup_target_armed\": {},\n",
        cpus >= SPEEDUP_TARGET_MIN_CPUS
    ));
    out.push_str(
        "  \"targets\": { \"speedup_top_min\": 4.0, \"single_thread_ratio_min\": 0.95, \
         \"speedup_min_requires_cpus\": 8, \"miss_heavy_min_thread_ratio_min\": 1.0 },\n",
    );
    out.push_str("  \"results\": [\n");
    let mut first = true;
    for (points, _) in sweeps {
        for p in points {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{ \"impl\": \"{}\", \"threads\": {}, \"hit_permille\": {}, \
                 \"total_ops\": {}, \"elapsed_ns\": {}, \"ops_per_sec\": {:.1}, \"sim_ns\": {} }}",
                p.cache_impl,
                p.threads,
                p.hit_permille,
                p.total_ops,
                p.elapsed_ns,
                p.ops_per_sec,
                p.sim_ns
            ));
        }
    }
    out.push_str("\n  ],\n  \"summaries\": [\n");
    for (i, (_, s)) in sweeps.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{ \"hit_permille\": {}, \"single_thread_ratio\": {:.3}, \
             \"speedup_top\": {:.2}, \"top_threads\": {}, \"min_thread_ratio\": {:.3}, \
             \"sim_ns_parity\": {} }}",
            s.hit_permille,
            s.single_thread_ratio,
            s.speedup_top,
            s.top_threads,
            s.min_thread_ratio,
            s.sim_ns_parity
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// A `BENCH_cache.json` report re-read from disk (see [`parse_report`]).
#[derive(Debug, Clone)]
pub struct ParsedReport {
    /// Whether the report came from a `--quick` smoke run.
    pub quick: bool,
    /// CPUs the measuring host granted (arms the speedup target).
    pub host_cpus: usize,
    /// Every measurement point, in report order.
    pub points: Vec<ScalePoint>,
}

/// Re-read a report produced by [`to_json`]. Hand-rolled like the writer
/// (hermetic workspace, no serde): each `results[]` object occupies one
/// line, so the shared [`crate::report`] line-wise extraction is exact.
///
/// # Errors
///
/// Returns a description of the first missing field or malformed line.
pub fn parse_report(json: &str) -> Result<ParsedReport, String> {
    crate::report::require_fields(
        json,
        &[
            "bench",
            "targets",
            "results",
            "summaries",
            "ops_per_sec",
            "sim_ns",
            "single_thread_ratio",
            "speedup_top",
            "sim_ns_parity",
            "host_cpus",
        ],
    )?;
    let quick = crate::report::parse_quick(json)?;
    let host_cpus = crate::report::object_with(json, "host_cpus")?.usize_field("host_cpus")?;
    let mut points = Vec::new();
    for obj in crate::report::objects_with(json, "impl") {
        points.push(ScalePoint {
            cache_impl: obj.str_field("impl")?,
            threads: obj.usize_field("threads")?,
            hit_permille: obj.u64_field("hit_permille")?,
            total_ops: obj.u64_field("total_ops")?,
            elapsed_ns: obj.u64_field("elapsed_ns")?,
            ops_per_sec: obj.f64_field("ops_per_sec")?,
            sim_ns: obj.u64_field("sim_ns")?,
        });
    }
    if points.is_empty() {
        return Err("no results[] entries found".into());
    }
    Ok(ParsedReport {
        quick,
        host_cpus,
        points,
    })
}

/// The smoke invariants (`--gate`), recomputed from the raw points
/// rather than trusting the report's own summary block:
///
/// * a (sharded, baseline) pair with equal `sim_ns` at every point;
/// * single-thread sharded/baseline throughput ≥ 0.80 (machine-noise
///   tolerance; the full run documents the 5 % target);
/// * ≥ 4x at the top thread count, armed only on hosts with
///   [`SPEEDUP_TARGET_MIN_CPUS`] CPUs;
/// * miss-heavy (`hit_permille = 500`) ratio ≥ 0.90 at every thread
///   count (the strict ≥ 1.0 is [`check`]'s).
///
/// Returns the list of failures (empty = pass).
pub fn gate(report: &ParsedReport) -> Vec<String> {
    let mut failures = Vec::new();
    for p in report.points.iter().filter(|p| p.cache_impl == "sharded") {
        let Some(base) = baseline_of(report, p) else {
            failures.push(format!(
                "no baseline point pairs (threads={}, hit_permille={})",
                p.threads, p.hit_permille
            ));
            continue;
        };
        if p.sim_ns != base.sim_ns {
            failures.push(format!(
                "sim_ns parity broken at threads={}, hit_permille={}: {} vs {}",
                p.threads, p.hit_permille, p.sim_ns, base.sim_ns
            ));
        }
    }
    let mut hits: Vec<u64> = report.points.iter().map(|p| p.hit_permille).collect();
    hits.sort_unstable();
    hits.dedup();
    for hit in hits {
        let sweep: Vec<ScalePoint> = report
            .points
            .iter()
            .filter(|p| p.hit_permille == hit)
            .cloned()
            .collect();
        let Some(s) = summarize(&sweep) else {
            failures.push(format!(
                "hit_permille={hit}: sweep lacks a (sharded, baseline) pair to summarize"
            ));
            continue;
        };
        if !s.sim_ns_parity {
            failures.push(format!(
                "hit_permille={}: sharded and baseline charged different simulated ns \
                 for the identical workload",
                s.hit_permille
            ));
        }
        if s.single_thread_ratio < 0.80 {
            failures.push(format!(
                "hit_permille={}: single-thread throughput ratio {:.3} < 0.80",
                s.hit_permille, s.single_thread_ratio
            ));
        }
        // Parallel wall-clock speedup needs CPUs to run on: a 1-CPU CI
        // container time-slices all 8 threads onto one core, capping
        // aggregate throughput at per-op efficiency.
        let cpus = report.host_cpus;
        if cpus >= SPEEDUP_TARGET_MIN_CPUS && s.speedup_top < 4.0 {
            failures.push(format!(
                "hit_permille={}: speedup {:.2} at {} threads < 4.0 on a {cpus}-CPU host",
                s.hit_permille, s.speedup_top, s.top_threads
            ));
        }
        // Per-op efficiency, not parallel speedup: armed on any host.
        if s.hit_permille == 500 && s.min_thread_ratio < 0.90 {
            failures.push(format!(
                "hit_permille=500: sharded/baseline ratio {:.3} < 0.90 at some thread count \
                 — the miss path is losing to the single-mutex baseline",
                s.min_thread_ratio
            ));
        }
    }
    failures
}

/// The baseline point measured against sharded point `p`.
fn baseline_of<'a>(report: &'a ParsedReport, p: &ScalePoint) -> Option<&'a ScalePoint> {
    report.points.iter().find(|q| {
        q.cache_impl == "baseline" && q.threads == p.threads && q.hit_permille == p.hit_permille
    })
}

/// The strict acceptance check applied to the *committed*
/// `BENCH_cache.json` (`flac-bench cache --check`): a full (non-quick)
/// run whose miss-heavy sweep (`hit_permille = 500`) is present and has
/// the sharded cache at least as fast as the baseline at **every**
/// thread count — no noise tolerance, the committed artifact is
/// best-of-reps — plus every [`gate`] invariant.
///
/// Returns the list of failures (empty = pass).
pub fn check(report: &ParsedReport) -> Vec<String> {
    let mut failures = Vec::new();
    if report.quick {
        failures.push("committed report must come from a full run, not --quick".into());
    }
    let mut saw_miss_heavy = false;
    for p in report
        .points
        .iter()
        .filter(|p| p.cache_impl == "sharded" && p.hit_permille == 500)
    {
        let Some(base) = baseline_of(report, p) else {
            continue;
        };
        saw_miss_heavy = true;
        if p.ops_per_sec < base.ops_per_sec {
            failures.push(format!(
                "miss-heavy sweep: sharded loses to baseline at {} thread(s) \
                 ({:.0} vs {:.0} ops/s, ratio {:.3} < 1.0)",
                p.threads,
                p.ops_per_sec,
                base.ops_per_sec,
                p.ops_per_sec / base.ops_per_sec
            ));
        }
    }
    if !saw_miss_heavy {
        failures.push("report lacks the miss-heavy (hit_permille=500) sweep".into());
    }
    failures.extend(gate(report));
    failures
}

/// Sweep [`THREAD_SWEEP`] at every [`HIT_RATIOS`] entry, printing each
/// point, and render the report.
pub fn run(quick: bool) -> String {
    let cpus = host_cpus();
    println!("  threads {THREAD_SWEEP:?}, hit ratios (permille) {HIT_RATIOS:?}, host CPUs {cpus}");
    let mut sweeps = Vec::new();
    for hit_permille in HIT_RATIOS {
        let cfg = if quick {
            ScaleConfig::quick(hit_permille)
        } else {
            ScaleConfig::full(hit_permille)
        };
        let points = run_sweep(cfg, &THREAD_SWEEP);
        for p in &points {
            println!("  {p:?}");
        }
        let s = summarize(&points).expect("run_sweep measures matched pairs");
        println!("  {s:?}");
        sweeps.push((points, s));
    }
    to_json(&sweeps, quick, cpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_impls_charge_identical_simulated_costs() {
        // The cost-model parity that makes the wall-clock comparison fair:
        // same deterministic op stream, same simulated charge.
        let cfg = ScaleConfig {
            ops_per_thread: 2_000,
            lines_per_thread: 64,
            hit_permille: 900,
            seed: 42,
            reps: 1,
        };
        let sharded = run_point(&NodeCache::new(CacheConfig::default()), cfg, 2);
        let baseline = run_point(
            &BaselineCache::new(CacheConfig::default().max_lines),
            cfg,
            2,
        );
        assert_eq!(sharded.sim_ns, baseline.sim_ns);
        assert_eq!(sharded.total_ops, baseline.total_ops);
        assert!(sharded.sim_ns > 0);
    }

    #[test]
    fn summary_reports_matched_pairs() {
        let cfg = ScaleConfig {
            ops_per_thread: 500,
            lines_per_thread: 32,
            hit_permille: 950,
            seed: 7,
            reps: 1,
        };
        let points = run_sweep(cfg, &[1, 2]);
        let s = summarize(&points).expect("matched pairs");
        assert!(s.sim_ns_parity, "identical workloads must charge equally");
        assert_eq!(s.top_threads, 2);
        assert!(s.single_thread_ratio > 0.0);
        let json = to_json(&[(points, s)], true, host_cpus());
        for field in [
            "\"bench\"",
            "\"results\"",
            "\"summaries\"",
            "\"ops_per_sec\"",
            "\"single_thread_ratio\"",
            "\"speedup_top\"",
            "\"min_thread_ratio\"",
            "\"sim_ns_parity\"",
            "\"host_cpus\"",
            "\"speedup_target_armed\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    /// Build a minimal synthetic report through the real writer so the
    /// parser/checker tests cover the actual on-disk shape.
    fn synthetic_report(quick: bool, miss_heavy_sharded_ops: f64) -> String {
        let mk = |cache_impl: &str, threads, hit_permille, ops| ScalePoint {
            cache_impl: cache_impl.to_string(),
            threads,
            hit_permille,
            total_ops: 1000,
            elapsed_ns: 1_000_000,
            ops_per_sec: ops,
            sim_ns: 5_000,
        };
        let sweep500 = vec![
            mk("sharded", 1, 500, miss_heavy_sharded_ops),
            mk("baseline", 1, 500, 1_000.0),
        ];
        let sweep950 = vec![
            mk("sharded", 1, 950, 2_000.0),
            mk("baseline", 1, 950, 1_500.0),
        ];
        let s950 = summarize(&sweep950).unwrap();
        let s500 = summarize(&sweep500).unwrap();
        to_json(&[(sweep950, s950), (sweep500, s500)], quick, 1)
    }

    #[test]
    fn parse_report_roundtrips_the_writer() {
        let json = synthetic_report(false, 1_100.0);
        let parsed = parse_report(&json).expect("writer output parses");
        assert!(!parsed.quick);
        assert_eq!(parsed.points.len(), 4);
        let p = &parsed.points[2];
        assert_eq!(p.cache_impl, "sharded");
        assert_eq!(p.hit_permille, 500);
        assert_eq!(p.sim_ns, 5_000);
        assert!((p.ops_per_sec - 1_100.0).abs() < 0.5);
    }

    #[test]
    fn check_report_accepts_winning_full_run() {
        let parsed = parse_report(&synthetic_report(false, 1_100.0)).unwrap();
        assert_eq!(check(&parsed), Vec::<String>::new());
    }

    #[test]
    fn check_report_rejects_miss_heavy_loss_and_quick_runs() {
        let losing = parse_report(&synthetic_report(false, 900.0)).unwrap();
        let failures = check(&losing);
        assert!(
            failures.iter().any(|f| f.contains("loses to baseline")),
            "expected a miss-heavy loss failure, got {failures:?}"
        );

        let quick = parse_report(&synthetic_report(true, 1_100.0)).unwrap();
        assert!(check(&quick).iter().any(|f| f.contains("full run")));
        assert!(gate(&quick).is_empty(), "a quick run passes the smoke gate");

        let mut no_miss_heavy = parse_report(&synthetic_report(false, 1_100.0)).unwrap();
        no_miss_heavy.points.retain(|p| p.hit_permille != 500);
        assert!(check(&no_miss_heavy)
            .iter()
            .any(|f| f.contains("miss-heavy")));
    }
}
