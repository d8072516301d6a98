//! `serve`: a redis-mini server on node 0 of `RackConfig::pod(4, 2)`
//! answers 7 client nodes over `FlacChannel`s.
//!
//! Arrivals are open-loop Poisson over zipf(0.99) keys from a 64 Ki
//! keyspace; the blend is GET/SET/INCR/APPEND = 70/20/5/5 with 16 B or
//! 4 KiB values (10 % large). Arrivals within one 5 µs event-loop tick
//! are pipelined into one message per connection, and latency is timed
//! from each request's scheduled arrival. A key always travels on the
//! same connection (`rank % 7`), so the server applies each key's ops in
//! the order they were generated and every reply can be checked exactly
//! against a shadow keyspace.
//!
//! A repetition measures one window at the fixed reference rate (the
//! `sim_p50_ns` / `sim_tail_ns` distribution) and then bisects for the
//! highest offered rate whose p99.9 stays within [`TAIL_LIMIT_NS`] with
//! no growing backlog (`sim_goodput_rps`). Every window runs on a fresh
//! rack, built before its timing starts.

use crate::counters::{self, RackSample};
use crate::stats;
use crate::trace::Tracer;
use crate::{Rep, SimMetrics};
use flacdk::alloc::GlobalAllocator;
use flacos_ipc::channel::{FlacChannel, FlacEndpoint};
use rack_sim::{Rack, RackConfig, SimError, SplitMix64, Zipf};
use redis_mini::client::RedisClient;
use redis_mini::resp::{Command, Reply};
use redis_mini::server::RedisServer;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Client nodes (1..=7); node 0 serves.
const CLIENTS: usize = 7;
/// Distinct keys per namespace.
const KEYS: usize = 65_536;
/// Key popularity skew.
const ZIPF_SKEW: f64 = 0.99;
/// Event-loop tick: arrivals within one tick share a pipelined message.
const TICK_NS: u64 = 5_000;
/// Value sizes and the share of large ones.
const SMALL_VALUE: usize = 16;
const LARGE_VALUE: usize = 4096;
const LARGE_PERMILLE: u64 = 100;
/// The fixed offered rate of the latency window, requests per sim s.
const REFERENCE_RPS: f64 = 20_000.0;
/// Requests in the reference window (p99.9 keeps 100 samples beyond).
const REFERENCE_REQUESTS: u64 = 100_000;
/// Tail percentile reported and limited.
pub const TAIL_P: f64 = 99.9;
/// The goodput limit on the tail percentile.
const TAIL_LIMIT_NS: u64 = 500_000;
/// Goodput search range and trials.
const SEARCH_LO_RPS: f64 = 20_000.0;
const SEARCH_HI_RPS: f64 = 160_000.0;
const SEARCH_STEPS: u32 = 8;
/// Requests per search trial (p99.9 keeps 10 samples beyond).
const SEARCH_REQUESTS: u64 = 20_000;
/// Backlog slack (requests) before growth counts.
const BACKLOG_SLACK: u64 = 16;
/// Abort a window whose event loop stops making progress.
const MAX_IDLE_TICKS: u64 = 100_000;

/// Reply the shadow keyspace predicts for one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `+OK`.
    Ok,
    /// `:n`.
    Int(i64),
    /// `$-1`.
    Null,
    /// A bulk string of this length and [`poly_hash`].
    Bulk(u64, u64),
}

const HASH_BASE: u64 = 0x0000_0100_0000_01b3;

/// Polynomial hash, composable over concatenation (see [`concat`]).
pub fn poly_hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0u64, |h, &b| {
        h.wrapping_mul(HASH_BASE).wrapping_add(u64::from(b) + 1)
    })
}

/// Hash of `a ‖ b` from the parts' hashes and `b`'s length.
fn concat(ha: u64, hb: u64, len_b: u64) -> u64 {
    ha.wrapping_mul(HASH_BASE.wrapping_pow(len_b as u32))
        .wrapping_add(hb)
}

/// What the server must hold, tracked as lengths and hashes.
#[derive(Debug, Default)]
pub struct Shadow {
    user: HashMap<u64, (u64, u64)>,
    ctr: HashMap<u64, i64>,
}

const APPEND_SUFFIX: &[u8] = b"entry;";

impl Shadow {
    /// Apply `cmd` (generated for key rank `rank`) and return the reply
    /// the server must give.
    pub fn apply(&mut self, rank: u64, cmd: &Command) -> Expect {
        match cmd {
            Command::Get { .. } => self
                .user
                .get(&rank)
                .map_or(Expect::Null, |&(len, h)| Expect::Bulk(len, h)),
            Command::Set { value, .. } => {
                self.user
                    .insert(rank, (value.len() as u64, poly_hash(value)));
                Expect::Ok
            }
            Command::Incr { .. } => {
                let n = self.ctr.entry(rank).or_insert(0);
                *n += 1;
                Expect::Int(*n)
            }
            Command::Append { value, .. } => {
                let (len, h) = self.user.get(&rank).copied().unwrap_or((0, 0));
                let grown = (
                    len + value.len() as u64,
                    concat(h, poly_hash(value), value.len() as u64),
                );
                self.user.insert(rank, grown);
                Expect::Int(grown.0 as i64)
            }
            _ => Expect::Null,
        }
    }
}

/// Whether `reply` is the one the shadow predicted.
pub fn reply_matches(expect: Expect, reply: &Reply) -> bool {
    match (expect, reply) {
        (Expect::Ok, Reply::Simple(s)) => s == "OK",
        (Expect::Int(n), Reply::Integer(m)) => n == *m,
        (Expect::Null, Reply::Null) => true,
        (Expect::Bulk(len, h), Reply::Bulk(v)) => v.len() as u64 == len && poly_hash(v) == h,
        _ => false,
    }
}

/// Op kind for the per-kind latency split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
}

/// Seeded request stream: Poisson gaps at `rps`, zipf keys, the blend.
struct Generator {
    rng: SplitMix64,
    zipf: Zipf,
    rps: f64,
    seq: u64,
}

impl Generator {
    fn new(seed: u64, rps: f64) -> Self {
        Generator {
            rng: SplitMix64::new(seed ^ 0x5E_27E0),
            zipf: Zipf::new(KEYS, ZIPF_SKEW),
            rps,
            seq: 0,
        }
    }

    fn gap_ns(&mut self) -> u64 {
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((-(1.0 - u).ln()) * 1e9 / self.rps).round().max(1.0) as u64
    }

    fn value(&mut self) -> Vec<u8> {
        let size = if self.rng.next_below(1000) < LARGE_PERMILLE {
            LARGE_VALUE
        } else {
            SMALL_VALUE
        };
        self.seq += 1;
        let mut fill = SplitMix64::new(self.seq);
        let mut v = Vec::with_capacity(size);
        while v.len() < size {
            let word = fill.next_u64().to_le_bytes();
            v.extend_from_slice(&word[..(size - v.len()).min(8)]);
        }
        v
    }

    /// Next command with its key rank and kind.
    fn command(&mut self) -> (u64, Command, Kind) {
        let rank = self.zipf.sample(&mut self.rng) as u64;
        let user = format!("user:{rank:07}").into_bytes();
        let r = self.rng.next_below(1000);
        let (cmd, kind) = if r < 700 {
            (Command::Get { key: user }, Kind::Read)
        } else if r < 900 {
            let value = self.value();
            (Command::Set { key: user, value }, Kind::Write)
        } else if r < 950 {
            let key = format!("ctr:{rank:07}").into_bytes();
            (Command::Incr { key }, Kind::Write)
        } else {
            let value = APPEND_SUFFIX.to_vec();
            (Command::Append { key: user, value }, Kind::Write)
        };
        (rank, cmd, kind)
    }
}

/// A request in flight: scheduled arrival, expected reply, kind.
type Pending = (u64, Expect, Kind);

struct Conn {
    client: RedisClient<FlacEndpoint>,
    staged_cmds: Vec<Command>,
    staged: Vec<Pending>,
    inflight: VecDeque<Pending>,
}

/// A freshly built rack with the server and its client connections.
struct Built {
    rack: Rack,
    server: RedisServer<FlacEndpoint>,
    conns: Vec<Conn>,
}

fn build() -> Result<Built, SimError> {
    // The server keeps its keyspace in host memory; nodes need little
    // local DRAM and the rings little global memory.
    let mut config = RackConfig::pod(4, 2).with_global_mem(16 << 20);
    config.local_mem_bytes = 1 << 20;
    let rack = Rack::new(config);
    let alloc = GlobalAllocator::new(rack.global().clone());
    let mut server_eps = Vec::new();
    let mut conns = Vec::new();
    for i in 1..=CLIENTS {
        let (sep, cep) =
            FlacChannel::create(rack.global(), alloc.clone(), rack.node(0), rack.node(i))?;
        server_eps.push(sep);
        conns.push(Conn {
            client: RedisClient::new(rack.node(i), cep),
            staged_cmds: Vec::new(),
            staged: Vec::new(),
            inflight: VecDeque::new(),
        });
    }
    let server = RedisServer::with_connections(rack.node(0), server_eps);
    Ok(Built {
        rack,
        server,
        conns,
    })
}

/// Results of one open-loop window.
#[derive(Debug, Default)]
struct Window {
    latencies: Vec<u64>,
    read_latencies: Vec<u64>,
    write_latencies: Vec<u64>,
    late: Vec<u64>,
    backlog: Vec<u64>,
    failed: u64,
    sends: u64,
    would_block: u64,
    makespan_ns: u64,
    host_s: f64,
}

/// Drive one window of `requests` arrivals at `rps`. `corrupt_reply`
/// replaces that reply (by completion index) with a wrong one, so tests
/// can show the check counts it.
fn window(
    built: &mut Built,
    seed: u64,
    rps: f64,
    requests: u64,
    tracer: &mut Tracer,
    corrupt_reply: Option<u64>,
) -> Result<Window, String> {
    let started = crate::cpu_seconds();
    let mut gen = Generator::new(seed, rps);
    let mut shadow = Shadow::default();
    let mut w = Window::default();
    let Built { server, conns, .. } = built;
    let t0 = conns
        .iter()
        .map(|c| c.client.node().clock().now())
        .chain(std::iter::once(server.node().clock().now()))
        .max()
        .unwrap_or(0);
    let mut next_arrival = t0 + gen.gap_ns();
    let mut now_tick = t0;
    let (mut sent, mut completed, mut idle, mut batch) = (0u64, 0u64, 0u64, 0u64);
    let err = |e: SimError| e.to_string();

    while completed < requests {
        let quiescent = conns
            .iter()
            .all(|c| c.inflight.is_empty() && c.staged.is_empty());
        if quiescent && sent < requests && next_arrival > now_tick + TICK_NS {
            now_tick = next_arrival - (next_arrival - now_tick) % TICK_NS;
        }
        let tick_end = now_tick + TICK_NS;
        while sent < requests && next_arrival < tick_end {
            let (rank, cmd, kind) = gen.command();
            let expect = shadow.apply(rank, &cmd);
            let conn = &mut conns[(rank % CLIENTS as u64) as usize];
            conn.staged_cmds.push(cmd);
            conn.staged.push((next_arrival, expect, kind));
            sent += 1;
            next_arrival += gen.gap_ns();
        }

        batch += 1;
        tracer.set_request(batch);
        for conn in conns.iter_mut() {
            let node = conn.client.node().clone();
            node.clock().advance_to(tick_end);
            if conn.staged_cmds.is_empty() {
                continue;
            }
            w.sends += 1;
            let span = tracer.begin("redis-mini.client.send", &node);
            let result = conn.client.send_pipelined(&conn.staged_cmds);
            tracer.end(span, &node);
            match result {
                Ok(()) => {
                    let now = node.clock().now();
                    w.late.extend(conn.staged.iter().map(|p| now - p.0));
                    conn.inflight.extend(conn.staged.drain(..));
                    conn.staged_cmds.clear();
                }
                Err(SimError::WouldBlock) => w.would_block += 1,
                Err(e) => return Err(err(e)),
            }
        }

        let server_node = server.node().clone();
        let span = tracer.begin("redis-mini.server.poll", &server_node);
        let served = server.poll().map_err(err)?;
        tracer.end(span, &server_node);

        let mut progressed = served > 0;
        for conn in conns.iter_mut() {
            if conn.inflight.is_empty() {
                continue;
            }
            let node = conn.client.node().clone();
            let span = tracer.begin("redis-mini.client.recv", &node);
            loop {
                match conn.client.recv_reply() {
                    Ok(mut reply) => {
                        let (arrival, expect, kind) =
                            conn.inflight.pop_front().ok_or("reply without a request")?;
                        if corrupt_reply == Some(completed) {
                            reply = Reply::Integer(-1);
                        }
                        let latency = node.clock().now() - arrival;
                        w.latencies.push(latency);
                        match kind {
                            Kind::Read => w.read_latencies.push(latency),
                            Kind::Write => w.write_latencies.push(latency),
                        }
                        if !reply_matches(expect, &reply) {
                            w.failed += 1;
                        }
                        completed += 1;
                        progressed = true;
                    }
                    Err(SimError::WouldBlock) => break,
                    Err(e) => return Err(err(e)),
                }
            }
            tracer.end(span, &node);
        }
        // The single-threaded server runs ahead of the arrival schedule
        // by its queueing delay; that lag, in requests at the offered
        // rate, is the backlog. It is sampled while arrivals last: after
        // the last arrival every window drains, overloaded or not.
        if sent < requests {
            let lag_ns = server_node.clock().now().saturating_sub(tick_end);
            w.backlog.push((lag_ns as f64 * rps / 1e9) as u64);
        }
        now_tick = tick_end;
        idle = if progressed { 0 } else { idle + 1 };
        if idle > MAX_IDLE_TICKS {
            return Err(format!(
                "event loop stalled at {completed}/{requests} replies"
            ));
        }
    }
    let end = conns
        .iter()
        .map(|c| c.client.node().clock().now())
        .max()
        .unwrap_or(now_tick);
    w.makespan_ns = end - t0;
    w.host_s = crate::cpu_seconds() - started;
    Ok(w)
}

/// One repetition: the reference window, then the goodput search.
pub fn run(seed: u64, tracer: &mut Tracer) -> Result<Rep, String> {
    let setup_started = crate::cpu_seconds();
    let mut reference = build().map_err(|e| e.to_string())?;
    let mut setup_s = crate::cpu_seconds() - setup_started;

    let before = RackSample::take(&reference.rack);
    let frames_before = reference.server.stats();
    let mut w = window(
        &mut reference,
        seed,
        REFERENCE_RPS,
        REFERENCE_REQUESTS,
        tracer,
        None,
    )?;
    let after = RackSample::take(&reference.rack);
    let frames_after = reference.server.stats();
    drop(reference);

    let mut counters = BTreeMap::new();
    counters::rack_layers(&before, &after, &mut counters);
    let frames = frames_after.frames - frames_before.frames;
    let batches = frames_after.reply_batches - frames_before.reply_batches;
    let server_charged = counters::charged_by_node(&before, &after)[0];
    counters.insert(
        "redis-mini.server.charged_ns_per_frame",
        counters::ratio(server_charged, frames),
    );
    counters.insert(
        "redis-mini.server.frames_per_batch",
        counters::ratio(frames, batches),
    );
    for (name, sample) in [
        ("redis-mini.get.sim_p50_ns", &mut w.read_latencies),
        ("redis-mini.write.sim_p50_ns", &mut w.write_latencies),
        ("loadgen.late_ns_p50", &mut w.late),
    ] {
        sample.sort_unstable();
        counters.insert(name, stats::percentile(sample, 50.0) as f64);
    }
    counters.insert(
        "loadgen.late_ns_max",
        w.late.last().copied().unwrap_or(0) as f64,
    );
    counters.insert(
        "loadgen.backlog_max",
        w.backlog.iter().copied().max().unwrap_or(0) as f64,
    );
    counters.insert(
        "flacos-ipc.backpressure_ratio",
        counters::ratio(w.would_block, w.sends),
    );
    counters.insert(
        "flacos-ipc.msgs_sent",
        counters::subsystem_delta(&before, &after, "ipc", "msgs_sent") as f64,
    );
    counters.insert(
        "flacos-ipc.bytes_sent",
        counters::subsystem_delta(&before, &after, "ipc", "bytes_sent") as f64,
    );
    let timed_charged_ns = counters::charged_by_node(&before, &after);

    w.latencies.sort_unstable();
    let p50_ns = stats::percentile(&w.latencies, 50.0);
    let tail_ns = stats::tail(&w.latencies, TAIL_P)?;
    let mut host_s = w.host_s;
    let mut ops = REFERENCE_REQUESTS;
    let mut failed = w.failed;

    // The goodput search runs untraced: its windows only decide a rate.
    let mut quiet = Tracer::new(false);
    let goodput_rps = stats::max_passing_rate(SEARCH_LO_RPS, SEARCH_HI_RPS, SEARCH_STEPS, |rps| {
        let built_at = crate::cpu_seconds();
        let mut trial = build().map_err(|e| e.to_string())?;
        setup_s += crate::cpu_seconds() - built_at;
        let mut t = window(&mut trial, seed, rps, SEARCH_REQUESTS, &mut quiet, None)?;
        host_s += t.host_s;
        ops += SEARCH_REQUESTS;
        failed += t.failed;
        t.latencies.sort_unstable();
        let tail = stats::tail(&t.latencies, TAIL_P)?;
        let grows = stats::backlog_grows(&t.backlog, BACKLOG_SLACK);
        let meets = t.failed == 0 && tail <= TAIL_LIMIT_NS && !grows;
        eprintln!(
            "serve: trial {rps:.0} rps: p{TAIL_P} {tail} ns, backlog grows {grows}, meets {meets}"
        );
        Ok(meets)
    })?;

    Ok(Rep {
        setup_s,
        timed_host_s: host_s,
        ops,
        attempted: ops,
        failed,
        sim: SimMetrics {
            p50_ns,
            tail_ns,
            goodput_rps,
            makespan_ns: w.makespan_ns,
            recovery_ns: 0,
            recovery_bytes: 0,
        },
        counters,
        timed_charged_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_predicts_every_reply_kind() {
        let mut s = Shadow::default();
        let key = b"user:0000001".to_vec();
        let get = Command::Get { key: key.clone() };
        assert_eq!(s.apply(1, &get), Expect::Null);
        let set = Command::Set {
            key: key.clone(),
            value: b"abc".to_vec(),
        };
        assert_eq!(s.apply(1, &set), Expect::Ok);
        let append = Command::Append {
            key: key.clone(),
            value: b"de".to_vec(),
        };
        assert_eq!(s.apply(1, &append), Expect::Int(5));
        let e = s.apply(1, &get);
        assert!(reply_matches(e, &Reply::Bulk(b"abcde".to_vec())));
        assert!(!reply_matches(e, &Reply::Bulk(b"abcdf".to_vec())));
        let incr = Command::Incr {
            key: b"ctr:0000001".to_vec(),
        };
        assert_eq!(s.apply(1, &incr), Expect::Int(1));
        assert_eq!(s.apply(1, &incr), Expect::Int(2));
        assert!(!reply_matches(Expect::Int(2), &Reply::Integer(1)));
        assert!(!reply_matches(Expect::Ok, &Reply::Error("ERR".into())));
    }

    #[test]
    fn a_corrupt_reply_is_counted() {
        let mut built = build().unwrap();
        let clean = window(
            &mut built,
            3,
            REFERENCE_RPS,
            400,
            &mut Tracer::new(false),
            None,
        )
        .unwrap();
        assert_eq!(clean.failed, 0);
        let mut built = build().unwrap();
        let bad = window(
            &mut built,
            3,
            REFERENCE_RPS,
            400,
            &mut Tracer::new(false),
            Some(17),
        )
        .unwrap();
        assert_eq!(bad.failed, 1);
        assert_eq!(
            bad.latencies, clean.latencies,
            "the check does not perturb the run"
        );
    }

    #[test]
    fn windows_repeat_exactly_and_tracing_does_not_perturb() {
        let mut a = build().unwrap();
        let mut b = build().unwrap();
        let mut tracer = Tracer::new(true);
        let plain = window(&mut a, 9, 400_000.0, 2_000, &mut Tracer::new(false), None).unwrap();
        let traced = window(&mut b, 9, 400_000.0, 2_000, &mut tracer, None).unwrap();
        assert_eq!(plain.latencies, traced.latencies);
        assert_eq!(plain.makespan_ns, traced.makespan_ns);
        assert!(!tracer.spans().is_empty());
    }
}
