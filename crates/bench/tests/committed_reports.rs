//! The committed `BENCH_<name>.json` reports pass `flac-bench <name>
//! --check` as committed, and every gate and check failure message of
//! the five scenarios is produced by some mutation of them — so a
//! dropped or loosened invariant fails here, not only in a CI script.

use bench::driver::{scenario, SCENARIOS};

/// Every committed report, by scenario name.
const REPORTS: [(&str, &str); 5] = [
    ("cache", include_str!("../../../BENCH_cache.json")),
    ("serve", include_str!("../../../BENCH_serve.json")),
    ("store", include_str!("../../../BENCH_store.json")),
    ("sync", include_str!("../../../BENCH_sync.json")),
    ("topo", include_str!("../../../BENCH_topo.json")),
];

fn report(name: &str) -> &'static str {
    REPORTS.iter().find(|(n, _)| *n == name).unwrap().1
}

/// `check` failures of `json` under scenario `name`; a parse error
/// counts as one failure.
fn check_failures(name: &str, json: &str) -> Vec<String> {
    scenario(name)
        .unwrap()
        .check(json)
        .unwrap_or_else(|e| vec![e])
}

/// The line indices containing `marker`.
fn lines_with<'a>(json: &'a str, marker: &'a str) -> impl Iterator<Item = usize> + 'a {
    json.lines()
        .enumerate()
        .filter(move |(_, l)| l.contains(marker))
        .map(|(i, _)| i)
}

/// Set `key` to `value` on the one line containing `marker`.
fn set(json: &str, marker: &str, key: &str, value: &str) -> String {
    let hits: Vec<usize> = lines_with(json, marker).collect();
    assert_eq!(hits.len(), 1, "{marker:?} must name exactly one line");
    let mut lines: Vec<String> = json.lines().map(String::from).collect();
    let line = &mut lines[hits[0]];
    let pat = format!("\"{key}\": ");
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + pat.len();
    let end = start + line[start..].find([',', '}']).unwrap_or(line.len() - start);
    line.replace_range(start..end, value);
    lines.join("\n") + "\n"
}

/// Drop every line containing `marker` (at least one must).
fn drop_lines(json: &str, marker: &str) -> String {
    assert!(
        lines_with(json, marker).next().is_some(),
        "no line has {marker:?}"
    );
    json.lines()
        .filter(|l| !l.contains(marker))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Rename every occurrence of the quoted key `field`.
fn rename(json: &str, field: &str) -> String {
    json.replace(&format!("\"{field}\""), &format!("\"x{field}\""))
}

#[test]
fn committed_reports_pass_gate_and_check() {
    assert!(REPORTS
        .iter()
        .map(|r| r.0)
        .eq(SCENARIOS.iter().map(|s| s.0)));
    for (name, json) in REPORTS {
        let s = scenario(name).unwrap();
        assert_eq!(s.check(json), Ok(vec![]), "{name}");
        assert_eq!(s.gate(json), Ok(vec![]), "{name}");
        // A quick run passes the smoke gate but is no committed report.
        let quick = set(json, "\"quick\"", "quick", "true");
        assert_eq!(s.gate(&quick), Ok(vec![]), "{name}");
        let failures = check_failures(name, &quick);
        assert_eq!(
            failures,
            ["committed report must come from a full run, not --quick"],
            "{name}"
        );
        let failures = check_failures(name, &drop_lines(json, "\"quick\""));
        assert_eq!(failures, ["missing \"quick\" field"], "{name}");
    }
}

#[test]
fn every_required_field_is_still_required() {
    for (name, fields) in [
        (
            "cache",
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
            ][..],
        ),
        (
            "store",
            &[
                "bench",
                "targets",
                "shard_sweep",
                "cold_fetch_ns",
                "cold_fetch_ns_rerun",
                "overlap",
                "unique_missing_bytes",
            ][..],
        ),
    ] {
        for field in fields {
            let json = rename(report(name), field);
            let s = scenario(name).unwrap();
            let expect = format!("report is missing the \"{field}\" field");
            assert_eq!(s.gate(&json), Err(expect.clone()), "{name}");
            assert_eq!(s.check(&json), Err(expect), "{name}");
        }
    }
}

/// A mutation of a committed report and a failure message it must
/// produce.
type Case = (&'static str, fn(&str) -> String, &'static str);

const CASES: &[Case] = &[
    // cache: smoke gate (recomputed from the raw points) …
    (
        "cache",
        |j| {
            set(
                j,
                "\"sharded\", \"threads\": 2, \"hit_permille\": 950",
                "sim_ns",
                "1",
            )
        },
        "hit_permille=950: sharded and baseline charged different simulated ns",
    ),
    (
        "cache",
        |j| {
            set(
                j,
                "\"sharded\", \"threads\": 1, \"hit_permille\": 950",
                "ops_per_sec",
                "1.0",
            )
        },
        "hit_permille=950: single-thread throughput ratio 0.000 < 0.80",
    ),
    (
        "cache",
        |j| set(j, "\"host_cpus\"", "host_cpus", "8"),
        "hit_permille=950: speedup 1.77 at 8 threads < 4.0 on a 8-CPU host",
    ),
    (
        "cache",
        |j| {
            set(
                j,
                "\"sharded\", \"threads\": 2, \"hit_permille\": 500",
                "ops_per_sec",
                "1.0",
            )
        },
        "hit_permille=500: sharded/baseline ratio 0.000 < 0.90 at some thread count",
    ),
    // … and the committed-only targets.
    (
        "cache",
        |j| {
            set(
                j,
                "\"sharded\", \"threads\": 2, \"hit_permille\": 950",
                "sim_ns",
                "1",
            )
        },
        "sim_ns parity broken at threads=2, hit_permille=950",
    ),
    (
        "cache",
        |j| drop_lines(j, "\"baseline\", \"threads\": 4, \"hit_permille\": 950"),
        "no baseline point pairs (threads=4, hit_permille=950)",
    ),
    (
        "cache",
        |j| {
            set(
                j,
                "\"sharded\", \"threads\": 4, \"hit_permille\": 500",
                "ops_per_sec",
                "12000000.0",
            )
        },
        "miss-heavy sweep: sharded loses to baseline at 4 thread(s)",
    ),
    (
        "cache",
        |j| drop_lines(j, "\"sharded\", \"threads\": 1, \"hit_permille\": 950"),
        "hit_permille=950: sweep lacks a (sharded, baseline) pair to summarize",
    ),
    (
        "cache",
        |j| drop_lines(j, "\"hit_permille\": 500"),
        "report lacks the miss-heavy (hit_permille=500) sweep",
    ),
    // serve
    (
        "serve",
        |j| drop_lines(j, "\"clients\": 1000000,"),
        "report must cover >= 3 client scales, found [100000, 300000]",
    ),
    (
        "serve",
        |j| set(j, "\"flacos-ipc\", \"clients\": 100000,", "errors", "1"),
        "flacos-ipc @100000 clients: 1 RESP error replies (must be 0)",
    ),
    (
        "serve",
        |j| set(j, "\"tcp/ip\", \"clients\": 100000,", "parity", "false"),
        "tcp/ip @100000 clients: seeded rerun did not reproduce the latency stream",
    ),
    (
        "serve",
        |j| set(j, "\"tcp/ip\", \"clients\": 300000,", "requests", "0"),
        "tcp/ip @300000 clients: empty or degenerate measurement",
    ),
    (
        "serve",
        |j| set(j, "\"flacos-ipc\", \"clients\": 300000,", "p99_ns", "1"),
        "flacos-ipc @300000 clients: percentiles out of order",
    ),
    (
        "serve",
        |j| drop_lines(j, "\"tcp/ip\", \"clients\": 300000,"),
        "scale 300000: missing a (flacos-ipc, tcp/ip) transport pair",
    ),
    (
        "serve",
        |j| set(j, "\"tcp/ip\", \"clients\": 100000,", "p50_ns", "9538"),
        "scale 100000: FlacOS IPC p50 (9538 ns) must beat TCP/IP (9538 ns)",
    ),
    (
        "serve",
        |j| {
            set(
                j,
                "\"flacos-ipc\", \"clients\": 1000000,",
                "saturation_rps",
                "1.0",
            )
        },
        "scale 1000000: FlacOS saturation (1 rps) below TCP/IP",
    ),
    (
        "serve",
        |j| drop_lines(j, "\"transport\""),
        "no results[] entries found",
    ),
    // store
    (
        "store",
        |j| rename(j, "first_bytes_fetched"),
        "missing \"overlap\" object",
    ),
    (
        "store",
        |j| drop_lines(j, "\"shards\": 4,"),
        "shard sweep lacks the 4-shard point",
    ),
    (
        "store",
        |j| {
            let j = set(j, "\"shards\": 8,", "cold_fetch_ns", "30000000");
            set(&j, "\"shards\": 8,", "cold_fetch_ns_rerun", "30000000")
        },
        "cold fetch not monotonic: 4 shards took 21321616 ns, 8 shards took 30000000 ns",
    ),
    (
        "store",
        |j| set(j, "\"shards\": 1,", "cold_fetch_ns_rerun", "1"),
        "1 shards: reruns disagree",
    ),
    (
        "store",
        |j| set(j, "\"shards\": 4,", "fetched", "1"),
        "4 shards: cold start fetched 1 of 2048 chunks",
    ),
    (
        "store",
        |j| set(j, "\"shards\": 4,", "warm_rack_hits", "1"),
        "4 shards: warm start hit 1 of 2048 chunks in the rack index",
    ),
    (
        "store",
        |j| set(j, "\"shards\": 8,", "warm_fetch_ns", "99999999999"),
        "8 shards: warm start (99999999999 ns) not faster than cold",
    ),
    (
        "store",
        |j| {
            set(
                j,
                "\"second_bytes_fetched\"",
                "second_bytes_fetched",
                "4194305",
            )
        },
        "duplicate chunks were re-downloaded",
    ),
    (
        "store",
        |j| set(j, "\"shared_chunks\"", "shared_chunks", "0"),
        "overlap: images share no chunks — the phase tests nothing",
    ),
    (
        "store",
        |j| set(j, "\"second_bytes_fetched\"", "second_bytes_fetched", "0"),
        "overlap: second fetch (0 bytes) should be a nonzero strict subset",
    ),
    (
        "store",
        |j| {
            let j = set(j, "\"shards\": 1,", "cold_fetch_ns", "30000000");
            set(&j, "\"shards\": 1,", "cold_fetch_ns_rerun", "30000000")
        },
        "parallel fetch speedup 1.90 at 8 shards < 2.0 over 1-shard serial",
    ),
    // sync
    (
        "sync",
        |j| drop_lines(j, "\"delegated\", \"writers\": 1, \"read_pct\": 0,"),
        "missing point (delegated, writers=1, reads=0%)",
    ),
    (
        "sync",
        |j| {
            set(
                j,
                "\"node_replicated\", \"writers\": 4, \"read_pct\": 90,",
                "total_ns_rerun",
                "1",
            )
        },
        "rerun divergence at (node_replicated, writers=4, reads=90%)",
    ),
    (
        "sync",
        |j| drop_lines(j, "\"delegated\", \"writers\": 2, \"read_pct\": 50,"),
        "missing (writers=2, reads=50%) pair",
    ),
    (
        "sync",
        |j| {
            set(
                j,
                "\"node_replicated\", \"writers\": 8, \"read_pct\": 50,",
                "avg_ns_per_op",
                "99999",
            )
        },
        "node_replicated loses at writers=8, reads=50%",
    ),
    (
        "sync",
        |j| {
            let j = set(
                j,
                "\"node_replicated\", \"writers\": 2, \"read_pct\": 0,",
                "avg_ns_per_op",
                "99999",
            );
            set(
                &j,
                "\"node_replicated\", \"writers\": 4, \"read_pct\": 0,",
                "avg_ns_per_op",
                "99999",
            )
        },
        "node_replicated must strictly win ≥ 2 of the pure-write {2,4,8}-writer points; won 1",
    ),
    (
        "sync",
        |j| {
            set(
                j,
                "\"replica_hit_fabric_ops\"",
                "replica_hit_fabric_ops",
                "3",
            )
        },
        "replica-hit reads performed 3 fabric ops; must be 0",
    ),
    (
        "sync",
        |j| drop_lines(j, "\"policy\""),
        "no results[] entries found",
    ),
    // topo
    (
        "topo",
        |j| drop_lines(j, "\"topo\": \"pod\", \"mode\": \"huge\""),
        "missing sweep cell pod/huge",
    ),
    (
        "topo",
        |j| drop_lines(j, "\"topo\": \"pod\", \"mode\": \"huge\""),
        "pod: missing base/huge cell",
    ),
    (
        "topo",
        |j| set(j, "\"huge_rounds\"", "huge_rounds", "2"),
        "region probe: expected (512, 1) shootdown rounds (page-wise, region-wise), got (512, 2)",
    ),
    (
        "topo",
        |j| {
            set(
                j,
                "\"topo\": \"flat\", \"mode\": \"base\"",
                "total_ns_rerun",
                "1",
            )
        },
        "flat/base: fixed-seed rerun diverged",
    ),
    (
        "topo",
        |j| {
            set(
                j,
                "\"topo\": \"flat\", \"mode\": \"huge\"",
                "region_promotions",
                "0",
            )
        },
        "flat: huge arm coalesced no region",
    ),
    (
        "topo",
        |j| {
            set(
                j,
                "\"topo\": \"pod\", \"mode\": \"base\"",
                "region_promotions",
                "1",
            )
        },
        "pod: base arm must not coalesce regions",
    ),
    (
        "topo",
        |j| {
            set(
                j,
                "\"topo\": \"flat\", \"mode\": \"huge\"",
                "p50_ns",
                "99999",
            )
        },
        "flat: huge p50 99999 ns is not below base p50 3932 ns at the same budget",
    ),
    (
        "topo",
        |j| {
            set(
                j,
                "\"topo\": \"pod\", \"mode\": \"huge\"",
                "shootdown_rounds",
                "9999",
            )
        },
        "pod: huge arm issued 9999 shootdown rounds, base 256 — region coalescing must cut rounds",
    ),
    ("topo", |j| drop_lines(j, "\"topo\":"), "no result rows"),
];

#[test]
fn every_failure_message_is_produced_by_a_mutated_report() {
    for (name, mutate, expect) in CASES {
        let failures = check_failures(name, &mutate(report(name)));
        assert!(
            failures.iter().any(|f| f.contains(expect)),
            "{name}: expected {expect:?} in {failures:?}"
        );
    }
}
