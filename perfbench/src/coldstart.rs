//! `coldstart`: a serverless burst through
//! `ContainerRuntime::start_container` on the `flac-store` chunk store.
//!
//! [`IMAGES`] small function images are built with
//! `ContainerImage::synthetic` from overlapping seed ranges — image `i`
//! uses layer seeds `base + 3i ..= base + 3i + 3`, so it shares one
//! layer with each neighbour and half its layers in all — and published
//! to [`SHARDS`] backend shards. Every image has two layers of its own,
//! so its first start rack-wide is always cold; a neighbour started
//! before it makes that start partly shared. Every node of `RackConfig::pod(4, 2)` starts a seeded
//! sequence of images, one start outstanding per node; the node whose
//! clock is earliest issues the next start. The burst mixes cold,
//! partly shared, shared and hot starts.
//!
//! Checks: every start's downloaded + cached chunks equal the image's
//! chunk count, and after the burst every chunk the burst read is
//! re-hashed with `ChunkStore::verify_chunk`.

use crate::counters::{self, RackSample};
use crate::stats;
use crate::trace::{Tracer, UNTIMED_REQUEST};
use crate::{Rep, SimMetrics};
use flac_store::{BackendConfig, ChunkStore, ShardedBackends, StoreConfig, StoreStats};
use flacdk::alloc::GlobalAllocator;
use flacdk::sync::rcu::EpochManager;
use flacdk::sync::reclaim::RetireList;
use flacos_fs::block::BlockDevice;
use flacos_fs::memfs::{FsShared, MemFs};
use flacos_mem::dedup::PageDeduper;
use flacos_mem::fault::FrameAllocator;
use rack_sim::{Rack, RackConfig, SplitMix64};
use serverless::image::ContainerImage;
use serverless::registry::{ImageRegistry, RegistryConfig};
use serverless::runtime::{ContainerRuntime, StartupPath};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Function images in the catalogue.
const IMAGES: usize = 64;
/// Layers per image; one is shared with each neighbour.
const LAYERS: usize = 4;
/// Pages (chunks) per image.
const PAGES_PER_IMAGE: u64 = 64;
/// Distinct images each node starts, and how many it starts twice.
const DISTINCT_PER_NODE: usize = 24;
const REPEATS_PER_NODE: usize = 8;
/// Backend shards serving cold fetches.
const SHARDS: usize = 4;
/// Backend bandwidth scale (the paper's registry rate divided by it):
/// a cold fetch of a 256 KiB image costs ~1 s, so the cold, shared and
/// hot paths stay apart without a handful of cold starts deciding the
/// burst's makespan.
const SCALE: u64 = 1024;
/// Tail percentile reported (256 starts keep 25 beyond p90).
pub const TAIL_P: f64 = 90.0;

/// A rack with a runtime per node, the published images, and each
/// node's start sequence.
struct World {
    rack: Rack,
    store: Arc<ChunkStore>,
    runtimes: Vec<ContainerRuntime>,
    images: Vec<ContainerImage>,
    plans: Vec<Vec<usize>>,
}

fn setup(seed: u64) -> Result<World, String> {
    let err = |e: rack_sim::SimError| e.to_string();
    let rack = Rack::new(RackConfig::pod(4, 2));
    let nodes = rack.node_count();
    let alloc = GlobalAllocator::new(rack.global().clone());
    let epochs = EpochManager::alloc(rack.global(), nodes).map_err(err)?;
    let device = BlockDevice::nvme(rack.global(), nodes).map_err(err)?;
    let fs = FsShared::alloc(
        rack.global(),
        nodes,
        alloc,
        epochs,
        RetireList::new(),
        Arc::new(device),
    )
    .map_err(err)?;
    let registry = Arc::new(ImageRegistry::new(RegistryConfig::paper_calibrated()));
    let backends = Arc::new(ShardedBackends::uniform(
        SHARDS,
        BackendConfig::paper_calibrated(SHARDS, SCALE),
    ));
    let base = SplitMix64::new(seed ^ 0xC01D).next_u64() >> 20;
    let images: Vec<ContainerImage> = (0..IMAGES)
        .map(|i| {
            let base_seed = base + 3 * i as u64;
            ContainerImage::synthetic(&format!("fn-{i}"), PAGES_PER_IMAGE, LAYERS, base_seed)
        })
        .collect();
    for image in &images {
        image.publish(&backends);
        registry.push(image.clone());
    }
    let dedup = Arc::new(PageDeduper::new(FrameAllocator::new(rack.global().clone())));
    let store =
        ChunkStore::alloc(rack.global(), backends, dedup, StoreConfig::new(nodes)).map_err(err)?;
    let runtimes = (0..nodes)
        .map(|n| {
            ContainerRuntime::new(
                rack.node(n),
                MemFs::mount(fs.clone(), rack.node(n)),
                registry.clone(),
                store.clone(),
            )
        })
        .collect();
    // Node n starts DISTINCT_PER_NODE images of a seeded permutation
    // (windows overlap, so every image is started by three nodes) plus
    // REPEATS_PER_NODE of them again, in seeded order: every seed has the
    // same numbers of first-on-node and hot starts; which first starts
    // are cold depends on the order.
    let mut rng = SplitMix64::new(seed ^ 0x5EC_0E9CE);
    let mut perm: Vec<usize> = (0..IMAGES).collect();
    shuffle(&mut perm, &mut rng);
    let stride = IMAGES / nodes;
    let plans = (0..nodes)
        .map(|n| {
            let mine: Vec<usize> = (0..DISTINCT_PER_NODE)
                .map(|k| perm[(n * stride + k) % IMAGES])
                .collect();
            let mut plan: Vec<usize> = mine
                .iter()
                .chain(&mine[..REPEATS_PER_NODE])
                .copied()
                .collect();
            shuffle(&mut plan, &mut rng);
            plan
        })
        .collect();
    Ok(World {
        rack,
        store,
        runtimes,
        images,
        plans,
    })
}

/// Seeded Fisher-Yates shuffle.
fn shuffle(v: &mut [usize], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// Re-hash every chunk in `hashes` from the shared store on node 0;
/// returns how many are missing or corrupt.
fn verify_chunks(world: &World, hashes: &BTreeSet<u64>) -> Result<u64, String> {
    let node = world.rack.node(0);
    let mut bad = 0;
    for &h in hashes {
        if world
            .store
            .verify_chunk(&node, h)
            .map_err(|e| e.to_string())?
            != Some(true)
        {
            bad += 1;
        }
    }
    Ok(bad)
}

fn store_delta(before: &StoreStats, after: &StoreStats, out: &mut BTreeMap<&'static str, f64>) {
    for (name, b, a) in [
        (
            "flac-store.chunks_fetched",
            before.chunks_fetched,
            after.chunks_fetched,
        ),
        (
            "flac-store.bytes_fetched",
            before.bytes_fetched,
            after.bytes_fetched,
        ),
        ("flac-store.rack_hits", before.rack_hits, after.rack_hits),
        ("flac-store.coalesced", before.coalesced, after.coalesced),
        (
            "flac-store.claims_lost",
            before.claims_lost,
            after.claims_lost,
        ),
    ] {
        out.insert(name, (a - b) as f64);
    }
}

/// Results of one burst.
struct Burst {
    latencies: Vec<u64>,
    makespan_ns: u64,
    failed: u64,
    attempted: u64,
    read: BTreeSet<u64>,
    phases: [u64; 3],
    requested: u64,
}

fn burst(world: &mut World, tracer: &mut Tracer) -> Result<Burst, String> {
    let nodes = world.rack.nodes().to_vec();
    let t0 = nodes.iter().map(|n| n.clock().now()).max().unwrap_or(0);
    for n in &nodes {
        n.clock().advance_to(t0);
    }
    let mut next = vec![0usize; nodes.len()];
    let mut b = Burst {
        latencies: Vec::new(),
        makespan_ns: 0,
        failed: 0,
        attempted: 0,
        read: BTreeSet::new(),
        phases: [0; 3],
        requested: 0,
    };
    // Earliest clock issues next; ties go to the lowest node id.
    while let Some(n) = (0..nodes.len())
        .filter(|&n| next[n] < world.plans[n].len())
        .min_by_key(|&n| (nodes[n].clock().now(), n))
    {
        let image = &world.images[world.plans[n][next[n]]];
        next[n] += 1;
        tracer.set_request(b.attempted);
        let span = tracer.begin("serverless.start", &nodes[n]);
        let (_container, report) = world.runtimes[n]
            .start_container(&image.name)
            .map_err(|e| e.to_string())?;
        let name = match report.path {
            StartupPath::Cold => "serverless.start.cold",
            StartupPath::SharedPageCache => "serverless.start.shared",
            StartupPath::Hot => "serverless.start.hot",
        };
        tracer.end_as(span, &nodes[n], Some(name));
        b.attempted += 1;
        b.latencies.push(report.total_ns);
        b.phases[0] += report.manifest_ns;
        b.phases[1] += report.fetch_ns;
        b.phases[2] += report.init_ns;
        if report.path != StartupPath::Hot {
            let chunks = report.pages_downloaded + report.pages_from_cache;
            b.requested += chunks;
            if chunks != image.total_pages() {
                b.failed += 1;
            }
            b.read.extend(image.chunk_hashes());
        }
    }
    b.makespan_ns = nodes.iter().map(|n| n.clock().now()).max().unwrap_or(t0) - t0;
    Ok(b)
}

/// One repetition: set up, run the burst, verify the chunks.
pub fn run(seed: u64, tracer: &mut Tracer) -> Result<Rep, String> {
    let setup_started = crate::cpu_seconds();
    tracer.set_request(UNTIMED_REQUEST);
    let mut world = setup(seed)?;
    let setup_s = crate::cpu_seconds() - setup_started;

    let before = RackSample::take(&world.rack);
    let store_before = world.store.stats();
    let timed = crate::cpu_seconds();
    let mut b = burst(&mut world, tracer)?;
    let timed_host_s = crate::cpu_seconds() - timed;
    let after = RackSample::take(&world.rack);
    let store_after = world.store.stats();

    let verify_node = world.rack.node(0);
    tracer.set_request(UNTIMED_REQUEST);
    let span = tracer.begin("flac-store.verify", &verify_node);
    let corrupt = verify_chunks(&world, &b.read)?;
    tracer.end(span, &verify_node);

    let mut counters = BTreeMap::new();
    counters::rack_layers(&before, &after, &mut counters);
    store_delta(&store_before, &store_after, &mut counters);
    let reused = (store_after.rack_hits - store_before.rack_hits)
        + (store_after.coalesced - store_before.coalesced);
    counters.insert(
        "flac-store.reuse_ratio",
        counters::ratio(reused, b.requested),
    );
    for (name, ns) in [
        "serverless.manifest.sim_ns",
        "serverless.fetch.sim_ns",
        "serverless.init.sim_ns",
    ]
    .into_iter()
    .zip(b.phases)
    {
        counters.insert(name, ns as f64);
    }

    let starts = b.latencies.len() as u64;
    b.latencies.sort_unstable();
    Ok(Rep {
        setup_s,
        timed_host_s,
        ops: starts,
        attempted: b.attempted + b.read.len() as u64,
        failed: b.failed + corrupt,
        sim: SimMetrics {
            p50_ns: stats::percentile(&b.latencies, 50.0),
            tail_ns: stats::tail(&b.latencies, TAIL_P)?,
            goodput_rps: starts as f64 / (b.makespan_ns as f64 / 1e9),
            makespan_ns: b.makespan_ns,
            recovery_ns: 0,
            recovery_bytes: 0,
        },
        counters,
        timed_charged_ns: counters::charged_by_node(&before, &after),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_mixes_paths_and_every_chunk_verifies() {
        let mut world = setup(1).unwrap();
        let mut tracer = Tracer::new(true);
        let b = burst(&mut world, &mut tracer).unwrap();
        assert_eq!(b.failed, 0);
        assert_eq!(
            b.latencies.len(),
            8 * (DISTINCT_PER_NODE + REPEATS_PER_NODE)
        );
        assert_eq!(verify_chunks(&world, &b.read).unwrap(), 0);
        let names: BTreeSet<&str> = tracer.spans().iter().map(|s| s.name).collect();
        for path in ["cold", "shared", "hot"] {
            assert!(
                names.contains(format!("serverless.start.{path}").as_str()),
                "no {path} start in {names:?}"
            );
        }
    }

    #[test]
    fn a_corrupt_chunk_is_counted() {
        let mut world = setup(2).unwrap();
        let b = burst(&mut world, &mut Tracer::new(false)).unwrap();
        let node = world.rack.node(3);
        let victim = *b.read.iter().next().unwrap();
        let (frame, _) = world.store.lookup(&node, &[victim]).unwrap()[0].unwrap();
        node.write(frame, &[0xFF; 8]).unwrap();
        node.writeback(frame, 8);
        assert_eq!(verify_chunks(&world, &b.read).unwrap(), 1);
    }
}
