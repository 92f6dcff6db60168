//! Production-scale substrate benchmark: drives the interned/sharded
//! storage layers at cluster scale — 1M HDFS files, 100k Kafka
//! partitions, 10k YARN applications through the discrete-event
//! simulator — checks the structural invariants the refactor introduced
//! (interning ratios, vacuum idempotence, slab slot recycling), and prints
//! a JSON summary.
//!
//! The shape exists because the seed's substrates could not survive it:
//! `BTreeMap<Vec<String>, INode>` namespaces cloned every path component
//! on every operation, the group coordinator scanned membership vectors,
//! and the RM scanned every container ever allocated on every heartbeat.
//! The interned-name inode arena, flat sharded partition map, and
//! generation-checked container slab make the same shape routine.
//!
//! Usage: `cluster_scale`, or `cluster_scale --smoke` for the CI gate
//! (reduced shape, asserts the committed event-rate floor).

use csi_core::sim::{Ops, Sim};
use minihdfs::{HdfsPath, MiniHdfs};
use minikafka::{MiniKafka, PartitionId};
use miniyarn::{AmFinalStatus, ApplicationId, Resource, ResourceManager};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Committed floors for the simulator tick storm, in events per second.
/// The kernel sustains well above these on an idle machine (~3x); the
/// floors only catch an event loop regressing toward per-event
/// allocation storms or queue misuse, while leaving headroom for loaded
/// CI machines.
const FULL_SIM_FLOOR: f64 = 33_000_000.0;
const SMOKE_SIM_FLOOR: f64 = 10_000_000.0;

/// The benchmark shape: how much of each substrate the run builds.
struct Shape {
    /// HDFS: `dirs x files_per_dir` files under `/warehouse`.
    dirs: usize,
    /// Files created in each directory.
    files_per_dir: usize,
    /// Kafka: `topics x partitions_per_topic` partitions.
    topics: usize,
    /// Partitions per topic.
    partitions_per_topic: u32,
    /// Records produced into the compaction partition.
    compaction_records: usize,
    /// YARN: `waves x apps_per_wave` applications through the sim.
    waves: usize,
    /// Applications registered per simulated wave.
    apps_per_wave: usize,
    /// Chained simulator events in the tick storm.
    sim_events: u64,
}

const FULL: Shape = Shape {
    dirs: 1000,
    files_per_dir: 1000, // 1M files.
    topics: 100,
    partitions_per_topic: 1000, // 100k partitions.
    compaction_records: 100_000,
    waves: 100,
    apps_per_wave: 100, // 10k apps.
    sim_events: 4_000_000,
};

const SMOKE: Shape = Shape {
    dirs: 100,
    files_per_dir: 100, // 10k files.
    topics: 10,
    partitions_per_topic: 100, // 1k partitions.
    compaction_records: 10_000,
    waves: 10,
    apps_per_wave: 10, // 100 apps.
    sim_events: 1_000_000,
};

/// The JSON document this binary prints.
#[derive(Serialize)]
struct Summary {
    /// Files created in the namenode.
    hdfs_files: usize,
    /// Distinct interned names after those creates (interning ratio
    /// witness: ~2k names for 1M files).
    hdfs_interned_names: usize,
    /// Live inodes (files + directories, excluding the root).
    hdfs_inodes: u64,
    /// Kafka partitions created across all topics.
    kafka_partitions: usize,
    /// Records removed by the compaction pass.
    kafka_compacted: usize,
    /// YARN applications driven to completion through the simulator.
    yarn_apps: usize,
    /// Containers allocated across all waves.
    yarn_containers: u64,
    /// Simulator tick-storm throughput.
    sim_events_per_sec: f64,
    /// Wall times per phase, microseconds.
    micros: BTreeMap<String, u64>,
    /// Whether `vacuum()` preserved the namespace (inode count and
    /// listing of a probe directory) while compacting the interner.
    vacuum_identical: bool,
    /// Whether the container slab recycled slots instead of growing
    /// (every post-eviction container id fits inside one wave's slots).
    slab_recycled: bool,
}

fn micros_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).expect("fits u64")
}

/// Phase 1: the namenode. Creates `dirs x files_per_dir` files whose
/// names repeat across directories, then vacuums and checks the rebuild
/// changed nothing observable.
fn run_hdfs(shape: &Shape, micros: &mut BTreeMap<String, u64>) -> (usize, usize, u64, bool) {
    let mut fs = MiniHdfs::with_datanodes(3);
    let payload = b"orcdata!";
    let started = Instant::now();
    for d in 0..shape.dirs {
        let dir = HdfsPath::parse(&format!("/warehouse/db{d}")).expect("valid path");
        for f in 0..shape.files_per_dir {
            fs.create(&dir.join(&format!("part-{f:05}.orc")), payload)
                .expect("create");
        }
    }
    micros.insert("hdfs_create".into(), micros_since(started));

    let probe = HdfsPath::parse("/warehouse/db0").expect("valid path");
    let started = Instant::now();
    let listing = fs.list_status(&probe).expect("list");
    micros.insert("hdfs_list_dir".into(), micros_since(started));
    assert_eq!(listing.len(), shape.files_per_dir, "probe listing size");

    let files = shape.dirs * shape.files_per_dir;
    let interned = fs.interned_names();
    let inodes = fs.inode_count();
    // warehouse + dbN dirs + the per-dir file names shared across dirs.
    assert_eq!(inodes, (1 + shape.dirs + files) as u64, "inode count");
    // Directory and file names plus a handful of constants (owner
    // strings and the like) — crucially NOT proportional to `files`.
    assert!(
        interned <= shape.dirs + shape.files_per_dir + 16,
        "interning failed to dedup repeated names: {interned}"
    );

    let started = Instant::now();
    fs.vacuum();
    micros.insert("hdfs_vacuum".into(), micros_since(started));
    let vacuum_identical = fs.inode_count() == inodes
        && fs.interned_names() <= interned
        && fs.list_status(&probe).expect("list after vacuum") == listing;

    (files, fs.interned_names(), inodes, vacuum_identical)
}

/// Phase 2: the broker. Creates the full partition grid, produces into a
/// spread of partitions, and runs the borrowed-key compaction pass over a
/// hot partition with heavy key reuse.
fn run_kafka(shape: &Shape, micros: &mut BTreeMap<String, u64>) -> (usize, usize) {
    let mut k = MiniKafka::new();
    let started = Instant::now();
    for t in 0..shape.topics {
        k.create_topic(&format!("events-{t:03}"), shape.partitions_per_topic);
    }
    micros.insert("kafka_create_topics".into(), micros_since(started));

    // One record into every 100th partition of every topic: touches the
    // sharded map across all shards without drowning the run in I/O.
    let started = Instant::now();
    for t in 0..shape.topics {
        let topic = format!("events-{t:03}");
        for p in (0..shape.partitions_per_topic).step_by(100) {
            k.produce(&topic, PartitionId(p), Some(b"k"), Some(b"v"), 1)
                .expect("produce");
        }
    }
    micros.insert("kafka_produce_spread".into(), micros_since(started));

    // Compaction workload: heavy key reuse, most records superseded.
    let keys = 256;
    for i in 0..shape.compaction_records {
        let key = format!("key-{:03}", i % keys);
        k.produce(
            "events-000",
            PartitionId(0),
            Some(key.as_bytes()),
            Some(b"v"),
            1,
        )
        .expect("produce");
    }
    let started = Instant::now();
    let removed = k.compact("events-000", PartitionId(0)).expect("compact");
    micros.insert("kafka_compact".into(), micros_since(started));
    // All but the last occurrence of each key go; the spread record
    // survives as the latest of its own key.
    assert_eq!(
        removed,
        shape.compaction_records - keys,
        "compaction survivors"
    );

    (shape.topics * shape.partitions_per_topic as usize, removed)
}

/// State the YARN wave driver threads through the simulator.
struct YarnDrive {
    rm: ResourceManager,
    shape_waves: usize,
    apps_per_wave: usize,
    wave: usize,
    containers: u64,
    /// Max low-32-bits of any container id allocated in the final wave —
    /// proof the slab recycled slots rather than growing.
    last_wave_max_slot: u64,
}

/// One simulated wave: register a batch of applications, ask for one
/// container each, heartbeat them through allocation, release, unregister,
/// and evict the completed records so the next wave reuses the slots.
fn yarn_wave(s: &mut YarnDrive, ops: &mut Ops<YarnDrive>) {
    let apps: Vec<ApplicationId> = (0..s.apps_per_wave)
        .map(|_| s.rm.register_application("wave-app"))
        .collect();
    for &app in &apps {
        s.rm.add_container_request(app, Resource::new(1024, 1))
            .expect("ask");
    }
    s.rm.advance_clock(s.apps_per_wave as u64 * 10);
    let mut wave_max_slot = 0u64;
    for &app in &apps {
        let r = s.rm.allocate(app).expect("heartbeat");
        assert_eq!(r.allocated.len(), 1, "wave ask allocated");
        for c in &r.allocated {
            s.containers += 1;
            wave_max_slot = wave_max_slot.max(c.id.0 & 0xFFFF_FFFF);
        }
        s.rm.unregister_application(app, AmFinalStatus::Succeeded)
            .expect("unregister");
    }
    s.rm.evict_completed();
    s.wave += 1;
    if s.wave < s.shape_waves {
        ops.schedule_in(1, yarn_wave);
    } else {
        s.last_wave_max_slot = wave_max_slot;
    }
}

/// Phase 3: the ResourceManager, driven wave by wave through the
/// discrete-event simulator.
fn run_yarn(shape: &Shape, micros: &mut BTreeMap<String, u64>) -> (usize, u64, bool) {
    let mut rm = ResourceManager::with_nodes(64, Resource::new(1 << 20, 1 << 10));
    rm.set_alloc_service_ms(10);
    let started = Instant::now();
    let mut sim = Sim::new(YarnDrive {
        rm,
        shape_waves: shape.waves,
        apps_per_wave: shape.apps_per_wave,
        wave: 0,
        containers: 0,
        last_wave_max_slot: 0,
    });
    sim.schedule_in(1, yarn_wave);
    sim.run();
    micros.insert("yarn_waves".into(), micros_since(started));

    let s = sim.state;
    let apps = shape.waves * shape.apps_per_wave;
    assert_eq!(s.containers, apps as u64, "every app got its container");
    assert_eq!(s.rm.total_allocated(), apps as u64);
    let metrics = s.rm.get_cluster_metrics().expect("classic mode");
    assert_eq!(metrics.containers_active, 0, "all containers returned");
    // Slot recycling: the final wave's ids index only one wave's worth of
    // slab slots, no matter how many waves ran before it.
    let slab_recycled = s.last_wave_max_slot <= s.apps_per_wave as u64;
    (apps, s.containers, slab_recycled)
}

/// Phase 4: the pure simulator tick storm — `n` chained events through
/// the queue, no substrate work, measuring event dispatch alone.
fn run_sim_storm(n: u64, micros: &mut BTreeMap<String, u64>) -> f64 {
    let mut best = f64::MIN;
    for _ in 0..3 {
        let started = Instant::now();
        let mut sim = Sim::new((0u64, n));
        fn tick(state: &mut (u64, u64), ops: &mut Ops<(u64, u64)>) {
            state.0 += 1;
            if state.0 < state.1 {
                ops.schedule_in(1, tick);
            }
        }
        sim.schedule_in(1, tick);
        sim.run();
        assert_eq!(sim.events_fired(), n, "storm fired every event");
        let secs = started.elapsed().as_secs_f64();
        best = best.max(n as f64 / secs);
    }
    micros.insert("sim_storm".into(), (1_000_000.0 * n as f64 / best) as u64);
    best
}

fn main() {
    let smoke = std::env::args().nth(1).as_deref() == Some("--smoke");
    let shape = if smoke { &SMOKE } else { &FULL };

    let mut micros = BTreeMap::new();
    let (hdfs_files, hdfs_interned_names, hdfs_inodes, vacuum_identical) =
        run_hdfs(shape, &mut micros);
    let (kafka_partitions, kafka_compacted) = run_kafka(shape, &mut micros);
    let (yarn_apps, yarn_containers, slab_recycled) = run_yarn(shape, &mut micros);
    let sim_events_per_sec = run_sim_storm(shape.sim_events, &mut micros);

    let summary = Summary {
        hdfs_files,
        hdfs_interned_names,
        hdfs_inodes,
        kafka_partitions,
        kafka_compacted,
        yarn_apps,
        yarn_containers,
        sim_events_per_sec,
        micros,
        vacuum_identical,
        slab_recycled,
    };
    println!(
        "BENCH_scale {}",
        serde_json::to_string(&summary).expect("serializable")
    );

    assert!(summary.vacuum_identical, "vacuum changed the namespace");
    assert!(
        summary.slab_recycled,
        "container slab failed to recycle slots"
    );
    let floor = if smoke {
        SMOKE_SIM_FLOOR
    } else {
        FULL_SIM_FLOOR
    };
    assert!(
        summary.sim_events_per_sec >= floor,
        "sim event rate regressed below {floor:.0} events/s: {:.0}",
        summary.sim_events_per_sec
    );
}
