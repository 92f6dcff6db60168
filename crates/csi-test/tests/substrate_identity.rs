//! Observational identity of the substrates.
//!
//! These tests pin what a substrate's storage may not change, from three
//! directions:
//!
//! - fixed-seed operation sequences drive minihdfs and fold every
//!   rendered result into one committed digest, so a rewrite of the
//!   namespace storage must reproduce each status, listing, error, block
//!   id and replica placement byte for byte;
//! - property tests check minikafka against independent models of the
//!   observable semantics;
//! - the compound fault campaign (`kfaults(2).jobs(3)`) must stay
//!   byte-identical between the serial and sharded executors, the
//!   end-to-end check that no substrate leaked state from a recycled
//!   deployment into a report.

use csi_core::hash::Fnv1a;
use csi_core::rng::splitmix64;
use minihdfs::{DataNodeId, FileProperties, HdfsPath, Locality, MiniHdfs};
use minikafka::{GroupCoordinator, MiniKafka, PartitionId};
use proptest::prelude::*;

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable")
}

// ---------------------------------------------------------------------------
// minihdfs: fixed op sequences against a committed digest.
// ---------------------------------------------------------------------------

/// A namespace operation over a small path alphabet (so sequences collide
/// constantly: re-creates, deletes of parents, renames onto existing
/// paths, quotas below current usage — every error arm gets exercised).
#[derive(Debug, Clone)]
enum FsOp {
    Mkdirs(String),
    /// Path, fill byte, length, and which constructor (plain, compressed,
    /// or remote with an explicit owner).
    Create(String, u8, usize, u8),
    Append(String, u8),
    Delete(String, bool),
    Rename(String, String),
    List(String),
    Read(String),
    Status(String),
    SetQuota(String, Option<u64>, Option<u64>),
    Blocks(String),
    AdvanceClock(u64),
    KillDatanode(u32),
    /// A datanode (re)joins, then the namenode re-replicates.
    Replicate(u32),
}

/// Draws ops from one SplitMix64 stream.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        splitmix64(&mut self.0) % n
    }

    /// `/` one time in 16, else depth 1..=3.
    fn path(&mut self) -> String {
        let depth = match self.below(16) {
            0 => 0,
            _ => 1 + self.below(3),
        };
        self.path_of(depth)
    }

    /// A path of `depth` components over 4 names.
    fn path_of(&mut self, depth: u64) -> String {
        const NAMES: [&str; 4] = ["a", "b", "dir", "part-0"];
        if depth == 0 {
            return "/".to_string();
        }
        (0..depth)
            .map(|_| format!("/{}", NAMES[self.below(4) as usize]))
            .collect()
    }

    fn op(&mut self) -> FsOp {
        match self.below(15) {
            0 => FsOp::Mkdirs(self.path()),
            1..=3 => {
                let path = self.path();
                let fill = self.below(256) as u8;
                let len = [0, 3, 200][self.below(3) as usize];
                FsOp::Create(path, fill, len, self.below(3) as u8)
            }
            4 => FsOp::Append(self.path(), self.below(256) as u8),
            5 => FsOp::Delete(self.path(), self.below(2) == 0),
            6 => FsOp::Rename(self.path(), self.path()),
            7 => FsOp::List(self.path()),
            8 => FsOp::Read(self.path()),
            9 => FsOp::Status(self.path()),
            10 => {
                // Shallow, so the quota has a subtree to weigh.
                let depth = self.below(2);
                let path = self.path_of(depth);
                let names = (self.below(2) == 0).then(|| self.below(6));
                let space = (self.below(2) == 0).then(|| self.below(250));
                FsOp::SetQuota(path, names, space)
            }
            11 => FsOp::Blocks(self.path()),
            12 => FsOp::AdvanceClock(1 + self.below(1000)),
            13 => FsOp::KillDatanode(self.below(4) as u32),
            _ => FsOp::Replicate(self.below(4) as u32),
        }
    }
}

/// Applies one op and renders everything observable about its result.
fn apply_fs(fs: &mut MiniHdfs, op: &FsOp) -> String {
    let parse = |raw: &str| HdfsPath::parse(raw).expect("valid test path");
    let health = |fs: &MiniHdfs| {
        format!(
            "{} live, {} under-replicated",
            fs.live_datanodes(),
            fs.under_replicated_blocks()
        )
    };
    match op {
        FsOp::Mkdirs(p) => format!("{:?}", fs.mkdirs(&parse(p))),
        FsOp::Create(p, b, len, how) => {
            let (path, data) = (parse(p), vec![*b; *len]);
            let created = match how {
                0 => fs.create(&path, &data),
                1 => fs.create_compressed(&path, &data),
                _ => {
                    let props = FileProperties {
                        locality: Locality::Remote,
                        ..FileProperties::default()
                    };
                    fs.create_with(&path, &data, props, "hive", 0o600)
                }
            };
            format!("{created:?}")
        }
        FsOp::Append(p, b) => format!("{:?}", fs.append(&parse(p), &[*b; 2])),
        FsOp::Delete(p, recursive) => format!("{:?}", fs.delete(&parse(p), *recursive)),
        FsOp::Rename(a, b) => format!("{:?}", fs.rename(&parse(a), &parse(b))),
        FsOp::List(p) => format!("{:?}", fs.list_status(&parse(p))),
        FsOp::Read(p) => format!("{:?}", fs.read(&parse(p))),
        FsOp::Status(p) => format!(
            "{:?} {:?}",
            fs.get_file_status(&parse(p)),
            fs.stored_length(&parse(p))
        ),
        FsOp::SetQuota(p, names, space) => {
            format!("{:?}", fs.set_quota(&parse(p), *names, *space))
        }
        FsOp::Blocks(p) => format!("{:?}", fs.blocks(&parse(p))),
        FsOp::AdvanceClock(ms) => {
            fs.advance_clock(*ms);
            fs.now().to_string()
        }
        FsOp::KillDatanode(id) => {
            fs.kill_datanode(DataNodeId(*id));
            health(fs)
        }
        FsOp::Replicate(id) => {
            fs.register_datanode(DataNodeId(*id));
            let placed = fs.replicate_under_replicated();
            format!("{placed} placed, {}", health(fs))
        }
    }
}

/// Recursively renders the full observable namespace.
fn namespace_snapshot(fs: &MiniHdfs, path: &HdfsPath, out: &mut String) {
    out.push_str(&format!("{:?}\n", fs.get_file_status(path)));
    if let Ok(listing) = fs.list_status(path) {
        for status in &listing {
            namespace_snapshot(fs, &status.path, out);
        }
    }
}

/// FNV-1a over every rendered per-op result and the final namespace of
/// 64 fixed sequences of 60 ops. The committed value was computed before
/// the namespace moved from an interned inode arena to a tree of names,
/// and holds unchanged after it.
#[test]
fn hdfs_op_sequences_hold_their_committed_digest() {
    let mut digest = Fnv1a::new();
    for seed in 0..64 {
        let mut draw = Draw(seed);
        let mut fs = MiniHdfs::with_datanodes(3);
        for _ in 0..60 {
            let op = draw.op();
            digest.bytes(apply_fs(&mut fs, &op).as_bytes());
            digest.byte(b'\n');
        }
        let mut snapshot = String::new();
        namespace_snapshot(&fs, &HdfsPath::root(), &mut snapshot);
        digest.bytes(snapshot.as_bytes());
    }
    assert_eq!(
        digest.finish(),
        0x8dd9_b88b_e0e0_7470,
        "{:#018x}",
        digest.finish()
    );
}

// ---------------------------------------------------------------------------
// minikafka: compaction and membership against independent models.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The borrowed-key compaction pass agrees with the obvious model:
    /// keep the last occurrence of each key plus every keyless record.
    #[test]
    fn kafka_compaction_matches_last_write_wins_model(
        records in proptest::collection::vec(
            // `0..6` keys a record; `6` makes it keyless.
            (0u8..7, any::<u8>()),
            1..60,
        )
    ) {
        let keyless = 6u8;
        let mut k = MiniKafka::new();
        k.create_topic("t", 1);
        for &(key, val) in &records {
            let key_bytes = [key];
            k.produce(
                "t",
                PartitionId(0),
                (key != keyless).then_some(key_bytes.as_slice()),
                Some(&[val]),
                1,
            ).expect("produce");
        }
        k.compact("t", PartitionId(0)).expect("compact");

        // Model: offsets whose record survives last-write-wins.
        let mut survivors: Vec<(i64, Option<u8>, u8)> = Vec::new();
        for (offset, &(key, val)) in records.iter().enumerate() {
            if key == keyless {
                survivors.push((offset as i64, None, val));
            } else {
                let last = records
                    .iter()
                    .rposition(|&(k2, _)| k2 == key)
                    .expect("key occurs");
                if last == offset {
                    survivors.push((offset as i64, Some(key), val));
                }
            }
        }
        let fetched = k.fetch("t", PartitionId(0), 0, usize::MAX).expect("fetch");
        let got: Vec<(i64, Option<u8>, u8)> = fetched
            .records
            .iter()
            .map(|r| {
                (
                    r.offset,
                    r.key.as_ref().map(|k| k[0]),
                    r.value.as_ref().expect("value present")[0],
                )
            })
            .collect();
        prop_assert_eq!(got, survivors);
    }

    /// The hashed membership index agrees with the obvious model: members
    /// form a sorted set, partitions distribute round-robin over it.
    #[test]
    fn group_membership_matches_sorted_round_robin_model(
        events in proptest::collection::vec(
            (
                any::<bool>(),
                proptest::sample::select(vec!["m0", "m1", "m2", "m3", "m4"]),
            ),
            1..40,
        )
    ) {
        const PARTITIONS: u32 = 7;
        let mut k = MiniKafka::new();
        k.create_topic("t", PARTITIONS);
        let mut gc = GroupCoordinator::new();
        let mut model: Vec<&str> = Vec::new();
        for &(join, member) in &events {
            if join {
                let got = gc.join(&k, "g", "t", member).expect("join");
                if let Err(pos) = model.binary_search(&member) {
                    model.insert(pos, member);
                }
                let slot = model.binary_search(&member).expect("just inserted");
                let expected: Vec<PartitionId> = (0..PARTITIONS)
                    .filter(|p| *p as usize % model.len() == slot)
                    .map(PartitionId)
                    .collect();
                prop_assert_eq!(got.partitions, expected, "member {}", member);
            } else {
                let _ = gc.leave(&k, "g", member);
                if let Ok(pos) = model.binary_search(&member) {
                    model.remove(pos);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// End to end: the compound campaign through both executors.
// ---------------------------------------------------------------------------

/// `kfaults(2).jobs(3)`: the compound fault-set × interleaving pass plus
/// the cross campaign, serial vs sharded, must agree byte for byte. This
/// is the check that no substrate leaked iteration order or state from
/// one observation into the next: each worker reuses one deployment
/// across its shards, so the serial run and the three sharded workers
/// drive their stacks through different sequences of tables.
#[test]
fn compound_campaign_kfaults2_jobs3_serial_matches_sharded() {
    // A catalogue slice keeps the doubled run affordable; the full-set
    // equivalence is covered (without kfaults) by the determinism suite.
    let inputs: Vec<_> = csi_test::generate_inputs().into_iter().step_by(7).collect();
    let run = |shards: usize| {
        let mut campaign = csi_test::Campaign::new(&inputs).kfaults(2).jobs(3);
        if shards > 1 {
            campaign = campaign.shards(shards).chunk_size(16);
        }
        campaign.run()
    };
    let serial = run(1);
    let sharded = run(3);
    assert_eq!(
        json(&serial.report),
        json(&sharded.report),
        "discrepancy reports diverge"
    );
    assert_eq!(
        serial.observations.len(),
        sharded.observations.len(),
        "observation counts diverge"
    );
    for (i, (s, p)) in serial
        .observations
        .iter()
        .zip(&sharded.observations)
        .enumerate()
    {
        assert_eq!(s.0, p.0, "experiment tag diverges at observation {i}");
        assert_eq!(json(&s.1), json(&p.1), "observation {i} diverges");
    }
    let s_compound = serial.compound.expect("kfaults ran");
    let p_compound = sharded.compound.expect("kfaults ran");
    assert_eq!(
        json(&s_compound),
        json(&p_compound),
        "compound stats diverge"
    );
    assert_eq!(
        json(&serial.clusters),
        json(&sharded.clusters),
        "co-failure clusters diverge"
    );
}
