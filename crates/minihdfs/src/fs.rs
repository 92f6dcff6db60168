//! The minihdfs namenode and datanode fleet.
//!
//! The namespace is stored production-style: an interned-name tree (a
//! [`NameTable`] u32 symbol table, a parent-pointer inode arena with a
//! LIFO free list, per-directory child maps keyed by symbol) instead of
//! the seed's flat `BTreeMap<Vec<String>, INode>`. Path resolution,
//! create, rename, and delete are O(depth) with zero per-operation
//! `Vec<String>` clones; directory quota checks read subtree aggregates
//! maintained along parent chains instead of scanning the whole map;
//! block lists are copy-on-write (`Arc`) so status/clone-heavy callers
//! never duplicate them.
//!
//! Determinism invariant: nothing observable (statuses, listings, errors,
//! traces) may depend on symbol values or arena slot numbers — only on
//! resolved name strings and caller-supplied paths. [`MiniHdfs::vacuum`]
//! relies on this to rebuild the interner and arena in canonical
//! namespace order, making the internal layout a pure function of the
//! live namespace regardless of operation history.

use crate::error::HdfsError;
use crate::name::{NameTable, Sym};
use crate::path::HdfsPath;
use crate::token::{DelegationToken, TokenCheck, TokenId, TokenRegistry};
use bytes::Bytes;
use csi_core::boundary::{BoundaryCall, CrossingContext};
use csi_core::fault::{Channel, FaultKind, FaultPoint};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of a simulated datanode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DataNodeId(pub u32);

/// Where a file's bytes physically live, from the cluster's point of view.
///
/// Cloud storage systems extend POSIX with such properties; FLINK-13758 is a
/// CSI failure where the upstream had to treat local and remote files
/// differently and did not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Locality {
    /// Stored on datanodes of this cluster.
    Local,
    /// Stored in a remote tier (e.g. archival or cloud storage).
    Remote,
}

/// Custom (non-POSIX) file properties exposed by the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileProperties {
    /// Whether the file content is transparently compressed.
    ///
    /// For compressed files the namenode reports a length of `-1`
    /// (SPARK-27239, Figure 2): the real length is only known after
    /// decompression, and `-1` is the store's documented sentinel.
    pub compressed: bool,
    /// Whether the file is encrypted at rest.
    pub encrypted: bool,
    /// Physical locality.
    pub locality: Locality,
}

impl Default for FileProperties {
    fn default() -> FileProperties {
        FileProperties {
            compressed: false,
            encrypted: false,
            locality: Locality::Local,
        }
    }
}

/// Status record returned by [`MiniHdfs::get_file_status`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileStatus {
    /// Absolute path.
    pub path: HdfsPath,
    /// Whether the node is a directory.
    pub is_dir: bool,
    /// Reported length in bytes.
    ///
    /// **Careful**: this is `-1` for compressed files — a valid value per
    /// this store's specification, and the undefined-value discrepancy
    /// behind SPARK-27239. Use [`MiniHdfs::stored_length`] for the physical
    /// length.
    pub len: i64,
    /// Replication factor of the file (0 for directories).
    pub replication: u32,
    /// Modification time (namenode clock, ms).
    pub modification_time: u64,
    /// Owner name.
    pub owner: String,
    /// POSIX-style permission bits.
    pub permissions: u16,
    /// Custom properties.
    pub properties: FileProperties,
}

/// One block of a file and its replica locations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockInfo {
    /// Block id, unique within the namenode.
    pub id: u64,
    /// Bytes in this block.
    pub len: u64,
    /// Datanodes currently holding a replica.
    pub replicas: Vec<DataNodeId>,
}

#[derive(Debug, Clone)]
struct Quota {
    max_namespace: Option<u64>,
    max_space: Option<u64>,
}

/// Arena inode. `Dir` carries subtree aggregates — the number of strict
/// descendants and the file bytes strictly under it — kept current along
/// parent chains on every insert/delete/append/rename so quota checks are
/// O(depth) reads instead of namespace scans.
#[derive(Debug, Clone)]
enum INode {
    Dir {
        children: BTreeMap<Sym, u32>,
        quota: Option<Quota>,
        mtime: u64,
        subtree_nodes: u64,
        subtree_bytes: u64,
    },
    File {
        data: Bytes,
        props: FileProperties,
        replication: u32,
        blocks: Arc<Vec<BlockInfo>>,
        mtime: u64,
        owner: Sym,
        permissions: u16,
    },
    /// Freed slot, linked into the LIFO free list (`next` = arena index,
    /// [`NIL`] terminates the list).
    Free { next: u32 },
}

#[derive(Debug, Clone)]
struct Entry {
    name: Sym,
    parent: u32,
    node: INode,
}

/// Arena index of the root directory.
const ROOT: u32 = 0;
/// Free-list terminator.
const NIL: u32 = u32::MAX;

/// The in-memory HDFS cluster: one namenode plus registered datanodes.
///
/// Time does not advance on its own; callers (or the discrete-event
/// simulator) drive the clock via [`MiniHdfs::advance_clock`], which keeps
/// token-expiry scenarios deterministic.
#[derive(Debug)]
pub struct MiniHdfs {
    names: NameTable,
    arena: Vec<Entry>,
    free_head: u32,
    datanodes: BTreeMap<DataNodeId, bool>, // true = live
    tokens: TokenRegistry,
    clock_ms: u64,
    safe_mode: bool,
    min_live_datanodes: usize,
    block_size: u64,
    default_replication: u32,
    next_block_id: u64,
    crossing: Option<CrossingContext>,
}

impl Default for MiniHdfs {
    fn default() -> MiniHdfs {
        MiniHdfs::new()
    }
}

impl MiniHdfs {
    /// Creates a cluster with no datanodes, in safe mode.
    pub fn new() -> MiniHdfs {
        let mut names = NameTable::new();
        let root_name = names.intern("");
        MiniHdfs {
            names,
            arena: vec![Entry {
                name: root_name,
                parent: ROOT,
                node: INode::Dir {
                    children: BTreeMap::new(),
                    quota: None,
                    mtime: 0,
                    subtree_nodes: 0,
                    subtree_bytes: 0,
                },
            }],
            free_head: NIL,
            datanodes: BTreeMap::new(),
            tokens: TokenRegistry::default(),
            clock_ms: 0,
            safe_mode: true,
            min_live_datanodes: 1,
            block_size: 128,
            default_replication: 3,
            next_block_id: 0,
            crossing: None,
        }
    }

    /// Attaches the deployment's crossing context; every file-operation
    /// entry point crosses the [`Channel::Hdfs`] boundary through it.
    pub fn set_crossing(&mut self, crossing: CrossingContext) {
        self.crossing = Some(crossing);
    }

    /// The file-operation boundary crossing at the entry of `op`.
    fn cross(&self, op: &'static str, path: &HdfsPath) -> Result<(), HdfsError> {
        match &self.crossing {
            Some(ctx) => ctx.cross(
                BoundaryCall::new(Channel::Hdfs, op).with_payload_fmt(format_args!("{path}")),
            ),
            None => Ok(()),
        }
    }

    /// Creates a ready-to-use cluster with `n` datanodes, out of safe mode.
    pub fn with_datanodes(n: u32) -> MiniHdfs {
        let mut fs = MiniHdfs::new();
        for i in 0..n {
            fs.register_datanode(DataNodeId(i));
        }
        fs
    }

    /// Current namenode clock (ms).
    pub fn now(&self) -> u64 {
        self.clock_ms
    }

    /// Advances the namenode clock.
    pub fn advance_clock(&mut self, ms: u64) {
        self.clock_ms += ms;
    }

    /// Registers (or revives) a datanode; may leave safe mode.
    pub fn register_datanode(&mut self, id: DataNodeId) {
        self.datanodes.insert(id, true);
        if self.live_datanodes() >= self.min_live_datanodes {
            self.safe_mode = false;
        }
    }

    /// Marks a datanode dead; its replicas become unavailable.
    pub fn kill_datanode(&mut self, id: DataNodeId) {
        if let Some(live) = self.datanodes.get_mut(&id) {
            *live = false;
        }
        for entry in &mut self.arena {
            if let INode::File { blocks, .. } = &mut entry.node {
                // Copy-on-write: only clone a block list that actually
                // holds a replica on the dead node.
                if blocks.iter().any(|b| b.replicas.contains(&id)) {
                    for b in Arc::make_mut(blocks) {
                        b.replicas.retain(|r| *r != id);
                    }
                }
            }
        }
    }

    /// Number of live datanodes.
    pub fn live_datanodes(&self) -> usize {
        self.datanodes.values().filter(|l| **l).count()
    }

    /// Whether the namenode is in safe mode.
    pub fn in_safe_mode(&self) -> bool {
        self.safe_mode
    }

    /// Manually toggles safe mode (like `hdfs dfsadmin -safemode`).
    pub fn set_safe_mode(&mut self, on: bool) {
        self.safe_mode = on;
    }

    fn check_mutable(&self) -> Result<(), HdfsError> {
        if self.safe_mode {
            Err(HdfsError::SafeMode)
        } else {
            Ok(())
        }
    }

    /// Resolves a path to its arena id: O(depth) symbol-table lookups, no
    /// allocation. `None` if any component is missing or crosses a file.
    fn resolve(&self, path: &HdfsPath) -> Option<u32> {
        let mut id = ROOT;
        for comp in path.components() {
            let sym = self.names.lookup(comp)?;
            match &self.arena[id as usize].node {
                INode::Dir { children, .. } => id = *children.get(&sym)?,
                _ => return None,
            }
        }
        Some(id)
    }

    /// Ancestor arena ids of `id`, shallowest (root) first, excluding `id`.
    fn ancestors_root_first(&self, id: u32) -> Vec<u32> {
        let mut chain = Vec::new();
        let mut cur = id;
        while cur != ROOT {
            cur = self.arena[cur as usize].parent;
            chain.push(cur);
        }
        chain.reverse();
        chain
    }

    /// Takes a slot from the free list, or grows the arena.
    fn alloc(&mut self, entry: Entry) -> u32 {
        if self.free_head != NIL {
            let id = self.free_head;
            match self.arena[id as usize].node {
                INode::Free { next } => self.free_head = next,
                _ => unreachable!("free list points at a live inode"),
            }
            self.arena[id as usize] = entry;
            id
        } else {
            let id = u32::try_from(self.arena.len()).expect("inode arena overflow");
            self.arena.push(entry);
            id
        }
    }

    /// Adds to the subtree aggregates of `id` and every ancestor.
    fn add_aggregates(&mut self, mut id: u32, nodes: u64, bytes: u64) {
        loop {
            if let INode::Dir {
                subtree_nodes,
                subtree_bytes,
                ..
            } = &mut self.arena[id as usize].node
            {
                *subtree_nodes += nodes;
                *subtree_bytes += bytes;
            }
            if id == ROOT {
                break;
            }
            id = self.arena[id as usize].parent;
        }
    }

    /// Subtracts from the subtree aggregates of `id` and every ancestor.
    fn sub_aggregates(&mut self, mut id: u32, nodes: u64, bytes: u64) {
        loop {
            if let INode::Dir {
                subtree_nodes,
                subtree_bytes,
                ..
            } = &mut self.arena[id as usize].node
            {
                *subtree_nodes -= nodes;
                *subtree_bytes -= bytes;
            }
            if id == ROOT {
                break;
            }
            id = self.arena[id as usize].parent;
        }
    }

    /// Size of the subtree rooted at `id`: (inodes including `id`, file
    /// bytes). O(1) via the maintained aggregates.
    fn subtree_weight(&self, id: u32) -> (u64, u64) {
        match &self.arena[id as usize].node {
            INode::Dir {
                subtree_nodes,
                subtree_bytes,
                ..
            } => (1 + subtree_nodes, *subtree_bytes),
            INode::File { data, .. } => (1, data.len() as u64),
            INode::Free { .. } => unreachable!("weight of freed inode"),
        }
    }

    /// Links `child` under `parent` as `sym` and credits the aggregates.
    fn attach(&mut self, parent: u32, sym: Sym, child: u32, nodes: u64, bytes: u64) {
        match &mut self.arena[parent as usize].node {
            INode::Dir { children, .. } => {
                children.insert(sym, child);
            }
            _ => unreachable!("attach target is a directory"),
        }
        self.arena[child as usize].parent = parent;
        self.arena[child as usize].name = sym;
        self.add_aggregates(parent, nodes, bytes);
    }

    /// Unlinks `child` from its parent and debits the aggregates; returns
    /// the subtree weight that was removed.
    fn detach(&mut self, child: u32) -> (u64, u64) {
        let parent = self.arena[child as usize].parent;
        let sym = self.arena[child as usize].name;
        let (nodes, bytes) = self.subtree_weight(child);
        match &mut self.arena[parent as usize].node {
            INode::Dir { children, .. } => {
                children.remove(&sym);
            }
            _ => unreachable!("detach parent is a directory"),
        }
        self.sub_aggregates(parent, nodes, bytes);
        (nodes, bytes)
    }

    /// Returns a detached subtree's slots to the free list.
    fn free_subtree(&mut self, id: u32) {
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if let INode::Dir { children, .. } = &self.arena[cur as usize].node {
                stack.extend(children.values().copied());
            }
            self.arena[cur as usize].node = INode::Free {
                next: self.free_head,
            };
            self.free_head = cur;
        }
    }

    /// Creates a directory and any missing ancestors.
    pub fn mkdirs(&mut self, path: &HdfsPath) -> Result<(), HdfsError> {
        self.cross("mkdirs", path)?;
        self.check_mutable()?;
        // `chain[d]` is the arena id of the prefix of length `d`.
        let mut chain = vec![ROOT];
        for (depth, comp) in path.components().enumerate() {
            let here = *chain.last().expect("chain starts at root");
            let child =
                self.names
                    .lookup(comp)
                    .and_then(|sym| match &self.arena[here as usize].node {
                        INode::Dir { children, .. } => children.get(&sym).copied(),
                        _ => None,
                    });
            match child {
                Some(c) => match self.arena[c as usize].node {
                    INode::Dir { .. } => chain.push(c),
                    _ => return Err(HdfsError::NotADirectory(partial(path, depth + 1))),
                },
                None => {
                    self.check_namespace_quota(&chain, path)?;
                    let now = self.clock_ms;
                    let sym = self.names.intern(comp);
                    let id = self.alloc(Entry {
                        name: sym,
                        parent: here,
                        node: INode::Dir {
                            children: BTreeMap::new(),
                            quota: None,
                            mtime: now,
                            subtree_nodes: 0,
                            subtree_bytes: 0,
                        },
                    });
                    self.attach(here, sym, id, 1, 0);
                    chain.push(id);
                }
            }
        }
        Ok(())
    }

    /// Writes a whole file with default properties, creating parents.
    pub fn create(&mut self, path: &HdfsPath, data: &[u8]) -> Result<(), HdfsError> {
        self.create_with(path, data, FileProperties::default(), "hdfs", 0o644)
    }

    /// Writes a compressed file: content stored as-is, but the status
    /// reports length `-1`.
    pub fn create_compressed(&mut self, path: &HdfsPath, data: &[u8]) -> Result<(), HdfsError> {
        self.create_with(
            path,
            data,
            FileProperties {
                compressed: true,
                ..FileProperties::default()
            },
            "hdfs",
            0o644,
        )
    }

    /// Writes a whole file with explicit properties, owner, and permissions.
    pub fn create_with(
        &mut self,
        path: &HdfsPath,
        data: &[u8],
        props: FileProperties,
        owner: &str,
        permissions: u16,
    ) -> Result<(), HdfsError> {
        self.cross("create", path)?;
        self.check_mutable()?;
        if path.is_root() {
            return Err(HdfsError::IsADirectory(path.clone()));
        }
        if let Some(existing) = self.resolve(path) {
            return Err(match self.arena[existing as usize].node {
                INode::Dir { .. } => HdfsError::IsADirectory(path.clone()),
                _ => HdfsError::AlreadyExists(path.clone()),
            });
        }
        if self.live_datanodes() == 0 {
            return Err(HdfsError::InsufficientReplication {
                wanted: self.default_replication,
                live: 0,
            });
        }
        let parent_path = path.parent().expect("non-root path has a parent");
        self.mkdirs(&parent_path)?;
        let parent = self
            .resolve(&parent_path)
            .expect("mkdirs created the parent");
        let mut chain = self.ancestors_root_first(parent);
        chain.push(parent);
        self.check_namespace_quota(&chain, path)?;
        self.check_space_quota(&chain, path, data.len() as u64)?;
        let blocks = self.allocate_blocks(data.len() as u64);
        let now = self.clock_ms;
        let sym = self
            .names
            .intern(path.name().expect("non-root path has a name"));
        let owner_sym = self.names.intern(owner);
        let bytes = data.len() as u64;
        let id = self.alloc(Entry {
            name: sym,
            parent,
            node: INode::File {
                data: Bytes::copy_from_slice(data),
                props,
                replication: self.default_replication,
                blocks: Arc::new(blocks),
                mtime: now,
                owner: owner_sym,
                permissions,
            },
        });
        self.attach(parent, sym, id, 1, bytes);
        Ok(())
    }

    fn allocate_blocks(&mut self, len: u64) -> Vec<BlockInfo> {
        let live: Vec<DataNodeId> = self
            .datanodes
            .iter()
            .filter(|(_, l)| **l)
            .map(|(id, _)| *id)
            .collect();
        let mut blocks = Vec::new();
        let mut remaining = len;
        let mut cursor = 0usize;
        loop {
            let this_len = remaining.min(self.block_size);
            let id = self.next_block_id;
            self.next_block_id += 1;
            // Round-robin placement across live datanodes, up to the
            // replication factor.
            let mut replicas = Vec::new();
            for k in 0..(self.default_replication as usize).min(live.len()) {
                replicas.push(live[(cursor + k) % live.len()]);
            }
            cursor += 1;
            blocks.push(BlockInfo {
                id,
                len: this_len,
                replicas,
            });
            if remaining <= self.block_size {
                break;
            }
            remaining -= self.block_size;
        }
        blocks
    }

    /// Appends bytes to an existing file, extending its block layout.
    pub fn append(&mut self, path: &HdfsPath, data: &[u8]) -> Result<(), HdfsError> {
        self.check_mutable()?;
        let id = match self.resolve(path) {
            None => return Err(HdfsError::FileNotFound(path.clone())),
            Some(id) => id,
        };
        if matches!(self.arena[id as usize].node, INode::Dir { .. }) {
            return Err(HdfsError::IsADirectory(path.clone()));
        }
        let chain = self.ancestors_root_first(id);
        self.check_space_quota(&chain, path, data.len() as u64)?;
        let new_blocks = self.allocate_blocks(data.len() as u64);
        let now = self.clock_ms;
        let parent = self.arena[id as usize].parent;
        let INode::File {
            data: existing,
            blocks,
            mtime,
            ..
        } = &mut self.arena[id as usize].node
        else {
            unreachable!("checked above");
        };
        let mut combined = existing.to_vec();
        combined.extend_from_slice(data);
        *existing = Bytes::from(combined);
        let blocks = Arc::make_mut(blocks);
        // Drop a trailing empty block left by an empty create.
        if blocks.len() == 1 && blocks[0].len == 0 && !data.is_empty() {
            blocks.clear();
        }
        blocks.extend(new_blocks);
        *mtime = now;
        self.add_aggregates(parent, 0, data.len() as u64);
        Ok(())
    }

    /// Re-replicates under-replicated blocks onto live datanodes that do
    /// not yet hold them; returns the number of new replicas placed.
    pub fn replicate_under_replicated(&mut self) -> usize {
        let live: Vec<DataNodeId> = self
            .datanodes
            .iter()
            .filter(|(_, l)| **l)
            .map(|(id, _)| *id)
            .collect();
        let mut placed = 0;
        for entry in &mut self.arena {
            if let INode::File {
                blocks,
                replication,
                ..
            } = &mut entry.node
            {
                let target = (*replication as usize).min(live.len());
                // Copy-on-write: leave healthy files' block lists shared.
                if blocks.iter().any(|b| b.replicas.len() < target) {
                    for b in Arc::make_mut(blocks) {
                        for candidate in &live {
                            if b.replicas.len() >= target {
                                break;
                            }
                            if !b.replicas.contains(candidate) {
                                b.replicas.push(*candidate);
                                placed += 1;
                            }
                        }
                    }
                }
            }
        }
        placed
    }

    /// Reads a whole file.
    ///
    /// Under an injected [`FaultKind::CorruptPayload`] the read *succeeds*
    /// but delivers deterministically garbled bytes — corruption on the
    /// wire is invisible to the namenode, so it is the caller's
    /// deserializer that has to notice.
    pub fn read(&self, path: &HdfsPath) -> Result<Bytes, HdfsError> {
        if let Some(ctx) = &self.crossing {
            let call =
                BoundaryCall::new(Channel::Hdfs, "read").with_payload_fmt(format_args!("{path}"));
            if let Some(fault) = ctx.intercept(call) {
                if fault.kind == FaultKind::CorruptPayload {
                    let clean = self.read_inode(path)?;
                    return Ok(garble(&clean));
                }
                return Err(HdfsError::materialize(&fault));
            }
        }
        self.read_inode(path)
    }

    fn read_inode(&self, path: &HdfsPath) -> Result<Bytes, HdfsError> {
        match self.resolve(path) {
            None => Err(HdfsError::FileNotFound(path.clone())),
            Some(id) => match &self.arena[id as usize].node {
                INode::Dir { .. } => Err(HdfsError::IsADirectory(path.clone())),
                INode::File { data, .. } => Ok(data.clone()),
                INode::Free { .. } => unreachable!("resolved id is live"),
            },
        }
    }

    /// Reads a whole file, verifying a delegation token first.
    pub fn read_with_token(&self, path: &HdfsPath, token: TokenId) -> Result<Bytes, HdfsError> {
        match self.tokens.check(token, self.clock_ms) {
            TokenCheck::Valid => self.read(path),
            TokenCheck::Expired { expired_at } => Err(HdfsError::TokenInvalid {
                reason: format!(
                    "token expired at t={expired_at}ms (now t={}ms)",
                    self.clock_ms
                ),
            }),
            TokenCheck::Unknown => Err(HdfsError::TokenInvalid {
                reason: "unknown or cancelled token".to_string(),
            }),
        }
    }

    /// Renders the status of a live inode, under the given absolute path.
    fn status_of(&self, id: u32, path: HdfsPath) -> FileStatus {
        match &self.arena[id as usize].node {
            INode::Dir { mtime, .. } => FileStatus {
                path,
                is_dir: true,
                len: 0,
                replication: 0,
                modification_time: *mtime,
                owner: "hdfs".to_string(),
                permissions: 0o755,
                properties: FileProperties::default(),
            },
            INode::File {
                data,
                props,
                replication,
                mtime,
                owner,
                permissions,
                ..
            } => FileStatus {
                path,
                is_dir: false,
                // The documented sentinel: compressed files report -1.
                len: if props.compressed {
                    -1
                } else {
                    data.len() as i64
                },
                replication: *replication,
                modification_time: *mtime,
                owner: self.names.resolve(*owner).to_string(),
                permissions: *permissions,
                properties: *props,
            },
            INode::Free { .. } => unreachable!("status of freed inode"),
        }
    }

    /// Returns the status of a path.
    pub fn get_file_status(&self, path: &HdfsPath) -> Result<FileStatus, HdfsError> {
        match self.resolve(path) {
            None => Err(HdfsError::FileNotFound(path.clone())),
            Some(id) => Ok(self.status_of(id, path.without_authority())),
        }
    }

    /// The physical stored length, regardless of compression — the custom
    /// API an informed upstream must use instead of [`FileStatus::len`].
    pub fn stored_length(&self, path: &HdfsPath) -> Result<u64, HdfsError> {
        match self.resolve(path) {
            None => Err(HdfsError::FileNotFound(path.clone())),
            Some(id) => match &self.arena[id as usize].node {
                INode::Dir { .. } => Err(HdfsError::IsADirectory(path.clone())),
                INode::File { data, .. } => Ok(data.len() as u64),
                INode::Free { .. } => unreachable!("resolved id is live"),
            },
        }
    }

    /// Lists the immediate children of a directory.
    pub fn list_status(&self, path: &HdfsPath) -> Result<Vec<FileStatus>, HdfsError> {
        self.cross("list_status", path)?;
        let id = match self.resolve(path) {
            None => return Err(HdfsError::FileNotFound(path.clone())),
            Some(id) => id,
        };
        let children = match &self.arena[id as usize].node {
            INode::File { .. } => return Err(HdfsError::NotADirectory(path.clone())),
            INode::Dir { children, .. } => children,
            INode::Free { .. } => unreachable!("resolved id is live"),
        };
        // Child maps iterate in intern order; listings are sorted by name,
        // so symbol values stay unobservable.
        let mut kids: Vec<(&str, u32)> = children
            .iter()
            .map(|(sym, child)| (self.names.resolve(*sym), *child))
            .collect();
        kids.sort_unstable_by_key(|(name, _)| *name);
        let base = path.without_authority();
        Ok(kids
            .into_iter()
            .map(|(name, child)| self.status_of(child, base.join(name)))
            .collect())
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &HdfsPath) -> bool {
        self.resolve(path).is_some()
    }

    /// Renames a file or directory (and its subtree): O(depth) pointer
    /// surgery, no per-node rewrites.
    ///
    /// Renaming a path *into its own subtree* is rejected with
    /// [`HdfsError::InvalidPath`] (the seed's flat-map prefix rewrite
    /// silently corrupted the namespace on that input).
    pub fn rename(&mut self, from: &HdfsPath, to: &HdfsPath) -> Result<(), HdfsError> {
        self.check_mutable()?;
        let from_id = match self.resolve(from) {
            None => return Err(HdfsError::FileNotFound(from.clone())),
            Some(id) => id,
        };
        if self.resolve(to).is_some() {
            return Err(HdfsError::AlreadyExists(to.clone()));
        }
        if to.components().count() > from.components().count() && to.starts_with(from) {
            return Err(HdfsError::InvalidPath(format!(
                "cannot rename {from} into its own subtree {to}"
            )));
        }
        if let Some(parent) = to.parent() {
            self.mkdirs(&parent)?;
        }
        let to_parent_path = to.parent().expect("root target already exists");
        let to_parent = self
            .resolve(&to_parent_path)
            .expect("mkdirs created the target parent");
        let (nodes, bytes) = self.detach(from_id);
        let sym = self.names.intern(to.name().expect("non-root target"));
        self.attach(to_parent, sym, from_id, nodes, bytes);
        Ok(())
    }

    /// Deletes a path; directories require `recursive` unless empty.
    pub fn delete(&mut self, path: &HdfsPath, recursive: bool) -> Result<(), HdfsError> {
        self.cross("delete", path)?;
        self.check_mutable()?;
        let id = match self.resolve(path) {
            None => return Err(HdfsError::FileNotFound(path.clone())),
            Some(id) => id,
        };
        match &self.arena[id as usize].node {
            INode::File { .. } => {
                self.detach(id);
                self.free_subtree(id);
                return Ok(());
            }
            INode::Dir { children, .. } => {
                if !children.is_empty() && !recursive {
                    return Err(HdfsError::DirectoryNotEmpty(path.clone()));
                }
            }
            INode::Free { .. } => unreachable!("resolved id is live"),
        }
        if id == ROOT {
            // Deleting `/` empties the namespace but keeps the root inode.
            let kids: Vec<u32> = match &self.arena[ROOT as usize].node {
                INode::Dir { children, .. } => children.values().copied().collect(),
                _ => unreachable!("root is a directory"),
            };
            for k in kids {
                self.detach(k);
                self.free_subtree(k);
            }
            return Ok(());
        }
        self.detach(id);
        self.free_subtree(id);
        Ok(())
    }

    /// Sets a namespace/space quota on a directory.
    pub fn set_quota(
        &mut self,
        dir: &HdfsPath,
        max_namespace: Option<u64>,
        max_space: Option<u64>,
    ) -> Result<(), HdfsError> {
        let id = match self.resolve(dir) {
            None => return Err(HdfsError::FileNotFound(dir.clone())),
            Some(id) => id,
        };
        match &mut self.arena[id as usize].node {
            INode::File { .. } => Err(HdfsError::NotADirectory(dir.clone())),
            INode::Dir { quota, .. } => {
                *quota = Some(Quota {
                    max_namespace,
                    max_space,
                });
                Ok(())
            }
            INode::Free { .. } => unreachable!("resolved id is live"),
        }
    }

    /// Checks every ancestor's namespace quota before adding one inode.
    /// `chain[d]` must be the arena id of `path`'s first `d` components;
    /// aggregates make each check O(1), the walk O(depth).
    fn check_namespace_quota(&self, chain: &[u32], path: &HdfsPath) -> Result<(), HdfsError> {
        for (depth, &anc) in chain.iter().enumerate() {
            if let INode::Dir {
                quota:
                    Some(Quota {
                        max_namespace: Some(max),
                        ..
                    }),
                subtree_nodes,
                ..
            } = &self.arena[anc as usize].node
            {
                if *subtree_nodes + 1 > *max {
                    return Err(HdfsError::QuotaExceeded {
                        dir: partial(path, depth),
                        detail: format!("namespace quota {max} reached"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks every ancestor's space quota before adding `add_bytes`.
    fn check_space_quota(
        &self,
        chain: &[u32],
        path: &HdfsPath,
        add_bytes: u64,
    ) -> Result<(), HdfsError> {
        for (depth, &anc) in chain.iter().enumerate() {
            if let INode::Dir {
                quota:
                    Some(Quota {
                        max_space: Some(max),
                        ..
                    }),
                subtree_bytes,
                ..
            } = &self.arena[anc as usize].node
            {
                if *subtree_bytes + add_bytes > *max {
                    return Err(HdfsError::QuotaExceeded {
                        dir: partial(path, depth),
                        detail: format!("space quota {max} bytes would be exceeded"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Block layout of a file.
    pub fn blocks(&self, path: &HdfsPath) -> Result<Vec<BlockInfo>, HdfsError> {
        match self.resolve(path) {
            None => Err(HdfsError::FileNotFound(path.clone())),
            Some(id) => match &self.arena[id as usize].node {
                INode::Dir { .. } => Err(HdfsError::IsADirectory(path.clone())),
                INode::File { blocks, .. } => Ok((**blocks).clone()),
                INode::Free { .. } => unreachable!("resolved id is live"),
            },
        }
    }

    /// Number of blocks whose live replica count is below the achievable
    /// target (the replication factor, capped by live datanodes).
    pub fn under_replicated_blocks(&self) -> usize {
        let live = self.live_datanodes() as u32;
        self.arena
            .iter()
            .filter_map(|entry| match &entry.node {
                INode::File {
                    blocks,
                    replication,
                    ..
                } => {
                    let target = (*replication).min(live);
                    Some(
                        blocks
                            .iter()
                            .filter(|b| (b.replicas.len() as u32) < target)
                            .count(),
                    )
                }
                _ => None,
            })
            .sum()
    }

    /// Number of live inodes, excluding the root directory.
    pub fn inode_count(&self) -> u64 {
        match &self.arena[ROOT as usize].node {
            INode::Dir { subtree_nodes, .. } => *subtree_nodes,
            _ => unreachable!("root is a directory"),
        }
    }

    /// Number of distinct name strings currently interned (grows
    /// monotonically until [`MiniHdfs::vacuum`]).
    pub fn interned_names(&self) -> usize {
        self.names.len()
    }

    /// Restores the namenode to the state of a freshly constructed
    /// cluster with the same datanode fleet size: empty namespace, clock
    /// at zero, safe mode off (datanodes re-registered), block-id and
    /// token counters rewound, quotas gone — while keeping the attached
    /// crossing context.
    ///
    /// This is stronger than [`vacuum`](MiniHdfs::vacuum): where vacuum
    /// canonicalizes the *live* namespace, `reset` erases all of it. A
    /// deployment pool recycling a namenode across campaigns uses this so
    /// a pooled instance is indistinguishable — byte for byte, including
    /// block ids appearing in diagnostics — from one built by
    /// [`MiniHdfs::with_datanodes`].
    pub fn reset(&mut self) {
        let crossing = self.crossing.take();
        *self = MiniHdfs::with_datanodes(self.datanodes.len() as u32);
        self.crossing = crossing;
    }

    /// Rebuilds the name table and inode arena from the live namespace in
    /// canonical order (pre-order DFS, children name-sorted), dropping
    /// freed slots and names only deleted inodes referenced.
    ///
    /// After a vacuum the internal layout is a pure function of the live
    /// namespace — two instances holding the same files converge to
    /// identical interner and arena state regardless of the operation
    /// history that produced them. Deployment pools rely on this when
    /// recycling an instance across experiments picked up in
    /// work-stealing (hence nondeterministic) order. The datanode fleet,
    /// delegation tokens, clock, and `next_block_id` are untouched:
    /// vacuuming never changes any observable behavior.
    pub fn vacuum(&mut self) {
        let mut names = NameTable::new();
        let root_name = names.intern("");
        let mut arena: Vec<Entry> = Vec::with_capacity(1 + self.inode_count() as usize);
        let root_node = match &self.arena[ROOT as usize].node {
            INode::Dir {
                quota,
                mtime,
                subtree_nodes,
                subtree_bytes,
                ..
            } => INode::Dir {
                children: BTreeMap::new(),
                quota: quota.clone(),
                mtime: *mtime,
                subtree_nodes: *subtree_nodes,
                subtree_bytes: *subtree_bytes,
            },
            _ => unreachable!("root is a directory"),
        };
        arena.push(Entry {
            name: root_name,
            parent: ROOT,
            node: root_node,
        });
        // (old id, new parent id), popped in name order per directory.
        let mut stack: Vec<(u32, u32)> = Vec::new();
        self.push_children_sorted(ROOT, ROOT, &mut stack);
        while let Some((old, new_parent)) = stack.pop() {
            let entry = &self.arena[old as usize];
            let sym = names.intern(self.names.resolve(entry.name));
            let node = match &entry.node {
                INode::Dir {
                    quota,
                    mtime,
                    subtree_nodes,
                    subtree_bytes,
                    ..
                } => INode::Dir {
                    children: BTreeMap::new(),
                    quota: quota.clone(),
                    mtime: *mtime,
                    subtree_nodes: *subtree_nodes,
                    subtree_bytes: *subtree_bytes,
                },
                INode::File {
                    data,
                    props,
                    replication,
                    blocks,
                    mtime,
                    owner,
                    permissions,
                } => INode::File {
                    data: data.clone(),
                    props: *props,
                    replication: *replication,
                    blocks: blocks.clone(),
                    mtime: *mtime,
                    owner: names.intern(self.names.resolve(*owner)),
                    permissions: *permissions,
                },
                INode::Free { .. } => unreachable!("free slot reachable from root"),
            };
            let new_id = u32::try_from(arena.len()).expect("inode arena overflow");
            arena.push(Entry {
                name: sym,
                parent: new_parent,
                node,
            });
            match &mut arena[new_parent as usize].node {
                INode::Dir { children, .. } => {
                    children.insert(sym, new_id);
                }
                _ => unreachable!("parent is a directory"),
            }
            self.push_children_sorted(old, new_id, &mut stack);
        }
        self.names = names;
        self.arena = arena;
        self.free_head = NIL;
    }

    /// Pushes `old`'s children onto the DFS stack in reverse name order
    /// (so they pop name-sorted), tagged with their new parent id.
    fn push_children_sorted(&self, old: u32, new_parent: u32, stack: &mut Vec<(u32, u32)>) {
        if let INode::Dir { children, .. } = &self.arena[old as usize].node {
            let mut kids: Vec<(&str, u32)> = children
                .iter()
                .map(|(sym, child)| (self.names.resolve(*sym), *child))
                .collect();
            kids.sort_unstable_by_key(|(name, _)| *name);
            for (_, child) in kids.into_iter().rev() {
                stack.push((child, new_parent));
            }
        }
    }

    /// Issues a delegation token for `owner`.
    pub fn issue_token(
        &mut self,
        owner: &str,
        renew_interval_ms: u64,
        max_lifetime_ms: u64,
    ) -> DelegationToken {
        self.tokens
            .issue(owner, self.clock_ms, renew_interval_ms, max_lifetime_ms)
    }

    /// Renews a delegation token; returns the new expiry.
    pub fn renew_token(&mut self, id: TokenId, renew_interval_ms: u64) -> Option<u64> {
        self.tokens.renew(id, self.clock_ms, renew_interval_ms)
    }

    /// Cancels a delegation token.
    pub fn cancel_token(&mut self, id: TokenId) -> bool {
        self.tokens.cancel(id)
    }
}

/// The ancestor holding `path`'s first `depth` components, as the
/// namespace names it (no authority). Error paths only.
fn partial(path: &HdfsPath, depth: usize) -> HdfsPath {
    path.components()
        .take(depth)
        .fold(HdfsPath::root(), |dir, comp| dir.join(comp))
}

/// Deterministically corrupts a payload: truncate to half and flip bits.
fn garble(data: &Bytes) -> Bytes {
    let garbled: Vec<u8> = data[..data.len() / 2].iter().map(|b| b ^ 0xA5).collect();
    Bytes::from(garbled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> HdfsPath {
        HdfsPath::parse(s).unwrap()
    }

    #[test]
    fn starts_in_safe_mode_until_datanodes_register() {
        let mut fs = MiniHdfs::new();
        assert!(fs.in_safe_mode());
        assert_eq!(fs.create(&p("/a"), b"x"), Err(HdfsError::SafeMode));
        fs.register_datanode(DataNodeId(0));
        assert!(!fs.in_safe_mode());
        assert!(fs.create(&p("/a"), b"x").is_ok());
    }

    #[test]
    fn create_read_round_trip() {
        let mut fs = MiniHdfs::with_datanodes(3);
        fs.create(&p("/data/file.txt"), b"hello world").unwrap();
        assert_eq!(
            fs.read(&p("/data/file.txt")).unwrap().as_ref(),
            b"hello world"
        );
        let st = fs.get_file_status(&p("/data/file.txt")).unwrap();
        assert_eq!(st.len, 11);
        assert!(!st.is_dir);
        // Parents are created implicitly.
        assert!(fs.get_file_status(&p("/data")).unwrap().is_dir);
    }

    #[test]
    fn compressed_files_report_minus_one_length() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.create_compressed(&p("/logs/app.gz"), b"compressed payload")
            .unwrap();
        let st = fs.get_file_status(&p("/logs/app.gz")).unwrap();
        assert_eq!(st.len, -1);
        assert!(st.properties.compressed);
        // The custom API reveals the physical length.
        assert_eq!(fs.stored_length(&p("/logs/app.gz")).unwrap(), 18);
        // And the content is still readable.
        assert_eq!(
            fs.read(&p("/logs/app.gz")).unwrap().as_ref(),
            b"compressed payload"
        );
    }

    #[test]
    fn create_rejects_duplicates_and_dirs() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.create(&p("/a/b"), b"1").unwrap();
        assert!(matches!(
            fs.create(&p("/a/b"), b"2"),
            Err(HdfsError::AlreadyExists(_))
        ));
        assert!(matches!(
            fs.create(&p("/a"), b"3"),
            Err(HdfsError::IsADirectory(_))
        ));
        // The error names the prefix that is in the way, not the request.
        assert_eq!(
            fs.mkdirs(&p("hdfs://nn:9000/a/b/c/d")),
            Err(HdfsError::NotADirectory(p("/a/b")))
        );
    }

    #[test]
    fn list_status_returns_children_only() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.create(&p("/d/x"), b"1").unwrap();
        fs.create(&p("/d/y"), b"22").unwrap();
        fs.create(&p("/d/sub/z"), b"333").unwrap();
        let names: Vec<String> = fs
            .list_status(&p("/d"))
            .unwrap()
            .iter()
            .map(|s| s.path.name().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["sub", "x", "y"]);
    }

    #[test]
    fn a_table_directory_lists_and_sorts_component_wise() {
        let mut fs = MiniHdfs::with_datanodes(1);
        let dir = p("hdfs://nn:9000/user/hive/warehouse/t");
        fs.create(&dir.join("part-00010.orc"), b"b").unwrap();
        fs.create(&dir.join("part-00002.orc"), b"a").unwrap();
        fs.create(&dir.join("sub").join("part-00001.orc"), b"c")
            .unwrap();
        // A sibling table whose name extends this one's with a byte below
        // `/`: raw text would sort it between `t` and `t/...`.
        fs.create(&p("/user/hive/warehouse/t-b/part-00003.orc"), b"d")
            .unwrap();
        let listed = fs.list_status(&dir).unwrap();
        let shown: Vec<(String, bool)> = listed
            .iter()
            .map(|s| (s.path.to_string(), s.is_dir))
            .collect();
        // Statuses carry the namespace's own (authority-free) paths.
        assert_eq!(
            shown,
            vec![
                ("/user/hive/warehouse/t/part-00002.orc".to_string(), false),
                ("/user/hive/warehouse/t/part-00010.orc".to_string(), false),
                ("/user/hive/warehouse/t/sub".to_string(), true),
            ]
        );
        // Sorting the paths (as `Metastore::table_data_files` does) keeps
        // the listing's order, and ranks by component, not by text.
        let mut paths: Vec<HdfsPath> = listed.into_iter().map(|s| s.path).collect();
        paths.push(p("/user/hive/warehouse/t-b"));
        paths.push(p("/user/hive/warehouse/t"));
        paths.sort();
        let sorted: Vec<String> = paths.iter().map(HdfsPath::to_string).collect();
        assert_eq!(
            sorted,
            vec![
                "/user/hive/warehouse/t",
                "/user/hive/warehouse/t/part-00002.orc",
                "/user/hive/warehouse/t/part-00010.orc",
                "/user/hive/warehouse/t/sub",
                "/user/hive/warehouse/t-b",
            ]
        );
    }

    #[test]
    fn rename_moves_subtrees() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.create(&p("/src/a/b"), b"1").unwrap();
        fs.rename(&p("/src"), &p("/dst")).unwrap();
        assert!(!fs.exists(&p("/src/a/b")));
        assert_eq!(fs.read(&p("/dst/a/b")).unwrap().as_ref(), b"1");
        assert!(matches!(
            fs.rename(&p("/nope"), &p("/x")),
            Err(HdfsError::FileNotFound(_))
        ));
    }

    #[test]
    fn rename_into_own_subtree_is_rejected() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.create(&p("/src/a/b"), b"1").unwrap();
        assert!(matches!(
            fs.rename(&p("/src"), &p("/src/inner")),
            Err(HdfsError::InvalidPath(_))
        ));
        // The namespace is untouched by the refused rename.
        assert_eq!(fs.read(&p("/src/a/b")).unwrap().as_ref(), b"1");
        assert!(!fs.exists(&p("/src/inner")));
        // Renaming onto itself is still the pre-existing AlreadyExists.
        assert!(matches!(
            fs.rename(&p("/src"), &p("/src")),
            Err(HdfsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn delete_requires_recursive_for_nonempty_dirs() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.create(&p("/d/x"), b"1").unwrap();
        assert!(matches!(
            fs.delete(&p("/d"), false),
            Err(HdfsError::DirectoryNotEmpty(_))
        ));
        fs.delete(&p("/d"), true).unwrap();
        assert!(!fs.exists(&p("/d")));
        assert!(!fs.exists(&p("/d/x")));
    }

    #[test]
    fn namespace_quota_is_enforced() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.mkdirs(&p("/q")).unwrap();
        fs.set_quota(&p("/q"), Some(2), None).unwrap();
        fs.create(&p("/q/a"), b"1").unwrap();
        fs.create(&p("/q/b"), b"2").unwrap();
        // The error names the directory whose quota is spent.
        assert!(matches!(
            fs.create(&p("/q/sub/c"), b"3"),
            Err(HdfsError::QuotaExceeded { dir, .. }) if dir == p("/q")
        ));
    }

    #[test]
    fn space_quota_is_enforced() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.mkdirs(&p("/q")).unwrap();
        fs.set_quota(&p("/q"), None, Some(10)).unwrap();
        fs.create(&p("/q/a"), b"12345").unwrap();
        assert!(matches!(
            fs.create(&p("/q/b"), b"123456"),
            Err(HdfsError::QuotaExceeded { .. })
        ));
        fs.create(&p("/q/b"), b"12345").unwrap();
    }

    #[test]
    fn quota_accounting_survives_rename_and_delete() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.mkdirs(&p("/q")).unwrap();
        fs.set_quota(&p("/q"), None, Some(10)).unwrap();
        fs.create(&p("/tmp/big"), b"123456789").unwrap();
        // The seed never quota-checked rename itself; the moved bytes are
        // only charged against subsequent writes.
        fs.rename(&p("/tmp/big"), &p("/q/big")).unwrap();
        assert!(matches!(
            fs.create(&p("/q/more"), b"xx"),
            Err(HdfsError::QuotaExceeded { .. })
        ));
        fs.delete(&p("/q/big"), false).unwrap();
        fs.create(&p("/q/more"), b"xx").unwrap();
    }

    #[test]
    fn blocks_split_by_block_size_and_replicate() {
        let mut fs = MiniHdfs::with_datanodes(3);
        let data = vec![7u8; 300];
        fs.create(&p("/big"), &data).unwrap();
        let blocks = fs.blocks(&p("/big")).unwrap();
        assert_eq!(blocks.len(), 3); // 128 + 128 + 44.
        assert_eq!(blocks[0].len, 128);
        assert_eq!(blocks[2].len, 44);
        for b in &blocks {
            assert_eq!(b.replicas.len(), 3);
        }
    }

    #[test]
    fn killing_a_datanode_loses_replicas() {
        let mut fs = MiniHdfs::with_datanodes(2);
        fs.create(&p("/f"), b"data").unwrap();
        fs.kill_datanode(DataNodeId(0));
        let blocks = fs.blocks(&p("/f")).unwrap();
        assert!(blocks.iter().all(|b| !b.replicas.contains(&DataNodeId(0))));
        assert_eq!(fs.live_datanodes(), 1);
    }

    #[test]
    fn empty_file_has_one_empty_block() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.create(&p("/empty"), b"").unwrap();
        let blocks = fs.blocks(&p("/empty")).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].len, 0);
        assert_eq!(fs.get_file_status(&p("/empty")).unwrap().len, 0);
    }

    #[test]
    fn append_extends_content_and_blocks() {
        let mut fs = MiniHdfs::with_datanodes(3);
        fs.create(&p("/log"), b"first ").unwrap();
        fs.append(&p("/log"), b"second").unwrap();
        assert_eq!(fs.read(&p("/log")).unwrap().as_ref(), b"first second");
        assert_eq!(fs.get_file_status(&p("/log")).unwrap().len, 12);
        // Appending to a missing file or a directory fails cleanly.
        assert!(matches!(
            fs.append(&p("/nope"), b"x"),
            Err(HdfsError::FileNotFound(_))
        ));
        fs.mkdirs(&p("/dir")).unwrap();
        assert!(matches!(
            fs.append(&p("/dir"), b"x"),
            Err(HdfsError::IsADirectory(_))
        ));
        // Appending past a block boundary allocates more blocks.
        let big = vec![1u8; 200];
        fs.append(&p("/log"), &big).unwrap();
        assert!(fs.blocks(&p("/log")).unwrap().len() >= 2);
    }

    #[test]
    fn append_respects_space_quota() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.mkdirs(&p("/q")).unwrap();
        fs.set_quota(&p("/q"), None, Some(10)).unwrap();
        fs.create(&p("/q/f"), b"12345").unwrap();
        assert!(fs.append(&p("/q/f"), b"12345").is_ok());
        assert!(matches!(
            fs.append(&p("/q/f"), b"x"),
            Err(HdfsError::QuotaExceeded { .. })
        ));
    }

    #[test]
    fn re_replication_heals_lost_replicas() {
        // Four nodes: replicas land on three of them; killing one leaves
        // the block under-replicated even though three nodes are live.
        let mut fs = MiniHdfs::with_datanodes(4);
        fs.create(&p("/f"), b"replicated data").unwrap();
        assert_eq!(fs.under_replicated_blocks(), 0);
        fs.kill_datanode(DataNodeId(1));
        assert!(fs.under_replicated_blocks() > 0);
        // A new node joins and the namenode re-replicates.
        fs.register_datanode(DataNodeId(9));
        let placed = fs.replicate_under_replicated();
        assert!(placed > 0);
        assert_eq!(fs.under_replicated_blocks(), 0);
        // Idempotent once healthy.
        assert_eq!(fs.replicate_under_replicated(), 0);
    }

    #[test]
    fn token_gated_read_honors_expiry() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.create(&p("/secure"), b"secret").unwrap();
        let token = fs.issue_token("spark", 1000, 5000);
        assert!(fs.read_with_token(&p("/secure"), token.id).is_ok());
        fs.advance_clock(1500);
        assert!(matches!(
            fs.read_with_token(&p("/secure"), token.id),
            Err(HdfsError::TokenInvalid { .. })
        ));
        // Renewal restores access (YARN-2790's intended flow).
        fs.renew_token(token.id, 1000).unwrap();
        assert!(fs.read_with_token(&p("/secure"), token.id).is_ok());
        fs.cancel_token(token.id);
        assert!(fs.read_with_token(&p("/secure"), token.id).is_err());
    }

    #[test]
    fn uri_and_plain_paths_address_the_same_file() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.create(&p("hdfs://nn:9000/x/y"), b"1").unwrap();
        assert_eq!(fs.read(&p("/x/y")).unwrap().as_ref(), b"1");
    }

    /// Full observable snapshot of a subtree: statuses, listings, content.
    fn snapshot(fs: &MiniHdfs, dir: &HdfsPath) -> Vec<(String, FileStatus, Option<Vec<u8>>)> {
        let mut out = Vec::new();
        let mut stack = vec![dir.clone()];
        while let Some(d) = stack.pop() {
            for st in fs.list_status(&d).unwrap() {
                let content = if st.is_dir {
                    stack.push(st.path.clone());
                    None
                } else {
                    Some(fs.read(&st.path).unwrap().to_vec())
                };
                out.push((st.path.to_string(), st.clone(), content));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    #[test]
    fn vacuum_preserves_namespace_and_compacts_interner() {
        let mut fs = MiniHdfs::with_datanodes(3);
        for i in 0..20 {
            fs.create(&p(&format!("/warehouse/t{i}/part-{i}.orc")), b"rows")
                .unwrap();
        }
        fs.mkdirs(&p("/q")).unwrap();
        fs.set_quota(&p("/q"), Some(5), Some(100)).unwrap();
        fs.create(&p("/q/kept"), b"abc").unwrap();
        for i in 0..15 {
            fs.delete(&p(&format!("/warehouse/t{i}")), true).unwrap();
        }
        let before = snapshot(&fs, &HdfsPath::root());
        let names_before = fs.interned_names();
        let inodes = fs.inode_count();
        fs.vacuum();
        assert_eq!(snapshot(&fs, &HdfsPath::root()), before);
        assert_eq!(fs.inode_count(), inodes);
        // Names referenced only by deleted inodes are gone.
        assert!(fs.interned_names() < names_before);
        // Quotas survive: /q (max 5 names, 1 used) still enforces.
        fs.create(&p("/q/a"), b"1").unwrap();
        fs.create(&p("/q/b"), b"2").unwrap();
        fs.create(&p("/q/c"), b"3").unwrap();
        fs.create(&p("/q/d"), b"4").unwrap();
        assert!(matches!(
            fs.create(&p("/q/e"), b"5"),
            Err(HdfsError::QuotaExceeded { .. })
        ));
        // Vacuum is idempotent.
        fs.vacuum();
        let again = snapshot(&fs, &HdfsPath::root());
        fs.vacuum();
        assert_eq!(snapshot(&fs, &HdfsPath::root()), again);
    }

    #[test]
    fn interner_holds_distinct_names_not_one_per_file() {
        // 100 directories, each with the same 100 file names.
        let (dirs, files_per_dir) = (100, 100);
        let mut fs = MiniHdfs::with_datanodes(3);
        for d in 0..dirs {
            let dir = p(&format!("/warehouse/db{d}"));
            for f in 0..files_per_dir {
                fs.create(&dir.join(&format!("part-{f:05}.orc")), b"orcdata!")
                    .unwrap();
            }
        }
        assert_eq!(fs.inode_count(), (1 + dirs + dirs * files_per_dir) as u64);
        // Directory and file names plus a handful of constants (owner
        // strings and the like) — not proportional to the file count.
        assert!(
            fs.interned_names() <= dirs + files_per_dir + 16,
            "{} names interned",
            fs.interned_names()
        );
    }

    #[test]
    fn vacuum_state_is_history_independent() {
        // Two different operation histories that converge to the same live
        // namespace must converge to the same internal layout after vacuum.
        let mut a = MiniHdfs::with_datanodes(1);
        a.create(&p("/x/one"), b"1").unwrap();
        a.create(&p("/y/two"), b"2").unwrap();
        let mut b = MiniHdfs::with_datanodes(1);
        b.create(&p("/zebra/tmp"), b"t").unwrap();
        b.create(&p("/y/two"), b"2").unwrap();
        b.delete(&p("/zebra"), true).unwrap();
        b.create(&p("/x/one"), b"1").unwrap();
        a.vacuum();
        b.vacuum();
        assert_eq!(a.interned_names(), b.interned_names());
        assert_eq!(a.inode_count(), b.inode_count());
        assert_eq!(
            snapshot(&a, &HdfsPath::root()),
            snapshot(&b, &HdfsPath::root())
        );
    }

    #[test]
    fn freed_inode_slots_are_reused() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.create(&p("/a"), b"1").unwrap();
        let count = fs.inode_count();
        for _ in 0..100 {
            fs.create(&p("/tmp/scratch"), b"x").unwrap();
            fs.delete(&p("/tmp"), true).unwrap();
        }
        assert_eq!(fs.inode_count(), count);
        // The arena recycles slots rather than growing per churn cycle:
        // 1 live file + root + at most the churn pair.
        assert!(fs.arena.len() <= 4);
    }
}
