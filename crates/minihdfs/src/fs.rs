//! The minihdfs namenode and datanode fleet.
//!
//! The namespace is a tree of names: the root directory owns its children
//! in a name-keyed `BTreeMap`, and so on down. Resolution and rename are
//! O(depth), a listing is O(children) and comes out name-sorted. A
//! directory's quota usage is not stored: a quota check weighs the
//! subtree of each ancestor that carries a quota, and only those.
//!
//! The tree is a function of the live namespace alone — no ids, slots or
//! symbols — so two namenodes holding the same files are the same, and
//! nothing observable (statuses, listings, errors, traces) can depend on
//! the history that built them.

use crate::error::HdfsError;
use crate::path::HdfsPath;
use crate::token::{DelegationToken, TokenCheck, TokenId, TokenRegistry};
use csi_core::boundary::{BoundaryCall, CrossingContext};
use csi_core::fault::{Channel, FaultKind, FaultPoint};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;

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

/// The least spare capacity of a writer's buffer that a create hands
/// back to the allocator.
const SPARE_PAGE: usize = 4096;

/// How many datanodes every file's blocks are placed on: the replication
/// factor, and so the most replicas a block ever holds.
const REPLICATION: usize = 3;

/// The datanodes holding one block's replicas, in placement order: at most
/// [`REPLICATION`] of them, stored inline.
#[derive(Debug, Clone, Copy)]
struct Replicas {
    nodes: [DataNodeId; REPLICATION],
    count: u8,
}

impl Deref for Replicas {
    type Target = [DataNodeId];

    fn deref(&self) -> &[DataNodeId] {
        &self.nodes[..usize::from(self.count)]
    }
}

impl Replicas {
    const NONE: Replicas = Replicas {
        nodes: [DataNodeId(0); REPLICATION],
        count: 0,
    };

    /// Adds `id` last. Every caller stops at the replication factor, so
    /// the set is never full here.
    fn push(&mut self, id: DataNodeId) {
        self.nodes[usize::from(self.count)] = id;
        self.count += 1;
    }

    /// Removes `id`, keeping the others in order.
    fn remove(&mut self, id: DataNodeId) {
        let mut kept = Replicas::NONE;
        for &node in self.iter() {
            if node != id {
                kept.push(node);
            }
        }
        *self = kept;
    }
}

/// One block of a file as the namenode stores it. It owns no heap memory,
/// so a file's block list is one allocation; [`MiniHdfs::blocks`] renders
/// it as [`BlockInfo`]s.
#[derive(Debug, Clone, Copy)]
struct Block {
    id: u64,
    len: u64,
    replicas: Replicas,
}

// A block record stays `Copy`, so it can never own heap memory.
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<Block>()
};

impl Block {
    fn info(&self) -> BlockInfo {
        BlockInfo {
            id: self.id,
            len: self.len,
            replicas: self.replicas.to_vec(),
        }
    }
}

/// A whole file as a read delivers it: the namenode's stored bytes, lent
/// for as long as the filesystem is borrowed, or an owned copy when an
/// injected fault garbled it on the wire.
///
/// Debug-renders as a byte string literal (`b"…"`, ASCII-escaped).
#[derive(Clone, PartialEq, Eq)]
pub struct FileBytes<'a>(Cow<'a, [u8]>);

impl Deref for FileBytes<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for FileBytes<'_> {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for FileBytes<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("b\"")?;
        for &b in self.iter() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        f.write_str("\"")
    }
}

/// A directory quota: caps on the inodes and the file bytes strictly
/// under it.
#[derive(Debug)]
struct Quota {
    max_namespace: Option<u64>,
    max_space: Option<u64>,
}

/// One namespace entry. A directory owns its children, keyed by name, so
/// the namespace is one tree and a listing iterates in name order.
#[derive(Debug)]
enum Node {
    Dir {
        children: BTreeMap<String, Node>,
        quota: Option<Quota>,
        mtime: u64,
    },
    File {
        /// The buffer the writer handed over, or a copy of a borrowed one.
        data: Vec<u8>,
        props: FileProperties,
        blocks: Vec<Block>,
        mtime: u64,
        owner: String,
        permissions: u16,
    },
}

impl Node {
    fn dir(mtime: u64) -> Node {
        Node::Dir {
            children: BTreeMap::new(),
            quota: None,
            mtime,
        }
    }

    fn child(&self, name: &str) -> Option<&Node> {
        match self {
            Node::Dir { children, .. } => children.get(name),
            Node::File { .. } => None,
        }
    }

    fn child_mut(&mut self, name: &str) -> Option<&mut Node> {
        match self {
            Node::Dir { children, .. } => children.get_mut(name),
            Node::File { .. } => None,
        }
    }

    /// (inodes including this one, file bytes) of the subtree. Walks it:
    /// only a quota check asks, and only for a directory with a quota.
    fn weight(&self) -> (u64, u64) {
        match self {
            Node::File { data, .. } => (1, data.len() as u64),
            Node::Dir { children, .. } => children
                .values()
                .map(Node::weight)
                .fold((1, 0), |(nodes, bytes), (n, b)| (nodes + n, bytes + b)),
        }
    }

    /// Calls `visit` with every file's block list.
    fn visit_files(&self, visit: &mut impl FnMut(&[Block])) {
        match self {
            Node::Dir { children, .. } => children.values().for_each(|c| c.visit_files(visit)),
            Node::File { blocks, .. } => visit(blocks),
        }
    }

    /// [`visit_files`](Node::visit_files), with the blocks mutable.
    fn visit_files_mut(&mut self, visit: &mut impl FnMut(&mut [Block])) {
        match self {
            Node::Dir { children, .. } => {
                children.values_mut().for_each(|c| c.visit_files_mut(visit))
            }
            Node::File { blocks, .. } => visit(blocks),
        }
    }
}

/// The in-memory HDFS cluster: one namenode plus registered datanodes.
///
/// Time does not advance on its own; callers drive the clock via
/// [`MiniHdfs::advance_clock`], which keeps token-expiry scenarios
/// deterministic.
#[derive(Debug)]
pub struct MiniHdfs {
    /// The root directory `/`; always a [`Node::Dir`].
    root: Node,
    /// Whether any directory has ever been given a quota. Until one has,
    /// a quota check has no ancestor to weigh and walks nothing.
    any_quota: bool,
    datanodes: BTreeMap<DataNodeId, bool>, // true = live
    tokens: TokenRegistry,
    clock_ms: u64,
    safe_mode: bool,
    min_live_datanodes: usize,
    block_size: u64,
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
        MiniHdfs {
            root: Node::dir(0),
            any_quota: false,
            datanodes: BTreeMap::new(),
            tokens: TokenRegistry::default(),
            clock_ms: 0,
            safe_mode: true,
            min_live_datanodes: 1,
            block_size: 128,
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
        cross(&self.crossing, op, path)
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
        self.root.visit_files_mut(&mut |blocks| {
            for b in blocks {
                b.replicas.remove(id);
            }
        });
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

    /// The node at `path`: O(depth) map lookups. `None` if any component
    /// is missing or crosses a file.
    fn resolve(&self, path: &HdfsPath) -> Option<&Node> {
        path.components()
            .try_fold(&self.root, |node, comp| node.child(comp))
    }

    /// [`resolve`](MiniHdfs::resolve), mutably.
    fn resolve_mut(&mut self, path: &HdfsPath) -> Option<&mut Node> {
        path.components()
            .try_fold(&mut self.root, |node, comp| node.child_mut(comp))
    }

    /// The child map of the directory holding `path`'s first `depth`
    /// components, which the caller has just checked is a directory.
    fn dir_mut(&mut self, path: &HdfsPath, depth: usize) -> &mut BTreeMap<String, Node> {
        let dir = path
            .components()
            .take(depth)
            .try_fold(&mut self.root, |node, comp| node.child_mut(comp));
        match dir {
            Some(Node::Dir { children, .. }) => children,
            _ => unreachable!("the caller checked the directory exists"),
        }
    }

    /// The child map of the directory holding non-root `path`, and
    /// `path`'s name in it.
    fn parent_mut<'p>(&mut self, path: &'p HdfsPath) -> (&mut BTreeMap<String, Node>, &'p str) {
        let depth = path.components().count() - 1;
        let name = path.name().expect("non-root path has a name");
        (self.dir_mut(path, depth), name)
    }

    /// Creates a directory and any missing ancestors, in one walk from
    /// the root.
    pub fn mkdirs(&mut self, path: &HdfsPath) -> Result<(), HdfsError> {
        self.cross("mkdirs", path)?;
        self.check_mutable()?;
        let depth = path.components().count();
        let walk = Walk::descend(&mut self.root, path, depth, self.any_quota);
        if let Some(at) = walk.blocked {
            return Err(HdfsError::NotADirectory(partial(path, at)));
        }
        walk.make_dirs(path, depth, self.clock_ms).map(drop)
    }

    /// Writes a whole file with default properties, creating parents.
    ///
    /// An owned `Vec<u8>` is stored as it is; a borrowed slice is copied
    /// once.
    pub fn create<'d>(
        &mut self,
        path: &HdfsPath,
        data: impl Into<Cow<'d, [u8]>>,
    ) -> Result<(), HdfsError> {
        self.create_with(path, data, FileProperties::default(), "hdfs", 0o644)
    }

    /// Writes a compressed file: content stored as-is, but the status
    /// reports length `-1`.
    pub fn create_compressed<'d>(
        &mut self,
        path: &HdfsPath,
        data: impl Into<Cow<'d, [u8]>>,
    ) -> Result<(), HdfsError> {
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
    ///
    /// One walk from the root: it checks the target, and the parent's
    /// missing directories are made from where it stopped. Making them is
    /// the parent's `mkdirs`, so a create crosses `create`, then `mkdirs`
    /// of the parent, as a client's two RPCs would.
    ///
    /// The file keeps the writer's buffer: an owned `Vec<u8>` is stored
    /// as it is, less a spare capacity of a page or more, and a borrowed
    /// slice is copied once.
    pub fn create_with<'d>(
        &mut self,
        path: &HdfsPath,
        data: impl Into<Cow<'d, [u8]>>,
        props: FileProperties,
        owner: &str,
        permissions: u16,
    ) -> Result<(), HdfsError> {
        let data = data.into();
        self.cross("create", path)?;
        self.check_mutable()?;
        let Some(name) = path.name() else {
            return Err(HdfsError::IsADirectory(path.clone()));
        };
        let live = self.live_datanodes();
        let depth = path.components().count() - 1;
        let mut walk = Walk::descend(&mut self.root, path, depth, self.any_quota);
        if walk.reached == depth {
            match walk.children().get(name) {
                Some(Node::Dir { .. }) => return Err(HdfsError::IsADirectory(path.clone())),
                Some(Node::File { .. }) => return Err(HdfsError::AlreadyExists(path.clone())),
                None => {}
            }
        }
        if live == 0 {
            return Err(HdfsError::InsufficientReplication {
                wanted: REPLICATION as u32,
                live: 0,
            });
        }
        cross(&self.crossing, "mkdirs", path.parent_display())?;
        if let Some(at) = walk.blocked {
            return Err(HdfsError::NotADirectory(partial(path, at)));
        }
        let mut walk = walk.make_dirs(path, depth, self.clock_ms)?;
        walk.check_namespace(path)?;
        walk.check_space(path, data.len() as u64)?;
        let mut blocks = Vec::new();
        allocate_blocks(
            &mut blocks,
            &mut self.next_block_id,
            &self.datanodes,
            self.block_size,
            data.len() as u64,
        );
        let mut data = data.into_owned();
        // An encoder sizes its buffer by a bound: hand a page or more of
        // spare capacity back. A smaller tail is not worth splitting the
        // allocation for.
        if data.capacity() - data.len() >= SPARE_PAGE {
            data.shrink_to_fit();
        }
        let file = Node::File {
            data,
            props,
            blocks,
            mtime: self.clock_ms,
            owner: owner.to_string(),
            permissions,
        };
        walk.children().insert(name.to_string(), file);
        Ok(())
    }

    /// Appends bytes to an existing file, extending its block layout. Like
    /// [`MiniHdfs::create`], it refuses when no datanode is live, and the
    /// file is left as it was.
    pub fn append(&mut self, path: &HdfsPath, data: &[u8]) -> Result<(), HdfsError> {
        self.check_mutable()?;
        let live = self.live_datanodes();
        let depth = path.components().count();
        let mut walk = Walk::descend(&mut self.root, path, depth, self.any_quota);
        let name = match (walk.blocked, path.name()) {
            (Some(at), Some(name)) if at == depth => name,
            _ if walk.reached == depth => return Err(HdfsError::IsADirectory(path.clone())),
            _ => return Err(HdfsError::FileNotFound(path.clone())),
        };
        if live == 0 {
            return Err(HdfsError::InsufficientReplication {
                wanted: REPLICATION as u32,
                live: 0,
            });
        }
        walk.check_space(path, data.len() as u64)?;
        let Some(Node::File {
            data: existing,
            blocks,
            mtime,
            ..
        }) = walk.children().get_mut(name)
        else {
            unreachable!("the walk stopped at this file");
        };
        existing.extend_from_slice(data);
        // Drop a trailing empty block left by an empty create.
        if blocks.len() == 1 && blocks[0].len == 0 && !data.is_empty() {
            blocks.clear();
        }
        allocate_blocks(
            blocks,
            &mut self.next_block_id,
            &self.datanodes,
            self.block_size,
            data.len() as u64,
        );
        *mtime = self.clock_ms;
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
        let target = REPLICATION.min(live.len());
        self.root.visit_files_mut(&mut |blocks| {
            for b in blocks {
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
        });
        placed
    }

    /// Reads a whole file.
    ///
    /// Under an injected [`FaultKind::CorruptPayload`] the read *succeeds*
    /// but delivers deterministically garbled bytes — corruption on the
    /// wire is invisible to the namenode, so it is the caller's
    /// deserializer that has to notice.
    ///
    /// A clean read lends the stored bytes; only the garbled one is a copy.
    pub fn read(&self, path: &HdfsPath) -> Result<FileBytes<'_>, HdfsError> {
        if let Some(ctx) = &self.crossing {
            let call =
                BoundaryCall::new(Channel::Hdfs, "read").with_payload_fmt(format_args!("{path}"));
            if let Some(fault) = ctx.intercept(call) {
                if fault.kind == FaultKind::CorruptPayload {
                    let clean = self.read_inode(path)?;
                    return Ok(FileBytes(Cow::Owned(garble(clean))));
                }
                return Err(HdfsError::materialize(&fault));
            }
        }
        self.read_inode(path)
            .map(|data| FileBytes(Cow::Borrowed(data)))
    }

    fn read_inode(&self, path: &HdfsPath) -> Result<&[u8], HdfsError> {
        match self.resolve(path) {
            None => Err(HdfsError::FileNotFound(path.clone())),
            Some(Node::Dir { .. }) => Err(HdfsError::IsADirectory(path.clone())),
            Some(Node::File { data, .. }) => Ok(data),
        }
    }

    /// Reads a whole file, verifying a delegation token first.
    pub fn read_with_token(
        &self,
        path: &HdfsPath,
        token: TokenId,
    ) -> Result<FileBytes<'_>, HdfsError> {
        match self.tokens.check(token, self.clock_ms) {
            TokenCheck::Valid => self.read(path),
            TokenCheck::Expired { expired_at } => Err(HdfsError::TokenInvalid {
                reason: format!(
                    "token expired at t={expired_at}ms (now t={}ms)",
                    self.clock_ms
                ),
            }),
            TokenCheck::Unknown => Err(HdfsError::TokenInvalid {
                reason: "unknown token".to_string(),
            }),
        }
    }

    /// Returns the status of a path.
    pub fn get_file_status(&self, path: &HdfsPath) -> Result<FileStatus, HdfsError> {
        match self.resolve(path) {
            None => Err(HdfsError::FileNotFound(path.clone())),
            Some(node) => Ok(status_of(node, path.without_authority())),
        }
    }

    /// The physical stored length, regardless of compression — the custom
    /// API an informed upstream must use instead of [`FileStatus::len`].
    pub fn stored_length(&self, path: &HdfsPath) -> Result<u64, HdfsError> {
        match self.resolve(path) {
            None => Err(HdfsError::FileNotFound(path.clone())),
            Some(Node::Dir { .. }) => Err(HdfsError::IsADirectory(path.clone())),
            Some(Node::File { data, .. }) => Ok(data.len() as u64),
        }
    }

    /// Lists the immediate children of a directory, sorted by name.
    pub fn list_status(&self, path: &HdfsPath) -> Result<Vec<FileStatus>, HdfsError> {
        self.cross("list_status", path)?;
        match self.resolve(path) {
            None => Err(HdfsError::FileNotFound(path.clone())),
            Some(Node::File { .. }) => Err(HdfsError::NotADirectory(path.clone())),
            Some(Node::Dir { children, .. }) => Ok(children
                .iter()
                .map(|(name, child)| status_of(child, path.bare_child(name)))
                .collect()),
        }
    }

    /// The files directly under `dir`, name-sorted, as the namespace names
    /// them: the file entries of a [`list_status`](MiniHdfs::list_status),
    /// paths only, in one walk. A `dir` that does not exist has no files,
    /// and asking crosses nothing; otherwise this crosses as `list_status`.
    pub fn list_files(&self, dir: &HdfsPath) -> Result<Vec<HdfsPath>, HdfsError> {
        let Some(node) = self.resolve(dir) else {
            return Ok(Vec::new());
        };
        self.cross("list_status", dir)?;
        match node {
            Node::File { .. } => Err(HdfsError::NotADirectory(dir.clone())),
            Node::Dir { children, .. } => Ok(children
                .iter()
                .filter(|(_, child)| matches!(child, Node::File { .. }))
                .map(|(name, _)| dir.bare_child(name))
                .collect()),
        }
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &HdfsPath) -> bool {
        self.resolve(path).is_some()
    }

    /// Renames a file or directory (and its subtree): the subtree leaves
    /// one child map and enters another, O(depth).
    ///
    /// Renaming a path *into its own subtree* is rejected with
    /// [`HdfsError::InvalidPath`] (the seed's flat-map prefix rewrite
    /// silently corrupted the namespace on that input).
    pub fn rename(&mut self, from: &HdfsPath, to: &HdfsPath) -> Result<(), HdfsError> {
        self.check_mutable()?;
        if self.resolve(from).is_none() {
            return Err(HdfsError::FileNotFound(from.clone()));
        }
        if self.resolve(to).is_some() {
            return Err(HdfsError::AlreadyExists(to.clone()));
        }
        if to.components().count() > from.components().count() && to.starts_with(from) {
            return Err(HdfsError::InvalidPath(format!(
                "cannot rename {from} into its own subtree {to}"
            )));
        }
        // `to` is missing, so it is not the root, and neither is `from`:
        // every path is in the root's subtree.
        self.mkdirs(&to.parent().expect("root target already exists"))?;
        let (dir, name) = self.parent_mut(from);
        let moved = dir.remove(name).expect("resolved above");
        let (dir, name) = self.parent_mut(to);
        dir.insert(name.to_string(), moved);
        Ok(())
    }

    /// Deletes a path, in one walk; directories require `recursive` unless
    /// empty.
    pub fn delete(&mut self, path: &HdfsPath, recursive: bool) -> Result<(), HdfsError> {
        self.cross("delete", path)?;
        self.check_mutable()?;
        match Slot::find(&mut self.root, path) {
            Some(slot) => slot.remove(path, recursive),
            None => Err(HdfsError::FileNotFound(path.clone())),
        }
    }

    /// Deletes `path` if it exists, in one walk, and says whether it did. A
    /// missing path crosses nothing: this is a client's `exists` and then
    /// its `delete`.
    pub fn delete_if_exists(
        &mut self,
        path: &HdfsPath,
        recursive: bool,
    ) -> Result<bool, HdfsError> {
        // Judged before the walk borrows the tree, returned after the
        // crossing, as `delete` orders them.
        let mutable = self.check_mutable();
        let Some(slot) = Slot::find(&mut self.root, path) else {
            return Ok(false);
        };
        cross(&self.crossing, "delete", path)?;
        mutable?;
        slot.remove(path, recursive).map(|()| true)
    }

    /// Sets a namespace/space quota on a directory.
    pub fn set_quota(
        &mut self,
        dir: &HdfsPath,
        max_namespace: Option<u64>,
        max_space: Option<u64>,
    ) -> Result<(), HdfsError> {
        match self.resolve_mut(dir) {
            None => Err(HdfsError::FileNotFound(dir.clone())),
            Some(Node::File { .. }) => Err(HdfsError::NotADirectory(dir.clone())),
            Some(Node::Dir { quota, .. }) => {
                *quota = Some(Quota {
                    max_namespace,
                    max_space,
                });
                self.any_quota = true;
                Ok(())
            }
        }
    }

    /// Block layout of a file.
    pub fn blocks(&self, path: &HdfsPath) -> Result<Vec<BlockInfo>, HdfsError> {
        match self.resolve(path) {
            None => Err(HdfsError::FileNotFound(path.clone())),
            Some(Node::Dir { .. }) => Err(HdfsError::IsADirectory(path.clone())),
            Some(Node::File { blocks, .. }) => Ok(blocks.iter().map(Block::info).collect()),
        }
    }

    /// Number of blocks whose live replica count is below the achievable
    /// target (the replication factor, capped by live datanodes).
    pub fn under_replicated_blocks(&self) -> usize {
        let target = REPLICATION.min(self.live_datanodes());
        let mut under = 0;
        self.root.visit_files(&mut |blocks| {
            under += blocks.iter().filter(|b| b.replicas.len() < target).count();
        });
        under
    }

    /// Does nothing: the namespace is a tree of names with no layout to
    /// compact, so it is a function of the live files alone. Kept so
    /// callers that time a recycle step still compile.
    pub fn vacuum(&mut self) {}

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
}

/// Renders the status of `node`, under the given absolute path.
fn status_of(node: &Node, path: HdfsPath) -> FileStatus {
    match node {
        Node::Dir { mtime, .. } => FileStatus {
            path,
            is_dir: true,
            len: 0,
            replication: 0,
            modification_time: *mtime,
            owner: "hdfs".to_string(),
            permissions: 0o755,
            properties: FileProperties::default(),
        },
        Node::File {
            data,
            props,
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
            replication: REPLICATION as u32,
            modification_time: *mtime,
            owner: owner.clone(),
            permissions: *permissions,
            properties: *props,
        },
    }
}

/// The file-operation boundary crossing at the entry of `op`, over the
/// crossing field alone, so a walk may hold the tree meanwhile.
fn cross(
    crossing: &Option<CrossingContext>,
    op: &'static str,
    path: impl fmt::Display,
) -> Result<(), HdfsError> {
    match crossing {
        Some(ctx) => {
            ctx.cross(BoundaryCall::new(Channel::Hdfs, op).with_payload_fmt(format_args!("{path}")))
        }
        None => Ok(()),
    }
}

/// A quota directory a walk passed, and its weight then.
struct Passed {
    depth: usize,
    max_namespace: Option<u64>,
    max_space: Option<u64>,
    nodes: u64,
    bytes: u64,
}

/// One walk down from the root along a path: the deepest directory it
/// reached, and what stopped it.
struct Walk<'t> {
    /// The deepest directory reached; always a [`Node::Dir`].
    dir: &'t mut Node,
    /// How many of the path's components lead to `dir`.
    reached: usize,
    /// The depth of the component that names a file, when one stopped the
    /// walk.
    blocked: Option<usize>,
    /// The directories passed that carry a quota, root first. Empty until
    /// some directory has been given one, so no weight is taken before.
    quotas: Vec<Passed>,
    /// Directories this walk has made under them since.
    added: u64,
}

impl<'t> Walk<'t> {
    /// Walks `path`'s first `depth` components while they name
    /// directories, weighing each quota directory on the way when
    /// `any_quota`.
    fn descend(root: &'t mut Node, path: &HdfsPath, depth: usize, any_quota: bool) -> Walk<'t> {
        let (mut dir, mut reached, mut blocked, mut quotas) = (root, 0, None, Vec::new());
        let mut comps = path.components().take(depth);
        loop {
            if let (true, Node::Dir { quota: Some(q), .. }) = (any_quota, &*dir) {
                let (nodes, bytes) = dir.weight();
                quotas.push(Passed {
                    depth: reached,
                    max_namespace: q.max_namespace,
                    max_space: q.max_space,
                    nodes,
                    bytes,
                });
            }
            let Some(comp) = comps.next() else {
                break;
            };
            match dir.child(comp) {
                Some(Node::Dir { .. }) => dir = dir.child_mut(comp).expect("found above"),
                Some(Node::File { .. }) => {
                    blocked = Some(reached + 1);
                    break;
                }
                None => break,
            }
            reached += 1;
        }
        Walk {
            dir,
            reached,
            blocked,
            quotas,
            added: 0,
        }
    }

    fn children(&mut self) -> &mut BTreeMap<String, Node> {
        match self.dir {
            Node::Dir { children, .. } => children,
            Node::File { .. } => unreachable!("a walk stops on a directory"),
        }
    }

    fn into_children(self) -> &'t mut BTreeMap<String, Node> {
        match self.dir {
            Node::Dir { children, .. } => children,
            Node::File { .. } => unreachable!("a walk stops on a directory"),
        }
    }

    /// Makes the directories for `path`'s components from where the walk
    /// stopped to `depth`, checking the namespace quota before each, and
    /// walks on into the last. The walk must not be blocked.
    fn make_dirs(
        mut self,
        path: &HdfsPath,
        depth: usize,
        mtime: u64,
    ) -> Result<Walk<'t>, HdfsError> {
        for comp in path.components().take(depth).skip(self.reached) {
            self.check_namespace(path)?;
            let Node::Dir { children, .. } = self.dir else {
                unreachable!("a walk stops on a directory");
            };
            self.dir = children.entry(comp.to_string()).or_insert(Node::dir(mtime));
            self.reached += 1;
            self.added += 1;
        }
        Ok(self)
    }

    /// The namespace quota of every directory passed, root first, before
    /// one inode is added under the deepest.
    fn check_namespace(&self, path: &HdfsPath) -> Result<(), HdfsError> {
        for q in &self.quotas {
            let Some(max) = q.max_namespace else {
                continue;
            };
            // The weight counts the directory itself, where the quota
            // counts the one inode about to be added instead.
            if q.nodes + self.added > max {
                return Err(HdfsError::QuotaExceeded {
                    dir: partial(path, q.depth),
                    detail: format!("namespace quota {max} reached"),
                });
            }
        }
        Ok(())
    }

    /// The space quota of every directory passed, root first, before
    /// `add_bytes` are added under the deepest.
    fn check_space(&self, path: &HdfsPath, add_bytes: u64) -> Result<(), HdfsError> {
        for q in &self.quotas {
            let Some(max) = q.max_space else {
                continue;
            };
            if q.bytes + add_bytes > max {
                return Err(HdfsError::QuotaExceeded {
                    dir: partial(path, q.depth),
                    detail: format!("space quota {max} bytes would be exceeded"),
                });
            }
        }
        Ok(())
    }
}

/// Where an existing node lives: the map that holds it and its name
/// there. The root lives in no map: it is its own children, unnamed.
struct Slot<'t, 'p> {
    map: &'t mut BTreeMap<String, Node>,
    name: Option<&'p str>,
}

impl<'t, 'p> Slot<'t, 'p> {
    /// One walk to `path`'s parent; `None` when `path` does not exist.
    fn find(root: &'t mut Node, path: &'p HdfsPath) -> Option<Slot<'t, 'p>> {
        let Some(name) = path.name() else {
            let map = Walk::descend(root, path, 0, false).into_children();
            return Some(Slot { map, name: None });
        };
        let depth = path.components().count() - 1;
        let walk = Walk::descend(root, path, depth, false);
        if walk.reached < depth {
            return None;
        }
        let map = walk.into_children();
        map.contains_key(name).then_some(Slot {
            map,
            name: Some(name),
        })
    }

    /// Removes the node; a directory with children needs `recursive`.
    /// Removing the root empties the namespace but keeps the root.
    fn remove(self, path: &HdfsPath, recursive: bool) -> Result<(), HdfsError> {
        let non_empty = match self.name {
            None => !self.map.is_empty(),
            Some(name) => {
                matches!(self.map.get(name), Some(Node::Dir { children, .. }) if !children.is_empty())
            }
        };
        if non_empty && !recursive {
            return Err(HdfsError::DirectoryNotEmpty(path.clone()));
        }
        match self.name {
            None => self.map.clear(),
            Some(name) => {
                self.map.remove(name);
            }
        }
        Ok(())
    }
}

/// Splits `len` bytes into blocks of `block_size` numbered from
/// `next_id`, and appends them to `blocks` in one allocation, placing
/// each round-robin on up to [`REPLICATION`] of the live datanodes, in id
/// order.
fn allocate_blocks(
    blocks: &mut Vec<Block>,
    next_id: &mut u64,
    datanodes: &BTreeMap<DataNodeId, bool>,
    block_size: u64,
    len: u64,
) {
    let live = datanodes.iter().filter(|(_, l)| **l).map(|(id, _)| *id);
    let nodes = live.clone().count();
    let copies = REPLICATION.min(nodes);
    let start = blocks.len();
    blocks.reserve_exact(len.div_ceil(block_size).max(1) as usize);
    let mut remaining = len;
    loop {
        let cursor = blocks.len() - start;
        // Placement repeats every `nodes` blocks: copy the block that far
        // back, and walk the datanodes only for the first round.
        let replicas = if nodes > 0 && cursor >= nodes {
            blocks[start + cursor - nodes].replicas
        } else {
            let mut replicas = Replicas::NONE;
            live.clone()
                .cycle()
                .skip(cursor % nodes.max(1))
                .take(copies)
                .for_each(|id| replicas.push(id));
            replicas
        };
        blocks.push(Block {
            id: *next_id,
            len: remaining.min(block_size),
            replicas,
        });
        *next_id += 1;
        if remaining <= block_size {
            return;
        }
        remaining -= block_size;
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
fn garble(data: &[u8]) -> Vec<u8> {
    data[..data.len() / 2].iter().map(|b| b ^ 0xA5).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csi_core::fault::{FaultSpec, Trigger};
    use proptest::prelude::*;

    /// The multi-walk `mkdirs`, `create_with`, `append` and `delete` the
    /// one-walk versions replaced, and the `exists`-then-call pairs behind
    /// `delete_if_exists` and `list_files`: the reference the
    /// equivalence property holds them to.
    mod reference {
        use super::super::*;

        trait Quotas {
            fn quota_dirs<'a>(
                &'a self,
                path: &'a HdfsPath,
            ) -> impl Iterator<Item = (usize, &'a Node, &'a Quota)>;
            fn check_namespace_quota(&self, path: &HdfsPath) -> Result<(), HdfsError>;
            fn check_space_quota(&self, path: &HdfsPath, add_bytes: u64) -> Result<(), HdfsError>;
        }

        impl Quotas for MiniHdfs {
            /// The directories on `path` that carry a quota, root first, each
            /// with its depth (how many of `path`'s components it holds). Walks
            /// nothing until some directory has been given a quota.
            fn quota_dirs<'a>(
                &'a self,
                path: &'a HdfsPath,
            ) -> impl Iterator<Item = (usize, &'a Node, &'a Quota)> {
                let mut comps = path.components();
                let walk = self.any_quota.then(|| {
                    std::iter::successors(Some(&self.root), move |node| node.child(comps.next()?))
                });
                walk.into_iter()
                    .flatten()
                    .enumerate()
                    .filter_map(|(depth, node)| match node {
                        Node::Dir {
                            quota: Some(quota), ..
                        } => Some((depth, node, quota)),
                        _ => None,
                    })
            }

            /// Checks the namespace quota of every directory on `path`, root
            /// first, before one inode is added under the deepest.
            fn check_namespace_quota(&self, path: &HdfsPath) -> Result<(), HdfsError> {
                for (depth, dir, quota) in self.quota_dirs(path) {
                    let Some(max) = quota.max_namespace else {
                        continue;
                    };
                    // The weight counts the directory itself, where the quota
                    // counts the one inode about to be added instead.
                    if dir.weight().0 > max {
                        return Err(HdfsError::QuotaExceeded {
                            dir: partial(path, depth),
                            detail: format!("namespace quota {max} reached"),
                        });
                    }
                }
                Ok(())
            }

            /// Checks the space quota of every directory on `path`, root first,
            /// before `add_bytes` are added under the deepest.
            fn check_space_quota(&self, path: &HdfsPath, add_bytes: u64) -> Result<(), HdfsError> {
                for (depth, dir, quota) in self.quota_dirs(path) {
                    let Some(max) = quota.max_space else {
                        continue;
                    };
                    if dir.weight().1 + add_bytes > max {
                        return Err(HdfsError::QuotaExceeded {
                            dir: partial(path, depth),
                            detail: format!("space quota {max} bytes would be exceeded"),
                        });
                    }
                }
                Ok(())
            }
        }

        fn allocate_blocks(fs: &mut MiniHdfs, len: u64) -> Vec<Block> {
            let live: Vec<DataNodeId> = fs
                .datanodes
                .iter()
                .filter(|(_, l)| **l)
                .map(|(id, _)| *id)
                .collect();
            let mut blocks = Vec::new();
            let mut remaining = len;
            let mut cursor = 0usize;
            loop {
                let this_len = remaining.min(fs.block_size);
                let id = fs.next_block_id;
                fs.next_block_id += 1;
                let mut replicas = Replicas::NONE;
                for k in 0..REPLICATION.min(live.len()) {
                    replicas.push(live[(cursor + k) % live.len()]);
                }
                cursor += 1;
                blocks.push(Block {
                    id,
                    len: this_len,
                    replicas,
                });
                if remaining <= fs.block_size {
                    break;
                }
                remaining -= fs.block_size;
            }
            blocks
        }

        pub fn mkdirs(fs: &mut MiniHdfs, path: &HdfsPath) -> Result<(), HdfsError> {
            fs.cross("mkdirs", path)?;
            fs.check_mutable()?;
            let mut existing = 0;
            let mut node = &fs.root;
            for comp in path.components() {
                match node.child(comp) {
                    Some(child @ Node::Dir { .. }) => node = child,
                    Some(Node::File { .. }) => {
                        return Err(HdfsError::NotADirectory(partial(path, existing + 1)))
                    }
                    None => break,
                }
                existing += 1;
            }
            for (depth, comp) in path.components().enumerate().skip(existing) {
                fs.check_namespace_quota(path)?;
                let dir = Node::dir(fs.clock_ms);
                fs.dir_mut(path, depth).insert(comp.to_string(), dir);
            }
            Ok(())
        }

        pub fn create_with(
            fs: &mut MiniHdfs,
            path: &HdfsPath,
            data: &[u8],
            props: FileProperties,
            owner: &str,
            permissions: u16,
        ) -> Result<(), HdfsError> {
            fs.cross("create", path)?;
            fs.check_mutable()?;
            if path.is_root() {
                return Err(HdfsError::IsADirectory(path.clone()));
            }
            if let Some(existing) = fs.resolve(path) {
                return Err(match existing {
                    Node::Dir { .. } => HdfsError::IsADirectory(path.clone()),
                    Node::File { .. } => HdfsError::AlreadyExists(path.clone()),
                });
            }
            if fs.live_datanodes() == 0 {
                return Err(HdfsError::InsufficientReplication {
                    wanted: REPLICATION as u32,
                    live: 0,
                });
            }
            mkdirs(fs, &path.parent().expect("non-root path has a parent"))?;
            fs.check_namespace_quota(path)?;
            fs.check_space_quota(path, data.len() as u64)?;
            let file = Node::File {
                data: data.to_vec(),
                props,
                blocks: allocate_blocks(fs, data.len() as u64),
                mtime: fs.clock_ms,
                owner: owner.to_string(),
                permissions,
            };
            let (dir, name) = fs.parent_mut(path);
            dir.insert(name.to_string(), file);
            Ok(())
        }

        pub fn append(fs: &mut MiniHdfs, path: &HdfsPath, data: &[u8]) -> Result<(), HdfsError> {
            fs.check_mutable()?;
            match fs.resolve(path) {
                None => return Err(HdfsError::FileNotFound(path.clone())),
                Some(Node::Dir { .. }) => return Err(HdfsError::IsADirectory(path.clone())),
                Some(Node::File { .. }) => {}
            }
            if fs.live_datanodes() == 0 {
                return Err(HdfsError::InsufficientReplication {
                    wanted: REPLICATION as u32,
                    live: 0,
                });
            }
            fs.check_space_quota(path, data.len() as u64)?;
            let new_blocks = allocate_blocks(fs, data.len() as u64);
            let now = fs.clock_ms;
            let Some(Node::File {
                data: existing,
                blocks,
                mtime,
                ..
            }) = fs.resolve_mut(path)
            else {
                unreachable!("checked above");
            };
            existing.extend_from_slice(data);
            if blocks.len() == 1 && blocks[0].len == 0 && !data.is_empty() {
                blocks.clear();
            }
            blocks.extend(new_blocks);
            *mtime = now;
            Ok(())
        }

        pub fn delete(
            fs: &mut MiniHdfs,
            path: &HdfsPath,
            recursive: bool,
        ) -> Result<(), HdfsError> {
            fs.cross("delete", path)?;
            fs.check_mutable()?;
            match fs.resolve(path) {
                None => return Err(HdfsError::FileNotFound(path.clone())),
                Some(Node::Dir { children, .. }) if !children.is_empty() && !recursive => {
                    return Err(HdfsError::DirectoryNotEmpty(path.clone()))
                }
                Some(_) => {}
            }
            if path.is_root() {
                fs.dir_mut(path, 0).clear();
            } else {
                let (dir, name) = fs.parent_mut(path);
                dir.remove(name);
            }
            Ok(())
        }

        /// `Metastore::drop_table`'s `exists`, then `delete`.
        pub fn delete_if_exists(
            fs: &mut MiniHdfs,
            path: &HdfsPath,
            recursive: bool,
        ) -> Result<bool, HdfsError> {
            if !fs.exists(path) {
                return Ok(false);
            }
            delete(fs, path, recursive).map(|()| true)
        }

        /// `Metastore::table_data_files`' `exists`, then `list_status`.
        pub fn list_files(fs: &MiniHdfs, dir: &HdfsPath) -> Result<Vec<HdfsPath>, HdfsError> {
            if !fs.exists(dir) {
                return Ok(Vec::new());
            }
            let mut files: Vec<HdfsPath> = fs
                .list_status(dir)?
                .into_iter()
                .filter(|s| !s.is_dir)
                .map(|s| s.path)
                .collect();
            files.sort();
            Ok(files)
        }
    }

    /// One namespace operation of the equivalence property.
    #[derive(Debug)]
    enum Op {
        Mkdirs(HdfsPath),
        Create(HdfsPath, usize),
        Append(HdfsPath, usize),
        Delete(HdfsPath, bool),
        DeleteIfExists(HdfsPath, bool),
        ListFiles(HdfsPath),
        SetQuota(HdfsPath, Option<u64>, Option<u64>),
        SafeMode(bool),
        Kill(u32),
        Revive(u32),
    }

    /// Decodes one drawn tuple: a small path alphabet (so paths collide,
    /// cross files and hit quotas), sometimes written as a URI.
    fn op((kind, path, a, b): (u8, u16, u8, u8)) -> Op {
        let depth = path % 4;
        let mut text = if a % 4 == 0 {
            "hdfs://nn:9000".to_string()
        } else {
            String::new()
        };
        let mut names = path / 4;
        for _ in 0..depth {
            text.push('/');
            text.push_str(["a", "b", "f"][usize::from(names % 3)]);
            names /= 3;
        }
        if depth == 0 {
            text.push('/');
        }
        let path = HdfsPath::parse(&text).expect("valid test path");
        let len = [0, 3, 200, 700][usize::from(b % 4)];
        match kind {
            0 | 1 => Op::Mkdirs(path),
            2..=4 => Op::Create(path, len),
            5 => Op::Append(path, len),
            6 => Op::Delete(path, a % 2 == 0),
            7 => Op::DeleteIfExists(path, a % 2 == 0),
            8 => Op::ListFiles(path),
            9 => {
                // Shallow, and small, so the quota binds.
                let dir = path.parent().unwrap_or(path);
                let names = (a % 3 > 0).then_some(u64::from(b % 8));
                let space = (a % 5 > 1).then_some(u64::from(b) * 20);
                Op::SetQuota(dir, names, space)
            }
            10 => Op::SafeMode(a % 4 == 0),
            11 => Op::Kill(u32::from(a % 3)),
            _ => Op::Revive(u32::from(a % 3)),
        }
    }

    /// Applies `op` to the one-walk namenode and to the reference, and
    /// renders each result.
    fn apply(fs: &mut MiniHdfs, reference: &mut MiniHdfs, op: &Op) -> (String, String) {
        let data = |len: usize| vec![b'x'; len];
        let props = FileProperties::default();
        match op {
            Op::Mkdirs(p) => (
                format!("{:?}", fs.mkdirs(p)),
                format!("{:?}", reference::mkdirs(reference, p)),
            ),
            Op::Create(p, len) => (
                format!("{:?}", fs.create_with(p, data(*len), props, "hive", 0o600)),
                format!(
                    "{:?}",
                    reference::create_with(reference, p, &data(*len), props, "hive", 0o600)
                ),
            ),
            Op::Append(p, len) => (
                format!("{:?}", fs.append(p, &data(*len))),
                format!("{:?}", reference::append(reference, p, &data(*len))),
            ),
            Op::Delete(p, recursive) => (
                format!("{:?}", fs.delete(p, *recursive)),
                format!("{:?}", reference::delete(reference, p, *recursive)),
            ),
            Op::DeleteIfExists(p, recursive) => (
                format!("{:?}", fs.delete_if_exists(p, *recursive)),
                format!(
                    "{:?}",
                    reference::delete_if_exists(reference, p, *recursive)
                ),
            ),
            Op::ListFiles(p) => (
                format!("{:?}", fs.list_files(p)),
                format!("{:?}", reference::list_files(reference, p)),
            ),
            Op::SetQuota(p, names, space) => (
                format!("{:?}", fs.set_quota(p, *names, *space)),
                format!("{:?}", reference.set_quota(p, *names, *space)),
            ),
            Op::SafeMode(on) => {
                fs.set_safe_mode(*on);
                reference.set_safe_mode(*on);
                Default::default()
            }
            Op::Kill(id) => {
                fs.kill_datanode(DataNodeId(*id));
                reference.kill_datanode(DataNodeId(*id));
                Default::default()
            }
            Op::Revive(id) => {
                fs.register_datanode(DataNodeId(*id));
                reference.register_datanode(DataNodeId(*id));
                Default::default()
            }
        }
    }

    /// Every status, listing and block list under `path`.
    fn snapshot(fs: &MiniHdfs, path: &HdfsPath, out: &mut String) {
        out.push_str(&format!(
            "{:?} {:?}\n",
            fs.get_file_status(path),
            fs.blocks(path)
        ));
        if let Ok(listing) = fs.list_status(path) {
            for status in &listing {
                snapshot(fs, &status.path, out);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-walk calls answer, change the namespace, allocate
        /// blocks and cross the boundary exactly as the multi-walk ones:
        /// files in the way, existing targets, quotas, safe mode and no
        /// live datanode included.
        #[test]
        fn one_walk_calls_are_the_multi_walk_calls(
            draws in proptest::collection::vec((0u8..13, 0u16..108, any::<u8>(), any::<u8>()), 1..80),
        ) {
            let (one, multi) = (CrossingContext::new(), CrossingContext::new());
            let mut fs = MiniHdfs::with_datanodes(3);
            let mut reference = MiniHdfs::with_datanodes(3);
            fs.set_crossing(one.clone());
            reference.set_crossing(multi.clone());
            for draw in draws {
                let op = op(draw);
                let (got, want) = apply(&mut fs, &mut reference, &op);
                prop_assert_eq!(got, want, "{:?}", op);
            }
            let (mut got, mut want) = (String::new(), String::new());
            snapshot(&fs, &HdfsPath::root(), &mut got);
            snapshot(&reference, &HdfsPath::root(), &mut want);
            prop_assert_eq!(got, want);
            prop_assert_eq!(one.trace(), multi.trace());
        }
    }

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
    fn append_with_no_live_datanode_is_refused_and_leaves_the_file() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.create(&p("/f"), vec![5u8; 200]).unwrap();
        fs.kill_datanode(DataNodeId(0));
        let (blocks, status) = (fs.blocks(&p("/f")), fs.get_file_status(&p("/f")));
        assert_eq!(
            fs.append(&p("/f"), &[6u8; 300]),
            Err(HdfsError::InsufficientReplication { wanted: 3, live: 0 })
        );
        assert_eq!(fs.blocks(&p("/f")), blocks);
        assert_eq!(fs.get_file_status(&p("/f")), status);
        assert_eq!(status.unwrap().len, 200);
        // The path checks come first, as in `create`.
        assert!(matches!(
            fs.append(&p("/nope"), b"x"),
            Err(HdfsError::FileNotFound(_))
        ));
    }

    #[test]
    fn a_file_keeps_the_writers_buffer_and_reads_lend_it() {
        let mut fs = MiniHdfs::with_datanodes(3);
        let data = b"a\n\xff".to_vec();
        fs.create(&p("/f"), data.clone()).unwrap();
        let (one, two) = (fs.read(&p("/f")).unwrap(), fs.read(&p("/f")).unwrap());
        assert_eq!(one.as_ref(), &data[..]);
        assert_eq!(one.as_ptr(), two.as_ptr());
        // Rendered as the byte string literal the substrate traces pin.
        assert_eq!(format!("{:?}", fs.read(&p("/f"))), r#"Ok(b"a\n\xff")"#);
        // A page or more of spare capacity is handed back, less is kept.
        let capacity = |fs: &MiniHdfs, path| match fs.resolve(&p(path)) {
            Some(Node::File { data, .. }) => data.capacity(),
            _ => unreachable!("a file"),
        };
        for (path, spare, kept) in [("/small", 100, 104), ("/roomy", SPARE_PAGE, 4)] {
            let mut data = Vec::with_capacity(4 + spare);
            data.extend_from_slice(b"1234");
            fs.create(&p(path), data).unwrap();
            assert_eq!(capacity(&fs, path), kept, "{path}");
        }
    }

    #[test]
    fn a_corrupt_read_garbles_a_copy_and_leaves_the_file() {
        let mut fs = MiniHdfs::with_datanodes(3);
        let ctx = CrossingContext::new();
        ctx.arm(FaultSpec {
            id: "hdfs-corrupt-read".into(),
            channel: Channel::Hdfs,
            op: "read".into(),
            kind: FaultKind::CorruptPayload,
            trigger: Trigger::OnCall(0),
        });
        fs.set_crossing(ctx);
        fs.create(&p("/f"), vec![1u8, 2, 3, 4, 5]).unwrap();
        assert_eq!(fs.read(&p("/f")).unwrap().as_ref(), [1 ^ 0xA5, 2 ^ 0xA5]);
        assert_eq!(fs.read(&p("/f")).unwrap().as_ref(), [1, 2, 3, 4, 5]);
    }

    #[test]
    fn append_extends_the_stored_buffer_and_blocks_in_place() {
        let mut fs = MiniHdfs::with_datanodes(2);
        fs.create(&p("/empty"), Vec::new()).unwrap();
        fs.append(&p("/empty"), b"x").unwrap();
        fs.create(&p("/log"), vec![7u8; 100]).unwrap();
        fs.append(&p("/log"), &[8u8; 100]).unwrap();
        fs.append(&p("/log"), b"").unwrap();
        assert_eq!(fs.read(&p("/empty")).unwrap().as_ref(), b"x");
        let log = fs.read(&p("/log")).unwrap().to_vec();
        assert_eq!(log, [[7u8; 100], [8u8; 100]].concat());
        let layout = |path| -> Vec<(u64, u64, Vec<DataNodeId>)> {
            let blocks = fs.blocks(&p(path)).unwrap();
            blocks
                .into_iter()
                .map(|b| (b.id, b.len, b.replicas))
                .collect()
        };
        let (d0, d1) = (DataNodeId(0), DataNodeId(1));
        assert_eq!(layout("/empty"), [(1, 1, vec![d0, d1])]);
        assert_eq!(
            layout("/log"),
            [
                (2, 100, vec![d0, d1]),
                (3, 100, vec![d0, d1]),
                (4, 0, vec![d0, d1])
            ]
        );
    }

    #[test]
    fn the_space_quota_counts_length_not_capacity() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.mkdirs(&p("/q")).unwrap();
        fs.set_quota(&p("/q"), None, Some(12)).unwrap();
        let mut roomy = Vec::with_capacity(64);
        roomy.extend_from_slice(b"1234");
        fs.create(&p("/q/a"), roomy).unwrap();
        fs.append(&p("/q/a"), b"5678").unwrap();
        fs.create(&p("/q/b"), b"9012".to_vec()).unwrap();
        assert!(matches!(
            fs.create(&p("/q/c"), vec![0u8]),
            Err(HdfsError::QuotaExceeded { .. })
        ));
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
    fn a_ten_megabyte_file_places_every_block_by_its_period() {
        const LEN: usize = 10_000_000;
        // (datanodes, under-replicated after killing node 1, block 0's
        // replicas after re-replication).
        for (nodes, under, healed) in [(3u32, 0, vec![0, 2]), (5, 46_875, vec![0, 2, 3])] {
            let mut fs = MiniHdfs::with_datanodes(nodes);
            fs.create(&p("/bulk"), vec![5u8; LEN]).unwrap();
            let blocks = fs.blocks(&p("/bulk")).unwrap();
            assert_eq!(blocks.len(), 78_125, "{nodes} nodes");
            let (first, last) = (&blocks[0], &blocks[blocks.len() - 1]);
            assert_eq!((first.id, first.len), (0, 128));
            assert_eq!((last.id, last.len), (78_124, 128));
            for (i, b) in blocks.iter().enumerate() {
                let want: Vec<DataNodeId> =
                    (0..3).map(|k| DataNodeId((i as u32 + k) % nodes)).collect();
                assert_eq!(b.replicas, want, "block {i} on {nodes} nodes");
            }
            assert_eq!(fs.under_replicated_blocks(), 0);
            fs.kill_datanode(DataNodeId(1));
            assert_eq!(fs.under_replicated_blocks(), under, "{nodes} nodes");
            assert_eq!(fs.replicate_under_replicated(), under);
            assert_eq!(fs.under_replicated_blocks(), 0);
            let blocks = fs.blocks(&p("/bulk")).unwrap();
            let healed: Vec<DataNodeId> = healed.into_iter().map(DataNodeId).collect();
            assert_eq!(blocks[0].replicas, healed, "{nodes} nodes");
            assert!(blocks
                .iter()
                .all(|b| b.replicas.len() == 3.min(nodes as usize - 1)
                    && !b.replicas.contains(&DataNodeId(1))));
        }
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
        // A token the namenode never issued is refused outright.
        assert!(fs.read_with_token(&p("/secure"), TokenId(999)).is_err());
    }

    #[test]
    fn uri_and_plain_paths_address_the_same_file() {
        let mut fs = MiniHdfs::with_datanodes(1);
        fs.create(&p("hdfs://nn:9000/x/y"), b"1").unwrap();
        assert_eq!(fs.read(&p("/x/y")).unwrap().as_ref(), b"1");
    }
}
