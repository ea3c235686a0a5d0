//! The virtual file system: inode table + directory tree.
//!
//! One `Vfs` instance models one mounted file system (the scratch PFS, the
//! archive PFS, or a tape object store image).
//!
//! ## Concurrency model
//!
//! The inode table sits behind **one** `RwLock` (see DESIGN.md §10).
//! Simulated time runs on one host thread, so writers never contend; the
//! only parallel readers are the policy-scan threads of [`Vfs::par_scan`].
//! A scan thread holds the read guard while its callback runs, so a
//! `par_scan` callback must not call back into the same `Vfs`: with a
//! writer queued, that second read lock would deadlock.
//! Inside the lock the table is one vector indexed by inode number: an
//! inode's number is its slot. Numbers are handed out in order and never
//! reused, so an unlinked inode leaves its slot empty. The parallel scan's
//! unit of work is a contiguous range of slots.
//!
//! Writers take the write lock once and look up every binding they change
//! under it, so a mutation always sees the namespace it validated.
//!
//! Path resolution keeps a dentry-style **resolve cache**: a map of
//! `normalized path → (epoch, ino)` behind its own lock. Namespace-shape
//! mutations (unlink, rmdir, rename) bump a global epoch under the write
//! lock, which invalidates every cached entry at once; entries are
//! re-validated against the current epoch on every hit, so a stale binding
//! can never be served. The scan's directory-path memo is keyed on the same
//! epoch.

use crate::content::Content;
use crate::error::{FsError, FsResult};
use crate::hsmstate::ManagedRegion;
use crate::inode::{ChunkMark, FileType, Ino, InodeAttr};
use crate::path::{is_normalized, is_under, join, normalize, parent_and_name, split};
use copra_simtime::{Clock, SimInstant};
use parking_lot::RwLock;
use rustc_hash::FxHashMap;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One entry returned by [`Vfs::readdir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    pub name: String,
    pub ino: Ino,
    pub ftype: FileType,
}

/// One entry returned by [`Vfs::walk`].
#[derive(Debug, Clone)]
pub struct WalkEntry {
    pub path: String,
    pub attr: InodeAttr,
}

/// Per-shard report of [`Vfs::par_scan`]: how long the walk of the shard
/// took (under its read guard) and how many regular files it held.
#[derive(Debug, Clone, Copy)]
pub struct ShardScanStats {
    pub shard: usize,
    pub walk_ns: u64,
    pub files: u64,
}

/// Per-thread state of a [`Vfs::par_scan`]: the paths of the directories
/// resolved so far, valid for one namespace epoch, and the buffer that
/// [`ScanPath::get`] builds paths in (empty until it does).
#[derive(Default)]
struct PathMemo {
    epoch: u64,
    dirs: FxHashMap<u64, String>,
    buf: String,
}

/// The path of the inode a [`Vfs::par_scan`] callback is looking at,
/// built only if the callback asks for it.
pub struct ScanPath<'a> {
    nodes: &'a Table,
    memo: &'a mut PathMemo,
    parent: Option<Ino>,
    name: &'a str,
}

impl ScanPath<'_> {
    /// The inode's absolute path. The first call fills the scan thread's
    /// buffer from its directory memo, resolving uncached ancestors under
    /// the scan's read guard; later calls return the same buffer.
    pub fn get(&mut self) -> &str {
        if self.memo.buf.is_empty() {
            let memo = &mut *self.memo;
            match self.parent {
                None => memo.buf.push('/'),
                Some(parent) => {
                    memo.buf
                        .push_str(memo_dir_path(&mut memo.dirs, self.nodes, parent));
                    if parent != ROOT {
                        memo.buf.push('/');
                    }
                    memo.buf.push_str(self.name);
                }
            }
        }
        &self.memo.buf
    }
}

/// One inode opened by [`Vfs::update_region`].
pub struct RegionWrite<'a> {
    node: &'a mut Node,
    ino: Ino,
    now: SimInstant,
}

impl RegionWrite<'_> {
    pub fn region(&self) -> ManagedRegion {
        self.node.region()
    }

    /// Bytes on disk (a stub's are 0).
    pub fn size(&self) -> u64 {
        self.node.size()
    }

    pub fn pool(&self) -> u8 {
        self.node.pool
    }

    /// Replace the record: an attribute change, so it stamps ctime.
    pub fn set_region(&mut self, region: ManagedRegion) {
        **self.node.region.get_or_insert_with(Box::default) = region;
        self.node.ctime = self.now;
    }

    /// The file's content for a data change, which stamps mtime.
    pub fn content_mut(&mut self) -> FsResult<&mut Content> {
        match &mut self.node.kind {
            NodeKind::File { content } => {
                self.node.mtime = self.now;
                Ok(content)
            }
            NodeKind::Dir { .. } => Err(FsError::IsADirectory(format!("{}", self.ino))),
        }
    }
}

/// Absolute path of directory `ino`, memoised in `dirs`. Ancestors missing
/// from the memo are read from `nodes`, the scan's read guard, under which
/// every live inode's ancestors are live too.
fn memo_dir_path<'m>(dirs: &'m mut FxHashMap<u64, String>, nodes: &Table, ino: Ino) -> &'m str {
    if ino == ROOT {
        return "/";
    }
    if !dirs.contains_key(&ino.0) {
        let node = nodes.get(ino).expect("ancestor of a live inode");
        let path = join(
            memo_dir_path(dirs, nodes, node.parent.unwrap_or(ROOT)),
            &node.name,
        );
        dirs.insert(ino.0, path);
    }
    &dirs[&ino.0]
}

#[derive(Debug)]
enum NodeKind {
    File { content: Content },
    Dir { entries: BTreeMap<String, Ino> },
}

#[derive(Debug)]
struct Node {
    parent: Option<Ino>,
    name: String,
    uid: u32,
    /// Storage-pool tag: opaque here, given by the creator.
    pool: u8,
    mtime: SimInstant,
    atime: SimInstant,
    ctime: SimInstant,
    /// Boxed on a file's first HSM transition: most inodes never have one.
    region: Option<Box<ManagedRegion>>,
    /// Boxed like `region`: only the pieces of a chunked file have one.
    chunk_mark: Option<Box<ChunkMark>>,
    kind: NodeKind,
}

impl Node {
    fn new(parent: Option<Ino>, name: String, uid: u32, now: SimInstant, kind: NodeKind) -> Node {
        Node {
            parent,
            name,
            uid,
            pool: 0,
            mtime: now,
            atime: now,
            ctime: now,
            region: None,
            chunk_mark: None,
            kind,
        }
    }

    fn region(&self) -> ManagedRegion {
        self.region.as_deref().copied().unwrap_or_default()
    }

    fn ftype(&self) -> FileType {
        match self.kind {
            NodeKind::File { .. } => FileType::Regular,
            NodeKind::Dir { .. } => FileType::Directory,
        }
    }

    fn size(&self) -> u64 {
        match &self.kind {
            NodeKind::File { content } => content.len(),
            NodeKind::Dir { .. } => 0,
        }
    }

    fn attr(&self, ino: Ino) -> InodeAttr {
        InodeAttr {
            ino,
            ftype: self.ftype(),
            size: self.size(),
            uid: self.uid,
            mtime: self.mtime,
            atime: self.atime,
            ctime: self.ctime,
            region: self.region(),
            pool: self.pool,
            chunk_mark: self.chunk_mark.as_deref().copied(),
        }
    }
}

// ----- inode table --------------------------------------------------------

/// Number of [`Vfs::par_scan`] shards: contiguous ranges of inode numbers.
/// 64 keeps per-shard populations around 16k even at the million-inode
/// bench scale while staying cheap for tiny test trees.
const NSHARDS: usize = 64;

/// The inode table: slot `i` holds inode `i`. Numbers are handed out in
/// order and never reused, so an unlinked inode leaves its slot empty, and
/// slot 0 (no inode has number 0) is always empty.
struct Table(Vec<Option<Node>>);

impl Table {
    fn get(&self, ino: Ino) -> Option<&Node> {
        self.0.get(ino.0 as usize)?.as_ref()
    }

    fn get_mut(&mut self, ino: Ino) -> Option<&mut Node> {
        self.0.get_mut(ino.0 as usize)?.as_mut()
    }

    /// Store `node` in a new slot; its number is the slot's.
    fn push(&mut self, node: Node) -> Ino {
        self.0.push(Some(node));
        Ino(self.0.len() as u64 - 1)
    }

    /// The inodes of scan shard `shard` of a table `len` slots long.
    fn shard(&self, shard: usize, len: usize) -> impl Iterator<Item = (Ino, &Node)> {
        let range = shard * len / NSHARDS..(shard + 1) * len / NSHARDS;
        self.0[range.clone()]
            .iter()
            .zip(range)
            .filter_map(|(slot, i)| Some((Ino(i as u64), slot.as_ref()?)))
    }

    /// The inode bound to `name` in directory `parent`.
    fn child(&self, parent: Ino, name: &str, full_path: &str) -> FsResult<Ino> {
        let node = self.get(parent).ok_or(FsError::StaleInode(parent))?;
        match &node.kind {
            NodeKind::Dir { entries } => entries.get(name).copied().ok_or_else(|| {
                FsError::NotFound(normalize(full_path).unwrap_or_else(|_| full_path.to_string()))
            }),
            NodeKind::File { .. } => Err(FsError::NotADirectory(full_path.to_string())),
        }
    }

    /// Absolute path of a live inode, by chasing parent edges.
    fn path_of(&self, ino: Ino) -> FsResult<String> {
        let mut node = self.get(ino).ok_or(FsError::StaleInode(ino))?;
        let mut names = Vec::new();
        while let Some(parent) = node.parent {
            names.push(node.name.as_str());
            node = self.get(parent).expect("ancestor of a live inode");
        }
        if names.is_empty() {
            return Ok("/".to_string());
        }
        Ok(names.iter().rev().fold(String::new(), |mut path, name| {
            path.push('/');
            path.push_str(name);
            path
        }))
    }

    /// The path `name` has (or would have) in `parent`, for errors.
    fn child_path(&self, parent: Ino, name: &str) -> String {
        match self.path_of(parent) {
            Ok(dir) => join(&dir, name),
            Err(_) => format!("{parent}/{name}"),
        }
    }

    /// Unbind `parent[name]` (bound to `target`) and drop `target`'s node.
    fn detach(&mut self, parent: Ino, name: &str, target: Ino, now: SimInstant) -> Node {
        let pnode = self.get_mut(parent).expect("bound above");
        if let NodeKind::Dir { entries } = &mut pnode.kind {
            entries.remove(name);
        }
        pnode.mtime = now;
        self.0[target.0 as usize].take().expect("bound above")
    }
}

// ----- resolve cache ------------------------------------------------------

/// Capacity; on overflow the map is simply cleared (the cache is an
/// accelerator, not a source of truth).
const CACHE_CAP: usize = 1 << 16;

struct ResolveCache(RwLock<FxHashMap<String, (u64, Ino)>>);

impl ResolveCache {
    fn get(&self, path: &str, epoch: u64) -> Option<Ino> {
        match self.0.read().get(path) {
            Some(&(e, ino)) if e == epoch => Some(ino),
            _ => None,
        }
    }

    fn put(&self, path: Cow<'_, str>, epoch: u64, ino: Ino) {
        let mut g = self.0.write();
        if g.len() >= CACHE_CAP {
            g.clear();
        }
        g.insert(path.into_owned(), (epoch, ino));
    }
}

/// Reject what cannot be one path component: an empty name, `.`, `..`,
/// or a name containing `/`.
fn check_name(name: &str) -> FsResult<()> {
    if name.is_empty() || name == "." || name == ".." || name.contains('/') {
        return Err(FsError::InvalidPath(name.to_string()));
    }
    Ok(())
}

// ----- the file system ----------------------------------------------------

/// A mounted virtual file system. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Vfs {
    shared: Arc<Shared>,
}

struct Shared {
    name: String,
    clock: Clock,
    /// Namespace epoch: bumped by unlink/rmdir/rename, validating every
    /// resolve-cache entry in O(1).
    epoch: AtomicU64,
    nodes: RwLock<Table>,
    rcache: ResolveCache,
}

const ROOT: Ino = Ino(1);

impl Vfs {
    /// Create an empty file system whose timestamps come from `clock`.
    pub fn new(name: impl Into<String>, clock: Clock) -> Self {
        let now = clock.now();
        let root = Node::new(None, String::new(), 0, now, Self::new_dir());
        let nodes = Table(vec![None, Some(root)]);
        Vfs {
            shared: Arc::new(Shared {
                name: name.into(),
                clock,
                epoch: AtomicU64::new(0),
                nodes: RwLock::new(nodes),
                rcache: ResolveCache(RwLock::default()),
            }),
        }
    }

    pub fn name(&self) -> &str {
        &self.shared.name
    }

    pub fn clock(&self) -> &Clock {
        &self.shared.clock
    }

    fn now(&self) -> SimInstant {
        self.shared.clock.now()
    }

    fn bump_epoch(&self) {
        self.shared.epoch.fetch_add(1, Ordering::Release);
    }

    // ----- resolution ---------------------------------------------------

    /// Walk `norm` component by component under one read lock.
    fn resolve_walk(&self, norm: &str) -> FsResult<Ino> {
        let g = self.shared.nodes.read();
        let mut cur = ROOT;
        for comp in split(norm) {
            let node = g.get(cur).ok_or(FsError::StaleInode(cur))?;
            match &node.kind {
                NodeKind::Dir { entries } => {
                    cur = *entries
                        .get(comp)
                        .ok_or_else(|| FsError::NotFound(norm.to_string()))?;
                }
                NodeKind::File { .. } => return Err(FsError::NotADirectory(norm.to_string())),
            }
        }
        Ok(cur)
    }

    /// Resolve a path to an inode, consulting the epoch-validated resolve
    /// cache first. Already-normalized inputs (the common case) take an
    /// allocation-free fast path.
    pub fn resolve(&self, path: &str) -> FsResult<Ino> {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        let norm: Cow<'_, str> = if is_normalized(path) {
            Cow::Borrowed(path)
        } else {
            Cow::Owned(normalize(path)?)
        };
        if norm.as_ref() == "/" {
            return Ok(ROOT);
        }
        if let Some(ino) = self.shared.rcache.get(&norm, epoch) {
            return Ok(ino);
        }
        let ino = self.resolve_walk(&norm)?;
        // The epoch was sampled BEFORE the walk: if a rename/unlink raced us
        // the entry lands already-stale and is never served.
        self.shared.rcache.put(norm, epoch, ino);
        Ok(ino)
    }

    pub fn exists(&self, path: &str) -> bool {
        self.resolve(path).is_ok()
    }

    /// Reconstruct the absolute path of a live inode by chasing parent
    /// edges.
    pub fn path_of(&self, ino: Ino) -> FsResult<String> {
        self.shared.nodes.read().path_of(ino)
    }

    /// The inode bound to `name` in directory `parent`. Errors name the
    /// path `name` would have, built only when the lookup fails.
    pub fn lookup(&self, parent: Ino, name: &str) -> FsResult<Ino> {
        check_name(name)?;
        let g = self.shared.nodes.read();
        let node = g.get(parent).ok_or(FsError::StaleInode(parent))?;
        match &node.kind {
            NodeKind::Dir { entries } => entries
                .get(name)
                .copied()
                .ok_or_else(|| FsError::NotFound(g.child_path(parent, name))),
            NodeKind::File { .. } => Err(FsError::NotADirectory(g.child_path(parent, name))),
        }
    }

    // ----- directory ops ------------------------------------------------

    /// Create a single directory; parent must exist.
    pub fn mkdir(&self, path: &str) -> FsResult<Ino> {
        let (parent, name) = parent_and_name(path)?;
        let parent_ino = self.resolve(&parent)?;
        self.insert_child(parent_ino, &name, Some(path), 0, 0, Self::new_dir())
    }

    /// Create directory `name` in directory `parent`.
    pub fn mkdir_in(&self, parent: Ino, name: &str) -> FsResult<Ino> {
        check_name(name)?;
        self.insert_child(parent, name, None, 0, 0, Self::new_dir())
    }

    fn new_dir() -> NodeKind {
        NodeKind::Dir {
            entries: BTreeMap::new(),
        }
    }

    /// Create a directory and any missing ancestors, walking down from the
    /// root by name. Tolerates concurrent creators racing on shared
    /// ancestors. Errors name the path prefix the walk stopped at.
    pub fn mkdir_p(&self, path: &str) -> FsResult<Ino> {
        let norm = normalize(path)?;
        let mut ino = ROOT;
        let mut end = 0;
        for comp in split(&norm) {
            end += 1 + comp.len();
            let cur = &norm[..end];
            ino = match self.child_dir(ino, comp, cur) {
                Err(FsError::NotFound(_)) => {
                    match self.insert_child(ino, comp, Some(cur), 0, 0, Self::new_dir()) {
                        // another thread created it between our lookup and insert
                        Err(FsError::AlreadyExists(_)) => self.child_dir(ino, comp, cur)?,
                        made => made?,
                    }
                }
                found => found?,
            };
        }
        Ok(ino)
    }

    /// The directory bound to `name` in directory `parent`, whose path is
    /// `path`.
    fn child_dir(&self, parent: Ino, name: &str, path: &str) -> FsResult<Ino> {
        let g = self.shared.nodes.read();
        let child = g.child(parent, name, path)?;
        match g.get(child).ok_or(FsError::StaleInode(child))?.kind {
            NodeKind::Dir { .. } => Ok(child),
            NodeKind::File { .. } => Err(FsError::NotADirectory(path.to_string())),
        }
    }

    /// Link a new `kind` node, owned by `uid` and tagged `pool`, into
    /// `parent_ino` under `name`. Takes the write lock and checks the
    /// binding before it takes the table's next slot, so a create that
    /// fails (the name exists, the parent is gone) consumes no inode
    /// number. Errors name `full_path`, or the path built from the parent
    /// when the caller has none.
    fn insert_child(
        &self,
        parent_ino: Ino,
        name: &str,
        full_path: Option<&str>,
        uid: u32,
        pool: u8,
        kind: NodeKind,
    ) -> FsResult<Ino> {
        let now = self.now();
        let mut g = self.shared.nodes.write();
        let parent = g.get(parent_ino).ok_or(FsError::StaleInode(parent_ino))?;
        let refused: Option<fn(String) -> FsError> = match &parent.kind {
            NodeKind::Dir { entries } if entries.contains_key(name) => Some(FsError::AlreadyExists),
            NodeKind::Dir { .. } => None,
            NodeKind::File { .. } => Some(FsError::NotADirectory),
        };
        if let Some(error) = refused {
            let path = full_path.map_or_else(|| g.child_path(parent_ino, name), str::to_string);
            return Err(error(path));
        }
        let node = Node::new(Some(parent_ino), name.to_string(), uid, now, kind);
        let ino = g.push(Node { pool, ..node });
        let parent = g.get_mut(parent_ino).expect("checked above");
        if let NodeKind::Dir { entries } = &mut parent.kind {
            entries.insert(name.to_string(), ino);
        }
        parent.mtime = now;
        Ok(ino)
    }

    /// List a directory in name order.
    pub fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let ino = self.resolve(path)?;
        let g = self.shared.nodes.read();
        let node = g.get(ino).ok_or(FsError::StaleInode(ino))?;
        match &node.kind {
            NodeKind::Dir { entries } => Ok(entries
                .iter()
                .filter_map(|(name, &child)| {
                    Some(DirEntry {
                        name: name.clone(),
                        ino: child,
                        ftype: g.get(child)?.ftype(),
                    })
                })
                .collect()),
            NodeKind::File { .. } => Err(FsError::NotADirectory(path.to_string())),
        }
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, path: &str) -> FsResult<()> {
        let (parent, name) = parent_and_name(path)?;
        let now = self.now();
        let parent_ino = self.resolve(&parent)?;
        let mut g = self.shared.nodes.write();
        let target = g.child(parent_ino, &name, path)?;
        match &g.get(target).ok_or(FsError::StaleInode(target))?.kind {
            NodeKind::Dir { entries } if !entries.is_empty() => {
                return Err(FsError::DirectoryNotEmpty(path.to_string()))
            }
            NodeKind::Dir { .. } => {}
            NodeKind::File { .. } => return Err(FsError::NotADirectory(path.to_string())),
        }
        g.detach(parent_ino, &name, target, now);
        self.bump_epoch();
        Ok(())
    }

    // ----- file ops -----------------------------------------------------

    /// Create a new file with the given content and storage-pool tag;
    /// fails if the path exists.
    pub fn create(&self, path: &str, uid: u32, pool: u8, content: Content) -> FsResult<Ino> {
        let (parent, name) = parent_and_name(path)?;
        let parent_ino = self.resolve(&parent)?;
        let file = NodeKind::File { content };
        self.insert_child(parent_ino, &name, Some(path), uid, pool, file)
    }

    /// Create file `name` in directory `parent`; fails if the name is
    /// taken. Errors name the path the file would have had.
    pub fn create_in(
        &self,
        parent: Ino,
        name: &str,
        uid: u32,
        pool: u8,
        content: Content,
    ) -> FsResult<Ino> {
        check_name(name)?;
        self.insert_child(parent, name, None, uid, pool, NodeKind::File { content })
    }

    /// Run `f` on the (mutable) node for `ino` under the write lock.
    fn with_node_mut<R>(&self, ino: Ino, f: impl FnOnce(&mut Node) -> FsResult<R>) -> FsResult<R> {
        let mut g = self.shared.nodes.write();
        let node = g.get_mut(ino).ok_or(FsError::StaleInode(ino))?;
        f(node)
    }

    /// Run `f` on the node for `ino` under the read lock.
    fn with_node<R>(&self, ino: Ino, f: impl FnOnce(&Node) -> FsResult<R>) -> FsResult<R> {
        let g = self.shared.nodes.read();
        let node = g.get(ino).ok_or(FsError::StaleInode(ino))?;
        f(node)
    }

    /// Read `[offset, offset+len)` of a file. Updates atime.
    pub fn read(&self, ino: Ino, offset: u64, len: u64) -> FsResult<Content> {
        let now = self.now();
        self.with_node_mut(ino, |node| match &node.kind {
            NodeKind::File { content } => {
                if offset + len > content.len() {
                    return Err(FsError::InvalidRange {
                        len: content.len(),
                        offset,
                        requested: len,
                    });
                }
                let out = content.slice(offset, len);
                node.atime = now;
                Ok(out)
            }
            NodeKind::Dir { .. } => Err(FsError::IsADirectory(format!("{ino}"))),
        })
    }

    /// Overwrite `[offset, offset+patch.len())`, extending the file as
    /// needed. Updates mtime.
    pub fn write_at(&self, ino: Ino, offset: u64, patch: Content) -> FsResult<()> {
        let now = self.now();
        self.with_node_mut(ino, |node| match &mut node.kind {
            NodeKind::File { content } => {
                content.write_at(offset, patch);
                node.mtime = now;
                Ok(())
            }
            NodeKind::Dir { .. } => Err(FsError::IsADirectory(format!("{ino}"))),
        })
    }

    /// Peek at content without touching atime (used by integrity compare and
    /// the HSM data movers, which must not perturb policy-relevant times).
    pub fn peek_content(&self, ino: Ino) -> FsResult<Content> {
        self.with_node(ino, |node| match &node.kind {
            NodeKind::File { content } => Ok(content.clone()),
            NodeKind::Dir { .. } => Err(FsError::IsADirectory(format!("{ino}"))),
        })
    }

    /// Truncate a file to `new_len`. Updates mtime.
    pub fn truncate(&self, ino: Ino, new_len: u64) -> FsResult<()> {
        let now = self.now();
        self.with_node_mut(ino, |node| match &mut node.kind {
            NodeKind::File { content } => {
                content.truncate(new_len);
                node.mtime = now;
                Ok(())
            }
            NodeKind::Dir { .. } => Err(FsError::IsADirectory(format!("{ino}"))),
        })
    }

    /// Unlink a file, returning its final attributes (the synchronous
    /// deleter needs the ino and HSM record of what was just removed).
    pub fn unlink(&self, path: &str) -> FsResult<InodeAttr> {
        let (parent, name) = parent_and_name(path)?;
        let now = self.now();
        let parent_ino = self.resolve(&parent)?;
        let mut g = self.shared.nodes.write();
        let target = g.child(parent_ino, &name, path)?;
        if g.get(target).ok_or(FsError::StaleInode(target))?.ftype() == FileType::Directory {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        let node = g.detach(parent_ino, &name, target, now);
        self.bump_epoch();
        Ok(node.attr(target))
    }

    /// Rename a file or directory. The destination must not exist (the
    /// archive tools never clobber via rename; the trashcan generates fresh
    /// names).
    pub fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let (from_parent, from_name) = parent_and_name(from)?;
        let (to_parent, to_name) = parent_and_name(to)?;
        let norm_from = normalize(from)?;
        let norm_to = normalize(to)?;
        if is_under(&norm_to, &norm_from) {
            return Err(FsError::InvalidPath(format!(
                "cannot rename {norm_from} into itself ({norm_to})"
            )));
        }
        let now = self.now();
        let from_parent_ino = self.resolve(&from_parent)?;
        let to_parent_ino = self.resolve(&to_parent)?;
        let mut g = self.shared.nodes.write();
        let target = g.child(from_parent_ino, &from_name, from)?;
        match &g
            .get(to_parent_ino)
            .ok_or(FsError::StaleInode(to_parent_ino))?
            .kind
        {
            NodeKind::Dir { entries } if entries.contains_key(&to_name) => {
                return Err(FsError::AlreadyExists(to.to_string()))
            }
            NodeKind::Dir { .. } => {}
            NodeKind::File { .. } => return Err(FsError::NotADirectory(to_parent)),
        }
        let fp = g.get_mut(from_parent_ino).expect("bound above");
        if let NodeKind::Dir { entries } = &mut fp.kind {
            entries.remove(&from_name);
        }
        fp.mtime = now;
        let tp = g.get_mut(to_parent_ino).expect("checked above");
        if let NodeKind::Dir { entries } = &mut tp.kind {
            entries.insert(to_name.clone(), target);
        }
        tp.mtime = now;
        let node = g.get_mut(target).expect("bound above");
        node.parent = Some(to_parent_ino);
        node.name = to_name;
        node.ctime = now;
        self.bump_epoch();
        Ok(())
    }

    // ----- attributes ---------------------------------------------------

    pub fn stat(&self, path: &str) -> FsResult<InodeAttr> {
        let ino = self.resolve(path)?;
        self.stat_ino(ino)
    }

    pub fn stat_ino(&self, ino: Ino) -> FsResult<InodeAttr> {
        self.with_node(ino, |node| Ok(node.attr(ino)))
    }

    /// Mark `ino` as a piece of a chunked file: an attribute change, so it
    /// stamps ctime.
    pub fn set_chunk_mark(&self, ino: Ino, mark: ChunkMark) -> FsResult<()> {
        let now = self.now();
        self.with_node_mut(ino, |node| {
            node.chunk_mark = Some(Box::new(mark));
            node.ctime = now;
            Ok(())
        })
    }

    /// Run `f` on the attributes of `ino` under one read guard.
    pub fn inspect<R>(&self, ino: Ino, f: impl FnOnce(&InodeAttr) -> R) -> FsResult<R> {
        self.with_node(ino, |node| Ok(f(&node.attr(ino))))
    }

    /// Run `f` on each of `inos`, in order, under one read guard: the
    /// inode's attributes and the file's content (`None` for a directory).
    /// Stops at the first stale ino or error of `f`, which must not call
    /// back into this `Vfs` (see the module docs).
    pub fn inspect_batch<R>(
        &self,
        inos: impl IntoIterator<Item = Ino>,
        mut f: impl FnMut(&InodeAttr, Option<&Content>) -> FsResult<R>,
    ) -> FsResult<Vec<R>> {
        let g = self.shared.nodes.read();
        inos.into_iter()
            .map(|ino| {
                let node = g.get(ino).ok_or(FsError::StaleInode(ino))?;
                let content = match &node.kind {
                    NodeKind::File { content } => Some(content),
                    NodeKind::Dir { .. } => None,
                };
                f(&node.attr(ino), content)
            })
            .collect()
    }

    /// Apply one managed-region transition to `ino` under one write guard.
    /// `f` reads the record and may replace it and the file's content
    /// through [`RegionWrite`], which stamps ctime and mtime the way the
    /// separate attribute and data writes would.
    pub fn update_region<R>(
        &self,
        ino: Ino,
        f: impl FnOnce(&mut RegionWrite<'_>) -> FsResult<R>,
    ) -> FsResult<R> {
        let now = self.now();
        self.with_node_mut(ino, |node| f(&mut RegionWrite { node, ino, now }))
    }

    /// Set the owner uid.
    pub fn chown(&self, ino: Ino, uid: u32) -> FsResult<()> {
        let now = self.now();
        self.with_node_mut(ino, |node| {
            node.uid = uid;
            node.ctime = now;
            Ok(())
        })
    }

    // ----- traversal & accounting ----------------------------------------

    /// Depth-first recursive walk from `path` (inclusive), entries in
    /// deterministic name order, under one read lock.
    pub fn walk(&self, path: &str) -> FsResult<Vec<WalkEntry>> {
        let root_ino = self.resolve(path)?;
        let norm = normalize(path)?;
        let mut out = Vec::new();
        let mut stack = vec![(norm, root_ino)];
        let g = self.shared.nodes.read();
        while let Some((p, ino)) = stack.pop() {
            let Some(node) = g.get(ino) else { continue };
            out.push(WalkEntry {
                path: p.clone(),
                attr: node.attr(ino),
            });
            if let NodeKind::Dir { entries } = &node.kind {
                // push in reverse name order so iteration pops in name order
                for (name, &child) in entries.iter().rev() {
                    stack.push((join(&p, name), child));
                }
            }
        }
        Ok(out)
    }

    /// Stream every live inode through `f` across `threads` worker threads,
    /// shard by shard — the policy-scan hot path. The table's length is
    /// read once, at scan start, and `[0, len)` is split into `NSHARDS`
    /// contiguous inode ranges; an inode created after that may be missed.
    /// Unlike [`Vfs::walk`] this never materializes the tree: each worker
    /// takes the read guard once per shard and walks its slots in place,
    /// handing `f` a borrowed [`InodeAttr`] and a [`ScanPath`] that builds
    /// the inode's path only if `f` asks for it. After each shard, `obs`
    /// receives that shard's [`ShardScanStats`] (64 calls per scan; tracing
    /// hangs off this hook instead of timing individual inodes).
    ///
    /// `f` runs under the read guard, so it must not call back into this
    /// `Vfs` (see the module docs). Each thread collects its shards' results
    /// in one run and hands it, with its index, to `finish` on the thread
    /// (a caller sorts there); the runs come back in thread order. Which
    /// shards a thread takes depends on scheduling, so on a quiescent tree
    /// only the multiset of all results is independent of `threads`.
    pub fn par_scan<R, F, O, S>(&self, threads: usize, f: F, obs: O, finish: S) -> Vec<Vec<R>>
    where
        R: Send,
        F: Fn(&InodeAttr, &mut ScanPath<'_>) -> Option<R> + Sync,
        O: Fn(ShardScanStats) + Sync,
        S: Fn(usize, &mut Vec<R>) + Sync,
    {
        let threads = threads.clamp(1, NSHARDS);
        let len = self.shared.nodes.read().0.len();
        let next = AtomicUsize::new(0);
        let scan_thread = |thread: usize| {
            let mut memo = PathMemo::default();
            let mut run = Vec::new();
            loop {
                let shard_idx = next.fetch_add(1, Ordering::Relaxed);
                if shard_idx >= NSHARDS {
                    break;
                }
                let t0 = std::time::Instant::now();
                let mut files = 0;
                {
                    let g = self.shared.nodes.read();
                    // Writers bump the epoch under the write lock, so a memo
                    // resolved at this epoch is exact for the whole shard.
                    let epoch = self.shared.epoch.load(Ordering::Acquire);
                    if memo.epoch != epoch {
                        memo.dirs.clear();
                        memo.epoch = epoch;
                    }
                    for (ino, node) in g.shard(shard_idx, len) {
                        let inode = node.attr(ino);
                        files += u64::from(inode.is_file());
                        memo.buf.clear();
                        let mut path = ScanPath {
                            nodes: &g,
                            memo: &mut memo,
                            parent: node.parent,
                            name: &node.name,
                        };
                        if let Some(r) = f(&inode, &mut path) {
                            run.push(r);
                        }
                    }
                }
                obs(ShardScanStats {
                    shard: shard_idx,
                    walk_ns: t0.elapsed().as_nanos() as u64,
                    files,
                });
            }
            finish(thread, &mut run);
            run
        };
        let scan_thread = &scan_thread;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| s.spawn(move || scan_thread(t)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a scan thread panicked"))
                .collect()
        })
    }

    /// Number of live inodes (including directories).
    #[cfg(test)]
    fn inode_count(&self) -> usize {
        self.shared.nodes.read().0.iter().flatten().count()
    }

    /// Total logical bytes across all regular files.
    pub fn total_bytes(&self) -> u64 {
        let g = self.shared.nodes.read();
        g.0.iter().flatten().map(Node::size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::Content;
    use parking_lot::Mutex;

    fn fs() -> Vfs {
        Vfs::new("test", Clock::new())
    }

    #[test]
    fn mkdir_and_resolve() {
        let v = fs();
        v.mkdir("/a").unwrap();
        v.mkdir("/a/b").unwrap();
        assert!(v.exists("/a/b"));
        assert!(!v.exists("/a/c"));
        assert_eq!(v.stat("/a/b").unwrap().ftype, FileType::Directory);
    }

    #[test]
    fn failed_create_consumes_no_inode_number() {
        let v = fs();
        let a = v.create("/a", 0, 0, Content::empty()).unwrap();
        assert!(matches!(
            v.create("/a", 0, 0, Content::empty()),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(matches!(
            v.create("/a/b", 0, 0, Content::empty()),
            Err(FsError::NotADirectory(_))
        ));
        let b = v.create("/b", 0, 0, Content::empty()).unwrap();
        assert_eq!(b.0, a.0 + 1);
    }

    #[test]
    fn create_in_and_lookup_bind_names_in_a_directory() {
        let v = fs();
        let d = v.mkdir_p("/a/d").unwrap();
        let f = v
            .create_in(d, "f", 7, 0, Content::synthetic(1, 10))
            .unwrap();
        let sub = v.mkdir_in(d, "sub").unwrap();
        assert_eq!(v.resolve("/a/d/f").unwrap(), f);
        assert_eq!(v.resolve("/a/d/sub").unwrap(), sub);
        assert_eq!(v.lookup(d, "f").unwrap(), f);
        assert_eq!(v.lookup(d, "sub").unwrap(), sub);
        assert_eq!(v.stat_ino(f).unwrap().uid, 7);
        assert_eq!(v.path_of(f).unwrap(), "/a/d/f");
        assert_eq!(
            v.lookup(d, "gone"),
            Err(FsError::NotFound("/a/d/gone".to_string()))
        );
        assert_eq!(
            v.create_in(d, "f", 0, 0, Content::empty()),
            Err(FsError::AlreadyExists("/a/d/f".to_string()))
        );
    }

    #[test]
    fn create_in_and_lookup_reject_invalid_names() {
        let v = fs();
        let d = v.mkdir_p("/d").unwrap();
        for name in ["", ".", "..", "a/b", "/x"] {
            let invalid = Err(FsError::InvalidPath(name.to_string()));
            assert_eq!(v.create_in(d, name, 0, 0, Content::empty()), invalid);
            assert_eq!(v.mkdir_in(d, name), invalid);
            assert_eq!(v.lookup(d, name), invalid);
        }
        assert_eq!(v.readdir("/d").unwrap(), vec![]);
    }

    #[test]
    fn create_in_and_lookup_under_a_regular_file_are_not_a_directory() {
        let v = fs();
        let f = v.create("/f", 0, 0, Content::empty()).unwrap();
        let nad = Err(FsError::NotADirectory("/f/x".to_string()));
        assert_eq!(v.create_in(f, "x", 0, 0, Content::empty()), nad);
        assert_eq!(v.mkdir_in(f, "x"), nad);
        assert_eq!(v.lookup(f, "x"), nad);
    }

    #[test]
    fn failed_create_in_consumes_no_inode_number() {
        let v = fs();
        let d = v.mkdir("/d").unwrap();
        let a = v.create_in(d, "a", 0, 0, Content::empty()).unwrap();
        assert!(v.create_in(d, "a", 0, 0, Content::empty()).is_err());
        assert!(v.create_in(a, "b", 0, 0, Content::empty()).is_err());
        assert!(v.create_in(d, "..", 0, 0, Content::empty()).is_err());
        assert!(v.mkdir_in(d, "a").is_err());
        let b = v.create_in(d, "b", 0, 0, Content::empty()).unwrap();
        assert_eq!(b.0, a.0 + 1);
    }

    #[test]
    fn mkdir_requires_parent() {
        let v = fs();
        assert!(matches!(v.mkdir("/a/b"), Err(FsError::NotFound(_))));
        v.mkdir_p("/a/b/c/d").unwrap();
        assert!(v.exists("/a/b/c/d"));
        // mkdir_p is idempotent
        v.mkdir_p("/a/b/c/d").unwrap();
    }

    #[test]
    fn mkdir_p_errors_name_the_prefix_it_stops_at() {
        let v = fs();
        let a = v.mkdir_p("/a/").unwrap();
        v.create_in(a, "f", 0, 0, Content::empty()).unwrap();
        let not_dir = Err(FsError::NotADirectory("/a/f".to_string()));
        assert_eq!(v.mkdir_p("/a/f"), not_dir);
        assert_eq!(v.mkdir_p("//a/f/x/y/"), not_dir);
        let invalid = Err(FsError::InvalidPath("a/b".to_string()));
        assert_eq!(v.mkdir_p("a/b"), invalid);
        assert_eq!(v.mkdir_p("/"), Ok(ROOT));
        assert_eq!(v.mkdir_p("/a"), Ok(a));
    }

    #[test]
    fn create_read_roundtrip() {
        let v = fs();
        v.mkdir("/data").unwrap();
        let ino = v
            .create("/data/f", 1000, 0, Content::literal(&b"hello"[..]))
            .unwrap();
        let c = v.read(ino, 1, 3).unwrap();
        assert_eq!(&c.materialize()[..], b"ell");
        assert_eq!(v.stat("/data/f").unwrap().size, 5);
        assert_eq!(v.stat("/data/f").unwrap().uid, 1000);
    }

    #[test]
    fn create_refuses_duplicates_and_bad_parents() {
        let v = fs();
        v.mkdir("/d").unwrap();
        v.create("/d/f", 0, 0, Content::empty()).unwrap();
        assert!(matches!(
            v.create("/d/f", 0, 0, Content::empty()),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(matches!(
            v.create("/d/f/g", 0, 0, Content::empty()),
            Err(FsError::NotADirectory(_))
        ));
        assert!(matches!(
            v.create("/nodir/f", 0, 0, Content::empty()),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn read_past_eof_rejected() {
        let v = fs();
        let ino = v.create("/f", 0, 0, Content::literal(&b"abc"[..])).unwrap();
        assert!(matches!(
            v.read(ino, 2, 5),
            Err(FsError::InvalidRange { .. })
        ));
    }

    #[test]
    fn write_at_and_truncate() {
        let v = fs();
        let ino = v
            .create("/f", 0, 0, Content::literal(&b"aaaaaa"[..]))
            .unwrap();
        v.write_at(ino, 2, Content::literal(&b"XX"[..])).unwrap();
        assert_eq!(&v.peek_content(ino).unwrap().materialize()[..], b"aaXXaa");
        v.truncate(ino, 3).unwrap();
        assert_eq!(&v.peek_content(ino).unwrap().materialize()[..], b"aaX");
    }

    #[test]
    fn unlink_returns_attrs_and_removes() {
        let v = fs();
        let ino = v.create("/f", 7, 0, Content::literal(&b"abc"[..])).unwrap();
        let mark = ChunkMark::Chunk { fingerprint: 5 };
        v.set_chunk_mark(ino, mark).unwrap();
        v.update_region(ino, |file| {
            let objid = Some(42);
            file.set_region(ManagedRegion {
                objid,
                ..file.region()
            });
            Ok(())
        })
        .unwrap();
        let attr = v.unlink("/f").unwrap();
        assert_eq!(attr.ino, ino);
        assert_eq!(attr.uid, 7);
        assert_eq!(attr.chunk_mark, Some(mark));
        assert_eq!(attr.region.objid, Some(42));
        assert!(!v.exists("/f"));
        assert!(matches!(v.stat_ino(ino), Err(FsError::StaleInode(_))));
    }

    #[test]
    fn unlink_rejects_directories() {
        let v = fs();
        v.mkdir("/d").unwrap();
        assert!(matches!(v.unlink("/d"), Err(FsError::IsADirectory(_))));
        v.rmdir("/d").unwrap();
        assert!(!v.exists("/d"));
    }

    #[test]
    fn rmdir_refuses_nonempty() {
        let v = fs();
        v.mkdir_p("/d/e").unwrap();
        assert!(matches!(v.rmdir("/d"), Err(FsError::DirectoryNotEmpty(_))));
        v.rmdir("/d/e").unwrap();
        v.rmdir("/d").unwrap();
    }

    #[test]
    fn rename_moves_subtree() {
        let v = fs();
        v.mkdir_p("/a/b").unwrap();
        v.create("/a/b/f", 0, 0, Content::literal(&b"x"[..]))
            .unwrap();
        v.mkdir("/dst").unwrap();
        v.rename("/a/b", "/dst/b2").unwrap();
        assert!(v.exists("/dst/b2/f"));
        assert!(!v.exists("/a/b"));
        assert_eq!(
            v.path_of(v.resolve("/dst/b2/f").unwrap()).unwrap(),
            "/dst/b2/f"
        );
    }

    #[test]
    fn rename_refuses_clobber_and_cycles() {
        let v = fs();
        v.mkdir("/a").unwrap();
        v.mkdir("/b").unwrap();
        assert!(matches!(
            v.rename("/a", "/b"),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(matches!(
            v.rename("/a", "/a/sub"),
            Err(FsError::InvalidPath(_))
        ));
    }

    #[test]
    fn readdir_sorted() {
        let v = fs();
        v.mkdir("/d").unwrap();
        for name in ["zz", "aa", "mm"] {
            v.create(&format!("/d/{name}"), 0, 0, Content::empty())
                .unwrap();
        }
        let names: Vec<_> = v
            .readdir("/d")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["aa", "mm", "zz"]);
    }

    #[test]
    fn walk_is_depth_first_name_ordered() {
        let v = fs();
        v.mkdir_p("/a/x").unwrap();
        v.mkdir_p("/b").unwrap();
        v.create("/a/f", 0, 0, Content::empty()).unwrap();
        v.create("/a/x/g", 0, 0, Content::empty()).unwrap();
        let paths: Vec<_> = v.walk("/").unwrap().into_iter().map(|e| e.path).collect();
        assert_eq!(paths, vec!["/", "/a", "/a/f", "/a/x", "/a/x/g", "/b"]);
    }

    #[test]
    fn times_update_as_expected() {
        let clock = Clock::new();
        let v = Vfs::new("t", clock.clone());
        let ino = v.create("/f", 0, 0, Content::literal(&b"abc"[..])).unwrap();
        let t0 = v.stat_ino(ino).unwrap();
        clock.advance_to(SimInstant::from_secs(100));
        v.read(ino, 0, 1).unwrap();
        let t1 = v.stat_ino(ino).unwrap();
        assert_eq!(t1.mtime, t0.mtime);
        assert_eq!(t1.atime, SimInstant::from_secs(100));
        clock.advance_to(SimInstant::from_secs(200));
        v.write_at(ino, 0, Content::literal(&b"z"[..])).unwrap();
        assert_eq!(v.stat_ino(ino).unwrap().mtime, SimInstant::from_secs(200));
    }

    #[test]
    fn accounting() {
        let v = fs();
        v.mkdir("/d").unwrap();
        v.create("/d/a", 0, 0, Content::synthetic(1, 1000)).unwrap();
        v.create("/d/b", 0, 0, Content::synthetic(2, 500)).unwrap();
        assert_eq!(v.total_bytes(), 1500);
        assert_eq!(v.inode_count(), 4); // root, /d, two files
    }

    #[test]
    fn peek_does_not_touch_atime() {
        let clock = Clock::new();
        let v = Vfs::new("t", clock.clone());
        let ino = v.create("/f", 0, 0, Content::literal(&b"abc"[..])).unwrap();
        clock.advance_to(SimInstant::from_secs(5));
        v.peek_content(ino).unwrap();
        assert_eq!(v.stat_ino(ino).unwrap().atime, SimInstant::EPOCH);
    }

    #[test]
    fn pool_tag_is_set_at_create_and_survives_rename() {
        let v = fs();
        let d = v.mkdir("/d").unwrap();
        let a = v.create("/d/a", 0, 3, Content::synthetic(1, 10)).unwrap();
        let b = v.create_in(d, "b", 0, 7, Content::empty()).unwrap();
        let tag = |ino| v.inspect(ino, |inode| inode.pool).unwrap();
        assert_eq!((tag(a), tag(b)), (3, 7));
        assert_eq!(v.stat_ino(a).unwrap().pool, 3);
        v.rename("/d/b", "/b").unwrap();
        assert_eq!(tag(b), 7);
        assert_eq!(v.unlink("/b").unwrap().pool, 7);
    }

    #[test]
    fn resolve_cache_never_serves_stale_bindings() {
        let v = fs();
        v.mkdir("/d").unwrap();
        let a = v.create("/d/f", 0, 0, Content::empty()).unwrap();
        // prime the cache
        assert_eq!(v.resolve("/d/f").unwrap(), a);
        v.rename("/d/f", "/d/g").unwrap();
        assert!(matches!(v.resolve("/d/f"), Err(FsError::NotFound(_))));
        assert_eq!(v.resolve("/d/g").unwrap(), a);
        v.unlink("/d/g").unwrap();
        assert!(matches!(v.resolve("/d/g"), Err(FsError::NotFound(_))));
        // re-create under a previously cached path: must see the new ino
        assert!(v.resolve("/d/f").is_err());
        let b = v.create("/d/f", 0, 0, Content::empty()).unwrap();
        assert_ne!(a, b);
        assert_eq!(v.resolve("/d/f").unwrap(), b);
    }

    #[test]
    fn concurrent_disjoint_subtrees() {
        let v = fs();
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let v = v.clone();
                s.spawn(move || {
                    v.mkdir_p(&format!("/shared/d{t}")).unwrap();
                    for i in 0..200u64 {
                        let p = format!("/shared/d{t}/f{i}");
                        v.create(&p, t, 0, Content::synthetic(i, 10)).unwrap();
                        assert_eq!(v.stat(&p).unwrap().uid, t);
                    }
                    for i in 0..50u64 {
                        v.unlink(&format!("/shared/d{t}/f{i}")).unwrap();
                    }
                });
            }
        });
        // root + /shared + 8 dirs + 8×150 surviving files
        assert_eq!(v.inode_count(), 2 + 8 + 8 * 150);
        assert_eq!(v.total_bytes(), 8 * 150 * 10);
    }

    #[test]
    fn par_scan_matches_walk_at_any_thread_count() {
        let v = fs();
        v.mkdir_p("/a/b").unwrap();
        v.mkdir_p("/c").unwrap();
        for i in 0..100u64 {
            v.clock().advance_to(SimInstant::from_secs(2 * i));
            let f = v
                .create(
                    &format!("/a/b/f{i}"),
                    0,
                    i as u8 % 4,
                    Content::synthetic(i, i),
                )
                .unwrap();
            v.create(&format!("/c/g{i}"), 0, 0, Content::empty())
                .unwrap();
            if i % 3 == 0 {
                // A later mark moves ctime past mtime.
                v.clock().advance_to(SimInstant::from_secs(2 * i + 1));
                v.set_chunk_mark(f, ChunkMark::Chunk { fingerprint: i })
                    .unwrap();
            }
        }
        let dir = v.resolve("/a/b").unwrap();
        v.set_chunk_mark(dir, ChunkMark::Dir { logical: 7 })
            .unwrap();
        let mut walked: Vec<String> = v
            .walk("/")
            .unwrap()
            .into_iter()
            .filter(|e| e.attr.is_file())
            .map(|e| e.path)
            .collect();
        walked.sort();
        for threads in [1, 2, 4, 8] {
            let files = AtomicU64::new(0);
            let mut scanned: Vec<(String, InodeAttr)> = v
                .par_scan(
                    threads,
                    |inode, path| Some((path.get().to_string(), *inode)),
                    |st| {
                        files.fetch_add(st.files, Ordering::Relaxed);
                    },
                    |_, _| {},
                )
                .concat();
            scanned.sort_by(|a, b| a.0.cmp(&b.0));
            // The scan lends each inode the attributes `stat_ino` returns.
            for (path, attr) in &scanned {
                assert_eq!(*attr, v.stat_ino(attr.ino).unwrap(), "{path}");
            }
            assert!(scanned
                .iter()
                .any(|(_, a)| a.ctime > a.mtime && a.pool != 0 && a.chunk_mark.is_some()));
            let (dirs, files_seen): (Vec<_>, Vec<_>) =
                scanned.into_iter().partition(|(_, a)| a.is_dir());
            let paths = |seen: Vec<(String, InodeAttr)>| seen.into_iter().map(|(p, _)| p).collect();
            let files_seen: Vec<String> = paths(files_seen);
            assert_eq!(files_seen, walked, "par_scan({threads}) diverged from walk");
            assert_eq!(files.into_inner(), walked.len() as u64);
            // Directories and the root get their paths too.
            assert_eq!(paths(dirs), vec!["/", "/a", "/a/b", "/c"]);
        }
    }

    #[test]
    fn par_scan_visits_every_live_inode_once_across_holes() {
        let v = fs();
        v.mkdir("/gone").unwrap();
        for d in 0..7 {
            let dir = v.mkdir_p(&format!("/d{d}")).unwrap();
            for i in 0..150 {
                v.create_in(dir, &format!("f{i}"), 0, 0, Content::empty())
                    .unwrap();
            }
        }
        for d in 0..7 {
            for i in (d..150).step_by(7) {
                v.unlink(&format!("/d{d}/f{i}")).unwrap();
            }
        }
        v.rmdir("/gone").unwrap();
        let len = v.shared.nodes.read().0.len();
        assert_ne!(len % NSHARDS, 0, "the last shard must be a partial range");
        let mut live: Vec<Ino> = v.walk("/").unwrap().iter().map(|e| e.attr.ino).collect();
        live.sort();
        let walked_files = live.len() as u64 - 8;
        assert!(live.len() < len - 1, "the table must have holes");
        for threads in [1, 2, 4, 8] {
            let files = AtomicU64::new(0);
            let shards = Mutex::new(Vec::new());
            let finished = Mutex::new(Vec::new());
            let runs = v.par_scan(
                threads,
                |inode, _| Some(inode.ino),
                |st| {
                    files.fetch_add(st.files, Ordering::Relaxed);
                    shards.lock().push(st.shard);
                },
                |thread, run| {
                    // Runs are built in shard order; reversing shows that
                    // what `finish` does to a run is what the caller gets.
                    run.reverse();
                    finished.lock().push(thread);
                },
            );
            // One run per thread, in thread-index order, each finished
            // once by its own thread.
            assert_eq!(runs.len(), threads);
            let mut finished = finished.into_inner();
            finished.sort();
            assert_eq!(finished, (0..threads).collect::<Vec<_>>());
            assert!(runs.iter().all(|r| r.windows(2).all(|w| w[0] > w[1])));
            let mut seen = runs.concat();
            seen.sort();
            assert_eq!(
                seen, live,
                "par_scan({threads}) must visit each live inode once"
            );
            assert_eq!(files.into_inner(), walked_files);
            let mut shards = shards.into_inner();
            shards.sort();
            assert_eq!(shards, (0..NSHARDS).collect::<Vec<_>>());
        }
    }

    #[test]
    fn inode_numbers_are_handed_out_in_order_and_never_reused() {
        let v = fs();
        let d = v.mkdir("/d").unwrap();
        let a = v.create_in(d, "a", 0, 0, Content::empty()).unwrap();
        let b = v.create_in(d, "b", 0, 0, Content::empty()).unwrap();
        let e = v.mkdir_in(d, "e").unwrap();
        assert_eq!((d.0, a.0, b.0, e.0), (2, 3, 4, 5));
        v.unlink("/d/a").unwrap();
        v.rmdir("/d/e").unwrap();
        // Failed creates take no number either.
        assert!(v.create_in(d, "b", 0, 0, Content::empty()).is_err());
        assert!(v.create_in(e, "x", 0, 0, Content::empty()).is_err());
        let mut next = Vec::new();
        for name in ["a", "e", "c"] {
            next.push(v.create_in(d, name, 0, 0, Content::empty()).unwrap().0);
        }
        assert_eq!(
            next,
            vec![6, 7, 8],
            "freed numbers 3 and 5 are not handed out again"
        );
        for gone in [a, e] {
            assert_eq!(v.stat_ino(gone), Err(FsError::StaleInode(gone)));
        }
        assert_eq!(v.inode_count(), 6); // root, /d, b and the three new files
    }

    /// Every file path of a scan, sorted.
    fn scanned_files(v: &Vfs, threads: usize) -> Vec<String> {
        let mut paths = v
            .par_scan(
                threads,
                |inode, path| inode.is_file().then(|| path.get().to_string()),
                |_| {},
                |_, _| {},
            )
            .concat();
        paths.sort();
        paths
    }

    #[test]
    fn par_scan_runs_beside_a_writer() {
        let v = fs();
        v.mkdir_p("/keep/deep/er").unwrap();
        v.mkdir_p("/churn").unwrap();
        let mut kept = Vec::new();
        for i in 0..200u64 {
            let p = format!("/keep/deep/er/f{i}");
            v.create(&p, 0, 0, Content::synthetic(i, 1)).unwrap();
            kept.push(p);
        }
        kept.sort();
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        let churned = std::thread::scope(|s| {
            // Creates and unlinks until the scans are over (capped, so a
            // failed scan cannot leave it spinning); returns how many of
            // its files it left behind.
            let writer = s.spawn(|| {
                start.wait();
                let mut left = 0;
                for i in 0..200_000 {
                    if i >= 100 && done.load(Ordering::Relaxed) {
                        break;
                    }
                    let p = format!("/churn/t{i}");
                    v.create(&p, 0, 0, Content::empty()).unwrap();
                    if i % 3 == 0 {
                        left += 1;
                    } else {
                        v.unlink(&p).unwrap();
                    }
                }
                left
            });
            start.wait();
            for _ in 0..20 {
                let seen = scanned_files(&v, 4);
                let stable: Vec<&String> =
                    seen.iter().filter(|p| p.starts_with("/keep/")).collect();
                assert_eq!(stable, kept.iter().collect::<Vec<_>>());
                assert!(seen
                    .iter()
                    .all(|p| p.starts_with("/keep/") || p.starts_with("/churn/t")));
            }
            done.store(true, Ordering::Relaxed);
            writer.join().unwrap()
        });
        let mut walked: Vec<String> = v
            .walk("/")
            .unwrap()
            .into_iter()
            .filter(|e| e.attr.is_file())
            .map(|e| e.path)
            .collect();
        walked.sort();
        assert_eq!(walked.len(), 200 + churned);
        assert_eq!(scanned_files(&v, 4), walked);
    }
}
