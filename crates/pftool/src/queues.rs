//! The Manager's work queues (Figure 3): DirQ, NameQ, CopyQ and the
//! per-tape TapeCQ set, with the work items they hold.

use copra_pfs::HsmState;
use copra_simtime::SimInstant;
use copra_trace::SpanContext;
use copra_vfs::{FsResult, Ino};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A directory the walk found. Every entry its listing queues shares it
/// behind an `Arc`, so no queue entry carries a joined path.
#[derive(Debug)]
pub struct WalkDir {
    /// Source path.
    pub path: String,
    /// For copy and compare runs: the destination directory the entries
    /// land in, or why there is none (`NotFound` when pfcm finds it
    /// missing).
    pub dst: Option<FsResult<Ino>>,
    /// The destination name of the one file a single-file run lists (the
    /// last component of the destination path); `None` keeps every
    /// entry's source name.
    pub dst_name: Option<String>,
}

/// A listed file (or fuse-chunked file): its directory and its name there.
#[derive(Debug, Clone)]
pub struct Entry {
    pub dir: Arc<WalkDir>,
    pub name: String,
}

impl Entry {
    /// The full source path, built for output lines, errors and the fuse
    /// overlay.
    pub fn path(&self) -> String {
        copra_vfs::join(&self.dir.path, &self.name)
    }

    /// The entry's name in its destination directory.
    pub fn dst_name(&self) -> &str {
        self.dir.dst_name.as_deref().unwrap_or(&self.name)
    }
}

/// Stat output for one file, as Workers report it back to the Manager.
#[derive(Debug, Clone)]
pub struct FileMeta {
    pub file: Entry,
    pub ino: Ino,
    /// Logical size (stub overlay applied).
    pub size: u64,
    pub uid: u32,
    pub mtime: SimInstant,
    pub hsm: HsmState,
    /// True if this is a fuse-chunked logical file (reported by the walk,
    /// not by plain stat).
    pub chunked: bool,
}

/// How the destination of a copy sub-job is materialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DstMode {
    /// Write at `dst_offset` into the file the Manager pre-created as
    /// `ino` (plain-file chunk or whole-file copy).
    WriteAt { ino: Ino },
    /// Write chunk `index` of the fuse-chunked file at `dir` through
    /// [`copra_fuse::ArchiveFuse::create_chunk`], which names the chunk,
    /// replaces a stale one and marks it with its fingerprint.
    CreateChunk { uid: u32, dir: String, index: u32 },
}

/// One unit of data movement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyJob {
    /// Physical file to read (may be a fuse chunk file). Errors name it by
    /// the path built from this inode.
    pub src_ino: Ino,
    pub src_offset: u64,
    pub len: u64,
    pub dst_offset: u64,
    pub dst_mode: DstMode,
    /// Simulated instant the data became available (run start, or the end
    /// of the tape restore that produced it).
    pub ready: SimInstant,
    /// Manager-side request span this movement belongs to, carried per job
    /// so a re-queued job stays attributable to its original request.
    pub ctx: Option<SpanContext>,
}

/// One side of a comparison, looked up when the job is routed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareSide {
    /// The file, or the chunk directory of a fuse-chunked file; reads and
    /// device charges go to this inode.
    pub ino: Ino,
    /// The logical path of a fuse-chunked file, read through the overlay.
    pub fuse_path: Option<String>,
}

/// One unit of comparison (`pfcm`). The output line and errors name the
/// source by the path built from `src.ino`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareJob {
    pub src: CompareSide,
    /// `None` when the destination does not exist: a mismatch.
    pub dst: Option<CompareSide>,
    pub offset: u64,
    pub len: u64,
    pub ready: SimInstant,
    /// See [`CopyJob::ctx`].
    pub ctx: Option<SpanContext>,
}

/// A worker-executable unit of data movement (the CopyQ element type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerJob {
    Copy(CopyJob),
    Compare(CompareJob),
}

/// A file awaiting stat (the NameQ element type).
#[derive(Debug, Clone)]
pub struct StatRequest {
    pub file: Entry,
    /// The inode the directory listing (or the tape restore) found: the
    /// file, or the chunk directory of a fuse-chunked file.
    pub ino: Ino,
    /// True for a fuse-chunked logical file.
    pub chunked: bool,
    pub ready: SimInstant,
    /// Dispatching span (the run root, or the readdir that found the
    /// file); the worker's stat span parents under it.
    pub ctx: Option<SpanContext>,
}

/// One entry waiting in a tape queue.
#[derive(Debug, Clone)]
pub struct TapeEntry {
    pub seq: u32,
    /// The inode to restore: the file, or one chunk of a fuse-chunked file.
    pub ino: Ino,
    /// The logical file, stated again once it is back.
    pub file: Entry,
    /// For a fuse chunk restore: the chunk-directory inode of the logical
    /// file the chunk belongs to. The manager re-queues the logical file
    /// once every chunk is back.
    pub parent: Option<Ino>,
}

/// The per-tape restore queues (§4.1.2-2): entries for one tape are kept
/// together and, when ordering is enabled, in ascending tape-sequence
/// order so the volume reads front-to-back.
#[derive(Debug, Default)]
pub struct TapeQueues {
    queues: BTreeMap<u32, VecDeque<TapeEntry>>,
    ordering: bool,
    len: usize,
}

impl TapeQueues {
    pub fn new(ordering: bool) -> Self {
        TapeQueues {
            queues: BTreeMap::new(),
            ordering,
            len: 0,
        }
    }

    /// Insert an entry into its tape's queue.
    pub fn push(&mut self, tape: u32, entry: TapeEntry) {
        let q = self.queues.entry(tape).or_default();
        if self.ordering {
            // binary search by seq keeps each queue sorted as it fills
            let pos = q.partition_point(|e| e.seq <= entry.seq);
            q.insert(pos, entry);
        } else {
            q.push_back(entry);
        }
        self.len += 1;
    }

    /// Remove and return one whole tape's queue (lowest tape id first) —
    /// the unit of TapeProc assignment.
    pub fn pop_tape(&mut self) -> Option<(u32, Vec<TapeEntry>)> {
        let tape = *self.queues.keys().next()?;
        let q = self.queues.remove(&tape)?;
        self.len -= q.len();
        Some((tape, q.into_iter().collect()))
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    fn tape_count(&self) -> usize {
        self.queues.len()
    }
}

/// All manager-side queues.
#[derive(Debug)]
pub struct ManagerQueues {
    /// Directories awaiting expansion.
    pub dirq: VecDeque<(Arc<WalkDir>, SimInstant)>,
    /// Files awaiting stat.
    pub nameq: VecDeque<StatRequest>,
    /// Data-movement jobs awaiting a worker.
    pub copyq: VecDeque<WorkerJob>,
    /// Per-tape restore queues.
    pub tapecq: TapeQueues,
}

impl ManagerQueues {
    pub fn new(tape_ordering: bool) -> Self {
        ManagerQueues {
            dirq: VecDeque::new(),
            nameq: VecDeque::new(),
            copyq: VecDeque::new(),
            tapecq: TapeQueues::new(tape_ordering),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(name: &str) -> Entry {
        let dir = Arc::new(WalkDir {
            path: "/".into(),
            dst: None,
            dst_name: None,
        });
        Entry {
            dir,
            name: name.into(),
        }
    }

    fn entry(seq: u32) -> TapeEntry {
        TapeEntry {
            seq,
            ino: Ino(seq as u64 + 1),
            file: file(&format!("f{seq}")),
            parent: None,
        }
    }

    #[test]
    fn ordered_queue_sorts_by_seq() {
        let mut tq = TapeQueues::new(true);
        for seq in [5, 1, 9, 3, 7] {
            tq.push(0, entry(seq));
        }
        let (_, q) = tq.pop_tape().unwrap();
        let seqs: Vec<u32> = q.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 3, 5, 7, 9]);
        assert!(tq.is_empty());
    }

    #[test]
    fn unordered_queue_preserves_arrival() {
        let mut tq = TapeQueues::new(false);
        for seq in [5, 1, 9] {
            tq.push(0, entry(seq));
        }
        let (_, q) = tq.pop_tape().unwrap();
        let seqs: Vec<u32> = q.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![5, 1, 9]);
    }

    #[test]
    fn tapes_pop_in_id_order_and_stay_separate() {
        let mut tq = TapeQueues::new(true);
        tq.push(3, entry(1));
        tq.push(1, entry(2));
        tq.push(1, entry(1));
        assert_eq!(tq.len(), 3);
        assert_eq!(tq.tape_count(), 2);
        let (tape, q) = tq.pop_tape().unwrap();
        assert_eq!(tape, 1);
        assert_eq!(q.len(), 2);
        let (tape, _) = tq.pop_tape().unwrap();
        assert_eq!(tape, 3);
        assert!(tq.pop_tape().is_none());
    }

    #[test]
    fn duplicate_seqs_keep_stable_order() {
        let mut tq = TapeQueues::new(true);
        let mut a = entry(4);
        a.file = file("first");
        let mut b = entry(4);
        b.file = file("second");
        tq.push(0, a);
        tq.push(0, b);
        let (_, q) = tq.pop_tape().unwrap();
        assert_eq!(q[0].file.path(), "/first");
        assert_eq!(q[1].file.path(), "/second");
    }
}
