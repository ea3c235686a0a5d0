//! The Manager's work queues (Figure 3): DirQ, NameQ, CopyQ and the
//! per-tape TapeCQ set, with the work items they hold.

use copra_pfs::HsmState;
use copra_simtime::SimInstant;
use copra_trace::SpanContext;
use copra_vfs::Ino;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Stat output for one file, as Workers report it back to the Manager.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileMeta {
    pub path: String,
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
    /// Create the destination file outright (fuse chunk files); the
    /// worker records the chunk fingerprint xattr.
    CreateChunk { uid: u32 },
}

/// One unit of data movement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyJob {
    /// Physical file to read (may be a fuse chunk file), by path for
    /// errors and by inode for the read.
    pub src_path: String,
    pub src_ino: Ino,
    pub src_offset: u64,
    pub len: u64,
    /// Physical file to write (its path keys the copy span).
    pub dst_path: String,
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

/// One unit of comparison (`pfcm`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareJob {
    /// Source path, for the output line and errors.
    pub src_path: String,
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatRequest {
    pub path: String,
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeEntry {
    pub seq: u32,
    pub path: String,
    pub ino: Ino,
    /// For a fuse chunk restore: the logical file the chunk belongs to
    /// (path and chunk-directory inode). The manager re-queues the logical
    /// file once every chunk is back.
    pub parent: Option<(String, Ino)>,
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

    pub fn tape_count(&self) -> usize {
        self.queues.len()
    }
}

/// All manager-side queues.
#[derive(Debug)]
pub struct ManagerQueues {
    /// Directories awaiting expansion.
    pub dirq: VecDeque<(String, SimInstant)>,
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

    /// True when nothing is queued anywhere.
    pub fn all_empty(&self) -> bool {
        self.dirq.is_empty()
            && self.nameq.is_empty()
            && self.copyq.is_empty()
            && self.tapecq.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u32) -> TapeEntry {
        TapeEntry {
            seq,
            path: format!("/f{seq}"),
            ino: Ino(seq as u64 + 1),
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
        a.path = "/first".into();
        let mut b = entry(4);
        b.path = "/second".into();
        tq.push(0, a);
        tq.push(0, b);
        let (_, q) = tq.pop_tape().unwrap();
        assert_eq!(q[0].path, "/first");
        assert_eq!(q[1].path, "/second");
    }

    #[test]
    fn manager_queues_emptiness() {
        let mut q = ManagerQueues::new(true);
        assert!(q.all_empty());
        q.nameq.push_back(StatRequest {
            path: "/f".into(),
            ino: Ino(2),
            chunked: false,
            ready: SimInstant::EPOCH,
            ctx: None,
        });
        assert!(!q.all_empty());
    }
}
