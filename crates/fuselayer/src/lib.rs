//! # copra-fuse — the ArchiveFUSE chunking overlay
//!
//! §4.1.2-4: archiving a single very large file (>100 GB) onto many tapes
//! means N workers hammering one file — an N-to-1 parallel-I/O problem —
//! and a single multi-hundred-gigabyte tape object. LANL's fix is a FUSE
//! file system on top of GPFS that *transparently* represents such a file
//! as N equal-size chunk files, converting N-to-1 into N-to-N: each chunk
//! is an ordinary file with its own inode that HSM can migrate to (and
//! recall from) a different tape in parallel.
//!
//! The overlay also owns two integration duties:
//!
//! * **truncate/unlink interception** (§4.3.1, §6.3): deleting or
//!   overwriting a chunked file moves its chunks into the trashcan instead
//!   of silently orphaning their tape copies;
//! * **restart marking** (§4.5): each chunk carries a content fingerprint,
//!   so an interrupted transfer can tell good chunks (skip) from bad ones
//!   (resend) without re-reading terabytes.
//!
//! Physical layout: a chunked file at `/p/f` is a directory `/p/f`
//! marked [`ChunkMark::Dir`] with the file's logical size, containing
//! `chunk.00000`, `chunk.00001`, … each marked [`ChunkMark::Chunk`] with
//! its content fingerprint. [`ArchiveFuse::make_chunk_dir`] and
//! [`ArchiveFuse::create_chunk`] are the only writers of this layout.
//! Plain files below the size threshold pass straight through.

use copra_pfs::{HsmState, Pfs, ReadOutcome};
use copra_simtime::DataSize;
use copra_vfs::{ChunkMark, Content, FsError, FsResult, Ino, InodeAttr};
use serde::{Deserialize, Serialize};

/// Result of reading through the overlay.
#[derive(Debug, Clone)]
pub enum FuseRead {
    /// All bytes were on disk.
    Data(Content),
    /// One or more chunks (or the plain file) are migrated stubs; recall
    /// these objects first.
    NeedsRecall(Vec<(Ino, u64)>),
}

/// Manifest entry for one chunk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkInfo {
    pub index: u32,
    pub path: String,
    pub ino: Ino,
    pub len: u64,
    /// Content fingerprint recorded at write time.
    pub fingerprint: u64,
    /// HSM residency of this chunk.
    pub hsm: HsmState,
}

/// The overlay mount.
#[derive(Clone)]
pub struct ArchiveFuse {
    pfs: Pfs,
    /// Files at or above this logical size are chunked.
    threshold: DataSize,
    /// Target chunk size.
    chunk_size: DataSize,
}

fn chunk_name(index: u32) -> String {
    format!("chunk.{index:05}")
}

/// The logical size of the chunked file whose directory `attr` describes;
/// `None` for anything else.
fn logical_size(attr: &InodeAttr) -> Option<u64> {
    match attr.chunk_mark {
        Some(ChunkMark::Dir { logical }) if attr.is_dir() => Some(logical),
        _ => None,
    }
}

impl ArchiveFuse {
    /// Mount the overlay over `pfs`. The paper's regime: threshold 100 GB,
    /// chunks sized so a file spreads across many tapes.
    pub fn new(pfs: Pfs, threshold: DataSize, chunk_size: DataSize) -> Self {
        assert!(!chunk_size.is_zero(), "chunk size must be positive");
        ArchiveFuse {
            pfs,
            threshold,
            chunk_size,
        }
    }

    /// Paper defaults: chunk files ≥100 GB into 10 GB pieces.
    pub fn paper_defaults(pfs: Pfs) -> Self {
        ArchiveFuse::new(pfs, DataSize::gb(100), DataSize::gb(10))
    }

    pub fn pfs(&self) -> &Pfs {
        &self.pfs
    }

    pub fn chunk_size(&self) -> DataSize {
        self.chunk_size
    }

    pub fn threshold(&self) -> DataSize {
        self.threshold
    }

    /// Is the entry at `path` a chunked file?
    pub fn is_chunked(&self, path: &str) -> FsResult<bool> {
        Ok(logical_size(&self.pfs.stat(path)?).is_some())
    }

    /// Create (or replace) a file through the overlay. Large content is
    /// split into chunks; small content becomes a plain file.
    pub fn write_file(&self, path: &str, uid: u32, content: Content) -> FsResult<()> {
        // Displace whatever is there (plain or chunked) first.
        if self.pfs.exists(path) {
            self.remove(path)?;
        }
        if (content.len() as u128) < self.threshold.as_bytes() as u128 {
            self.pfs.create_file(path, uid, content)?;
            return Ok(());
        }
        let logical = content.len();
        self.make_chunk_dir(path, uid, logical)?;
        let chunk = self.chunk_size.as_bytes();
        let mut index = 0u32;
        let mut off = 0u64;
        while off < logical {
            let take = chunk.min(logical - off);
            self.create_chunk(path, index, uid, content.slice(off, take))?;
            off += take;
            index += 1;
        }
        Ok(())
    }

    /// Make (or re-mark) `path` the directory of a chunked file of
    /// `logical` bytes owned by `uid`.
    pub fn make_chunk_dir(&self, path: &str, uid: u32, logical: u64) -> FsResult<Ino> {
        let ino = self.pfs.mkdir_p(path)?;
        self.pfs.vfs().chown(ino, uid)?;
        self.pfs
            .vfs()
            .set_chunk_mark(ino, ChunkMark::Dir { logical })?;
        Ok(ino)
    }

    /// Write chunk `index` of the chunked file at `dir`, replacing any
    /// chunk already there, and mark it with its content fingerprint.
    pub fn create_chunk(&self, dir: &str, index: u32, uid: u32, content: Content) -> FsResult<Ino> {
        let path = copra_vfs::join(dir, &chunk_name(index));
        if self.pfs.exists(&path) {
            self.pfs.unlink(&path)?;
        }
        let fingerprint = content.fingerprint();
        let ino = self.pfs.create_file(&path, uid, content)?;
        self.pfs
            .vfs()
            .set_chunk_mark(ino, ChunkMark::Chunk { fingerprint })?;
        Ok(ino)
    }

    /// Logical stat: chunked files report their full size.
    pub fn stat(&self, path: &str) -> FsResult<InodeAttr> {
        let mut attr = self.pfs.stat(path)?;
        if let Some(size) = logical_size(&attr) {
            attr.size = size;
        }
        Ok(attr)
    }

    /// The chunk manifest of a chunked file, in index order.
    pub fn chunks(&self, path: &str) -> FsResult<Vec<ChunkInfo>> {
        if !self.is_chunked(path)? {
            return Err(FsError::NotADirectory(format!("{path} is not chunked")));
        }
        let mut out = Vec::new();
        for entry in self.pfs.readdir(path)? {
            // The index is encoded in the name (`chunk.00042`): parse it
            // rather than trusting enumeration order, so a manifest built
            // over a partially-transferred file (missing middle chunks)
            // still lines up with the source.
            let Some(index) = entry
                .name
                .strip_prefix("chunk.")
                .and_then(|n| n.parse::<u32>().ok())
            else {
                continue;
            };
            let cpath = copra_vfs::join(path, &entry.name);
            let attr = self.pfs.stat_ino(entry.ino)?;
            let fingerprint = match attr.chunk_mark {
                Some(ChunkMark::Chunk { fingerprint }) => fingerprint,
                _ => 0,
            };
            out.push(ChunkInfo {
                index,
                path: cpath,
                ino: entry.ino,
                len: attr.size,
                fingerprint,
                hsm: attr.region.state,
            });
        }
        Ok(out)
    }

    /// Read a whole file through the overlay, reassembling chunks.
    pub fn read_file(&self, path: &str) -> FsResult<FuseRead> {
        let attr = self.pfs.stat(path)?;
        if attr.is_file() {
            let size = attr.size;
            return match self.pfs.read(attr.ino, 0, size)? {
                ReadOutcome::Data(c) => Ok(FuseRead::Data(c)),
                ReadOutcome::NeedsRecall { ino, objid } => {
                    Ok(FuseRead::NeedsRecall(vec![(ino, objid)]))
                }
            };
        }
        // chunked
        let chunks = self.chunks(path)?;
        let mut needs = Vec::new();
        let mut data = Content::empty();
        for c in &chunks {
            match self.pfs.read(c.ino, 0, c.len)? {
                ReadOutcome::Data(piece) => data.extend(piece),
                ReadOutcome::NeedsRecall { ino, objid } => needs.push((ino, objid)),
            }
        }
        if needs.is_empty() {
            Ok(FuseRead::Data(data))
        } else {
            Ok(FuseRead::NeedsRecall(needs))
        }
    }

    /// Remove a file (plain or chunked) outright, returning the attributes
    /// of every removed regular file — the synchronous deleter consumes
    /// these to kill the matching tape objects.
    pub fn remove(&self, path: &str) -> FsResult<Vec<InodeAttr>> {
        let attr = self.pfs.stat(path)?;
        if attr.is_file() {
            return Ok(vec![self.pfs.unlink(path)?]);
        }
        if logical_size(&attr).is_none() {
            return Err(FsError::IsADirectory(format!(
                "{path} is a real directory, not a chunked file"
            )));
        }
        let mut removed = Vec::new();
        for entry in self.pfs.readdir(path)? {
            let cpath = copra_vfs::join(path, &entry.name);
            removed.push(self.pfs.unlink(&cpath)?);
        }
        self.pfs.rmdir(path)?;
        Ok(removed)
    }

    /// Unlink interception (§4.3.1): move the file (plain or chunked) into
    /// the trashcan directory instead of deleting, so a later synchronous
    /// delete (or an un-delete) can handle the tape copies. Returns the
    /// trash path used.
    pub fn unlink_to_trash(&self, path: &str, trash_root: &str) -> FsResult<String> {
        let attr = self.pfs.stat(path)?;
        let (_, name) = copra_vfs::parent_and_name(path)?;
        let dir = format!("{trash_root}/{}", attr.uid);
        self.pfs.mkdir_p(&dir)?;
        // Unique destination name: append the inode number.
        let dest = format!("{dir}/{name}.{}", attr.ino.0);
        self.pfs.rename(path, &dest)?;
        Ok(dest)
    }

    /// Restart support (§4.5): compare a destination file's chunks against
    /// a source manifest; return the chunk indices that must be re-sent
    /// (missing or fingerprint-mismatched). Good chunks are skipped.
    pub fn stale_chunks(&self, dest_path: &str, source: &[ChunkInfo]) -> FsResult<Vec<u32>> {
        let dest: std::collections::HashMap<u32, ChunkInfo> = match self.is_chunked(dest_path) {
            Ok(true) => self
                .chunks(dest_path)?
                .into_iter()
                .map(|c| (c.index, c))
                .collect(),
            _ => Default::default(),
        };
        Ok(source
            .iter()
            .filter(|s| {
                dest.get(&s.index)
                    .map(|d| d.fingerprint != s.fingerprint || d.len != s.len)
                    .unwrap_or(true)
            })
            .map(|s| s.index)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copra_pfs::{PfsBuilder, PoolConfig};
    use copra_simtime::Clock;

    fn fuse(threshold_mb: u64, chunk_mb: u64) -> ArchiveFuse {
        let pfs = PfsBuilder::new("archive", Clock::new())
            .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(100)))
            .build();
        pfs.mkdir_p("/data").unwrap();
        pfs.mkdir_p("/.trash").unwrap();
        ArchiveFuse::new(pfs, DataSize::mb(threshold_mb), DataSize::mb(chunk_mb))
    }

    #[test]
    fn small_files_pass_through() {
        let f = fuse(100, 10);
        f.write_file("/data/small", 0, Content::synthetic(1, 1 << 20))
            .unwrap();
        assert!(!f.is_chunked("/data/small").unwrap());
        assert_eq!(f.stat("/data/small").unwrap().size, 1 << 20);
        match f.read_file("/data/small").unwrap() {
            FuseRead::Data(c) => assert_eq!(c.len(), 1 << 20),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn large_files_are_chunked_transparently() {
        let f = fuse(100, 10);
        let content = Content::synthetic(7, 105_000_000); // 105 MB > 100 MB
        f.write_file("/data/big", 0, content.clone()).unwrap();
        assert!(f.is_chunked("/data/big").unwrap());
        let chunks = f.chunks("/data/big").unwrap();
        assert_eq!(chunks.len(), 11); // 10×10 MB + 1×5 MB
        assert_eq!(chunks.iter().map(|c| c.len).sum::<u64>(), 105_000_000);
        assert_eq!(f.stat("/data/big").unwrap().size, 105_000_000);
        match f.read_file("/data/big").unwrap() {
            FuseRead::Data(c) => assert!(c.eq_content(&content)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn chunk_fingerprints_recorded() {
        let f = fuse(10, 4);
        let content = Content::synthetic(3, 12_000_000);
        f.write_file("/data/f", 0, content.clone()).unwrap();
        for c in f.chunks("/data/f").unwrap() {
            let piece = f.pfs().read_resident(&c.path).unwrap();
            assert_eq!(piece.fingerprint(), c.fingerprint);
        }
    }

    #[test]
    fn remove_returns_all_chunk_attrs() {
        let f = fuse(10, 4);
        f.write_file("/data/f", 0, Content::synthetic(3, 12_000_000))
            .unwrap();
        let removed = f.remove("/data/f").unwrap();
        assert_eq!(removed.len(), 3);
        assert!(!f.pfs().exists("/data/f"));
    }

    #[test]
    fn remove_refuses_real_directories() {
        let f = fuse(10, 4);
        f.pfs().mkdir_p("/data/realdir").unwrap();
        assert!(f.remove("/data/realdir").is_err());
    }

    #[test]
    fn unlink_to_trash_parks_chunked_file() {
        let f = fuse(10, 4);
        f.write_file("/data/f", 42, Content::synthetic(3, 12_000_000))
            .unwrap();
        let dest = f.unlink_to_trash("/data/f", "/.trash").unwrap();
        assert!(!f.pfs().exists("/data/f"));
        assert!(f.pfs().exists(&dest));
        assert!(dest.starts_with("/.trash/42/"));
        // the parked file is still a valid chunked file
        assert!(f.is_chunked(&dest).unwrap());
        match f.read_file(&dest).unwrap() {
            FuseRead::Data(c) => assert_eq!(c.len(), 12_000_000),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stale_chunks_drive_restart() {
        let f = fuse(10, 4);
        let content = Content::synthetic(5, 20_000_000); // 5 chunks
        f.write_file("/src", 0, content.clone()).unwrap();
        let manifest = f.chunks("/src").unwrap();

        // Nothing at the destination: everything is stale.
        assert_eq!(f.stale_chunks("/dst", &manifest), Ok(vec![0, 1, 2, 3, 4]));

        // Copy chunks 0,1,2 only (simulated partial transfer).
        f.make_chunk_dir("/dst", 0, 20_000_000).unwrap();
        for c in &manifest[..3] {
            let piece = f.pfs().read_resident(&c.path).unwrap();
            f.create_chunk("/dst", c.index, 0, piece).unwrap();
        }
        assert_eq!(f.stale_chunks("/dst", &manifest), Ok(vec![3, 4]));

        // Corrupt chunk 1's fingerprint: it becomes stale again.
        let bad = f.pfs().resolve("/dst/chunk.00001").unwrap();
        let mark = ChunkMark::Chunk { fingerprint: 12345 };
        f.pfs().vfs().set_chunk_mark(bad, mark).unwrap();
        assert_eq!(f.stale_chunks("/dst", &manifest), Ok(vec![1, 3, 4]));
    }

    #[test]
    fn rewrite_replaces_chunked_with_small() {
        let f = fuse(10, 4);
        f.write_file("/data/f", 0, Content::synthetic(3, 12_000_000))
            .unwrap();
        assert!(f.is_chunked("/data/f").unwrap());
        f.write_file("/data/f", 0, Content::synthetic(4, 100))
            .unwrap();
        assert!(!f.is_chunked("/data/f").unwrap());
        assert_eq!(f.stat("/data/f").unwrap().size, 100);
    }
}
