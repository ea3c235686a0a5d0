//! File content as a stream of fingerprinted segments.
//!
//! See the crate docs for the rationale. The key invariants, covered by the
//! unit and property tests:
//!
//! * `content.len()` is always the sum of its segment lengths;
//! * slicing then concatenating adjacent slices reproduces equal content;
//! * `eq_content` is boundary-insensitive (it compares logical bytes, not
//!   how they happen to be chunked).

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Deterministic byte generator for synthetic content: byte at absolute
/// stream offset `off` of stream `seed`.
#[inline]
pub fn synth_byte(seed: u64, off: u64) -> u8 {
    if seed == ZERO_SEED {
        return 0;
    }
    // splitmix64 finalizer over (seed, off); cheap and well mixed.
    let mut z = seed ^ off.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u8
}

fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .rotate_left(23)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(c);
    z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    // FNV-1a; content fingerprints are an integrity check, not a security
    // boundary (matches what `pfcm`-style byte comparison detects). FNV is
    // streamable: extending over concatenated slices equals hashing the
    // joined bytes, which is what makes fingerprints boundary-stable.
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    fnv_extend(FNV_OFFSET, bytes)
}

/// The payload of one segment.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentData {
    /// Real bytes, held in memory. Used for small files and unit tests.
    Literal(Bytes),
    /// A window of the deterministic stream `seed`, starting at absolute
    /// stream offset `offset`. The bytes are `synth_byte(seed, offset + i)`.
    Synthetic { seed: u64, offset: u64 },
}

impl fmt::Debug for SegmentData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentData::Literal(b) => write!(f, "Literal({}B)", b.len()),
            SegmentData::Synthetic { seed, offset } => {
                write!(f, "Synthetic(seed={seed:#x}, off={offset})")
            }
        }
    }
}

/// One run of file content.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    len: u64,
    data: SegmentData,
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Segment[{}b {:?}]", self.len, self.data)
    }
}

impl Segment {
    pub fn literal(bytes: impl Into<Bytes>) -> Self {
        let bytes = bytes.into();
        Segment {
            len: bytes.len() as u64,
            data: SegmentData::Literal(bytes),
        }
    }

    pub fn synthetic(seed: u64, offset: u64, len: u64) -> Self {
        Segment {
            len,
            data: SegmentData::Synthetic { seed, offset },
        }
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn data(&self) -> &SegmentData {
        &self.data
    }

    /// Stable fingerprint of this segment's logical bytes.
    ///
    /// For literal segments this hashes the bytes; for synthetic segments it
    /// is computed analytically from the descriptor, and the two agree in
    /// the sense that equal descriptors ⇒ equal bytes ⇒ equal fingerprints
    /// (the converse only matters for corruption detection, where a changed
    /// seed yields a different fingerprint with overwhelming probability).
    pub fn fingerprint(&self) -> u64 {
        match &self.data {
            SegmentData::Literal(b) => hash_bytes(b),
            SegmentData::Synthetic { seed, offset } => mix3(*seed, *offset, self.len),
        }
    }

    /// Sub-range `[start, start+len)` of this segment (segment-relative).
    pub fn slice(&self, start: u64, len: u64) -> Segment {
        assert!(
            start + len <= self.len,
            "slice [{start}, {}) out of segment of {}",
            start + len,
            self.len
        );
        match &self.data {
            SegmentData::Literal(b) => Segment {
                len,
                data: SegmentData::Literal(b.slice(start as usize..(start + len) as usize)),
            },
            SegmentData::Synthetic { seed, offset } => Segment {
                len,
                data: SegmentData::Synthetic {
                    seed: *seed,
                    offset: offset + start,
                },
            },
        }
    }

    /// Materialize the actual bytes. Intended for tests and small reads;
    /// panics on segments larger than 256 MiB to catch accidental
    /// materialization of simulated-scale data.
    pub fn materialize(&self) -> Bytes {
        assert!(
            self.len <= 256 << 20,
            "refusing to materialize a {}-byte segment",
            self.len
        );
        match &self.data {
            SegmentData::Literal(b) => b.clone(),
            SegmentData::Synthetic { seed, offset } => {
                let mut v = Vec::with_capacity(self.len as usize);
                for i in 0..self.len {
                    v.push(synth_byte(*seed, offset + i));
                }
                Bytes::from(v)
            }
        }
    }

    /// True if `other` continues this segment's stream immediately (so the
    /// two can merge into one segment).
    fn abuts(&self, other: &Segment) -> bool {
        match (&self.data, &other.data) {
            (
                SegmentData::Synthetic {
                    seed: s1,
                    offset: o1,
                },
                SegmentData::Synthetic {
                    seed: s2,
                    offset: o2,
                },
            ) => s1 == s2 && o1 + self.len == *o2,
            _ => false,
        }
    }
}

/// A file's logical content: an ordered run of segments.
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Content {
    segments: Vec<Segment>,
    len: u64,
}

impl fmt::Debug for Content {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Content[{}b, {} segs]", self.len, self.segments.len())
    }
}

impl Content {
    pub fn empty() -> Self {
        Content::default()
    }

    fn from_segment(seg: Segment) -> Self {
        let len = seg.len();
        let segments = if len == 0 { Vec::new() } else { vec![seg] };
        Content { segments, len }
    }

    /// Literal content from real bytes.
    pub fn literal(bytes: impl Into<Bytes>) -> Self {
        Content::from_segment(Segment::literal(bytes))
    }

    /// A synthetic file of `len` bytes drawn from stream `seed`.
    pub fn synthetic(seed: u64, len: u64) -> Self {
        Content::from_segment(Segment::synthetic(seed, 0, len))
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a segment, merging with the tail when the streams abut.
    pub fn push(&mut self, seg: Segment) {
        if seg.is_empty() {
            return;
        }
        self.len += seg.len();
        if let Some(tail) = self.segments.last_mut() {
            if tail.abuts(&seg) {
                tail.len += seg.len();
                return;
            }
        }
        self.segments.push(seg);
    }

    /// Append all of `other`.
    pub fn extend(&mut self, other: Content) {
        for seg in other.segments {
            self.push(seg);
        }
    }

    /// Copy of the logical range `[offset, offset+len)`.
    ///
    /// Panics if the range exceeds the content length (callers validate
    /// against `stat` first, as real movers do).
    pub fn slice(&self, offset: u64, len: u64) -> Content {
        assert!(
            offset + len <= self.len,
            "slice [{offset}, {}) out of content of {}",
            offset + len,
            self.len
        );
        let mut out = Content::empty();
        if len == 0 {
            return out;
        }
        let mut pos = 0u64;
        let mut remaining = len;
        let mut start = offset;
        for seg in &self.segments {
            let seg_end = pos + seg.len();
            if seg_end <= start {
                pos = seg_end;
                continue;
            }
            let local_start = start - pos;
            let take = (seg.len() - local_start).min(remaining);
            out.push(seg.slice(local_start, take));
            remaining -= take;
            start += take;
            pos = seg_end;
            if remaining == 0 {
                break;
            }
        }
        debug_assert_eq!(out.len(), len);
        out
    }

    /// Overwrite the range starting at `offset` with `patch`, extending the
    /// file if the patch runs past the current end. A patch starting beyond
    /// EOF zero-fills the gap (with a literal zero run for small gaps, a
    /// synthetic zero stream for large ones).
    pub fn write_at(&mut self, offset: u64, patch: Content) -> &mut Self {
        let patch_len = patch.len();
        let mut out = Content::empty();
        if offset > 0 {
            let head = offset.min(self.len);
            out.extend(self.slice(0, head));
            if offset > self.len {
                out.extend(zero_fill(self.len, offset - self.len));
            }
        }
        out.extend(patch);
        let tail_start = offset + patch_len;
        if tail_start < self.len {
            out.extend(self.slice(tail_start, self.len - tail_start));
        }
        *self = out;
        self
    }

    /// Truncate to `new_len` (extending with zeros if larger).
    pub fn truncate(&mut self, new_len: u64) {
        if new_len <= self.len {
            *self = self.slice(0, new_len);
        } else {
            let grow = new_len - self.len;
            let at = self.len;
            self.extend(zero_fill(at, grow));
        }
    }

    /// Boundary-insensitive logical-byte equality.
    pub fn eq_content(&self, other: &Content) -> bool {
        if self.len != other.len {
            return false;
        }
        let mut a = PieceCursor::new(&self.segments);
        let mut b = PieceCursor::new(&other.segments);
        loop {
            match (a.peek(), b.peek()) {
                (None, None) => return true,
                (Some(pa), Some(pb)) => {
                    let take = pa.len.min(pb.len);
                    if !pieces_equal(&pa, &pb, take) {
                        return false;
                    }
                    a.advance(take);
                    b.advance(take);
                }
                _ => return false, // lengths equal, so this is unreachable
            }
        }
    }

    /// Order- and boundary-stable fingerprint of the whole content: the
    /// fingerprints of fixed-width logical blocks are combined, so equal
    /// logical bytes give equal fingerprints regardless of segmentation —
    /// *within* one representation (literal vs synthetic). Copies made
    /// through the VFS preserve representation, so fingerprints survive
    /// every archive path; only a byte-identical re-write through a
    /// different representation would differ, and `eq_content` handles that
    /// case by materializing.
    pub fn fingerprint(&self) -> u64 {
        // Stream over maximal homogeneous runs: consecutive literal
        // segments hash as one continuous FNV stream, and abutting
        // synthetic segments of the same stream collapse to one
        // (seed, start, len) descriptor — so the result is independent of
        // how the bytes happen to be chunked.
        enum Run {
            None,
            Lit { fnv: u64, len: u64 },
            Syn { seed: u64, start: u64, len: u64 },
        }
        fn flush(acc: u64, run: &Run) -> u64 {
            match run {
                Run::None => acc,
                Run::Lit { fnv, len } => mix3(acc, *fnv, *len),
                Run::Syn { seed, start, len } => mix3(acc, mix3(*seed, *start, *len), *len),
            }
        }
        let mut acc = 0x2545_F491_4F6C_DD1Du64 ^ self.len;
        let mut run = Run::None;
        for seg in &self.segments {
            match seg.data() {
                SegmentData::Literal(b) => {
                    if let Run::Lit { fnv, len } = &mut run {
                        *fnv = fnv_extend(*fnv, b);
                        *len += seg.len();
                    } else {
                        acc = flush(acc, &run);
                        run = Run::Lit {
                            fnv: fnv_extend(FNV_OFFSET, b),
                            len: seg.len(),
                        };
                    }
                }
                SegmentData::Synthetic { seed, offset } => {
                    if let Run::Syn {
                        seed: s,
                        start,
                        len,
                    } = &mut run
                    {
                        if *s == *seed && *start + *len == *offset {
                            *len += seg.len();
                            continue;
                        }
                    }
                    acc = flush(acc, &run);
                    run = Run::Syn {
                        seed: *seed,
                        start: *offset,
                        len: seg.len(),
                    };
                }
            }
        }
        flush(acc, &run)
    }

    /// Materialize all bytes (test-sized contents only; see
    /// [`Segment::materialize`]).
    pub fn materialize(&self) -> Bytes {
        let mut v = Vec::with_capacity(self.len as usize);
        for seg in &self.segments {
            v.extend_from_slice(&seg.materialize());
        }
        Bytes::from(v)
    }

    /// Number of stored segments (diagnostic; copies should not fragment
    /// content without bound).
    #[cfg(test)]
    fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

/// Reserved stream seed whose bytes are all zero (sparse-gap fill).
pub const ZERO_SEED: u64 = 0x5EED_0000_0000_0000;

fn zero_fill(abs_offset: u64, len: u64) -> Content {
    // Zeros are stored literally for small gaps (friendlier to byte-level
    // tests) and as the reserved all-zero stream descriptor for large ones.
    const ZERO_LITERAL_CAP: u64 = 1 << 20;
    if len <= ZERO_LITERAL_CAP {
        Content::literal(vec![0u8; len as usize])
    } else {
        Content::from_segment(Segment::synthetic(ZERO_SEED, abs_offset, len))
    }
}

/// A cursor yielding maximal remaining pieces of a segment list.
struct PieceCursor<'a> {
    segments: &'a [Segment],
    idx: usize,
    /// Offset consumed within segments[idx].
    within: u64,
}

struct Piece<'a> {
    seg: &'a Segment,
    start: u64,
    len: u64,
}

impl<'a> PieceCursor<'a> {
    fn new(segments: &'a [Segment]) -> Self {
        PieceCursor {
            segments,
            idx: 0,
            within: 0,
        }
    }

    fn peek(&self) -> Option<Piece<'a>> {
        let seg = self.segments.get(self.idx)?;
        Some(Piece {
            seg,
            start: self.within,
            len: seg.len() - self.within,
        })
    }

    fn advance(&mut self, by: u64) {
        self.within += by;
        while let Some(seg) = self.segments.get(self.idx) {
            if self.within < seg.len() {
                break;
            }
            self.within -= seg.len();
            self.idx += 1;
        }
    }
}

fn pieces_equal(a: &Piece<'_>, b: &Piece<'_>, take: u64) -> bool {
    let sa = a.seg.slice(a.start, take);
    let sb = b.seg.slice(b.start, take);
    match (sa.data(), sb.data()) {
        (
            SegmentData::Synthetic {
                seed: s1,
                offset: o1,
            },
            SegmentData::Synthetic {
                seed: s2,
                offset: o2,
            },
        ) => {
            if s1 == s2 && o1 == o2 {
                true
            } else {
                // Different descriptors could in principle collide on
                // bytes; for test-scale pieces check honestly, for
                // simulated-scale pieces treat as unequal (a corruption
                // report, which is the conservative direction).
                take <= (16 << 20) && sa.materialize() == sb.materialize()
            }
        }
        _ => sa.materialize() == sb.materialize(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_roundtrip() {
        let c = Content::literal(&b"hello archive"[..]);
        assert_eq!(c.len(), 13);
        assert_eq!(&c.materialize()[..], b"hello archive");
    }

    #[test]
    fn synthetic_is_deterministic() {
        let a = Content::synthetic(42, 1000).materialize();
        let b = Content::synthetic(42, 1000).materialize();
        assert_eq!(a, b);
        let c = Content::synthetic(43, 1000).materialize();
        assert_ne!(a, c);
    }

    #[test]
    fn slice_matches_materialized_slice() {
        let c = Content::synthetic(7, 4096);
        let s = c.slice(100, 200);
        assert_eq!(s.len(), 200);
        assert_eq!(s.materialize(), c.materialize().slice(100..300));
    }

    #[test]
    fn slicing_then_concatenating_is_identity() {
        let c = Content::synthetic(9, 10_000);
        let mut rebuilt = Content::empty();
        for chunk_start in (0..10_000u64).step_by(1234) {
            let len = 1234.min(10_000 - chunk_start);
            rebuilt.extend(c.slice(chunk_start, len));
        }
        assert_eq!(rebuilt.len(), c.len());
        assert!(rebuilt.eq_content(&c));
        assert_eq!(rebuilt.fingerprint(), c.fingerprint());
        // Abutting synthetic slices merge back into one segment.
        assert_eq!(rebuilt.segment_count(), 1);
    }

    #[test]
    fn eq_content_is_boundary_insensitive() {
        let a = Content::literal(&b"abcdefgh"[..]);
        let mut b = Content::empty();
        b.push(Segment::literal(&b"abc"[..]));
        b.push(Segment::literal(&b"de"[..]));
        b.push(Segment::literal(&b"fgh"[..]));
        assert!(a.eq_content(&b));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn eq_content_detects_single_byte_difference() {
        let a = Content::literal(&b"abcdefgh"[..]);
        let b = Content::literal(&b"abcdeFgh"[..]);
        assert!(!a.eq_content(&b));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn mixed_literal_synthetic_compare() {
        let synth = Content::synthetic(5, 512);
        let lit = Content::literal(synth.materialize());
        assert!(synth.eq_content(&lit));
        let other = Content::literal(Content::synthetic(6, 512).materialize());
        assert!(!synth.eq_content(&other));
    }

    #[test]
    fn write_at_overwrites_middle() {
        let mut c = Content::literal(&b"aaaaaaaaaa"[..]);
        c.write_at(3, Content::literal(&b"BBB"[..]));
        assert_eq!(&c.materialize()[..], b"aaaBBBaaaa");
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn write_at_extends_past_eof() {
        let mut c = Content::literal(&b"abc"[..]);
        c.write_at(5, Content::literal(&b"XY"[..]));
        assert_eq!(&c.materialize()[..], b"abc\0\0XY");
        assert_eq!(c.len(), 7);
    }

    #[test]
    fn truncate_shrinks_and_grows() {
        let mut c = Content::literal(&b"abcdef"[..]);
        c.truncate(3);
        assert_eq!(&c.materialize()[..], b"abc");
        c.truncate(5);
        assert_eq!(&c.materialize()[..], b"abc\0\0");
    }

    #[test]
    fn huge_synthetic_never_materializes() {
        // 40 TB file: descriptor ops must be cheap and not allocate bytes.
        let c = Content::synthetic(1, 40_000_000_000_000);
        let s = c.slice(39_999_999_000_000, 1_000_000);
        assert_eq!(s.len(), 1_000_000);
        let _ = c.fingerprint(); // must not blow up
    }

    #[test]
    #[should_panic(expected = "refusing to materialize")]
    fn materialize_guard_trips() {
        let _ = Content::synthetic(1, 1 << 30).materialize();
    }

    #[test]
    fn empty_content_behaves() {
        let c = Content::empty();
        assert!(c.is_empty());
        assert!(c.eq_content(&Content::empty()));
        assert_eq!(c.slice(0, 0).len(), 0);
    }
}
