//! Cartridges and on-tape records.

use copra_simtime::DataSize;
use copra_vfs::Content;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Cartridge identifier (volume serial).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TapeId(pub u32);

impl fmt::Display for TapeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VOL{:05}", self.0)
    }
}

/// Physical address of an object: which tape and which sequential record.
/// This is exactly the (Tape-ID, tape sequence number) pair the paper's
/// MySQL replica serves to PFTool (§4.2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TapeAddress {
    pub tape: TapeId,
    pub seq: u32,
}

/// One object written to tape.
#[derive(Debug, Clone)]
pub struct TapeRecord {
    pub seq: u32,
    pub objid: u64,
    pub len: u64,
    /// Byte position of the record start on tape.
    pub start: u64,
    /// Object image. `None` once the object has been deleted (tape space is
    /// not reclaimed — a dead record still occupies its span, as on real
    /// tape, until the volume is reclaimed wholesale).
    pub content: Option<Content>,
    /// Media damage flag: the span is unreadable (reads fail with a media
    /// error) but the object is still "live" in catalog terms.
    pub damaged: bool,
}

impl TapeRecord {
    pub fn is_deleted(&self) -> bool {
        self.content.is_none()
    }
}

/// A tape volume: an append-only sequence of records.
#[derive(Debug)]
pub struct Cartridge {
    id: TapeId,
    capacity: DataSize,
    records: Vec<TapeRecord>,
    bytes_written: u64,
}

impl Cartridge {
    pub fn new(id: TapeId, capacity: DataSize) -> Self {
        Cartridge {
            id,
            capacity,
            records: Vec::new(),
            bytes_written: 0,
        }
    }

    pub fn id(&self) -> TapeId {
        self.id
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    pub fn remaining(&self) -> DataSize {
        self.capacity
            .saturating_sub(DataSize::from_bytes(self.bytes_written))
    }

    pub fn records(&self) -> &[TapeRecord] {
        &self.records
    }

    /// Append an object at end-of-data. Returns the new record's sequence
    /// number, or `None` if the volume lacks space.
    pub fn append(&mut self, objid: u64, content: Content) -> Option<u32> {
        let len = content.len();
        if self.bytes_written + len > self.capacity.as_bytes() {
            return None;
        }
        let seq = self.records.len() as u32;
        self.records.push(TapeRecord {
            seq,
            objid,
            len,
            start: self.bytes_written,
            content: Some(content),
            damaged: false,
        });
        self.bytes_written += len;
        Some(seq)
    }

    pub fn record(&self, seq: u32) -> Option<&TapeRecord> {
        self.records.get(seq as usize)
    }

    /// Mark a record deleted (content dropped; span still occupied).
    /// Returns false if the seq is invalid or already deleted.
    pub fn delete(&mut self, seq: u32) -> bool {
        match self.records.get_mut(seq as usize) {
            Some(r) if r.content.is_some() => {
                r.content = None;
                true
            }
            _ => false,
        }
    }

    /// Live (non-deleted) object ids on this volume, in tape order.
    pub fn live_objects(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.records
            .iter()
            .filter(|r| !r.is_deleted())
            .map(|r| (r.seq, r.objid))
    }

    /// Bytes occupied by deleted records (reclaimable only by volume
    /// reclamation).
    fn dead_bytes(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.is_deleted())
            .map(|r| r.len)
            .sum()
    }

    /// Fraction of written bytes that are dead (TSM's reclamation
    /// threshold operates on this).
    pub fn reclaimable_fraction(&self) -> f64 {
        if self.bytes_written == 0 {
            0.0
        } else {
            self.dead_bytes() as f64 / self.bytes_written as f64
        }
    }

    /// Mark a record's media span damaged.
    pub fn damage(&mut self, seq: u32) -> bool {
        match self.records.get_mut(seq as usize) {
            Some(r) => {
                r.damaged = true;
                true
            }
            None => false,
        }
    }

    /// Wipe the volume back to scratch. Fails (returns false) while any
    /// live object remains — reclamation must move them first.
    pub fn erase(&mut self) -> bool {
        if self.records.iter().any(|r| !r.is_deleted()) {
            return false;
        }
        self.records.clear();
        self.bytes_written = 0;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_sequential_positions() {
        let mut c = Cartridge::new(TapeId(1), DataSize::mb(10));
        let s0 = c.append(100, Content::synthetic(1, 1_000_000)).unwrap();
        let s1 = c.append(101, Content::synthetic(2, 2_000_000)).unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(c.record(0).unwrap().start, 0);
        assert_eq!(c.record(1).unwrap().start, 1_000_000);
        assert_eq!(c.bytes_written(), 3_000_000);
    }

    #[test]
    fn append_respects_capacity() {
        let mut c = Cartridge::new(TapeId(1), DataSize::mb(1));
        assert!(c.append(1, Content::synthetic(1, 900_000)).is_some());
        assert!(c.append(2, Content::synthetic(2, 200_000)).is_none());
        assert_eq!(c.remaining(), DataSize::from_bytes(100_000));
    }

    #[test]
    fn delete_keeps_span_occupied() {
        let mut c = Cartridge::new(TapeId(1), DataSize::mb(10));
        c.append(1, Content::synthetic(1, 1_000_000)).unwrap();
        c.append(2, Content::synthetic(2, 1_000_000)).unwrap();
        assert!(c.delete(0));
        assert!(!c.delete(0)); // already dead
        assert!(!c.delete(9)); // invalid
        assert_eq!(c.dead_bytes(), 1_000_000);
        assert_eq!(c.bytes_written(), 2_000_000); // span not reclaimed
        let live: Vec<_> = c.live_objects().collect();
        assert_eq!(live, vec![(1, 2)]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TapeId(42).to_string(), "VOL00042");
    }
}
