//! # copra-metadb — the exported TSM catalog replica (MySQL stand-in)
//!
//! §4.2.5 of the paper: TSM ≤5.5 keeps its object catalog in a proprietary
//! database whose (tape id, sequence id) fields are not indexed and cannot
//! be; LANL therefore *exports the relevant parts of the TSM database into
//! MySQL*, adds indexes, and has PFTool query that replica to sort recalls
//! into tape order and to resolve file → TSM object id for the synchronous
//! deleter (§4.2.6).
//!
//! This crate is that replica and nothing else. [`tsm::TsmCatalog`] is
//! the exported-TSM schema the integration uses: its rows in a slab indexed
//! by object id plus one typed index, `by_ino`, each file id's objects in
//! objid order. PFTool reads each object's
//! (tape, seq) by object id and orders restores in its own per-tape queues
//! (`copra_pftool::queues`).

pub mod tsm;

pub use tsm::{ExportPass, TsmCatalog, TsmObjectRow};
