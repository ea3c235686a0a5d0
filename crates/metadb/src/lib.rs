//! # copra-metadb — an embedded indexed table store (MySQL stand-in)
//!
//! §4.2.5 of the paper: TSM ≤5.5 keeps its object catalog in a proprietary
//! database whose (tape id, sequence id) fields are not indexed and cannot
//! be; LANL therefore *exports the relevant parts of the TSM database into
//! MySQL*, adds indexes, and has PFTool query that replica to sort recalls
//! into tape order and to resolve file → TSM object id for the synchronous
//! deleter (§4.2.6).
//!
//! This crate is that replica: a small embedded store offering typed tables
//! with a primary key and any number of ordered secondary indexes
//! ([`table::Table`]), plus the concrete exported-TSM schema
//! ([`tsm::TsmCatalog`]) the integration uses.

pub mod table;
pub mod tsm;

pub use table::{IndexKey, Table, Value};
pub use tsm::{ExportPass, TsmCatalog, TsmObjectRow};
