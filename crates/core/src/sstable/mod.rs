//! Sorted string tables.
//!
//! Layout (a simplified LevelDB table format):
//!
//! ```text
//! [data block 0] [data block 1] … [bloom filter] [index block] [footer]
//! ```
//!
//! * Data and index blocks use prefix compression with restart points and
//!   carry a `type + masked CRC32C` trailer.
//! * The index block maps the last internal key of each data block to its
//!   [`BlockHandle`].
//! * One table-wide bloom filter over user keys (10 bits/key by default).
//! * The fixed-size footer stores the filter and index handles plus a
//!   magic number.
//!
//! [`TableBuilder`] is pure (produces the table's bytes); [`Table`] reads
//! through the simulated filesystem and charges virtual time for block
//! loads, consulting the engine's shared block cache first.

mod block;
mod bloom;
mod builder;
mod format;
mod reader;

pub use block::{Block, BlockBuilder, BlockIter};
pub use bloom::BloomFilter;
pub use builder::TableBuilder;
pub use format::{BlockHandle, Footer, FOOTER_SIZE, TABLE_MAGIC};
pub use reader::{Table, TableIter};
