//! The paper's I/O cost model (Sec. 4.2): *"we simulate a database I/O
//! buffer of a particular size, using an LRU policy for page replacement and
//! a write-back scheme for updating pages"*, and the performance metric is
//! the number of disk page I/O operations.
//!
//! [`BufferPool`] implements exactly that: a fixed number of page frames
//! managed with true O(1) LRU replacement, dirty bits, and write-back on
//! eviction. Every disk operation is attributed to the *context* in which it
//! occurred — [`IoContext::Application`] or [`IoContext::Collector`] — which
//! is how Table 2 separates "Application I/Os" from "Collector I/Os".
//!
//! The pool tracks page *identity* only; the simulation never moves actual
//! bytes. That is sufficient because the paper's metric is the count of disk
//! operations, not their contents.

mod lru;
mod pool;
mod stats;

pub use pool::{Access, BufferPool};
pub use stats::{IoContext, IoStats};
