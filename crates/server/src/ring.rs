//! The benchmark's stand-in for the retired shard ring (shards are fed
//! through `sync_channel`, see `server.rs`): the three calls `traced.rs`
//! times for `server.ring_roundtrip_ns`, compiled by CI's "Benchmark
//! self-test" step. It goes with that metric in ROADMAP item 4's change.

use std::sync::{mpsc, Arc};

/// A bounded FIFO over one `sync_channel`, both ends held here.
pub struct RingInbox<T> {
    tx: mpsc::SyncSender<T>,
    rx: mpsc::Receiver<T>,
}

impl<T> RingInbox<T> {
    /// A FIFO holding at most `capacity` messages (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        Arc::new(Self { tx, rx })
    }

    /// Enqueues `msg`, blocking while the FIFO is full.
    pub fn push(&self, msg: T) -> Result<(), T> {
        self.tx.send(msg).map_err(|e| e.0)
    }

    /// Dequeues the oldest message, blocking while the FIFO is empty.
    pub fn pop(&self) -> Option<T> {
        self.rx.recv().ok()
    }
}
