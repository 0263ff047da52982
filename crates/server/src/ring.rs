//! Bounded ring inboxes: fixed-capacity shard queues with backpressure.
//!
//! PR 8 shipped shard inboxes on `std::sync::mpsc` — unbounded, one heap
//! node per message, no backpressure. A slow shard silently ballooned
//! memory while fast producers sprinted ahead. The [`RingInbox`] replaces
//! that with a fixed-capacity ring (a `VecDeque` that never grows past its
//! capacity) guarded by a mutex and two condvars:
//!
//! * a full ring **parks the producer** until the worker drains a slot, so
//!   a slow shard throttles its feeders instead of buffering the world;
//! * an empty ring parks the worker until a message (or close) arrives;
//! * messages pop in exactly arrival order — the FIFO contract the
//!   session layer's determinism argument rests on.
//!
//! Lifecycle is explicit because both ends share one `Arc`: the producer
//! side closes through [`SenderGuard`] (dropping it wakes and drains the
//! worker) and the worker side through [`ReceiverGuard`] (dropping it —
//! including by panic — wakes any parked producer with an error instead
//! of deadlocking it). The ring records its occupancy **high-water mark**
//! so fleet telemetry can show how close each shard ran to saturation.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Inbox slots a shard ring holds before producers block.
pub const DEFAULT_INBOX_CAPACITY: usize = 256;

struct RingState<T> {
    queue: VecDeque<T>,
    high_water: usize,
    tx_closed: bool,
    rx_closed: bool,
}

/// A fixed-capacity FIFO between one producer handle and one shard worker.
pub struct RingInbox<T> {
    capacity: usize,
    state: Mutex<RingState<T>>,
    /// Signalled when a slot frees up (or the receiver goes away).
    not_full: Condvar,
    /// Signalled when a message arrives (or the sender closes).
    not_empty: Condvar,
}

impl<T> RingInbox<T> {
    /// A ring holding at most `capacity` messages (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        let capacity = capacity.max(1);
        Arc::new(Self {
            capacity,
            state: Mutex::new(RingState {
                queue: VecDeque::with_capacity(capacity),
                high_water: 0,
                tx_closed: false,
                rx_closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        })
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues `msg`, blocking while the ring is full. Returns the
    /// message back if the receiver is gone (worker exited or panicked).
    pub fn push(&self, msg: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("ring lock");
        while state.queue.len() == self.capacity && !state.rx_closed {
            state = self.not_full.wait(state).expect("ring lock");
        }
        if state.rx_closed {
            return Err(msg);
        }
        state.queue.push_back(msg);
        state.high_water = state.high_water.max(state.queue.len());
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the next message in arrival order, blocking while the ring
    /// is empty. Returns `None` once the sender has closed and every
    /// queued message has been drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("ring lock");
        loop {
            if let Some(msg) = state.queue.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(msg);
            }
            if state.tx_closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("ring lock");
        }
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("ring lock").queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Peak queue occupancy over the ring's life (in messages).
    pub fn high_water(&self) -> usize {
        self.state.lock().expect("ring lock").high_water
    }

    fn close_tx(&self) {
        self.state.lock().expect("ring lock").tx_closed = true;
        self.not_empty.notify_all();
    }

    fn close_rx(&self) {
        self.state.lock().expect("ring lock").rx_closed = true;
        self.not_full.notify_all();
    }
}

/// The producer end: dropping it closes the sender side, letting the
/// worker drain the remaining messages and finish.
pub struct SenderGuard<T>(pub(crate) Arc<RingInbox<T>>);

impl<T> SenderGuard<T> {
    /// The ring this guard feeds.
    pub fn ring(&self) -> &RingInbox<T> {
        &self.0
    }
}

impl<T> Drop for SenderGuard<T> {
    fn drop(&mut self) {
        self.0.close_tx();
    }
}

/// The worker end: dropping it (on normal exit, session error, *or*
/// panic) marks the receiver gone so parked producers fail fast instead
/// of deadlocking.
pub struct ReceiverGuard<T>(pub(crate) Arc<RingInbox<T>>);

impl<T> ReceiverGuard<T> {
    /// The ring this guard drains.
    pub fn ring(&self) -> &RingInbox<T> {
        &self.0
    }
}

impl<T> Drop for ReceiverGuard<T> {
    fn drop(&mut self) {
        self.0.close_rx();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_capacity_clamp() {
        let ring = RingInbox::<u32>::with_capacity(0);
        assert_eq!(ring.capacity(), 1, "capacity clamps to one slot");
        let ring = RingInbox::with_capacity(8);
        for i in 0..8 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.high_water(), 8);
        for i in 0..8 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn full_ring_parks_the_producer_until_a_slot_frees() {
        let ring = RingInbox::with_capacity(2);
        ring.push(0u32).unwrap();
        ring.push(1).unwrap();
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(2).is_ok())
        };
        // The producer must park: the ring stays at capacity and the third
        // message is not enqueued while both slots are taken.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(ring.len(), 2, "push must block on a full ring");
        assert!(!producer.is_finished(), "producer must be parked");
        assert_eq!(ring.pop(), Some(0));
        assert!(producer.join().unwrap(), "freed slot completes the push");
        assert_eq!(ring.pop(), Some(1));
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.high_water(), 2, "capacity bounds the high water");
    }

    #[test]
    fn sender_close_drains_then_ends_the_receiver() {
        let ring = RingInbox::with_capacity(4);
        let tx = SenderGuard(Arc::clone(&ring));
        ring.push(7u8).unwrap();
        drop(tx);
        assert_eq!(ring.pop(), Some(7), "queued messages survive the close");
        assert_eq!(ring.pop(), None, "then the stream ends");
    }

    #[test]
    fn receiver_death_unparks_and_fails_the_producer() {
        let ring = RingInbox::with_capacity(1);
        ring.push(0u32).unwrap();
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(1))
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(ReceiverGuard(Arc::clone(&ring)));
        assert_eq!(
            producer.join().unwrap(),
            Err(1),
            "a parked producer gets its message back when the worker dies"
        );
        assert_eq!(ring.push(2), Err(2), "later pushes fail fast");
    }
}
