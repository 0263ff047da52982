//! Bounded ring inboxes: fixed-capacity shard queues with backpressure.
//!
//! A [`RingInbox`] is a fixed-capacity ring (a `VecDeque` that never grows
//! past its capacity) guarded by a mutex and two condvars:
//!
//! * a full ring **parks the producer** until the worker frees slots, so
//!   a slow shard throttles its feeders instead of buffering the world;
//! * an empty ring parks the worker until a message (or close) arrives;
//! * the worker takes **everything queued under one lock**
//!   ([`RingInbox::drain`]), in exactly arrival order — the FIFO contract
//!   the session layer's determinism argument rests on — and wakes every
//!   parked producer once per drain, not once per message.
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
    /// Producers blocked in [`RingInbox::push`] right now.
    parked: usize,
    tx_closed: bool,
    rx_closed: bool,
}

/// A fixed-capacity FIFO between its producers and one shard worker.
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
                parked: 0,
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
            state.parked += 1;
            state = self.not_full.wait(state).expect("ring lock");
            state.parked -= 1;
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

    /// Moves every queued message onto the back of `into`, in arrival
    /// order, blocking while the ring is empty. Returns `false` once the
    /// sender has closed and nothing was left to move.
    ///
    /// A drain frees up to a ring-full of slots at once and any number of
    /// producers may be parked on them, so it wakes them all.
    pub fn drain(&self, into: &mut Vec<T>) -> bool {
        let mut state = self.state.lock().expect("ring lock");
        while state.queue.is_empty() {
            if state.tx_closed {
                return false;
            }
            state = self.not_empty.wait(state).expect("ring lock");
        }
        into.extend(state.queue.drain(..));
        drop(state);
        self.not_full.notify_all();
        true
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

    /// Producers parked in [`RingInbox::push`] on a full ring right now.
    pub fn parked_producers(&self) -> usize {
        self.state.lock().expect("ring lock").parked
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

    /// Spins until `n` producers are parked on `ring`. The count is kept
    /// under the ring's lock, so once it reads `n` those producers are
    /// inside `push`'s wait — no sleep, no guessing.
    fn await_parked<T>(ring: &RingInbox<T>, n: usize) {
        while ring.parked_producers() < n {
            std::thread::yield_now();
        }
    }

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
        for i in 0..3 {
            assert_eq!(ring.pop(), Some(i));
        }
        // A drain appends what is left, in arrival order, and empties the
        // ring in one go.
        let mut batch = vec![99];
        assert!(ring.drain(&mut batch));
        assert_eq!(batch, [99, 3, 4, 5, 6, 7]);
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
        await_parked(&ring, 1);
        assert_eq!(ring.len(), 2, "push must block on a full ring");
        assert_eq!(ring.pop(), Some(0));
        assert!(producer.join().unwrap(), "freed slot completes the push");
        assert_eq!(ring.pop(), Some(1));
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.high_water(), 2, "capacity bounds the high water");
    }

    /// One drain frees every slot, so every producer parked on the ring
    /// must be woken by it: with a single wake-up two of these three
    /// would sleep forever beside an empty ring.
    #[test]
    fn one_drain_releases_every_parked_producer() {
        const PRODUCERS: u32 = 3;
        let ring = RingInbox::with_capacity(PRODUCERS as usize);
        for i in 0..PRODUCERS {
            ring.push(i).unwrap();
        }
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|i| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || ring.push(100 + i).is_ok())
            })
            .collect();
        await_parked(&ring, PRODUCERS as usize);
        let mut batch = Vec::new();
        assert!(ring.drain(&mut batch));
        assert_eq!(batch, [0, 1, 2], "the drain takes the queued messages");
        for producer in producers {
            assert!(producer.join().unwrap(), "every parked push completes");
        }
        assert_eq!(ring.parked_producers(), 0);
        batch.clear();
        assert!(ring.drain(&mut batch));
        batch.sort_unstable();
        assert_eq!(batch, [100, 101, 102]);
        assert_eq!(ring.high_water(), PRODUCERS as usize);
    }

    #[test]
    fn sender_close_drains_then_ends_the_receiver() {
        let ring = RingInbox::with_capacity(4);
        let tx = SenderGuard(Arc::clone(&ring));
        ring.push(7u8).unwrap();
        drop(tx);
        let mut batch = Vec::new();
        assert!(ring.drain(&mut batch), "queued messages survive the close");
        assert_eq!(batch, [7]);
        assert!(!ring.drain(&mut batch), "then the stream ends");
        assert_eq!(ring.pop(), None);
        assert_eq!(batch, [7], "a finished drain moves nothing");
    }

    #[test]
    fn receiver_death_unparks_and_fails_the_producer() {
        let ring = RingInbox::with_capacity(1);
        ring.push(0u32).unwrap();
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(1))
        };
        await_parked(&ring, 1);
        drop(ReceiverGuard(Arc::clone(&ring)));
        assert_eq!(
            producer.join().unwrap(),
            Err(1),
            "a parked producer gets its message back when the worker dies"
        );
        assert_eq!(ring.push(2), Err(2), "later pushes fail fast");
    }
}
