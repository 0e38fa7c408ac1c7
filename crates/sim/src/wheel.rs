//! A fixed-horizon calendar queue (event wheel) and its reusable slot buffer.
//!
//! The cycle-accurate network schedules every in-flight message — flits on
//! links, lookaheads, returning credits — at most a few cycles into the
//! future (the largest link or credit delay). A general priority queue such
//! as `BTreeMap<Cycle, Vec<_>>` pays an allocation and a tree rebalance per
//! scheduled cycle; with a bounded horizon the textbook answer is a *calendar
//! queue*: a ring of `horizon + 1` slot buffers indexed by `cycle % len`.
//! Scheduling is an array index plus a push, draining is a swap of the
//! current slot with a recycled spare, and in steady state the wheel performs
//! **zero heap allocation** — every slot buffer retains its high-water-mark
//! capacity forever.
//!
//! The slot buffer itself, [`RingQueue`], is a growable power-of-two ring.
//! It doubles on overflow (amortised, and only until the steady-state
//! capacity is reached) and is also used directly as a bounded FIFO by the
//! NIC injection queues, replacing `VecDeque`'s reallocation-on-growth with
//! a buffer the simulation reuses across packets.
//!
//! # Examples
//!
//! ```
//! use noc_sim::EventWheel;
//!
//! let mut wheel: EventWheel<&str> = EventWheel::new(3);
//! wheel.schedule(1, "flit");
//! wheel.schedule(3, "credit");
//! // Nothing is due at cycle 0.
//! let slot = wheel.take_due(0);
//! assert!(slot.is_empty());
//! wheel.restore(slot);
//! let mut slot = wheel.take_due(1);
//! assert_eq!(slot.pop_front(), Some("flit"));
//! wheel.restore(slot);
//! assert_eq!(wheel.pending(), 1);
//! ```

use noc_types::Cycle;

/// A growable FIFO ring buffer with power-of-two capacity.
///
/// Unlike `VecDeque`, the queue is built to be *recycled*: [`EventWheel`]
/// hands slot buffers out and takes them back without ever dropping their
/// storage, and the NIC injection queues keep one for the lifetime of the
/// simulation. Pushing into a full ring doubles the capacity (amortised
/// O(1)); in steady state no allocation happens at all.
#[derive(Debug, Clone)]
pub struct RingQueue<T> {
    /// Storage; `buf.len()` is the capacity and is always zero or a power of
    /// two. Occupied positions hold `Some`.
    buf: Vec<Option<T>>,
    head: usize,
    len: usize,
}

impl<T> Default for RingQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RingQueue<T> {
    /// An empty queue with no storage (allocates on first push).
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            head: 0,
            len: 0,
        }
    }

    /// An empty queue pre-sized to hold at least `capacity` items without
    /// growing.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        if capacity > 0 {
            q.grow_to(capacity.next_power_of_two());
        }
        q
    }

    /// Number of queued items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no item is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current capacity in items.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Appends an item at the back of the queue, doubling the capacity if it
    /// is full.
    pub fn push_back(&mut self, item: T) {
        if self.len == self.buf.len() {
            let target = (self.buf.len() * 2).max(4);
            self.grow_to(target);
        }
        let idx = (self.head + self.len) & (self.buf.len() - 1);
        debug_assert!(self.buf[idx].is_none());
        self.buf[idx] = Some(item);
        self.len += 1;
    }

    /// Removes and returns the item at the front of the queue.
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let item = self.buf[self.head].take();
        debug_assert!(item.is_some());
        self.head = (self.head + 1) & (self.buf.len() - 1);
        self.len -= 1;
        item
    }

    /// The item at the front of the queue, if any.
    #[must_use]
    pub fn front(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            self.buf[self.head].as_ref()
        }
    }

    /// Iterates over the queued items in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let mask = self.buf.len().wrapping_sub(1);
        (0..self.len).map(move |i| {
            self.buf[(self.head + i) & mask]
                .as_ref()
                .expect("occupied ring slot")
        })
    }

    /// Drops every queued item, keeping the storage.
    pub fn clear(&mut self) {
        while self.pop_front().is_some() {}
    }

    /// Replaces the storage with one of `new_cap` slots (a power of two),
    /// unwinding the ring so the queue starts at index 0.
    fn grow_to(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two() && new_cap > self.buf.len());
        let mut new_buf: Vec<Option<T>> = Vec::with_capacity(new_cap);
        let old_mask = self.buf.len().wrapping_sub(1);
        for i in 0..self.len {
            new_buf.push(self.buf[(self.head + i) & old_mask].take());
        }
        new_buf.resize_with(new_cap, || None);
        self.buf = new_buf;
        self.head = 0;
    }
}

/// A fixed-horizon event wheel: a calendar queue over `horizon + 1` reusable
/// [`RingQueue`] slots.
///
/// The wheel owns a monotonically advancing cursor (`now`). Events may be
/// scheduled at any cycle in `now .. now + horizon` (inclusive); the caller
/// drains one cycle at a time with [`take_due`](EventWheel::take_due) /
/// [`restore`](EventWheel::restore), which detach the due slot so its items
/// can be delivered while new events are scheduled into later slots, then
/// return the (emptied) buffer to the ring with its capacity intact.
#[derive(Debug, Clone)]
pub struct EventWheel<T> {
    slots: Vec<RingQueue<T>>,
    now: Cycle,
    pending: usize,
}

impl<T> EventWheel<T> {
    /// A wheel able to schedule up to `horizon` cycles into the future.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    #[must_use]
    pub fn new(horizon: u64) -> Self {
        assert!(horizon > 0, "an event wheel needs a positive horizon");
        let len = usize::try_from(horizon).expect("horizon fits a usize") + 1;
        Self {
            slots: (0..len).map(|_| RingQueue::new()).collect(),
            now: 0,
            pending: 0,
        }
    }

    /// Largest scheduling distance the wheel supports.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.slots.len() as u64 - 1
    }

    /// Total number of scheduled, not-yet-drained events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Schedules `item` for cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past (before the wheel's cursor) or more
    /// than [`horizon`](EventWheel::horizon) cycles ahead of it.
    pub fn schedule(&mut self, at: Cycle, item: T) {
        assert!(
            at >= self.now && at - self.now <= self.horizon(),
            "cycle {at} outside the wheel's window [{}, {}]",
            self.now,
            self.now + self.horizon()
        );
        let idx = (at % self.slots.len() as u64) as usize;
        self.slots[idx].push_back(item);
        self.pending += 1;
    }

    /// Detaches and returns the slot of events due at `now`, advancing the
    /// wheel's cursor to `now + 1`. The caller must hand the drained buffer
    /// back via [`restore`](EventWheel::restore) so its capacity is reused.
    ///
    /// # Panics
    ///
    /// Panics if `now` is not the wheel's current cursor (cycles must be
    /// drained in order, exactly once).
    pub fn take_due(&mut self, now: Cycle) -> RingQueue<T> {
        assert_eq!(now, self.now, "event wheel drained out of order");
        let idx = (now % self.slots.len() as u64) as usize;
        let slot = std::mem::take(&mut self.slots[idx]);
        self.pending -= slot.len();
        self.now = now + 1;
        slot
    }

    /// Returns a drained slot buffer to the wheel (as the storage of the
    /// just-vacated slot), preserving its capacity for future cycles.
    ///
    /// Events scheduled *while the slot was detached* for the cycle that
    /// maps back onto the vacated index (exactly `now - 1 + len`, the far
    /// edge of the window) land in the placeholder `take_due` left behind;
    /// they are carried over into the restored buffer, not lost.
    ///
    /// # Panics
    ///
    /// Panics if the buffer still holds items or if no slot was taken yet.
    pub fn restore(&mut self, slot: RingQueue<T>) {
        assert!(slot.is_empty(), "restored slot buffers must be drained");
        assert!(self.now > 0, "restore without a prior take_due");
        let idx = ((self.now - 1) % self.slots.len() as u64) as usize;
        let mut placeholder = std::mem::replace(&mut self.slots[idx], slot);
        while let Some(item) = placeholder.pop_front() {
            self.slots[idx].push_back(item);
        }
    }

    /// Iterates over every pending event (in no particular cycle order).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flat_map(RingQueue::iter)
    }

    /// Drops every pending event and rewinds the cursor to cycle 0, keeping
    /// each slot buffer's capacity — the wheel half of a warm network reset
    /// (`mesh_noc::Network::reset`).
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_sim::EventWheel;
    ///
    /// let mut wheel: EventWheel<u32> = EventWheel::new(2);
    /// wheel.schedule(1, 7);
    /// wheel.reset();
    /// assert_eq!(wheel.pending(), 0);
    /// // The cursor is back at cycle 0, so cycle 1 can be scheduled again.
    /// wheel.schedule(1, 8);
    /// let mut due = wheel.take_due(0);
    /// assert!(due.is_empty());
    /// wheel.restore(due);
    /// ```
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.now = 0;
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_queue_is_fifo_across_growth() {
        let mut q = RingQueue::new();
        for i in 0..100 {
            q.push_back(i);
        }
        assert_eq!(q.len(), 100);
        for i in 0..100 {
            assert_eq!(q.front(), Some(&i));
            assert_eq!(q.pop_front(), Some(i));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop_front(), None);
    }

    #[test]
    fn ring_queue_wraps_without_growing() {
        let mut q = RingQueue::with_capacity(4);
        let cap = q.capacity();
        for round in 0..50 {
            q.push_back(round);
            q.push_back(round + 1000);
            assert_eq!(q.pop_front(), Some(round));
            assert_eq!(q.pop_front(), Some(round + 1000));
        }
        assert_eq!(q.capacity(), cap, "wrapping must not grow the ring");
    }

    #[test]
    fn ring_queue_iterates_in_order_after_wrap() {
        let mut q = RingQueue::with_capacity(4);
        for i in 0..3 {
            q.push_back(i);
        }
        q.pop_front();
        q.push_back(3);
        q.push_back(4);
        let seen: Vec<i32> = q.iter().copied().collect();
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn ring_queue_clear_retains_capacity() {
        let mut q = RingQueue::new();
        for i in 0..20 {
            q.push_back(i);
        }
        let cap = q.capacity();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.capacity(), cap);
    }

    #[test]
    fn wheel_delivers_in_cycle_order() {
        let mut wheel = EventWheel::new(4);
        wheel.schedule(2, "b");
        wheel.schedule(1, "a");
        wheel.schedule(1, "a2");
        wheel.schedule(4, "c");
        let mut seen = Vec::new();
        for now in 0..=4 {
            let mut slot = wheel.take_due(now);
            while let Some(item) = slot.pop_front() {
                seen.push((now, item));
            }
            wheel.restore(slot);
        }
        assert_eq!(seen, vec![(1, "a"), (1, "a2"), (2, "b"), (4, "c")]);
        assert_eq!(wheel.pending(), 0);
    }

    #[test]
    fn wheel_reuses_slot_capacity() {
        let mut wheel = EventWheel::new(2);
        // Warm the slots up to their steady-state capacity.
        for now in 0..100u64 {
            wheel.schedule(now + 1, now);
            wheel.schedule(now + 2, now);
            let mut slot = wheel.take_due(now);
            while slot.pop_front().is_some() {}
            wheel.restore(slot);
        }
        // From now on every slot already has capacity: pushes must not grow.
        for now in 100..200u64 {
            wheel.schedule(now + 1, now);
            wheel.schedule(now + 2, now);
            let mut slot = wheel.take_due(now);
            let cap = slot.capacity();
            while slot.pop_front().is_some() {}
            assert_eq!(slot.capacity(), cap);
            wheel.restore(slot);
        }
        assert!(wheel.pending() > 0);
    }

    #[test]
    fn wheel_counts_pending_events() {
        let mut wheel = EventWheel::new(3);
        wheel.schedule(1, 1);
        wheel.schedule(2, 2);
        wheel.schedule(3, 3);
        assert_eq!(wheel.pending(), 3);
        assert_eq!(wheel.iter().count(), 3);
        let mut slot = wheel.take_due(0);
        assert!(slot.is_empty());
        wheel.restore(slot);
        slot = wheel.take_due(1);
        assert_eq!(slot.len(), 1);
        assert_eq!(wheel.pending(), 2);
        slot.clear();
        wheel.restore(slot);
    }

    #[test]
    fn full_horizon_schedule_while_slot_is_detached_is_not_lost() {
        // horizon 2 -> 3 slots; cycle 3 maps onto the slot index detached at
        // cycle 0, so the event lands in the placeholder and must survive
        // the restore.
        let mut wheel = EventWheel::new(2);
        let slot = wheel.take_due(0);
        wheel.schedule(3, "edge");
        wheel.restore(slot);
        assert_eq!(wheel.pending(), 1);
        for now in 1..=2 {
            let slot = wheel.take_due(now);
            assert!(slot.is_empty());
            wheel.restore(slot);
        }
        let mut slot = wheel.take_due(3);
        assert_eq!(slot.pop_front(), Some("edge"));
        wheel.restore(slot);
        assert_eq!(wheel.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "outside the wheel's window")]
    fn wheel_rejects_cycles_beyond_the_horizon() {
        let mut wheel = EventWheel::new(2);
        wheel.schedule(3, ());
    }

    #[test]
    #[should_panic(expected = "drained out of order")]
    fn wheel_rejects_out_of_order_draining() {
        let mut wheel: EventWheel<()> = EventWheel::new(2);
        let slot = wheel.take_due(0);
        wheel.restore(slot);
        let _ = wheel.take_due(2);
    }
}
