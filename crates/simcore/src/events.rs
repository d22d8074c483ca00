//! Deterministic event queues.
//!
//! Two implementations share one contract: events are delivered in
//! `(time, insertion sequence)` order, so simultaneous events fire in the
//! order they were scheduled and simulation runs are bit-for-bit
//! reproducible regardless of queue internals.
//!
//! * [`EventQueue`] — the default: four FIFO *delay lanes* beside a
//!   calendar queue (timing wheel with a sorted overflow tier). Almost
//!   every event the simulator schedules recurs at a fixed delay from the
//!   event being dispatched (a link's serialization time, serialization
//!   plus propagation, the NIC's coalescing timer), and a stream of
//!   pushes at one delay is already in `(time, seq)` order because the
//!   watermark only moves forward. A push whose delay matches a lane's,
//!   or that finds a lane empty and claims it, is an append; every other
//!   push takes the wheel: each wheel slot is a narrow bucket kept as a
//!   `(time, seq)`-sorted `Vec` with a head cursor, so a push costs a
//!   short back-scan and a pop a read plus a cursor bump; far timers
//!   (RTOs, scenario markers) sit in a binary-heap overflow tier and
//!   migrate into the wheel as the cursor approaches them. A pop takes
//!   the least of a cached packed `(time, seq)` head per lane and one for
//!   the wheel tier, and refreshes only the source it popped. Keys hold
//!   their payload inline, so payloads must be small and `Copy`: the
//!   simulator's events are 16-byte handles (a link id, a host id, a
//!   timer generation), and anything larger, such as a packet in flight,
//!   waits in the component that owns it.
//! * [`HeapEventQueue`] — the original thin wrapper over
//!   [`std::collections::BinaryHeap`]. Kept as the reference
//!   implementation: the trace-equality tests below assert both queues
//!   pop identical `(time, seq, event)` sequences, and the benchmarks
//!   race them head-to-head.
//!
//! Cancellation is *lazy*: components that need to cancel timers (e.g. TCP
//! retransmission) embed a generation counter in the event payload and
//! ignore stale firings. Keeping the queue free of tombstone bookkeeping
//! keeps the hot path to a couple of cheap operations per event.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A pending event: the `(time, seq)` sort key and the payload itself.
/// [`EventQueue`] stores keys inline in its lanes, wheel slots and overflow
/// heap, so it asks for small `Copy` payloads (the simulator's `Event` is 16
/// bytes, making a key 32); [`HeapEventQueue`] takes any payload.
#[derive(Clone, Copy, Debug)]
struct Key<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Key<E> {
    /// Whether `self` fires before `other` in `(time, seq)` order. The
    /// `Ord` impl below is reversed for the max-heaps; this is the plain
    /// ascending order the sorted wheel slots keep.
    #[inline]
    fn precedes(&self, other: &Key<E>) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

impl<E> PartialEq for Key<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Key<E> {}

impl<E> PartialOrd for Key<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Key<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Slots in the wheel. Power of two so slot lookup is a mask.
///
/// An empty slot holds no buffer: a slot that drains hands its keys'
/// buffer to the queue's spare list and its next first key takes one
/// back (see `EventQueue::spare`). So the wheel retains one buffer per
/// slot occupied at once, not one per slot, and an idle slot costs only
/// its empty header; 512 slots keep the horizon over every per-packet
/// timer (see `WIDTH_SHIFT`).
const SLOTS: usize = 512;
/// log2 of the bucket width in nanoseconds: 256 ns per bucket.
///
/// Tuned for the simulator's event mix. A busy run schedules about 120
/// events per simulated µs, so a 256 ns bucket holds about 17 keys when
/// it is popped (a 4096 ns one held about 164), which keeps the sorted
/// insert's back-scan short and each key buffer small.
/// One MTU transmission at 10 Gbps is ~1.2 µs, NIC coalescing 20 µs and
/// GRO holds ≤ 85 µs — all land within the `SLOTS * 256 ns ≈ 131 µs`
/// horizon, leaving only RTO-scale timers (10 ms+) and scenario
/// bookkeeping for the overflow tier.
const WIDTH_SHIFT: u32 = 8;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
const WORDS: usize = SLOTS / 64;

#[inline]
fn bucket_of(time: SimTime) -> u64 {
    time.as_nanos() >> WIDTH_SHIFT
}

/// One wheel slot: pending keys of a single bucket in ascending `(time,
/// seq)` order from `head` on. Keys before `head` have been popped; they
/// stay in place until the slot drains, when `keys` is cleared and moved
/// to the queue's spare list and `head` rewinds to 0, or until a push
/// finds `keys` full, when the popped prefix is reclaimed instead of
/// growing. Popping is therefore a read and a cursor bump, with none of a
/// ring buffer's wrap arithmetic.
struct Slot<E> {
    keys: Vec<Key<E>>,
    head: usize,
}

impl<E> Default for Slot<E> {
    fn default() -> Self {
        Slot {
            keys: Vec::new(),
            head: 0,
        }
    }
}

impl<E> Slot<E> {
    /// The next key to pop, if the slot holds any.
    #[inline]
    fn front(&self) -> Option<&Key<E>> {
        self.keys.get(self.head)
    }

    /// Drop every key, rewind the cursor and move the emptied buffer to
    /// `spare`, leaving the slot without one.
    #[inline]
    fn release(&mut self, spare: &mut Vec<Vec<Key<E>>>) {
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        spare.push(keys);
        self.head = 0;
    }
}

/// Delay lanes beside the wheel.
///
/// Nearly every event the simulator schedules recurs at one of a few
/// fixed delays from the event being dispatched (on `stride`, an MTU
/// serialization, a serialization plus propagation, the NIC's
/// coalescing timer), and each such stream is already in `(time, seq)`
/// order because the watermark only moves forward. A lane holds one
/// stream as a plain FIFO. Four lanes, chosen by a 2/4/8 ablation
/// (DESIGN §5.1).
const LANES: usize = 4;

/// The wheel's horizon in nanoseconds. Only a push due within it may
/// claim an empty lane: a one-off far timer would hold its lane for as
/// long as it waits, and the overflow tier is its place.
const HORIZON_NS: u64 = (SLOTS as u64) << WIDTH_SHIFT;

/// A `(time, seq)` order key packed into one integer, time in the high
/// half, so a head comparison is one `u128` compare.
#[inline]
fn pack<E>(key: &Key<E>) -> u128 {
    (u128::from(key.time.as_nanos()) << 64) | u128::from(key.seq)
}

/// The time half of a packed key.
#[inline]
fn head_time(head: u128) -> SimTime {
    SimTime::from_nanos((head >> 64) as u64)
}

/// The packed head of a source with no pending key: sorts after all.
const NO_HEAD: u128 = u128::MAX;

/// A push earlier than the last pop: a component tried to schedule into
/// the past.
#[cold]
#[inline(never)]
fn scheduled_into_past(time: SimTime, watermark: SimTime) -> ! {
    panic!("scheduled event at {time:?} before current time {watermark:?}")
}

/// A priority queue of timestamped events with deterministic FIFO ordering
/// among events scheduled for the same instant, implemented as delay
/// lanes beside a calendar queue.
///
/// # Invariants
///
/// * Each lane's keys are in ascending `(time, seq)` order: a push joins
///   a lane only if it does not precede the lane's tail. A lane is empty
///   exactly when its head is `NO_HEAD`.
/// * `heads[i]` is the packed minimum of lane `i`, and `heads[LANES]` that
///   of the wheel and overflow tier together (`NO_HEAD` when empty), so
///   the global minimum is the least of `LANES + 1` integers.
/// * Every wheel-resident event has a bucket in `[cur_bucket, cur_bucket +
///   SLOTS)`; within that window `bucket & SLOT_MASK` is injective, so a
///   slot holds events of exactly one bucket.
/// * Every overflow-resident event has a bucket `>= cur_bucket + SLOTS`.
///   Whenever the cursor advances, overflow events that fell inside the
///   new window migrate into the wheel, preserving this.
/// * Together these mean the wheel, when non-empty, holds the minimum of
///   its tier: a wheel pop moves the cursor to the bucket of the tier's
///   cached head and reads the front of that slot.
/// * After every pop the cursor is the watermark's bucket, whichever
///   source the key came from: no pending key is earlier than the
///   watermark, so the window may always move up to it, and a run of lane
///   pops does not leave the window behind and push near keys into the
///   overflow tier.
pub struct EventQueue<E> {
    /// Per lane, the delay after the watermark at which its keys were
    /// pushed. An empty lane keeps its delay until a push at a delay no
    /// lane has claims it.
    lane_delays: [u64; LANES],
    /// The delay lanes (see [`LANES`]): FIFOs whose pushes are appends.
    lanes: [VecDeque<Key<E>>; LANES],
    /// Packed head of each lane, then of the wheel tier.
    heads: [u128; LANES + 1],
    /// Per-slot pending event keys in ascending `(time, seq)` order. A
    /// slot holds one narrow bucket, so the insert's back-scan is short
    /// and a pop is a cursor bump. Keys carry their payload inline: a pop
    /// copies one key out, with no side table to index.
    slots: Vec<Slot<E>>,
    /// Emptied key buffers of drained slots. A slot's first key takes the
    /// last one pushed, so the wheel holds one buffer per slot occupied
    /// at once rather than 512 that each keep the capacity of the worst
    /// burst their slot ever saw.
    spare: Vec<Vec<Key<E>>>,
    /// One bit per slot: set iff the slot is non-empty.
    occupied: [u64; WORDS],
    /// Events beyond the wheel horizon, min-ordered by `(time, seq)`.
    overflow: BinaryHeap<Key<E>>,
    /// Bucket index the wheel window starts at; never decreases while
    /// events are pending.
    cur_bucket: u64,
    len: usize,
    next_seq: u64,
    /// Time of the most recently popped event; pushes earlier than this are
    /// a logic error (time travel) and panic.
    watermark: SimTime,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// An empty queue with the watermark at t = 0.
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(SLOTS);
        slots.resize_with(SLOTS, Slot::default);
        EventQueue {
            lane_delays: [0; LANES],
            lanes: std::array::from_fn(|_| VecDeque::new()),
            heads: [NO_HEAD; LANES + 1],
            slots,
            spare: Vec::new(),
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            cur_bucket: 0,
            len: 0,
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedule `event` to fire at `time`.
    ///
    /// # Panics
    /// If `time` is before the last popped event — that would mean a
    /// component tried to schedule into the past.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        let Some(delay) = time.as_nanos().checked_sub(self.watermark.as_nanos()) else {
            scheduled_into_past(time, self.watermark)
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let key = Key { time, seq, event };
        match self.lane_for(delay, &key) {
            Some(i) => {
                if self.heads[i] == NO_HEAD {
                    self.lane_delays[i] = delay;
                    self.heads[i] = pack(&key);
                }
                self.lanes[i].push_back(key);
            }
            None => self.push_wheel(key),
        }
    }

    /// The lane `key`, pushed `delay` after the watermark, may join: the
    /// lane of that delay if `key` does not precede its tail, else the
    /// first empty lane if no lane has that delay and the key is due
    /// within the wheel's horizon. Keys of one delay never precede each
    /// other's tail, because the watermark only moves forward; the check
    /// keeps the order exact for any input.
    #[inline]
    fn lane_for(&self, delay: u64, key: &Key<E>) -> Option<usize> {
        if let Some(i) = self.lane_delays.iter().position(|&d| d == delay) {
            return match self.lanes[i].back() {
                Some(tail) if key.precedes(tail) => None,
                _ => Some(i),
            };
        }
        if delay >= HORIZON_NS {
            return None;
        }
        self.heads[..LANES].iter().position(|&h| h == NO_HEAD)
    }

    /// Put `key` in the wheel, or in the overflow tier if it lies beyond
    /// the window.
    #[inline]
    fn push_wheel(&mut self, key: Key<E>) {
        self.heads[LANES] = self.heads[LANES].min(pack(&key));
        let bucket = bucket_of(key.time);
        if bucket < self.cur_bucket + SLOTS as u64 {
            self.insert_wheel(bucket, key);
        } else {
            self.overflow.push(key);
        }
    }

    /// Insert `key` into its slot, keeping the pending part sorted. The
    /// scan runs from the back, stops at the slot's head cursor, and
    /// compares the full `(time, seq)`, not only the time, so the slot
    /// stays sorted whatever order keys arrive in: a key migrated from the
    /// overflow tier carries an older seq than every key pushed since it
    /// was scheduled. The common case, a key later than every pending
    /// one, is a plain `push`.
    #[inline]
    fn insert_wheel(&mut self, bucket: u64, key: Key<E>) {
        let slot = (bucket & SLOT_MASK) as usize;
        let Slot { keys, head } = &mut self.slots[slot];
        if keys.capacity() == 0 {
            // The slot's first key: it takes a drained slot's buffer.
            *keys = self.spare.pop().unwrap_or_default();
        } else if *head > 0 && keys.len() == keys.capacity() {
            // Full: reclaim the popped prefix instead of growing.
            keys.drain(..*head);
            *head = 0;
        }
        let mut at = keys.len();
        while at > *head && key.precedes(&keys[at - 1]) {
            at -= 1;
        }
        if at == keys.len() {
            keys.push(key);
        } else {
            keys.insert(at, key);
        }
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    /// First occupied slot in circular order starting at the cursor slot,
    /// as a bucket offset `0..SLOTS` from `cur_bucket`.
    #[inline]
    fn first_occupied_offset(&self) -> Option<u64> {
        let start = (self.cur_bucket & SLOT_MASK) as usize;
        let (w0, b0) = (start / 64, start % 64);
        for i in 0..=WORDS {
            let w = (w0 + i) % WORDS;
            let mut word = self.occupied[w];
            if i == 0 {
                word &= !0u64 << b0;
            } else if i == WORDS {
                word &= (1u64 << b0) - 1;
            }
            if word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                let offset = (slot as u64).wrapping_sub(self.cur_bucket) & SLOT_MASK;
                return Some(offset);
            }
        }
        None
    }

    /// Move overflow events that now fall inside the window into the wheel.
    fn migrate_overflow(&mut self) {
        let horizon = self.cur_bucket + SLOTS as u64;
        while let Some(head) = self.overflow.peek() {
            let bucket = bucket_of(head.time);
            if bucket >= horizon {
                break;
            }
            let s = self.overflow.pop().expect("peeked element exists");
            self.insert_wheel(bucket, s);
        }
    }

    /// Move the window up to `bucket`, migrating the overflow events it
    /// now covers. No-op unless `bucket` is ahead of the cursor.
    #[inline]
    fn advance_cursor(&mut self, bucket: u64) {
        if bucket > self.cur_bucket {
            self.cur_bucket = bucket;
            self.migrate_overflow();
        }
    }

    /// Remove and return the earliest event, advancing the watermark.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (src, head) = self.min_head();
        if head == NO_HEAD {
            return None;
        }
        let key = if src < LANES {
            let lane = &mut self.lanes[src];
            let key = lane.pop_front().expect("a lane with a head has a key");
            self.heads[src] = lane.front().map_or(NO_HEAD, pack);
            self.advance_cursor(bucket_of(key.time));
            key
        } else {
            self.pop_wheel(head)
        };
        self.len -= 1;
        self.watermark = key.time;
        Some((key.time, key.event))
    }

    /// The source holding the earliest pending key and that key packed:
    /// a lane index, or `LANES` for the wheel tier. Written as selects,
    /// not branches: which source wins changes from pop to pop.
    #[inline]
    fn min_head(&self) -> (usize, u128) {
        let (mut src, mut best) = (LANES, self.heads[LANES]);
        for i in 0..LANES {
            let head = self.heads[i];
            let earlier = head < best;
            src = if earlier { i } else { src };
            best = if earlier { head } else { best };
        }
        (src, best)
    }

    /// Pop the wheel tier's minimum, packed as `head`, and refresh its
    /// cached head.
    #[inline]
    fn pop_wheel(&mut self, head: u128) -> Key<E> {
        // Move the window to the head's bucket. A head beyond the window
        // is the overflow minimum with the wheel empty: the window
        // re-anchors on it and pulls the near tail of the overflow in.
        // Keys that migrate sort after the head, so the cursor slot's
        // front is the head either way.
        self.advance_cursor(bucket_of(head_time(head)));
        let slot = (self.cur_bucket & SLOT_MASK) as usize;
        let wheel_slot = &mut self.slots[slot];
        let key = *wheel_slot.front().expect("occupied slot is non-empty");
        wheel_slot.head += 1;
        self.heads[LANES] = match wheel_slot.front() {
            Some(next) => pack(next),
            None => {
                wheel_slot.release(&mut self.spare);
                self.occupied[slot / 64] &= !(1u64 << (slot % 64));
                self.wheel_tier_min().map_or(NO_HEAD, pack)
            }
        };
        key
    }

    /// The earliest key of the wheel tier: the front of the first
    /// occupied slot, else the overflow minimum.
    fn wheel_tier_min(&self) -> Option<&Key<E>> {
        match self.first_occupied_offset() {
            Some(offset) => {
                let slot = ((self.cur_bucket + offset) & SLOT_MASK) as usize;
                self.slots[slot].front()
            }
            None => self.overflow.peek(),
        }
    }

    /// The timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        let (_, head) = self.min_head();
        (head != NO_HEAD).then(|| head_time(head))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all pending events and rewind the watermark to t = 0, so a
    /// torn-down queue can host a fresh scenario.
    pub fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.heads = [NO_HEAD; LANES + 1];
        for w in 0..WORDS {
            let mut word = self.occupied[w];
            while word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                self.slots[slot].release(&mut self.spare);
                word &= word - 1;
            }
            self.occupied[w] = 0;
        }
        self.overflow.clear();
        self.cur_bucket = 0;
        self.len = 0;
        self.watermark = SimTime::ZERO;
    }
}

/// The original [`std::collections::BinaryHeap`]-backed queue. Same
/// contract as [`EventQueue`]; kept as the reference implementation for
/// trace-equality tests and head-to-head benchmarks.
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Key<E>>,
    next_seq: u64,
    watermark: SimTime,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// An empty queue with the watermark at t = 0.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedule `event` to fire at `time`. Same contract as
    /// [`EventQueue::push`].
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.watermark,
            "scheduled event at {time:?} before current time {:?}",
            self.watermark
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Key { time, seq, event });
    }

    /// Remove and return the earliest event, advancing the watermark.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| {
            self.watermark = s.time;
            (s.time, s.event)
        })
    }

    /// The timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events and rewind the watermark to t = 0.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.watermark = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 1);
        q.push(SimTime::from_nanos(10), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        // Schedule relative to the popped time, as handlers do.
        q.push(SimTime::from_nanos(7), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), ());
        q.pop();
        q.push(SimTime::from_micros(5), ());
    }

    #[test]
    fn peek_len_clear() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(1), 9);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_rewinds_watermark() {
        // Regression: clear() used to leave the watermark at the last
        // popped time, so a reused queue rejected fresh-scenario events
        // starting from t = 0 in debug builds.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), 1);
        assert!(q.pop().is_some());
        q.clear();
        q.push(SimTime::from_nanos(1), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 2)));

        let mut h = HeapEventQueue::new();
        h.push(SimTime::from_secs(5), 1);
        assert!(h.pop().is_some());
        h.clear();
        h.push(SimTime::from_nanos(1), 2);
        assert_eq!(h.pop(), Some((SimTime::from_nanos(1), 2)));
    }

    #[test]
    fn large_fuzz_is_sorted() {
        // Pseudo-random times via an LCG; verify global pop order.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x1234_5678;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.push(SimTime::from_nanos(x % 1_000_000), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        // Watermark advanced with pops.
        assert!(last <= SimTime::ZERO + SimDuration::from_millis(1));
    }

    #[test]
    fn far_timers_go_through_overflow_and_return() {
        let mut q = EventQueue::new();
        // Far beyond the wheel horizon (~131 µs): an RTO-scale timer.
        q.push(SimTime::from_millis(200), "rto");
        q.push(SimTime::from_micros(5), "tx");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        assert_eq!(q.pop().unwrap().1, "tx");
        // Cursor must chase the overflow event, not lose it.
        assert_eq!(q.pop(), Some((SimTime::from_millis(200), "rto")));
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_migration_preserves_order() {
        // Regression for the migration counterexample: an overflow event
        // must not be bypassed by a later wheel event pushed after the
        // cursor advanced close to the overflow's bucket.
        let mut q = EventQueue::new();
        let horizon = SimDuration::from_nanos((SLOTS as u64) << WIDTH_SHIFT);
        let far = SimTime::ZERO + horizon + SimDuration::from_micros(1);
        q.push(far, "far");
        q.push(SimTime::from_nanos(10), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        // Now schedule just after `far`: lands in the wheel only if the
        // window has moved; order must still be far-first.
        q.push(far + SimDuration::from_nanos(1), "later");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    /// Deterministic pseudo-random schedule driver: mirrors every
    /// operation on both queue implementations and asserts identical
    /// `(time, event)` pop traces. Events carry their seq as identity, so
    /// this also proves the `(time, seq)` tiebreak matches.
    fn assert_trace_equal(ops: u64, seed: u64) {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut x = seed | 1;
        let mut next_id = 0u64;
        let mut now_ns = 0u64;
        let mut rng = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 11
        };
        for _ in 0..ops {
            let r = rng();
            if r % 4 == 0 && !cal.is_empty() {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "pop divergence at event {next_id}");
                now_ns = a.unwrap().0.as_nanos();
            } else {
                // Mix of horizons: same-instant bursts, near (sub-bucket
                // to a few buckets), and far overflow timers.
                let delta = match r % 10 {
                    0 => 0,
                    1..=5 => rng() % 3_000,
                    6..=8 => rng() % 500_000,
                    _ => 5_000_000 + rng() % 50_000_000,
                };
                let t = SimTime::from_nanos(now_ns + delta);
                cal.push(t, next_id);
                heap.push(t, next_id);
                next_id += 1;
            }
            assert_eq!(cal.len(), heap.len());
            assert_eq!(cal.peek_time(), heap.peek_time());
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(a, b, "drain divergence");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn trace_equality_100k_fuzz() {
        // ~100k scheduled events across pushes and drains.
        assert_trace_equal(140_000, 0xD1CE_BEEF);
    }

    #[test]
    fn trace_equality_multiple_seeds() {
        for seed in [1, 42, 0xFFFF_FFFF_0000_0001, 0x9E3779B97F4A7C15] {
            assert_trace_equal(8_000, seed);
        }
    }

    #[test]
    fn empty_wheel_reanchors_far_ahead() {
        let mut q = EventQueue::new();
        // Drain fully, then schedule way past the horizon repeatedly.
        for round in 1u64..5 {
            let t = SimTime::from_millis(round * 100);
            q.push(t, round);
            assert_eq!(q.peek_time(), Some(t));
            assert_eq!(q.pop(), Some((t, round)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_horizon_covers_coalescing_and_gro_timers() {
        // NIC coalescing (20 µs) and GRO holds (≤ 85 µs) must stay in the
        // wheel; only RTO-scale timers belong in the overflow tier.
        assert!((SLOTS as u64) << WIDTH_SHIFT >= 100_000);
    }

    #[test]
    fn pushes_at_the_horizon_edge_match_reference() {
        // Keys one bucket inside, exactly at, and one bucket beyond the
        // window's end (`cur_bucket + SLOTS`): the first lands in the
        // wheel's last slot, the other two wait in the overflow tier. The
        // drain then walks the cursor through their migration, pushing at
        // the moving edge as it goes.
        let width = 1u64 << WIDTH_SHIFT;
        let slots = SLOTS as u64;
        for start in [0, 3, slots - 1, 5 * slots + 17] {
            let mut q = Lockstep::new();
            q.push(start * width + 1);
            q.pop();
            assert_eq!(q.cal.cur_bucket, start);
            q.park_lanes();
            let edge = start + slots;
            for bucket in [edge - 1, edge, edge + 1] {
                for off in [width - 1, 0, width / 2, 0] {
                    q.push(bucket * width + off);
                }
            }
            assert_eq!(q.cal.overflow.len(), 8, "edge and edge + 1 overflow");
            q.push(start * width + 7);
            for pops in 0..300u64 {
                if q.pop().is_none() {
                    break;
                }
                let edge = q.cal.cur_bucket + slots;
                if pops % 3 == 0 {
                    for bucket in [edge - 1, edge, edge + 1] {
                        q.push(bucket * width + pops % width);
                    }
                }
            }
            q.drain();
        }
    }

    /// Delays of the keys that park in the lanes: just inside the
    /// horizon, and none a delay the tests push at.
    const PARKED_DELAY: u64 = HORIZON_NS - 11;

    /// Both queue implementations driven in lockstep: every push goes to
    /// both, every pop asserts they agree on `(time, event)`, `len` and
    /// `peek_time`. Events are numbered in push order, so equal pops also
    /// prove the `(time, seq)` tiebreak matches.
    struct Lockstep {
        cal: EventQueue<u64>,
        heap: HeapEventQueue<u64>,
        next_id: u64,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep {
                cal: EventQueue::new(),
                heap: HeapEventQueue::new(),
                next_id: 0,
            }
        }

        fn push(&mut self, ns: u64) {
            self.push_tagged(ns, 0);
        }

        /// Push an event that carries a two-bit `tag` below its push
        /// number, so a driver can tell event kinds apart when they pop.
        fn push_tagged(&mut self, ns: u64, tag: u64) {
            let t = SimTime::from_nanos(ns);
            let event = self.next_id << 2 | tag;
            self.cal.push(t, event);
            self.heap.push(t, event);
            self.next_id += 1;
            self.check();
        }

        /// Claim every lane with a key parked just inside the horizon,
        /// among the longest delays that may claim a lane, one delay per
        /// lane, so that the keys a test pushes next take the
        /// wheel/overflow path. Every lane must be empty.
        fn park_lanes(&mut self) {
            let now = self.cal.watermark.as_nanos();
            for i in 0..LANES as u64 {
                self.push(now + PARKED_DELAY - i);
            }
            assert!(self.cal.lanes.iter().all(|lane| lane.len() == 1));
        }

        /// Lanes holding keys, by delay.
        fn busy_lane_delays(&self) -> Vec<u64> {
            let cal = &self.cal;
            let busy = (0..LANES).filter(|&i| !cal.lanes[i].is_empty());
            busy.map(|i| cal.lane_delays[i]).collect()
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let a = self.cal.pop();
            assert_eq!(a, self.heap.pop(), "pop divergence");
            self.check();
            a
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
        }

        fn clear(&mut self) {
            self.cal.clear();
            self.heap.clear();
            self.check();
        }

        fn check(&self) {
            assert_eq!(self.cal.len(), self.heap.len());
            assert_eq!(self.cal.peek_time(), self.heap.peek_time());
        }

        /// The head cursor of the wheel slot holding `ns`.
        fn cursor_of(&self, ns: u64) -> usize {
            let slot = (bucket_of(SimTime::from_nanos(ns)) & SLOT_MASK) as usize;
            self.cal.slots[slot].head
        }

        /// Interleave pops with pushes into the bucket being drained: each
        /// round pops once and pushes `per_pop` keys at or a little after
        /// the new watermark, most of them inside the current bucket.
        fn drain_while_pushing(&mut self, rounds: u64, per_pop: u64, mut x: u64) {
            let width = 1u64 << WIDTH_SHIFT;
            for _ in 0..rounds {
                let Some((t, _)) = self.pop() else { break };
                let now = t.as_nanos();
                for _ in 0..per_pop {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let r = x >> 33;
                    let delta = match r % 8 {
                        0 | 1 => 0,
                        2..=5 => r / 8 % width,
                        6 => r / 8 % (4 * width),
                        _ => 300_000 + r / 8 % 5_000_000,
                    };
                    self.push(now + delta);
                }
            }
        }
    }

    #[test]
    fn push_at_watermark_into_half_drained_slot() {
        // Pop part of one bucket, then push at exactly the popped time:
        // the new key has the newest seq, so it fires after the pending
        // keys of the same instant and before later ones.
        let mut q = Lockstep::new();
        q.park_lanes();
        let base = 50 << WIDTH_SHIFT;
        for off in [0, 0, 10, 10, 10, 20, 30] {
            q.push(base + off);
        }
        assert_eq!(q.pop().unwrap().0.as_nanos(), base);
        assert_eq!(q.pop().unwrap().0.as_nanos(), base);
        assert_eq!(q.pop().unwrap().0.as_nanos(), base + 10);
        assert_eq!(q.cursor_of(base), 3, "slot is half drained");
        q.push(base + 10);
        q.push(base + 10);
        q.drain();
        assert_eq!(q.cursor_of(base), 0, "a drained slot rewinds");
        assert!(q.cal.slots[(50 & SLOT_MASK) as usize].keys.is_empty());
    }

    #[test]
    fn full_slot_reclaims_popped_prefix() {
        // A slot that keeps receiving keys while it drains must reuse the
        // space of its popped keys rather than grow.
        let mut q = Lockstep::new();
        q.park_lanes();
        let base = 12 << WIDTH_SHIFT;
        for off in 0..8 {
            q.push(base + off);
        }
        let slot = 12 & SLOT_MASK as usize;
        let cap = q.cal.slots[slot].keys.capacity();
        for _ in 0..3 {
            q.pop();
        }
        let mut off = 8;
        while q.cal.slots[slot].keys.len() < cap {
            q.push(base + off);
            off += 1;
        }
        assert_eq!(q.cursor_of(base), 3);
        q.push(base + 100);
        assert_eq!(q.cursor_of(base), 0, "the popped prefix was reclaimed");
        assert_eq!(q.cal.slots[slot].keys.capacity(), cap, "no growth");
        q.push(base + 50);
        q.drain();
    }

    #[test]
    fn insert_between_cursor_and_tail() {
        // Keys that sort between the next pending key and the tail must
        // land there, and the back-scan must never walk into the popped
        // prefix.
        let mut q = Lockstep::new();
        q.park_lanes();
        let base = 77 << WIDTH_SHIFT;
        for off in [5, 40, 80, 120, 200] {
            q.push(base + off);
        }
        q.pop();
        q.pop();
        assert_eq!(q.cursor_of(base), 2);
        q.push(base + 100);
        q.push(base + 80);
        q.push(base + 199);
        // At the head: earlier than every pending key, later than the
        // watermark.
        q.push(base + 41);
        q.drain();
    }

    #[test]
    fn peek_time_after_partial_pops() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let base = 9 << WIDTH_SHIFT;
        for (i, off) in [3u64, 7, 7, 11].into_iter().enumerate() {
            q.push(SimTime::from_nanos(base + off), i as u32);
        }
        q.push(SimTime::from_millis(50), 99);
        let expect = [7, 7, 11];
        for want in expect {
            q.pop();
            assert_eq!(q.peek_time(), Some(SimTime::from_nanos(base + want)));
        }
        q.pop();
        // The bucket drained: the overflow timer is next.
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(50)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(50), 99)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_mid_slot_then_reuse() {
        // Clear while the cursor sits inside a slot, then refill that
        // very slot from t = 0: the stale prefix must be gone and the
        // cursor rewound.
        let mut q = Lockstep::new();
        q.park_lanes();
        for i in 0..12 {
            q.push(300 + i);
        }
        q.push(40_000_000);
        for _ in 0..5 {
            q.pop();
        }
        assert_eq!(q.cursor_of(300), 5);
        q.clear();
        assert_eq!(q.cursor_of(300), 0);
        assert_eq!(q.cal.peek_time(), None);
        q.park_lanes();
        for i in (0..12).rev() {
            q.push(290 + i);
        }
        q.push(300);
        assert_eq!(q.pop().unwrap().0.as_nanos(), 290);
        q.push(295);
        q.drain();
    }

    #[test]
    fn pushes_while_the_current_bucket_drains_match_reference() {
        // The simulator's dominant pattern: every pop schedules follow-ups
        // at the same instant or a few hundred ns later, so the bucket
        // being drained keeps receiving keys behind, between and at its
        // cursor.
        for (seed, per_pop) in [(1u64, 1u64), (7, 2), (0xABCD, 3)] {
            let mut q = Lockstep::new();
            for i in 0..64 {
                q.push(i * 37);
            }
            q.drain_while_pushing(6_000, per_pop, seed);
            q.drain();
        }
        // A lone seed key keeps the queue in one bucket for a while.
        let mut q = Lockstep::new();
        q.push(1_000);
        q.drain_while_pushing(3_000, 1, 99);
        q.drain();
    }

    #[test]
    fn older_seq_key_sorts_before_same_time_keys_in_its_slot() {
        // Through the public API the overflow tier only migrates into
        // slots the cursor has just vacated, so a migrated key lands
        // behind nothing. The slot insert must still order a key with an
        // older seq ahead of same-time keys with newer seqs, as an
        // overflow key would have if it shared a slot with them.
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(SimTime::from_nanos(100), "seq 0");
        assert_eq!(q.pop().unwrap().1, "seq 0");
        // Seqs 1 to 4 park in the lanes, so the keys below take the wheel.
        for i in 0..LANES as u64 {
            q.push(SimTime::from_nanos(100 + PARKED_DELAY - i), "parked");
        }
        let t = SimTime::from_nanos(300);
        q.push(t, "seq 5");
        q.push(t, "seq 6");
        // Re-use the retired seq 0 as a long-waiting overflow key would.
        let older = Key {
            time: t,
            seq: 0,
            event: "older seq",
        };
        q.push_wheel(older);
        q.len += 1;
        assert_eq!(q.pop(), Some((t, "older seq")));
        assert_eq!(q.pop(), Some((t, "seq 5")));
        assert_eq!(q.pop(), Some((t, "seq 6")));
        for _ in 0..LANES {
            assert_eq!(q.pop().unwrap().1, "parked");
        }
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_key_migrates_ahead_of_later_same_time_pushes() {
        // A far timer waits in the overflow tier while the cursor walks
        // toward it; once it has migrated, same-instant pushes (newer
        // seqs) and earlier-instant pushes into its bucket must order
        // around it exactly as the reference heap does.
        let mut q = Lockstep::new();
        let horizon = (SLOTS as u64) << WIDTH_SHIFT;
        let far = horizon + 1_000;
        q.push(far);
        q.push(far + 3);
        let mut now = 0;
        while now + 50_000 < far {
            q.push(now + 50_000);
            now = q.pop().unwrap().0.as_nanos();
        }
        for _ in 0..3 {
            q.push(far);
            q.push(far - 1);
            q.push(far + 2);
        }
        q.drain();
    }

    #[test]
    fn same_instant_incast_wave_is_fifo() {
        // An incast wave: thousands of pushes at one instant, interleaved
        // with pops that fire some of them and schedule a few more.
        let mut q = Lockstep::new();
        let t = 1_000_000;
        for round in 0..8 {
            for _ in 0..1_000 {
                q.push(t);
            }
            for _ in 0..300 {
                q.pop();
            }
            q.push(t + round);
        }
        q.drain();
    }

    #[test]
    fn decreasing_pushes_within_one_bucket() {
        // Every push lands at the front of its slot: the back-scan must
        // walk the whole slot, and equal times must keep push order.
        let mut q = Lockstep::new();
        let base = 40 << WIDTH_SHIFT;
        let width = 1u64 << WIDTH_SHIFT;
        for off in (0..width).rev() {
            q.push(base + off);
            if off % 3 == 0 {
                q.push(base + off);
            }
        }
        assert_eq!(bucket_of(SimTime::from_nanos(base)), 40);
        assert_eq!(bucket_of(SimTime::from_nanos(base + width - 1)), 40);
        q.pop();
        for off in (width / 2..width).rev() {
            q.push(base + off);
        }
        q.drain();
    }

    #[test]
    fn reuse_after_clear_matches_reference() {
        // Leave wheel and overflow populated, clear, then run a
        // fresh scenario from t = 0 on the same queues.
        let mut q = Lockstep::new();
        for i in 0..500u64 {
            q.push((i * 7919) % 400_000);
            q.push(20_000_000 + i);
        }
        for _ in 0..300 {
            q.pop();
        }
        q.clear();
        assert!(q.cal.is_empty());
        let mut now = 0;
        for i in 0..500u64 {
            q.push(now + (i * 104_729) % 300_000);
            if i % 4 == 0 {
                now = q.pop().unwrap().0.as_nanos();
            }
        }
        q.drain();
    }

    #[test]
    fn slot_refills_after_a_full_wheel_rotation() {
        // Empty a slot, walk the cursor all the way round the wheel, and
        // refill the same slot with the bucket one rotation later.
        let mut q = Lockstep::new();
        let first = 700;
        q.push(first);
        q.push(first + 5);
        q.pop();
        q.pop();
        let horizon = (SLOTS as u64) << WIDTH_SHIFT;
        let again = first + horizon;
        // Beyond the window now: waits in the overflow tier.
        q.push(again + 1);
        let mut now = first;
        while now + 60_000 < again {
            q.push(now + 60_000);
            now = q.pop().unwrap().0.as_nanos();
        }
        let slot_of = |ns| bucket_of(SimTime::from_nanos(ns)) & SLOT_MASK;
        assert_eq!(slot_of(first), slot_of(again));
        q.push(again);
        q.push(again + 1);
        q.push(again);
        q.drain();
    }

    /// Event kinds of [`drive_link_mix`], as `Lockstep` tags.
    const TX_DONE: u64 = 0;
    const ARRIVE: u64 = 1;
    const FOLLOW_UP: u64 = 2;
    const TIMER: u64 = 3;

    /// The simulator's event mix, modelled on `stride`, for `pops` pops:
    /// `links` busy links, each `TxDone` scheduling the next one
    /// (+1231 ns) and its packet's `Arrive` (+2231 ns); each arrival
    /// schedules an ACK's `TxDone` and `Arrive` (+68 ns, +1068 ns), and
    /// some also a follow-up at a random delay, as NIC polls, GRO holds
    /// and egress drains do, or a timer past the wheel horizon, as RTOs
    /// do. The four constant delays recur and take lanes; the rest take
    /// the wheel and overflow tier, or claim a lane that drained.
    fn drive_link_mix(q: &mut Lockstep, links: u64, pops: u64, mut x: u64) {
        let mut rng = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 11
        };
        let start = q.cal.watermark.as_nanos();
        for link in 0..links {
            q.push_tagged(start + link * 19, TX_DONE);
        }
        for _ in 0..pops {
            let (t, event) = q.pop().expect("links keep the queue busy");
            let now = t.as_nanos();
            match event & 3 {
                TX_DONE => {
                    q.push_tagged(now + 1_231, TX_DONE);
                    q.push_tagged(now + 2_231, ARRIVE);
                }
                ARRIVE => {
                    q.push_tagged(now + 68, FOLLOW_UP);
                    q.push_tagged(now + 1_068, FOLLOW_UP);
                    let r = rng();
                    match r % 16 {
                        0..=3 => q.push_tagged(now + r / 16 % 3_000, FOLLOW_UP),
                        4 => q.push_tagged(now + r / 16 % 90_000, FOLLOW_UP),
                        5 => q.push_tagged(now + 200_000 + r / 16 % 100_000, TIMER),
                        6 => q.push_tagged(now + 10_000_000 + r / 16 % 1_000, TIMER),
                        _ => {}
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn link_mix_matches_reference() {
        // Constant-delay streams interleaved with random-delay pushes and
        // far timers, over several seeds and fabric loads.
        for (links, seed) in [(16, 1u64), (3, 0xBEEF), (40, 0x9E37_79B9_7F4A_7C15)] {
            let mut q = Lockstep::new();
            drive_link_mix(&mut q, links, 30_000, seed);
            let busy = q.busy_lane_delays();
            for delay in [1_231, 2_231] {
                assert!(busy.contains(&delay), "{delay} ns holds a lane: {busy:?}");
            }
            assert!(q.cal.occupied.iter().any(|&w| w != 0), "wheel in use");
            q.drain();
        }
    }

    #[test]
    fn far_timers_take_the_overflow_tier_while_lanes_carry_the_rest() {
        // The four recurring delays hold every lane, so the timers past
        // the horizon queue in the overflow tier, migrate into the wheel
        // as the cursor reaches them, and fire in order between the lane
        // keys.
        let mut q = Lockstep::new();
        drive_link_mix(&mut q, 24, 20_000, 5);
        let mut delays = q.cal.lane_delays;
        delays.sort_unstable();
        assert_eq!(delays, [68, 1_068, 1_231, 2_231]);
        assert!(
            !q.cal.overflow.is_empty(),
            "far timers wait in the overflow"
        );
        let mut timers = 0;
        for _ in 0..20_000 {
            let (t, event) = q.pop().expect("links keep the queue busy");
            if event & 3 == TIMER {
                timers += 1;
            }
            if event & 3 == TX_DONE {
                q.push_tagged(t.as_nanos() + 1_231, TX_DONE);
            }
        }
        assert!(timers > 0, "overflow timers came due");
        q.drain();
    }

    #[test]
    fn clear_mid_run_then_rerun_matches_reference() {
        // Clear with every lane, the wheel and the overflow tier holding
        // keys, then run a fresh scenario from t = 0 on the same queues.
        let mut q = Lockstep::new();
        drive_link_mix(&mut q, 16, 5_000, 11);
        assert!(q.cal.lanes.iter().all(|lane| !lane.is_empty()));
        assert!(!q.cal.overflow.is_empty());
        q.clear();
        assert!(q.cal.lanes.iter().all(|lane| lane.is_empty()));
        assert_eq!(q.cal.heads, [NO_HEAD; LANES + 1]);
        drive_link_mix(&mut q, 16, 5_000, 12);
        q.drain();
    }

    #[test]
    fn drained_lane_is_reclaimed_by_a_new_delay() {
        let mut q = Lockstep::new();
        for delay in [500, 600, 700, 800] {
            q.push(delay);
        }
        assert_eq!(q.busy_lane_delays(), [500, 600, 700, 800]);
        // No lane free: a fifth delay takes the wheel.
        q.push(900);
        assert_eq!(
            q.cal.heads[LANES],
            pack(&Key {
                time: SimTime::from_nanos(900),
                seq: 4,
                event: ()
            })
        );
        // Lane 0 drains and keeps its delay until a new one claims it.
        q.pop();
        assert!(q.cal.lanes[0].is_empty());
        assert_eq!(q.cal.lane_delays[0], 500);
        q.push(500 + 250);
        q.push(500 + 250);
        assert_eq!(q.cal.lane_delays[0], 250);
        assert_eq!(q.cal.lanes[0].len(), 2);
        // An empty lane whose delay matches wins over an earlier empty one.
        q.pop(); // 600
        q.pop(); // 700
        assert!(q.cal.lanes[1].is_empty() && q.cal.lanes[2].is_empty());
        q.push(700 + 700);
        assert_eq!(q.cal.lanes[2].len(), 1, "lane 2 kept delay 700");
        assert!(q.cal.lanes[1].is_empty());
        q.drain();
    }

    #[test]
    fn only_pushes_within_the_horizon_claim_a_lane() {
        // A one-off far timer would hold a lane for as long as it waits:
        // it takes the overflow tier and leaves every lane empty.
        let mut q = Lockstep::new();
        q.push(HORIZON_NS);
        q.push(5 * HORIZON_NS + 3);
        assert!(q.busy_lane_delays().is_empty());
        assert_eq!(q.cal.overflow.len(), 2);
        q.push(HORIZON_NS - 1);
        assert_eq!(q.busy_lane_delays(), [HORIZON_NS - 1]);
        q.drain();
    }

    /// Heap allocation calls made by this thread. Tests run on threads of
    /// their own, so each counts only its own queue's allocations.
    mod counting {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ALLOCS: Cell<u64> = const { Cell::new(0) };
        }

        struct CountingAlloc;

        fn count() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }

        // SAFETY: every method forwards its arguments unchanged to
        // `System`, which upholds the `GlobalAlloc` contract; the counter
        // is a thread-local `Cell` that needs no allocation.
        unsafe impl GlobalAlloc for CountingAlloc {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                count();
                System.alloc(layout)
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                count();
                System.alloc_zeroed(layout)
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                count();
                System.realloc(ptr, layout, new_size)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout)
            }
        }

        #[global_allocator]
        static GLOBAL: CountingAlloc = CountingAlloc;

        pub(super) fn allocs() -> u64 {
            ALLOCS.with(Cell::get)
        }
    }

    /// Push 3,000 keys at `offset(i)` ns after the watermark for key `i`,
    /// with the delay lanes parked so every key takes the wheel; return
    /// the number of slots the keys occupy, then drain the queue.
    fn burst(q: &mut EventQueue<u64>, offset: impl Fn(u64) -> u64) -> usize {
        let now = q.watermark.as_nanos();
        for i in 0..LANES as u64 {
            q.push(SimTime::from_nanos(now + PARKED_DELAY - i), u64::MAX);
        }
        for i in 0..3_000 {
            q.push(SimTime::from_nanos(now + 1 + offset(i)), i);
        }
        let occupied = q.occupied.iter().map(|w| w.count_ones() as usize).sum();
        while q.pop().is_some() {}
        occupied
    }

    /// Pseudo-random offsets under 100 µs, squared so that early buckets
    /// get many keys and late ones few: about 390 slots, 1 to 20 keys each.
    fn skewed(i: u64) -> u64 {
        let r = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 10_000;
        r * r / 1_000
    }

    /// Eight keys in each of 375 buckets, pushed in a scattered order.
    fn even(i: u64) -> u64 {
        ((i * 7 % 375) << WIDTH_SHIFT) | (i % 8)
    }

    /// Key buffers the queue holds, in slots and on the spare list.
    fn buffers(q: &EventQueue<u64>) -> usize {
        let in_slots = q.slots.iter().filter(|s| s.keys.capacity() > 0).count();
        in_slots + q.spare.len()
    }

    #[test]
    fn a_drained_wheel_keeps_one_buffer_per_slot_occupied_at_once() {
        let mut q = EventQueue::new();
        let mut peak = 0;
        for _ in 0..4 {
            peak = peak.max(burst(&mut q, skewed));
            assert!(peak > 300, "the burst spans {peak} slots");
            assert!(q.slots.iter().all(|s| s.keys.capacity() == 0));
            assert!(buffers(&q) <= peak, "{} buffers", buffers(&q));
        }
    }

    #[test]
    fn a_repeat_of_a_burst_allocates_nothing() {
        let mut q = EventQueue::new();
        assert_eq!(burst(&mut q, even), 375);
        let before = counting::allocs();
        assert_eq!(burst(&mut q, even), 375);
        assert_eq!(counting::allocs() - before, 0, "a warm wheel allocated");
        assert_eq!(buffers(&q), 375);
    }

    #[test]
    fn clear_moves_occupied_slots_buffers_to_the_spare_list() {
        let mut q = EventQueue::new();
        for i in 0..3_000 {
            q.push(SimTime::from_nanos(1 + even(i)), i);
        }
        for _ in 0..1_000 {
            q.pop();
        }
        q.clear();
        assert!(q.slots.iter().all(|s| s.keys.capacity() == 0));
        assert_eq!(buffers(&q), 375);
        let before = counting::allocs();
        assert_eq!(burst(&mut q, even), 375);
        assert_eq!(
            counting::allocs() - before,
            0,
            "the cleared queue allocated"
        );
    }

    #[test]
    fn push_failing_a_lane_tail_check_takes_the_wheel() {
        // Keys of one delay never precede the lane's tail through the
        // public API, so rewrite a lane's delay to make one that would.
        let mut q = Lockstep::new();
        q.push(1_000);
        assert_eq!(q.cal.lane_delays[0], 1_000);
        q.cal.lane_delays[0] = 5;
        q.push(5);
        assert_eq!(q.cal.lanes[0].len(), 1, "5 ns precedes the tail");
        assert_ne!(q.cal.heads[LANES], NO_HEAD, "it took the wheel");
        // A key at the tail's own time has a newer seq: it joins the lane.
        q.cal.lane_delays[0] = 1_000;
        q.push(1_000);
        assert_eq!(q.cal.lanes[0].len(), 2);
        q.drain();
    }
}
