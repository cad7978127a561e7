//! Stable priority queue of timestamped events.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// A time-ordered event queue with FIFO tie-breaking.
///
/// Events popped from the queue come out in nondecreasing time order, and
/// events scheduled for the *same* tick come out in insertion order. The
/// latter matters for reproducibility: a packet arrival and a transmission
/// completion at the same tick must always resolve the same way.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

// Reverse ordering so the BinaryHeap (a max-heap) pops the earliest entry.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event along with its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The earliest pending event and its timestamp, left in the queue.
    #[inline]
    pub(crate) fn peek(&self) -> Option<(Time, &E)> {
        self.heap.peek().map(|e| (e.time, &e.event))
    }

    /// Overwrites the earliest pending event with `event` at `at`, which
    /// takes the next sequence number exactly as [`push`](Self::push)
    /// would. One sift-down restores the heap, where a pop followed by a
    /// push would sift twice; the pending set, and so the pop order, is
    /// the same either way.
    ///
    /// # Panics
    /// Panics if the queue is empty.
    #[inline]
    pub(crate) fn replace_top(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        *self
            .heap
            .peek_mut()
            .expect("replace_top needs a pending event") = Entry {
            time: at,
            seq,
            event,
        };
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ticks(30), "c");
        q.push(Time::from_ticks(10), "a");
        q.push(Time::from_ticks(20), "b");
        assert_eq!(q.pop(), Some((Time::from_ticks(10), "a")));
        assert_eq!(q.pop(), Some((Time::from_ticks(20), "b")));
        assert_eq!(q.pop(), Some((Time::from_ticks(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(Time::from_ticks(5), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((Time::from_ticks(5), i)));
        }
    }

    #[test]
    fn fifo_survives_interleaved_pops() {
        let mut q = EventQueue::new();
        q.push(Time::from_ticks(1), 'a');
        q.push(Time::from_ticks(1), 'b');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(Time::from_ticks(1), 'c');
        // 'b' was pushed before 'c', so it must still come first.
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }

    proptest! {
        /// Popping the whole queue yields times in nondecreasing order, and
        /// equal times preserve insertion order (stability).
        #[test]
        fn prop_pop_order_is_stable_sort(times in prop::collection::vec(0u64..50, 0..200)) {
            let mut q = EventQueue::new();
            for (idx, &t) in times.iter().enumerate() {
                q.push(Time::from_ticks(t), idx);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            expected.sort_by_key(|&(t, i)| (t, i)); // stable order == (time, insertion)
            let mut got = Vec::new();
            while let Some((t, idx)) = q.pop() {
                got.push((t.ticks(), idx));
            }
            prop_assert_eq!(got, expected);
        }
    }
}
