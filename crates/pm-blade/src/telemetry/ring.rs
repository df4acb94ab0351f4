//! The one capped, drop-counting ring: it holds the engine's recent
//! compaction spans (`MetricsSnapshot::spans`) and the tracer's
//! slow-query flight recorder.

use std::collections::VecDeque;

use parking_lot::Mutex;

/// A fixed-capacity ring of recent items.
///
/// When full, pushing evicts the *oldest* item; evictions are counted
/// so readers can report how much history was lost.
pub struct Ring<T> {
    inner: Mutex<Inner<T>>,
}

struct Inner<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T: Clone> Ring<T> {
    /// `capacity` must be at least 1 (enforced by
    /// `OptionsBuilder::build`; a raw `Options` with 0 gets 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring {
            inner: Mutex::new(Inner {
                buf: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
                dropped: 0,
            }),
        }
    }

    pub fn push(&self, item: T) {
        let mut inner = self.inner.lock();
        if inner.buf.len() >= inner.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(item);
    }

    /// Oldest-to-newest copy of the retained items, plus the number
    /// evicted so far, read under one lock.
    pub fn snapshot_with_dropped(&self) -> (Vec<T>, u64) {
        let inner = self.inner.lock();
        (inner.buf.iter().cloned().collect(), inner.dropped)
    }

    /// Oldest-to-newest copy of the retained items.
    pub fn snapshot(&self) -> Vec<T> {
        self.snapshot_with_dropped().0
    }

    /// Items evicted so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Ring")
            .field("len", &inner.buf.len())
            .field("capacity", &inner.capacity)
            .field("dropped", &inner.dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = Ring::new(3);
        for id in 0..5u64 {
            ring.push(id);
        }
        assert_eq!(ring.snapshot(), vec![2, 3, 4]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.snapshot_with_dropped(), (vec![2, 3, 4], 2));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let ring = Ring::new(0);
        ring.push(1u64);
        ring.push(2u64);
        assert_eq!(ring.snapshot_with_dropped(), (vec![2], 1));
    }
}
