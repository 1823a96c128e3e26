//! Requests parked on a line's fill, with pooled storage.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::cache::LineAddrHasher;

/// Line address → the requests parked on that line's fill, each line's in
/// arrival order. A list taken by its fill and handed back through
/// [`FillWaiters::recycle`] keeps its storage in a free pool, so once the
/// pool has warmed up, parking a request allocates nothing.
///
/// Waiters are keyed by line, not by MSHR slot. A disabled cache and a
/// request sent after [`crate::CacheOutcome::ReservationFail`] hold no
/// MSHR, and the first fill of a line answers every request parked on it.
#[derive(Debug, Clone)]
pub struct FillWaiters<W> {
    lists: HashMap<u64, Vec<W>, BuildHasherDefault<LineAddrHasher>>,
    pool: Vec<Vec<W>>,
}

impl<W> Default for FillWaiters<W> {
    /// No request parked, nothing pooled.
    fn default() -> Self {
        FillWaiters {
            lists: HashMap::default(),
            pool: Vec::new(),
        }
    }
}

impl<W> FillWaiters<W> {
    /// Park `waiter` on `line`'s fill, behind those already parked there.
    pub fn park(&mut self, line: u64, waiter: W) {
        self.lists
            .entry(line)
            .or_insert_with(|| self.pool.pop().unwrap_or_default())
            .push(waiter);
    }

    /// Remove `line`'s waiters, in arrival order; an empty list, allocating
    /// nothing, when none is parked. Hand the list back through
    /// [`FillWaiters::recycle`] once it is answered.
    pub fn take(&mut self, line: u64) -> Vec<W> {
        self.lists.remove(&line).unwrap_or_default()
    }

    /// Return a list [`FillWaiters::take`] handed out: it is emptied and
    /// its storage pooled for the next line that parks a request.
    pub fn recycle(&mut self, mut list: Vec<W>) {
        list.clear();
        if list.capacity() > 0 {
            self.pool.push(list);
        }
    }

    /// Drop every parked request, pooling the lists' storage.
    pub fn clear(&mut self) {
        for (_, mut list) in self.lists.drain() {
            list.clear();
            self.pool.push(list);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::FillWaiters;

    #[test]
    fn each_line_answers_in_arrival_order_across_interleaved_lines() {
        let mut w = FillWaiters::default();
        for (i, line) in [7u64, 3, 7, 9, 3, 7].into_iter().enumerate() {
            w.park(line, i);
        }
        assert_eq!(w.take(7), [0, 2, 5]);
        assert_eq!(w.take(3), [1, 4]);
        assert_eq!(w.take(7), [], "a fill takes its line's waiters once");
        assert_eq!(w.take(9), [3]);
        assert!(w.lists.is_empty());
    }

    #[test]
    fn a_drained_list_is_reused_by_the_next_line() {
        let mut w = FillWaiters::default();
        w.park(1, 10u64);
        w.park(1, 11);
        let list = w.take(1);
        let storage = list.as_ptr();
        w.recycle(list);
        w.park(2, 12);
        let list = w.take(2);
        assert_eq!(list, [12]);
        assert_eq!(list.as_ptr(), storage, "the pooled list was not reused");
        // An empty take allocates nothing and pools nothing.
        let none = w.take(3);
        assert_eq!(none.capacity(), 0);
        w.recycle(none);
        w.recycle(list);
        assert_eq!(w.pool.len(), 1);
    }

    #[test]
    fn clear_drops_every_waiter_and_keeps_the_storage() {
        let mut w = FillWaiters::default();
        w.park(4, 'a');
        w.park(5, 'b');
        w.park(4, 'c');
        w.clear();
        assert!(w.lists.is_empty());
        assert_eq!((w.take(4), w.take(5)), (vec![], vec![]));
        assert_eq!(w.pool.len(), 2);
        assert!(w.pool.iter().all(Vec::is_empty));
        w.park(5, 'd');
        assert_eq!((w.pool.len(), w.take(5)), (1, vec!['d']));
    }
}
