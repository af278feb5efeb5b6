//! Activity-ordered variable heap (MiniSat-style indexed max-heap).

use crate::lit::Var;

/// `VarHeap::position` of a variable not in the heap.
const ABSENT: u32 = u32::MAX;

/// A max-heap of variables keyed by an external activity array.
///
/// The heap stores each variable's position so that `decrease`/`increase`
/// updates and membership checks are O(log n) / O(1).
#[derive(Debug, Default, Clone)]
pub struct VarHeap {
    heap: Vec<Var>,
    /// Each variable's index in `heap`, or [`ABSENT`].
    position: Vec<u32>,
}

impl VarHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        VarHeap::default()
    }

    /// Ensures the heap can track variables up to `n - 1`.
    pub fn grow_to(&mut self, n: usize) {
        if self.position.len() < n {
            self.position.resize(n, ABSENT);
        }
    }

    /// Returns `true` when the heap contains no variables.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Inserts `v` unless it is already present.
    pub fn insert(&mut self, v: Var, activity: &[f64]) {
        self.grow_to(v.index() + 1);
        if self.position[v.index()] != ABSENT {
            return;
        }
        let i = self.heap.len();
        self.heap.push(v);
        self.position[v.index()] = i as u32;
        self.sift_up(i, activity);
    }

    /// Removes and returns the variable with the highest activity.
    pub fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.position[top.index()] = ABSENT;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last.index()] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restores the heap property after `v`'s activity increased.
    pub fn update(&mut self, v: Var, activity: &[f64]) {
        match self.position.get(v.index()) {
            Some(&i) if i != ABSENT => self.sift_up(i as usize, activity),
            _ => {}
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i].index()] > activity[self.heap[parent].index()] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let left = 2 * i + 1;
            let right = 2 * i + 2;
            let mut best = i;
            if left < self.heap.len()
                && activity[self.heap[left].index()] > activity[self.heap[best].index()]
            {
                best = left;
            }
            if right < self.heap.len()
                && activity[self.heap[right].index()] > activity[self.heap[best].index()]
            {
                best = right;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.position[self.heap[i].index()] = i as u32;
        self.position[self.heap[j].index()] = j as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 3.0, 1.5, 2.0];
        let mut heap = VarHeap::new();
        for i in 0..4 {
            heap.insert(Var(i), &activity);
        }
        assert_eq!(heap.pop(&activity), Some(Var(1)));
        assert_eq!(heap.pop(&activity), Some(Var(3)));
        assert_eq!(heap.pop(&activity), Some(Var(2)));
        assert_eq!(heap.pop(&activity), Some(Var(0)));
        assert_eq!(heap.pop(&activity), None);
    }

    #[test]
    fn insert_is_idempotent() {
        let activity = vec![1.0, 2.0];
        let mut heap = VarHeap::new();
        heap.insert(Var(0), &activity);
        heap.insert(Var(0), &activity);
        heap.insert(Var(1), &activity);
        assert_eq!(heap.pop(&activity), Some(Var(1)));
        assert_eq!(heap.pop(&activity), Some(Var(0)));
        assert!(heap.is_empty());
    }

    #[test]
    fn update_reorders_after_bump() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut heap = VarHeap::new();
        for i in 0..3 {
            heap.insert(Var(i), &activity);
        }
        activity[0] = 10.0;
        heap.update(Var(0), &activity);
        assert_eq!(heap.pop(&activity), Some(Var(0)));
    }
}
