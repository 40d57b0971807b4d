//! Dense, allocation-free per-job storage for the scheduler hot path.
//!
//! Engine job ids are indices into the instance (`JobId(i)` for the i-th
//! job), so a scheduler's per-job state wants a dense vector, not a
//! `HashMap`: no hashing on lookups, no rehash allocations on the event
//! path, and iteration in id order for determinism. Two containers:
//!
//! * [`JobSlab`] — `JobId`-indexed slots holding the per-job record. Slots
//!   are reused after removal; the vector grows monotonically to the
//!   highest id seen and never shrinks, so a warmed-up scheduler performs
//!   zero allocations per event. Ids are unique per simulation run (the
//!   engine never recycles them within an instance), which is the
//!   generational guarantee a free-list slab would otherwise have to carry
//!   per slot.
//! * [`DenseU32Map`] — a scratch `JobId → u32` map with O(1) set/get and
//!   O(touched) [`clear`](DenseU32Map::clear), for per-call indices such as
//!   allocation-slot positions.

use dagsched_core::JobId;

/// Dense `JobId`-keyed storage (see module docs).
#[derive(Debug, Clone)]
pub struct JobSlab<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> Default for JobSlab<T> {
    fn default() -> Self {
        JobSlab::new()
    }
}

impl<T> JobSlab<T> {
    /// An empty slab.
    pub fn new() -> JobSlab<T> {
        JobSlab {
            slots: Vec::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drop every live entry, keeping the slot storage for reuse.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.live = 0;
    }

    /// Insert `value` under `id`, returning the previous value if any.
    pub fn insert(&mut self, id: JobId, value: T) -> Option<T> {
        let i = id.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Shared access to the entry under `id`.
    pub fn get(&self, id: JobId) -> Option<&T> {
        self.slots.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Mutable access to the entry under `id`.
    pub fn get_mut(&mut self, id: JobId) -> Option<&mut T> {
        self.slots.get_mut(id.index()).and_then(|s| s.as_mut())
    }

    /// Remove and return the entry under `id`.
    pub fn remove(&mut self, id: JobId) -> Option<T> {
        let old = self.slots.get_mut(id.index()).and_then(|s| s.take());
        if old.is_some() {
            self.live -= 1;
        }
        old
    }

    /// Iterate live `(id, &value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (JobId(i as u32), v)))
    }
}

/// Scratch `JobId → u32` map with O(touched) clearing (see module docs).
///
/// Values are stored as `v + 1` so 0 means "absent"; `u32::MAX` is therefore
/// not storable, which no caller needs (slot positions are bounded by the
/// allocation length).
#[derive(Debug, Clone, Default)]
pub struct DenseU32Map {
    vals: Vec<u32>,
    touched: Vec<u32>,
}

impl DenseU32Map {
    /// An empty map.
    pub fn new() -> DenseU32Map {
        DenseU32Map::default()
    }

    /// Remove every entry; O(entries set since the last clear).
    pub fn clear(&mut self) {
        for &i in &self.touched {
            self.vals[i as usize] = 0;
        }
        self.touched.clear();
    }

    /// Map `id` to `v`, overwriting any previous value.
    pub fn set(&mut self, id: JobId, v: u32) {
        debug_assert!(v < u32::MAX, "value encoding reserves u32::MAX");
        let i = id.index();
        if i >= self.vals.len() {
            self.vals.resize(i + 1, 0);
        }
        if self.vals[i] == 0 {
            self.touched.push(i as u32);
        }
        self.vals[i] = v + 1;
    }

    /// The value under `id`, if set since the last clear.
    pub fn get(&self, id: JobId) -> Option<u32> {
        match self.vals.get(id.index()) {
            Some(&raw) if raw != 0 => Some(raw - 1),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_roundtrip_and_reuse() {
        let mut s: JobSlab<&str> = JobSlab::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(JobId(3), "a"), None);
        assert_eq!(s.insert(JobId(0), "b"), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(JobId(3)), Some(&"a"));
        assert_eq!(s.get(JobId(7)), None);
        assert_eq!(s.insert(JobId(3), "c"), Some("a"), "replace keeps len");
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(JobId(3)), Some("c"));
        assert_eq!(s.remove(JobId(3)), None, "double remove is a no-op");
        assert_eq!(s.len(), 1);
        let all: Vec<_> = s.iter().collect();
        assert_eq!(all, vec![(JobId(0), &"b")]);
    }

    #[test]
    fn slab_get_mut_updates_in_place() {
        let mut s: JobSlab<u32> = JobSlab::new();
        s.insert(JobId(1), 10);
        *s.get_mut(JobId(1)).unwrap() += 5;
        assert_eq!(s.get(JobId(1)), Some(&15));
        assert_eq!(s.get_mut(JobId(9)), None);
    }

    #[test]
    fn dense_map_set_get_clear() {
        let mut m = DenseU32Map::new();
        assert_eq!(m.get(JobId(0)), None);
        m.set(JobId(4), 0);
        m.set(JobId(1), 7);
        assert_eq!(m.get(JobId(4)), Some(0), "zero values are present");
        assert_eq!(m.get(JobId(1)), Some(7));
        m.set(JobId(1), 9);
        assert_eq!(m.get(JobId(1)), Some(9), "overwrite");
        m.clear();
        assert_eq!(m.get(JobId(4)), None);
        assert_eq!(m.get(JobId(1)), None);
        // Reuse after clear.
        m.set(JobId(4), 2);
        assert_eq!(m.get(JobId(4)), Some(2));
    }
}
