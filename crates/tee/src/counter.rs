//! Monotonic counters for rollback protection.
//!
//! The paper's CAS runs an "auditing service" that tracks data versions so
//! an attacker who restores an old (but correctly encrypted) state is
//! detected. The hardware primitive underneath is a monotonic counter;
//! this module provides a store of named counters with strictly-increasing
//! semantics, and whoever reads stored state compares the version it
//! claims with its counter. Each `Platform` holds one store (its NVRAM);
//! the fs shield's manifest generation and mount epoch live in it, and
//! that pinned manifest is this repository's auditing service.
//!
//! # Examples
//!
//! ```
//! use securetf_tee::counter::CounterStore;
//!
//! let mut store = CounterStore::new();
//! let c = store.create("model.ckpt");
//! assert_eq!(store.increment(c).unwrap(), 1);
//! assert_eq!(store.increment(c).unwrap(), 2);
//! ```

use crate::TeeError;
use std::collections::HashMap;

/// Handle to a monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u64);

/// A store of named monotonic counters.
#[derive(Debug, Default)]
pub struct CounterStore {
    counters: HashMap<CounterId, (String, u64)>,
    next_id: u64,
}

impl CounterStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a new counter with initial value zero.
    pub fn create(&mut self, name: &str) -> CounterId {
        let id = CounterId(self.next_id);
        self.next_id += 1;
        self.counters.insert(id, (name.to_string(), 0));
        id
    }

    /// Increments the counter, returning the new value.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::CounterViolation`] for unknown counters.
    pub fn increment(&mut self, id: CounterId) -> Result<u64, TeeError> {
        let entry = self
            .counters
            .get_mut(&id)
            .ok_or(TeeError::CounterViolation)?;
        entry.1 += 1;
        Ok(entry.1)
    }

    /// Reads the current value.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::CounterViolation`] for unknown counters.
    pub fn read(&self, id: CounterId) -> Result<u64, TeeError> {
        self.counters
            .get(&id)
            .map(|(_, v)| *v)
            .ok_or(TeeError::CounterViolation)
    }

    /// Finds the counter with `name`, or creates one initialized at
    /// `initial` if none exists (trust-on-first-use for state that
    /// predates this counter store).
    pub fn find_or_create_at(&mut self, name: &str, initial: u64) -> CounterId {
        if let Some(id) = self
            .counters
            .iter()
            .find(|(_, (n, _))| n == name)
            .map(|(id, _)| *id)
        {
            return id;
        }
        let id = CounterId(self.next_id);
        self.next_id += 1;
        self.counters.insert(id, (name.to_string(), initial));
        id
    }

    /// Returns the counter's name.
    pub fn name(&self, id: CounterId) -> Option<&str> {
        self.counters.get(&id).map(|(n, _)| n.as_str())
    }

    /// Number of live counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_increments() {
        let mut s = CounterStore::new();
        let c = s.create("x");
        assert_eq!(s.read(c).unwrap(), 0);
        assert_eq!(s.increment(c).unwrap(), 1);
        assert_eq!(s.increment(c).unwrap(), 2);
        assert_eq!(s.read(c).unwrap(), 2);
    }

    #[test]
    fn counters_are_independent() {
        let mut s = CounterStore::new();
        let a = s.create("a");
        let b = s.create("b");
        s.increment(a).unwrap();
        assert_eq!(s.read(a).unwrap(), 1);
        assert_eq!(s.read(b).unwrap(), 0);
        assert_eq!(s.name(a), Some("a"));
        assert_eq!(s.name(b), Some("b"));
    }

    #[test]
    fn find_or_create_at_reuses_existing() {
        let mut s = CounterStore::new();
        let a = s.create("ckpt");
        s.increment(a).unwrap();
        let found = s.find_or_create_at("ckpt", 99);
        assert_eq!(found, a);
        assert_eq!(s.read(found).unwrap(), 1, "existing value kept");
        let fresh = s.find_or_create_at("other", 7);
        assert_eq!(s.read(fresh).unwrap(), 7);
    }

    #[test]
    fn unknown_counter_is_violation() {
        let mut empty = CounterStore::new();
        let mut other = CounterStore::new();
        let foreign = other.create("x");
        assert_eq!(empty.increment(foreign), Err(TeeError::CounterViolation));
        assert_eq!(empty.read(foreign), Err(TeeError::CounterViolation));
    }
}
