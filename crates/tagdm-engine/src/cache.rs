//! A small least-recently-used cache for memoized mining artifacts.
//!
//! The engine caches mining contexts (large values) and solver outcomes, so the cache
//! optimizes for simplicity over asymptotics: entries carry a logical timestamp, `get`
//! refreshes it, and eviction scans for the stale minimum. With the capacities the
//! engine uses, the O(capacity) eviction scan is noise next to building even one
//! context or running one solve.

use std::collections::HashMap;
use std::hash::Hash;

struct Entry<V> {
    value: V,
    last_used: u64,
}

/// A fixed-capacity map evicting the least-recently-used entry on overflow.
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, Entry<V>>,
}

impl<K: Eq + Hash, V: Clone> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::with_capacity(capacity),
        }
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|entry| {
            entry.last_used = tick;
            entry.value.clone()
        })
    }

    /// Insert a value, evicting the least-recently-used entry if the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            // Ticks are unique per entry, so this removes exactly the oldest one
            // without cloning its key.
            if let Some(oldest) = self.map.values().map(|entry| entry.last_used).min() {
                self.map.retain(|_, entry| entry.last_used != oldest);
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
            },
        );
    }

    /// Whether the key is currently cached (does not refresh recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_removes_the_least_recently_used_entry() {
        let mut cache: LruCache<&str, u32> = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), Some(1)); // refresh "a"; "b" is now oldest
        cache.insert("c", 3);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&"a"));
        assert!(!cache.contains(&"b"));
        assert!(cache.contains(&"c"));
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut cache: LruCache<&str, u32> = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("a", 10);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&"a"), Some(10));
        assert_eq!(cache.get(&"b"), Some(2));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut cache: LruCache<u32, u32> = LruCache::new(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert(1, 1);
        cache.insert(2, 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.is_empty() || cache.contains(&2));
    }
}
