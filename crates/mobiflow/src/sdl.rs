//! The Shared Data Layer (SDL) — the nRT-RIC's central store.
//!
//! The OSC reference platform backs this with Redis; ours is an in-process,
//! thread-safe, namespaced key-value store with the same access pattern: the
//! E2 termination writes telemetry in, xApps read it out, and a monotonically
//! increasing per-namespace version lets consumers poll for "anything new
//! since I last looked?" cheaply (the RIC layers push-notification on top).
//!
//! Namespaces are hashed, not ordered: the E2 termination writes (and
//! evicts) one entry per report window on the per-indication path, while
//! [`SharedDataLayer::keys`] and [`SharedDataLayer::scan`] — whose contract
//! is sorted output — are read by tools and tests, so the order is paid for
//! on read. The hasher is std's keyed default: keys carry bytes a RAN agent
//! chooses (its report-window bounds), so an unkeyed hash would let one
//! agent aim every write at one bucket.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// One namespace: its entries plus the version that bumps on mutation
/// (and survives the namespace becoming empty).
#[derive(Default)]
struct Namespace {
    entries: HashMap<String, Vec<u8>>,
    version: u64,
}

/// A cloneable handle to the shared store.
#[derive(Clone, Default)]
pub struct SharedDataLayer {
    namespaces: Arc<RwLock<HashMap<String, Namespace>>>,
}

impl SharedDataLayer {
    /// Creates an empty SDL.
    pub fn new() -> Self {
        SharedDataLayer::default()
    }

    /// Writes `value` under `(namespace, key)`, bumping the namespace version.
    pub fn set(&self, namespace: &str, key: &str, value: Vec<u8>) {
        let mut namespaces = self.namespaces.write();
        // Looked up by reference first: a name is only copied when the
        // namespace or the key is new, not on every write.
        let ns = match namespaces.get_mut(namespace) {
            Some(ns) => ns,
            None => namespaces.entry(namespace.to_string()).or_default(),
        };
        match ns.entries.get_mut(key) {
            Some(slot) => *slot = value,
            None => {
                ns.entries.insert(key.to_string(), value);
            }
        }
        ns.version += 1;
    }

    /// Reads the value under `(namespace, key)`.
    pub fn get(&self, namespace: &str, key: &str) -> Option<Vec<u8>> {
        self.namespaces.read().get(namespace)?.entries.get(key).cloned()
    }

    /// Deletes a key; returns whether it existed. Bumps the version if so.
    pub fn delete(&self, namespace: &str, key: &str) -> bool {
        let mut namespaces = self.namespaces.write();
        let Some(ns) = namespaces.get_mut(namespace) else {
            return false;
        };
        let existed = ns.entries.remove(key).is_some();
        if existed {
            ns.version += 1;
        }
        existed
    }

    /// All keys in a namespace, sorted.
    pub fn keys(&self, namespace: &str) -> Vec<String> {
        let mut keys: Vec<String> = self
            .namespaces
            .read()
            .get(namespace)
            .map(|ns| ns.entries.keys().cloned().collect())
            .unwrap_or_default();
        keys.sort_unstable();
        keys
    }

    /// Number of entries in a namespace.
    pub fn len(&self, namespace: &str) -> usize {
        self.namespaces.read().get(namespace).map(|ns| ns.entries.len()).unwrap_or(0)
    }

    /// Whether the namespace holds no entries.
    pub fn is_empty(&self, namespace: &str) -> bool {
        self.len(namespace) == 0
    }

    /// Monotonic version of a namespace: bumps on every write/delete.
    /// Pollers remember the last version they saw.
    pub fn version(&self, namespace: &str) -> u64 {
        self.namespaces.read().get(namespace).map(|ns| ns.version).unwrap_or(0)
    }

    /// Reads every `(key, value)` in a namespace, sorted by key.
    pub fn scan(&self, namespace: &str) -> Vec<(String, Vec<u8>)> {
        let mut entries: Vec<(String, Vec<u8>)> = self
            .namespaces
            .read()
            .get(namespace)
            .map(|ns| ns.entries.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::thread;

    #[test]
    fn set_get_delete_round_trip() {
        let sdl = SharedDataLayer::new();
        sdl.set("mobiflow", "ue/1", b"record".to_vec());
        assert_eq!(sdl.get("mobiflow", "ue/1"), Some(b"record".to_vec()));
        assert!(sdl.delete("mobiflow", "ue/1"));
        assert_eq!(sdl.get("mobiflow", "ue/1"), None);
        assert!(!sdl.delete("mobiflow", "ue/1"));
    }

    #[test]
    fn namespaces_are_isolated() {
        let sdl = SharedDataLayer::new();
        sdl.set("a", "k", vec![1]);
        sdl.set("b", "k", vec![2]);
        assert_eq!(sdl.get("a", "k"), Some(vec![1]));
        assert_eq!(sdl.get("b", "k"), Some(vec![2]));
        assert_eq!(sdl.len("a"), 1);
    }

    #[test]
    fn versions_bump_on_mutation_only() {
        let sdl = SharedDataLayer::new();
        assert_eq!(sdl.version("ns"), 0);
        sdl.set("ns", "k", vec![]);
        assert_eq!(sdl.version("ns"), 1);
        let _ = sdl.get("ns", "k");
        let _ = sdl.keys("ns");
        assert_eq!(sdl.version("ns"), 1);
        sdl.delete("ns", "k");
        assert_eq!(sdl.version("ns"), 2);
        // Deleting a missing key does not bump.
        sdl.delete("ns", "k");
        assert_eq!(sdl.version("ns"), 2);
    }

    #[test]
    fn keys_and_scan_are_sorted() {
        let sdl = SharedDataLayer::new();
        sdl.set("ns", "b", vec![2]);
        sdl.set("ns", "a", vec![1]);
        sdl.set("ns", "c", vec![3]);
        assert_eq!(sdl.keys("ns"), vec!["a", "b", "c"]);
        let scan = sdl.scan("ns");
        assert_eq!(scan[0], ("a".to_string(), vec![1]));
        assert_eq!(scan[2], ("c".to_string(), vec![3]));
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let sdl = SharedDataLayer::new();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let sdl = sdl.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        sdl.set("ns", &format!("{t}/{i}"), vec![t as u8]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sdl.len("ns"), 800);
        assert_eq!(sdl.version("ns"), 800);
    }

    proptest! {
        /// The hashed store is observably the ordered one it replaced: after
        /// any `set`/`delete` sequence over a small key space (so overwrites
        /// and deletes of present keys are common), every reader agrees with
        /// a `BTreeMap` — `keys` and `scan` in its order.
        #[test]
        fn prop_set_delete_sequences_match_an_ordered_oracle(
            ops in proptest::collection::vec((any::<bool>(), 0u8..24, any::<u8>()), 0..200)
        ) {
            let sdl = SharedDataLayer::new();
            let mut oracle: BTreeMap<String, Vec<u8>> = BTreeMap::new();
            let mut version = 0;
            for (is_set, key, byte) in ops {
                // Unpadded numbers: "10" sorts before "9", so insertion or
                // numeric order would not pass for the sorted one.
                let key = format!("{key}/k");
                if is_set {
                    sdl.set("ns", &key, vec![byte; 3]);
                    oracle.insert(key, vec![byte; 3]);
                    version += 1;
                } else {
                    let existed = oracle.remove(&key).is_some();
                    prop_assert_eq!(sdl.delete("ns", &key), existed);
                    version += existed as u64;
                }
            }
            prop_assert_eq!(sdl.keys("ns"), oracle.keys().cloned().collect::<Vec<_>>());
            prop_assert_eq!(sdl.scan("ns"), oracle.clone().into_iter().collect::<Vec<_>>());
            prop_assert_eq!(sdl.len("ns"), oracle.len());
            prop_assert_eq!(sdl.is_empty("ns"), oracle.is_empty());
            prop_assert_eq!(sdl.version("ns"), version);
            for (key, value) in &oracle {
                prop_assert_eq!(sdl.get("ns", key).as_ref(), Some(value));
            }
        }
    }
}
