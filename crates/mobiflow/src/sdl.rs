//! The Shared Data Layer (SDL) — the nRT-RIC's central store.
//!
//! The OSC reference platform backs this with Redis; ours is an in-process,
//! thread-safe, namespaced key-value store with the same access pattern: the
//! E2 termination writes telemetry in, xApps read it out, and a monotonically
//! increasing per-namespace version lets consumers poll for "anything new
//! since I last looked?" cheaply (the RIC layers push-notification on top).

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One namespace: its entries plus the version that bumps on mutation
/// (and survives the namespace becoming empty).
#[derive(Default)]
struct Namespace {
    entries: BTreeMap<String, Vec<u8>>,
    version: u64,
}

/// A cloneable handle to the shared store.
#[derive(Clone, Default)]
pub struct SharedDataLayer {
    namespaces: Arc<RwLock<BTreeMap<String, Namespace>>>,
}

impl SharedDataLayer {
    /// Creates an empty SDL.
    pub fn new() -> Self {
        SharedDataLayer::default()
    }

    /// Writes `value` under `(namespace, key)`, bumping the namespace version.
    pub fn set(&self, namespace: &str, key: &str, value: Vec<u8>) {
        let mut namespaces = self.namespaces.write();
        // Looked up by reference first: the name is only copied when the
        // namespace is new, not on every write.
        let ns = match namespaces.get_mut(namespace) {
            Some(ns) => ns,
            None => namespaces.entry(namespace.to_string()).or_default(),
        };
        ns.entries.insert(key.to_string(), value);
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
        self.namespaces
            .read()
            .get(namespace)
            .map(|ns| ns.entries.keys().cloned().collect())
            .unwrap_or_default()
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
        self.namespaces
            .read()
            .get(namespace)
            .map(|ns| ns.entries.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
