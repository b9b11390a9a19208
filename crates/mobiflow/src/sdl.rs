//! The Shared Data Layer (SDL): a thread-safe, namespaced key-value store,
//! the stand-in for the Redis-backed store of the OSC reference platform.
//!
//! Nothing in the deployed loop reads or writes it. Telemetry reaches the
//! xApps by E2 subscription, and the platform hands each indication's
//! records to its subscribers and keeps no copy. What is left is the surface
//! the benchmark still names: `new`, `set` and `len`. With no agent-chosen
//! keys on any live path, the choice of hasher carries no security weight.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// One namespace's entries.
type Namespace = HashMap<String, Vec<u8>>;

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

    /// Writes `value` under `(namespace, key)`, replacing any value there.
    pub fn set(&self, namespace: &str, key: &str, value: Vec<u8>) {
        let mut namespaces = self.namespaces.write();
        // Looked up by reference first: the name is only copied when the
        // namespace is new, not on every write.
        let ns = match namespaces.get_mut(namespace) {
            Some(ns) => ns,
            None => namespaces.entry(namespace.to_string()).or_default(),
        };
        ns.insert(key.to_string(), value);
    }

    /// Number of entries in a namespace.
    pub fn len(&self, namespace: &str) -> usize {
        self.namespaces.read().get(namespace).map(HashMap::len).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn namespaces_are_isolated() {
        // `set` replaces a key's value; `len` counts keys, per namespace.
        let sdl = SharedDataLayer::new();
        sdl.set("a", "k", vec![1]);
        sdl.set("a", "k", vec![2]);
        sdl.set("b", "k", vec![3]);
        sdl.set("b", "l", vec![4]);
        assert_eq!((sdl.len("a"), sdl.len("b"), sdl.len("c")), (1, 2, 0));
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
    }
}
