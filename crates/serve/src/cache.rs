//! Prediction cache keyed by model key plus a content key of the
//! flattened circuit, with LRU eviction and hit/miss accounting.
//!
//! The content key ([`circuit_key`]) is one keyed SipHash pass over the
//! flat circuit itself, not over any text: two decks that flatten to the
//! same circuit (comments, blank lines, `+` continuations, letter case,
//! hierarchy spelled differently) share one entry, while any change that
//! reaches a prediction — a net, a connection, the exact bits of a
//! parameter — produces a new key. Cached values are the exact `result`
//! payloads served on the uncached path, so hits are bit-identical.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use paragraph_netlist::Circuit;
use serde_json::Value;

/// FNV-1a hash of `text`: deterministic across processes and releases.
///
/// Not the prediction-cache key: the service keys its cache on a keyed
/// SipHash of the flat circuit itself (see `docs/serving.md`). Kept for
/// callers that need a digest of a text that is the same in every
/// process.
pub fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for byte in text.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content key of a flat circuit, in one pass and without
/// re-serialising it.
///
/// Hashes everything a predict response depends on: the circuit name,
/// the net table in id order (name and class: the order is the order of
/// the response's entries, and a net no device touches is still an
/// entry), and per device its name, kind, each terminal with its net,
/// and the exact bits of every parameter. Exact bits matter: SPICE text
/// keeps 6 decimals, so `l=1n` and `l=1.0000004n` print alike but give
/// different feature rows. The hasher is std's SipHash with keys drawn
/// once per process, so a client cannot craft two netlists that collide.
pub(crate) fn circuit_key(circuit: &Circuit) -> u64 {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    let mut h = KEYS.get_or_init(RandomState::new).build_hasher();
    circuit.name.hash(&mut h);
    h.write_usize(circuit.num_nets());
    for net in circuit.nets() {
        net.name.hash(&mut h);
        net.class.hash(&mut h);
    }
    h.write_usize(circuit.num_devices());
    for dev in circuit.devices() {
        dev.name.hash(&mut h);
        dev.kind.hash(&mut h);
        h.write_usize(dev.conns.len());
        for (terminal, net) in &dev.conns {
            terminal.hash(&mut h);
            h.write_u32(net.0);
        }
        let p = &dev.params;
        for bits in [p.l, p.w, p.value].map(f64::to_bits) {
            h.write_u64(bits);
        }
        for count in [p.nf, p.nfin, p.multi] {
            h.write_u32(count);
        }
    }
    h.finish()
}

#[derive(Debug)]
struct Entry {
    value: Arc<Value>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<(String, u64), Entry>,
    tick: u64,
}

/// Bounded LRU cache of prediction payloads.
#[derive(Debug)]
pub struct PredictionCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PredictionCache {
    /// Creates a cache holding at most `capacity` entries (0 disables
    /// caching: every lookup misses and nothing is stored).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a payload, counting a hit or miss.
    pub fn get(&self, model: &str, netlist_hash: u64) -> Option<Arc<Value>> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        // Borrow-split: compute the key without holding a map borrow.
        match inner.map.get_mut(&(model.to_owned(), netlist_hash)) {
            Some(entry) => {
                entry.last_used = tick;
                let value = entry.value.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a payload, evicting the least-recently-used entry when at
    /// capacity.
    pub fn put(&self, model: &str, netlist_hash: u64, value: Arc<Value>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let key = (model.to_owned(), netlist_hash);
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits over lookups, 0.0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock poisoned").map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.inner.lock().expect("cache lock poisoned").map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn hit_and_miss_accounting() {
        let cache = PredictionCache::new(4);
        assert!(cache.get("m", 1).is_none());
        cache.put("m", 1, Arc::new(json!({"v": 1})));
        let hit = cache.get("m", 1).unwrap();
        assert_eq!(hit["v"].as_u64(), Some(1));
        assert!(
            cache.get("other", 1).is_none(),
            "model key is part of the key"
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PredictionCache::new(2);
        cache.put("m", 1, Arc::new(json!(1)));
        cache.put("m", 2, Arc::new(json!(2)));
        assert!(cache.get("m", 1).is_some()); // 1 is now fresher than 2
        cache.put("m", 3, Arc::new(json!(3)));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("m", 2).is_none(), "2 was LRU");
        assert!(cache.get("m", 1).is_some());
        assert!(cache.get("m", 3).is_some());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = PredictionCache::new(0);
        cache.put("m", 1, Arc::new(json!(1)));
        assert!(cache.get("m", 1).is_none());
        assert!(cache.is_empty());
    }

    fn key_of(netlist: &str) -> u64 {
        circuit_key(
            &paragraph_netlist::parse_spice(netlist)
                .unwrap()
                .flatten()
                .unwrap(),
        )
    }

    #[test]
    fn circuit_key_ignores_spelling_and_sees_every_bit() {
        let base = key_of("mp o i vdd vdd pch l=1n\nmn o i vss vss nch\n.end\n");
        assert_eq!(
            base,
            key_of(
                "* inverter\n\nMP O I VDD VDD PCH\n+ L=1N\nmn o i vss vss nch $ pull-down\n.END\n"
            ),
            "comments, blank lines, continuations and case do not reach the circuit"
        );
        for changed in [
            // Prints as `l=1n` in 6-decimal SPICE text.
            "mp o i vdd vdd pch l=1.0000004n\nmn o i vss vss nch\n.end\n",
            "mp o i vdd vdd pch l=1n nf=2\nmn o i vss vss nch\n.end\n",
            "mp o i vdd vdd pch_hv l=1n\nmn o i vss vss nch\n.end\n",
            "mp o i vdd vdd pch l=1n\nmn o j vss vss nch\n.end\n",
            "mp i o vdd vdd pch l=1n\nmn o i vss vss nch\n.end\n",
            "mp o i vdd vdd pch l=1n\nmx o i vss vss nch\n.end\n",
        ] {
            assert_ne!(base, key_of(changed), "{changed}");
        }
    }

    /// The same devices on the same nets still answer differently when
    /// the nets are numbered in another order (the response lists them
    /// in id order) or a net no device touches is added (it is listed).
    #[test]
    fn circuit_key_sees_net_order_and_unconnected_nets() {
        let inv = ".subckt inv a y\nmp y a vdd vdd pch\nmn y a vss vss nch\n.ends\n";
        let plain = format!("{inv}x0 i o inv\n.end\n");
        let swapped = format!("{}x0 o i inv\n.end\n", inv.replace("a y\n", "y a\n"));
        let dangling = format!(
            "{}x0 i o spare inv\n.end\n",
            inv.replace("a y\n", "a y nc\n")
        );
        for other in [swapped, dangling] {
            assert_ne!(key_of(&plain), key_of(&other), "{other}");
        }
    }

    #[test]
    fn fnv_distinguishes_content() {
        assert_ne!(fnv1a("mp o i vdd vdd pch"), fnv1a("mp o i vdd vdd nch"));
        assert_eq!(fnv1a("same"), fnv1a("same"));
    }

    #[test]
    fn capacity_one_keeps_only_latest() {
        let cache = PredictionCache::new(1);
        cache.put("m", 1, Arc::new(json!(1)));
        cache.put("m", 2, Arc::new(json!(2)));
        assert_eq!(cache.len(), 1);
        assert!(cache.get("m", 1).is_none(), "1 was evicted by 2");
        assert_eq!(cache.get("m", 2).unwrap().as_u64(), Some(2));
    }

    #[test]
    fn zero_capacity_never_evicts_or_stores() {
        let cache = PredictionCache::new(0);
        for k in 0..10 {
            cache.put("m", k, Arc::new(json!(k)));
            assert!(cache.get("m", k).is_none());
        }
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 10);
    }

    /// Eviction follows full recency order across interleaved gets and
    /// puts, not insertion order.
    #[test]
    fn eviction_order_tracks_recency_not_insertion() {
        let cache = PredictionCache::new(3);
        cache.put("m", 1, Arc::new(json!(1)));
        cache.put("m", 2, Arc::new(json!(2)));
        cache.put("m", 3, Arc::new(json!(3)));
        // Touch in order 2, 1 — recency (oldest first) is now 3, 2, 1.
        assert!(cache.get("m", 2).is_some());
        assert!(cache.get("m", 1).is_some());
        cache.put("m", 4, Arc::new(json!(4))); // evicts 3
        assert!(cache.get("m", 3).is_none(), "3 was least recent");
        cache.put("m", 5, Arc::new(json!(5))); // evicts 2
        assert!(cache.get("m", 2).is_none(), "2 was least recent");
        assert!(cache.get("m", 1).is_some());
        assert!(cache.get("m", 4).is_some());
        assert!(cache.get("m", 5).is_some());
    }

    /// Re-putting an existing key at capacity must update in place, not
    /// evict an unrelated entry.
    #[test]
    fn put_of_existing_key_does_not_evict() {
        let cache = PredictionCache::new(2);
        cache.put("m", 1, Arc::new(json!(1)));
        cache.put("m", 2, Arc::new(json!(2)));
        cache.put("m", 1, Arc::new(json!(10)));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("m", 1).unwrap().as_u64(), Some(10));
        assert!(cache.get("m", 2).is_some(), "2 must survive the re-put");
    }

    /// After eviction churn, hits + misses must equal lookups exactly
    /// and hit_rate must stay consistent with the raw counters.
    #[test]
    fn counters_stay_consistent_after_eviction() {
        let cache = PredictionCache::new(2);
        let mut lookups = 0_u64;
        for k in 0..6 {
            cache.put("m", k, Arc::new(json!(k)));
            // Current key always hits; key-2 has been evicted.
            assert!(cache.get("m", k).is_some());
            lookups += 1;
            if k >= 2 {
                assert!(cache.get("m", k - 2).is_none());
                lookups += 1;
            }
        }
        assert_eq!(cache.hits() + cache.misses(), lookups);
        assert_eq!(cache.hits(), 6);
        assert_eq!(cache.misses(), 4);
        let expected = cache.hits() as f64 / lookups as f64;
        assert!((cache.hit_rate() - expected).abs() < 1e-12);
        assert_eq!(cache.len(), 2, "capacity bound held through churn");
    }
}
