//! A Chord-style DHT simulation.
//!
//! The ring is the 64-bit key space.  Each node owns the keys between its
//! predecessor (exclusive) and itself (inclusive); its fingers are the
//! successors of `n + 2^i` for `i` in `0..64`.  Lookups are *iterative*:
//! starting from an arbitrary node, each step jumps to the closest preceding
//! finger, and the number of steps is counted — that hop count, logarithmic
//! in the number of nodes, is the quantity experiment E8 reports.
//!
//! Nodes are addressed by their *ring position*, the index into the sorted
//! list of live ids: a node's ring successor is the next position, the node
//! responsible for a key is found by binary search, and each node's finger
//! table lists the positions of its distinct fingers.  Of the 64 fingers
//! most repeat (a 640-node ring has about ten distinct ones), and
//! consecutive repeats are dropped: the fingers' clockwise distances never
//! decrease, so dropping them cannot change which finger a hop takes, nor
//! any hop count.
//!
//! This is a *simulation*: all node state lives in one process and "messages"
//! are counted rather than sent, which is exactly what is needed to reproduce
//! the scaling shape of the paper's KadoP-based stream discovery.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::index::Posting;

/// A position on the ring (also used for keys).
pub type NodeId = u64;

/// Hashes an arbitrary string onto the ring: [`KeyHasher`] over its bytes.
pub fn hash_key(key: &str) -> NodeId {
    KeyHasher::new().str(key).finish()
}

/// Streams bytes onto the ring: FNV-1a followed by a splitmix64 finalizer.
/// FNV alone clusters short, sequential identifiers ("k1", "k2", …) into
/// narrow bands of the ring, which would skew key ownership and routing in
/// the simulation; the final mix spreads them uniformly.
///
/// The state after some bytes depends on those bytes only, not on how they
/// were split across calls, so a key hashed from its parts lands where the
/// concatenated string would: an index term never has to be built to be
/// routed.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher(u64);

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyHasher {
    /// The hasher before any byte.
    pub const fn new() -> Self {
        KeyHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds a string's bytes.
    pub fn str(self, s: &str) -> Self {
        self.bytes(s.as_bytes())
    }

    /// The ring key of everything fed so far.
    pub fn finish(self) -> NodeId {
        // splitmix64 finalizer.
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The outcome of a lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupResult {
    /// The node responsible for the key.
    pub node: NodeId,
    /// Number of routing hops taken (0 when the start node is responsible).
    pub hops: usize,
}

/// Storage held by one node: term key → postings.
#[derive(Debug, Clone, Default)]
struct NodeStorage {
    entries: HashMap<u64, Vec<Posting>>,
}

/// The simulated Chord ring.
#[derive(Debug)]
pub struct ChordNetwork {
    /// Ids of all live nodes, sorted: a node's index here is its ring
    /// position.
    ids: Vec<NodeId>,
    /// Storage of the node at each ring position.
    storage: Vec<NodeStorage>,
    /// Finger tables by ring position: the positions of the node's distinct
    /// fingers other than itself, in increasing clockwise distance.  Rebuilt
    /// on every membership change.
    fingers: Vec<Vec<usize>>,
    rng: StdRng,
    /// Total lookup operations performed.
    pub lookups: u64,
    /// Total routing hops across all lookups.
    pub total_hops: u64,
    /// Keys moved during joins/leaves (maintenance traffic).
    pub keys_transferred: u64,
}

/// The ring position of the node responsible for `key`: the first id at or
/// after it, wrapping to the first position.
fn successor_position(ids: &[NodeId], key: NodeId) -> usize {
    let at = ids.partition_point(|&id| id < key);
    if at == ids.len() {
        0
    } else {
        at
    }
}

impl ChordNetwork {
    /// Creates a ring with `n` nodes at random (seeded) positions.
    pub fn with_nodes(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<NodeId> = (0..n.max(1)).map(|_| rng.gen::<u64>()).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut net = ChordNetwork {
            storage: vec![NodeStorage::default(); ids.len()],
            ids,
            fingers: Vec::new(),
            rng,
            lookups: 0,
            total_hops: 0,
            keys_transferred: 0,
        };
        net.rebuild_fingers();
        net
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// All node identifiers, sorted.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.ids.clone()
    }

    /// Average hops per lookup so far.
    pub fn avg_hops(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.lookups as f64
        }
    }

    /// The node responsible for a key: the first node clockwise from the key
    /// (its successor).
    pub fn successor(&self, key: NodeId) -> NodeId {
        self.ids[successor_position(&self.ids, key)]
    }

    /// Re-derives every finger table from the ring (called on every
    /// membership change).
    fn rebuild_fingers(&mut self) {
        let ids = &self.ids;
        self.fingers = (0..ids.len())
            .map(|at| {
                let mut table = Vec::new();
                for i in 0..64 {
                    let finger = successor_position(ids, ids[at].wrapping_add(1u64 << i));
                    // Once a finger wraps around to the node itself, every
                    // further one does too.
                    if finger == at {
                        break;
                    }
                    if table.last() != Some(&finger) {
                        table.push(finger);
                    }
                }
                table
            })
            .collect();
    }

    /// Iterative lookup from a given start node, counting hops.  `start`
    /// must be a live node.
    ///
    /// Standard Chord routing: while the key is not owned by the current
    /// node's ring successor, jump to the closest finger that precedes the
    /// key; the final hop goes to the responsible node itself.
    pub fn lookup_from(&mut self, start: NodeId, key: NodeId) -> LookupResult {
        let at = self.ids.binary_search(&start);
        debug_assert!(at.is_ok(), "lookup_from({start}) must start at a live node");
        let (at, hops) = match at {
            Ok(at) => (at, 0),
            // A start between nodes steps onto its successor first.
            Err(_) => (successor_position(&self.ids, start), 1),
        };
        let (responsible, hops) = self.route(at, hops, key);
        LookupResult {
            node: self.ids[responsible],
            hops,
        }
    }

    /// Routes from ring position `current`, `hops` already taken, to the
    /// position responsible for `key`; counts the lookup and its hops and
    /// returns `(responsible position, hops)`.
    fn route(&mut self, mut current: usize, mut hops: usize, key: NodeId) -> (usize, usize) {
        self.lookups += 1;
        let n = self.ids.len();
        let responsible = successor_position(&self.ids, key);
        while current != responsible {
            // If the current node's ring successor owns the key, one final
            // hop reaches it.
            let next = (current + 1) % n;
            if next == responsible {
                hops += 1;
                break;
            }
            // Closest preceding finger: the furthest one landing strictly
            // between `current` and `key` (clockwise).  Fingers ascend in
            // distance, so it is the last one short of the key; without one
            // (tiny rings, sparse fingers) the hop goes to the ring
            // successor.
            let from = self.ids[current];
            let distance_to_key = key.wrapping_sub(from);
            current = self.fingers[current]
                .iter()
                .rev()
                .copied()
                .find(|&f| self.ids[f].wrapping_sub(from) < distance_to_key)
                .unwrap_or(next);
            hops += 1;
            if hops > 2 * 64 {
                // Safety net against pathological rings in the simulation.
                current = responsible;
            }
        }
        self.total_hops += hops as u64;
        (responsible, hops)
    }

    /// Routes to the node responsible for `key` from a deterministic
    /// pseudo-random node; returns its ring position and the lookup result.
    fn locate(&mut self, key: NodeId) -> (usize, LookupResult) {
        let start = self.rng.gen_range(0..self.ids.len());
        let (at, hops) = self.route(start, 0, key);
        let result = LookupResult {
            node: self.ids[at],
            hops,
        };
        (at, result)
    }

    /// Lookup starting from a deterministic pseudo-random node (models "any
    /// peer asks the question").
    pub fn lookup(&mut self, key: NodeId) -> LookupResult {
        self.locate(key).1
    }

    /// Stores a value under a ring key (see [`KeyHasher`]) at the
    /// responsible node.  Returns the lookup result used for routing.
    pub fn put(&mut self, key: NodeId, value: Posting) -> LookupResult {
        let (at, result) = self.locate(key);
        self.storage[at].entries.entry(key).or_default().push(value);
        result
    }

    /// Retrieves all values stored under a ring key.  Returns the values
    /// and the lookup result.
    pub fn get(&mut self, key: NodeId) -> (Vec<Posting>, LookupResult) {
        let (at, result) = self.locate(key);
        let values = self.storage[at]
            .entries
            .get(&key)
            .cloned()
            .unwrap_or_default();
        (values, result)
    }

    /// Removes values matching a predicate under a ring key; returns how
    /// many were removed, how many the predicate was asked about (the key's
    /// whole list) and the lookup result used for routing.
    pub fn remove_where(
        &mut self,
        key: NodeId,
        predicate: impl Fn(&Posting) -> bool,
    ) -> (usize, usize, LookupResult) {
        let (at, result) = self.locate(key);
        let (removed, scanned) = match self.storage[at].entries.get_mut(&key) {
            Some(values) => {
                let before = values.len();
                values.retain(|v| !predicate(v));
                (before - values.len(), before)
            }
            None => (0, 0),
        };
        (removed, scanned, result)
    }

    /// A new node joins the ring: keys it now owns are handed over.
    pub fn join(&mut self, id: NodeId) {
        let Err(at) = self.ids.binary_search(&id) else {
            return;
        };
        self.ids.insert(at, id);
        self.storage.insert(at, NodeStorage::default());
        self.rebuild_fingers();
        // The new node takes over keys in (predecessor, id] from its
        // successor.  The ring had a node before, so the successor is
        // another node.
        let successor = (at + 1) % self.ids.len();
        let to_move: Vec<u64> = self.storage[successor]
            .entries
            .keys()
            .copied()
            .filter(|&k| successor_position(&self.ids, k) == at)
            .collect();
        for k in to_move {
            let values = self.storage[successor]
                .entries
                .remove(&k)
                .expect("listed above");
            self.keys_transferred += values.len() as u64;
            self.storage[at].entries.insert(k, values);
        }
    }

    /// A node leaves the ring gracefully: its keys move to its successor.
    /// Returns `false` when the node does not exist or is the last node.
    pub fn leave(&mut self, id: NodeId) -> bool {
        let Ok(at) = self.ids.binary_search(&id) else {
            return false;
        };
        if self.ids.len() == 1 {
            return false;
        }
        self.ids.remove(at);
        let storage = self.storage.remove(at);
        self.rebuild_fingers();
        let heir = &mut self.storage[at % self.ids.len()];
        for (k, mut values) in storage.entries {
            self.keys_transferred += values.len() as u64;
            heir.entries.entry(k).or_default().append(&mut values);
        }
        true
    }

    /// Total number of stored values across the ring.
    pub fn stored_values(&self) -> usize {
        self.storage
            .iter()
            .flat_map(|s| s.entries.values())
            .map(Vec::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_streams::ChannelId;

    /// A posting named `stream`.
    fn posting(stream: &str) -> Posting {
        ChannelId::new("peer", stream)
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        assert_eq!(hash_key("PeerId=p1"), hash_key("PeerId=p1"));
        assert_ne!(hash_key("PeerId=p1"), hash_key("PeerId=p2"));
        let parts = KeyHasher::new().str("Peer").bytes(b"Id=").str("p1");
        assert_eq!(parts.finish(), hash_key("PeerId=p1"), "split anywhere");
    }

    #[test]
    fn put_then_get_round_trips() {
        let mut net = ChordNetwork::with_nodes(32, 1);
        net.put(hash_key("term:a"), posting("stream1"));
        net.put(hash_key("term:a"), posting("stream2"));
        net.put(hash_key("term:b"), posting("stream3"));
        let (values, _) = net.get(hash_key("term:a"));
        assert_eq!(values, vec![posting("stream1"), posting("stream2")]);
        let (values, _) = net.get(hash_key("term:missing"));
        assert!(values.is_empty());
        assert_eq!(net.stored_values(), 3);
    }

    #[test]
    fn lookup_hops_grow_logarithmically() {
        // The paper's discovery claim: routing cost grows with log2 of the
        // ring, from a handful of peers to thousands.
        let mut previous = 0.0;
        for nodes in [8usize, 16, 128, 512, 1_024, 4_096] {
            let mut net = ChordNetwork::with_nodes(nodes, 2);
            for i in 0..200 {
                net.lookup(hash_key(&format!("k{i}")));
            }
            let hops = net.avg_hops();
            assert!(hops > previous, "{nodes} nodes: {hops} vs {previous}");
            assert!(
                hops <= (nodes as f64).log2(),
                "{nodes} nodes: hops should stay within log2(nodes), got {hops}"
            );
            previous = hops;
        }
    }

    #[test]
    fn lookup_starts_where_collecting_the_ring_would() {
        // `lookup` used to collect every node id per operation and index the
        // copy; the kept list must give the same draw over the same order —
        // through joins and leaves — so every hop count stays what it was.
        let mut kept = ChordNetwork::with_nodes(48, 9);
        let mut collected = ChordNetwork::with_nodes(48, 9);
        for round in 0..6u64 {
            for i in 0..50 {
                let key = hash_key(&format!("k{round}-{i}"));
                let ids = collected.node_ids();
                let start = ids[collected.rng.gen_range(0..ids.len())];
                assert_eq!(kept.lookup(key), collected.lookup_from(start, key));
            }
            for net in [&mut kept, &mut collected] {
                net.join(hash_key(&format!("joiner{round}")));
                let victim = net.node_ids()[round as usize * 5];
                assert!(net.leave(victim));
            }
            assert!(kept.ids.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(kept.storage.len(), kept.ids.len());
        }
        assert_eq!(kept.total_hops, collected.total_hops);
    }

    #[test]
    fn responsibility_is_consistent() {
        let mut net = ChordNetwork::with_nodes(64, 3);
        for i in 0..100 {
            let key = hash_key(&format!("key{i}"));
            let a = net.lookup(key).node;
            let b = net.lookup_from(net.node_ids()[0], key).node;
            assert_eq!(a, b, "different start nodes must agree on the owner");
        }
    }

    #[test]
    fn join_takes_over_keys_and_get_still_works() {
        let mut net = ChordNetwork::with_nodes(16, 4);
        for i in 0..200 {
            net.put(hash_key(&format!("k{i}")), posting(&format!("v{i}")));
        }
        // A batch of new nodes joins.
        for j in 0..16 {
            net.join(hash_key(&format!("newnode{j}")));
        }
        assert_eq!(net.node_count(), 32);
        assert!(net.keys_transferred > 0, "joins should move some keys");
        for i in 0..200 {
            let (values, _) = net.get(hash_key(&format!("k{i}")));
            assert_eq!(
                values,
                vec![posting(&format!("v{i}"))],
                "k{i} lost after joins"
            );
        }
    }

    #[test]
    fn leave_hands_keys_to_successor() {
        let mut net = ChordNetwork::with_nodes(8, 5);
        for i in 0..50 {
            net.put(hash_key(&format!("k{i}")), posting(&format!("v{i}")));
        }
        let victim = net.node_ids()[3];
        assert!(net.leave(victim));
        assert!(!net.leave(victim), "cannot leave twice");
        assert_eq!(net.node_count(), 7);
        for i in 0..50 {
            let (values, _) = net.get(hash_key(&format!("k{i}")));
            assert_eq!(
                values,
                vec![posting(&format!("v{i}"))],
                "k{i} lost after leave"
            );
        }
    }

    #[test]
    fn last_node_cannot_leave() {
        let mut net = ChordNetwork::with_nodes(1, 6);
        let only = net.node_ids()[0];
        assert!(!net.leave(only));
    }

    #[test]
    fn remove_where_deletes_matching_values() {
        let mut net = ChordNetwork::with_nodes(8, 7);
        let k = hash_key("k");
        net.put(k, posting("keep"));
        net.put(k, posting("drop-me"));
        let (removed, scanned, _) = net.remove_where(k, |v| v.stream.starts_with("drop"));
        assert_eq!((removed, scanned), (1, 2));
        let (values, _) = net.get(k);
        assert_eq!(values, vec![posting("keep")]);
    }
}
