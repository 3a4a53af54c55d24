//! Model-based test of Chord routing.
//!
//! `ChordNetwork` addresses nodes by ring position: one finger table per
//! position holding its distinct fingers, the ring successor as the next
//! position, the responsible node by binary search.  The model below is the
//! routing it replaced, kept here as the oracle — a `BTreeMap` ring, a
//! 64-entry finger table per node id, the ring successor by a range query.
//! After every step of a random `join` / `leave` / `put` / `get` /
//! `remove_where` / `lookup` / `lookup_from` sequence both must agree on the
//! responsible node, the hop count, the values returned and every counter,
//! so a hop counted in any experiment is the hop it always was.
//!
//! Rings of 1, 2, 3, 17 and 640 nodes: the degenerate rings exercise the
//! ring-successor fall-through, the large one the finger scan.  Keys land
//! on, just before and just after live node ids, and joins land next to
//! live nodes, so ownership boundaries are hit exactly.

use std::collections::{BTreeMap, HashMap};

use p2pmon_dht::chord::{hash_key, LookupResult, NodeId};
use p2pmon_dht::{ChordNetwork, Posting};
use p2pmon_streams::ChannelId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The ring as a `BTreeMap` of node id → its stored term lists, with
/// finger tables of 64 entries keyed by node id.
struct ModelRing {
    nodes: BTreeMap<NodeId, HashMap<u64, Vec<Posting>>>,
    fingers: HashMap<NodeId, Vec<NodeId>>,
    rng: StdRng,
    lookups: u64,
    total_hops: u64,
    keys_transferred: u64,
}

impl ModelRing {
    fn with_nodes(n: usize, seed: u64) -> Self {
        let mut ring = ModelRing {
            nodes: BTreeMap::new(),
            fingers: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            lookups: 0,
            total_hops: 0,
            keys_transferred: 0,
        };
        for _ in 0..n.max(1) {
            let id = ring.rng.gen::<u64>();
            ring.nodes.insert(id, HashMap::new());
        }
        ring.rebuild_fingers();
        ring
    }

    fn ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    fn successor(&self, key: NodeId) -> NodeId {
        match self.nodes.range(key..).next() {
            Some((&id, _)) => id,
            None => *self.nodes.keys().next().expect("ring is never empty"),
        }
    }

    fn rebuild_fingers(&mut self) {
        self.fingers.clear();
        for n in self.ids() {
            let table = (0..64)
                .map(|i| self.successor(n.wrapping_add(1u64 << i)))
                .collect();
            self.fingers.insert(n, table);
        }
    }

    fn ring_successor(&self, node: NodeId) -> NodeId {
        match self.nodes.range(node.wrapping_add(1)..).next() {
            Some((&id, _)) => id,
            None => *self.nodes.keys().next().expect("ring is never empty"),
        }
    }

    fn lookup_from(&mut self, start: NodeId, key: NodeId) -> LookupResult {
        self.lookups += 1;
        let responsible = self.successor(key);
        let mut current = start;
        let mut hops = 0usize;
        while current != responsible {
            if self.ring_successor(current) == responsible {
                hops += 1;
                break;
            }
            let distance_to_key = key.wrapping_sub(current);
            let mut best: Option<(u64, NodeId)> = None;
            if let Some(table) = self.fingers.get(&current) {
                for &f in table {
                    if f == current {
                        continue;
                    }
                    let forward = f.wrapping_sub(current);
                    if forward > 0 && forward < distance_to_key {
                        match best {
                            Some((best_forward, _)) if forward <= best_forward => {}
                            _ => best = Some((forward, f)),
                        }
                    }
                }
            }
            current = match best {
                Some((_, next)) => next,
                None => self.ring_successor(current),
            };
            hops += 1;
            if hops > 2 * 64 {
                current = responsible;
            }
        }
        self.total_hops += hops as u64;
        LookupResult {
            node: responsible,
            hops,
        }
    }

    fn lookup(&mut self, key: NodeId) -> LookupResult {
        let ids = self.ids();
        let start = ids[self.rng.gen_range(0..ids.len())];
        self.lookup_from(start, key)
    }

    fn put(&mut self, key: &str, value: Posting) -> LookupResult {
        let k = hash_key(key);
        let result = self.lookup(k);
        let storage = self.nodes.get_mut(&result.node).expect("responsible");
        storage.entry(k).or_default().push(value);
        result
    }

    fn get(&mut self, key: &str) -> (Vec<Posting>, LookupResult) {
        let k = hash_key(key);
        let result = self.lookup(k);
        let values = self.nodes[&result.node]
            .get(&k)
            .cloned()
            .unwrap_or_default();
        (values, result)
    }

    fn remove_where(
        &mut self,
        key: &str,
        predicate: impl Fn(&Posting) -> bool,
    ) -> (usize, usize, LookupResult) {
        let k = hash_key(key);
        let result = self.lookup(k);
        let (removed, scanned) = match self.nodes.get_mut(&result.node).expect("node").get_mut(&k) {
            Some(values) => {
                let before = values.len();
                values.retain(|v| !predicate(v));
                (before - values.len(), before)
            }
            None => (0, 0),
        };
        (removed, scanned, result)
    }

    fn join(&mut self, id: NodeId) {
        if self.nodes.contains_key(&id) {
            return;
        }
        self.nodes.insert(id, HashMap::new());
        self.rebuild_fingers();
        let successor = self.ring_successor(id);
        if successor == id {
            return;
        }
        let to_move: Vec<u64> = self.nodes[&successor]
            .keys()
            .copied()
            .filter(|&k| self.successor(k) == id)
            .collect();
        for k in to_move {
            let values = self
                .nodes
                .get_mut(&successor)
                .and_then(|s| s.remove(&k))
                .expect("listed");
            self.keys_transferred += values.len() as u64;
            self.nodes.get_mut(&id).expect("new node").insert(k, values);
        }
    }

    fn leave(&mut self, id: NodeId) -> bool {
        if !self.nodes.contains_key(&id) || self.nodes.len() == 1 {
            return false;
        }
        let storage = self.nodes.remove(&id).expect("checked");
        self.rebuild_fingers();
        let heir = self.successor(id);
        let heir_storage = self.nodes.get_mut(&heir).expect("ring not empty");
        for (k, mut values) in storage {
            self.keys_transferred += values.len() as u64;
            heir_storage.entry(k).or_default().append(&mut values);
        }
        true
    }

    fn stored_values(&self) -> usize {
        self.nodes
            .values()
            .flat_map(|s| s.values())
            .map(Vec::len)
            .sum()
    }
}

const RING_SIZES: [usize; 5] = [1, 2, 3, 17, 640];

/// One step.  Node references are indices into the live ids (taken modulo
/// their count when the step runs); `offset` moves a key or a joining id
/// onto (0), just after (1) or just before (2) that node.
#[derive(Debug, Clone)]
enum Op {
    Join {
        node: usize,
        offset: u8,
        fresh: u64,
    },
    Leave {
        node: usize,
        absent: bool,
    },
    Put {
        term: usize,
        value: usize,
    },
    Get {
        term: usize,
    },
    RemoveWhere {
        term: usize,
        digit: usize,
    },
    Lookup {
        node: usize,
        offset: u8,
        fresh: u64,
    },
    LookupFrom {
        start: usize,
        node: usize,
        offset: u8,
    },
}

fn op() -> BoxedStrategy<Op> {
    (
        0usize..9,
        proptest::num::usize::ANY,
        proptest::num::usize::ANY,
        0u8..4,
        proptest::num::u64::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(kind, a, b, offset, fresh, flag)| match kind {
            0 => Op::Join {
                node: a,
                offset,
                fresh,
            },
            1 => Op::Leave {
                node: a,
                absent: flag,
            },
            2 | 3 => Op::Put {
                term: a % 12,
                value: b % 8,
            },
            4 => Op::Get { term: a % 12 },
            5 => Op::RemoveWhere {
                term: a % 12,
                digit: b % 8,
            },
            6 | 7 => Op::Lookup {
                node: a,
                offset,
                fresh,
            },
            _ => Op::LookupFrom {
                start: a,
                node: b,
                offset,
            },
        })
        .boxed()
}

/// The id `offset` names relative to `id`; offset 3 draws `fresh` instead.
fn near(id: NodeId, offset: u8, fresh: u64) -> NodeId {
    match offset {
        0 => id,
        1 => id.wrapping_add(1),
        2 => id.wrapping_sub(1),
        _ => fresh,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn position_routing_matches_the_id_keyed_ring(
        size in 0usize..RING_SIZES.len(),
        seed in proptest::num::u64::ANY,
        ops in proptest::collection::vec(op(), 1..80),
    ) {
        let n = RING_SIZES[size];
        let mut net = ChordNetwork::with_nodes(n, seed);
        let mut model = ModelRing::with_nodes(n, seed);
        prop_assert_eq!(net.node_ids(), model.ids());
        for op in &ops {
            let ids = model.ids();
            let pick = |i: usize| ids[i % ids.len()];
            match *op {
                Op::Join { node, offset, fresh } => {
                    let id = near(pick(node), offset, fresh);
                    net.join(id);
                    model.join(id);
                }
                Op::Leave { node, absent } => {
                    let id = if absent { pick(node).wrapping_add(1) } else { pick(node) };
                    prop_assert_eq!(net.leave(id), model.leave(id), "leave {} after {:?}", id, op);
                }
                Op::Put { term, value } => {
                    let (term, value) = (format!("t{term}"), ChannelId::new("p", format!("v{value}")));
                    prop_assert_eq!(net.put(hash_key(&term), value), model.put(&term, value));
                }
                Op::Get { term } => {
                    let term = format!("t{term}");
                    prop_assert_eq!(net.get(hash_key(&term)), model.get(&term), "get {}", term);
                }
                Op::RemoveWhere { term, digit } => {
                    let (term, digit) = (format!("t{term}"), digit.to_string());
                    let predicate = |v: &Posting| v.stream.ends_with(digit.as_str());
                    prop_assert_eq!(
                        net.remove_where(hash_key(&term), predicate),
                        model.remove_where(&term, predicate)
                    );
                }
                Op::Lookup { node, offset, fresh } => {
                    let key = near(pick(node), offset, fresh);
                    prop_assert_eq!(net.lookup(key), model.lookup(key), "lookup {}", key);
                }
                Op::LookupFrom { start, node, offset } => {
                    let (start, key) = (pick(start), near(pick(node), offset, 0));
                    prop_assert_eq!(
                        net.lookup_from(start, key),
                        model.lookup_from(start, key),
                        "lookup_from({}, {})", start, key
                    );
                }
            }
            prop_assert_eq!(net.node_ids(), model.ids(), "ring after {:?}", op);
            prop_assert_eq!(net.lookups, model.lookups);
            prop_assert_eq!(net.total_hops, model.total_hops, "hops after {:?}", op);
            prop_assert_eq!(net.keys_transferred, model.keys_transferred, "after {:?}", op);
            prop_assert_eq!(net.stored_values(), model.stored_values());
        }
    }
}
