//! Model-based test of the Stream Definition Database's replica store.
//!
//! The store keeps `<InChannel>` declarations keyed by the origin they
//! replicate, with a reverse count per replica coordinate.  The model below
//! is the flat list it replaced — every operation a scan over all
//! declarations — kept here as the oracle: after every step of a random
//! `publish` / `publish_replica` / `retract_replica` / `retract` sequence
//! both must give the same `replicas_of` (order included), the same
//! provider choice (`select_provider_where` admitting every replica against
//! the model's `select_provider`, and `select_provider_loaded`) and the
//! same `canonical_identity`, for every coordinate in the vocabulary.
//!
//! `select_provider_where` with an eligibility filter is held to the
//! model's `select_provider` with every ineligible replica scored
//! `u64::MAX`, and to the questions it may ask: eligibility once per replica
//! at most, and only of a replica scoring below the best eligible provider
//! before it.
//!
//! The database keys everything by `ChannelId` and scores providers by
//! interned peer id; the model still keys declarations by name pairs and
//! scores them by name, from the same tables, so every comparison below
//! also holds the id-keyed store and selection to the string-keyed ones
//! they replaced.  Over origins with 8 and 64 declarations, a selection
//! must agree with the model and — in debug builds, where the interner
//! counts its lock acquisitions — take no interner lock at all.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use p2pmon_dht::{ChordNetwork, ReplicaDeclaration, StreamDefinition, StreamDefinitionDatabase};
use p2pmon_streams::ChannelId;
use p2pmon_xmlkit::Name;
use proptest::prelude::*;

const PEERS: [&str; 4] = ["p0", "p1", "p2", "p3"];
/// Origin stream ids and replica-local stream ids overlap on purpose: a
/// replica coordinate may coincide with a published definition's identity.
const STREAMS: [&str; 4] = ["s0", "s1", "r0", "r1"];

type Key = (String, String);

fn key(peer: &str, stream: &str) -> Key {
    (peer.to_string(), stream.to_string())
}

fn named(channel: ChannelId) -> Key {
    key(&channel.peer, &channel.stream)
}

/// One declaration as the model keeps it: the origin and the replica's
/// coordinates, by name.
#[derive(Debug, Clone, PartialEq)]
struct Declared {
    peer_id: String,
    stream_id: String,
    replica_peer: String,
    replica_stream: String,
}

impl Declared {
    fn of(declaration: &ReplicaDeclaration) -> Self {
        let (origin, replica) = (declaration.origin, declaration.replica);
        Declared {
            peer_id: origin.peer.to_string(),
            stream_id: origin.stream.to_string(),
            replica_peer: replica.peer.to_string(),
            replica_stream: replica.stream.to_string(),
        }
    }
}

/// The flat-`Vec` replica store, as the database implemented it before the
/// origin-keyed index.
#[derive(Default)]
struct FlatModel {
    descriptors: Vec<Key>,
    replicas: Vec<Declared>,
}

impl FlatModel {
    fn publish(&mut self, peer: &str, stream: &str) {
        let key = (peer.to_string(), stream.to_string());
        if !self.descriptors.contains(&key) {
            self.descriptors.push(key);
        }
    }

    fn retract(&mut self, peer: &str, stream: &str) -> bool {
        let before = self.descriptors.len();
        self.descriptors
            .retain(|(p, s)| !(p == peer && s == stream));
        if self.descriptors.len() == before {
            return false;
        }
        self.replicas
            .retain(|r| !(r.peer_id == peer && r.stream_id == stream));
        true
    }

    fn publish_replica(&mut self, replica: &ReplicaDeclaration) {
        let replica = Declared::of(replica);
        self.replicas.retain(|r| {
            !(r.peer_id == replica.peer_id
                && r.stream_id == replica.stream_id
                && r.replica_peer == replica.replica_peer)
        });
        self.replicas.push(replica);
    }

    fn retract_replica(&mut self, peer: &str, stream: &str, replica_peer: &str) -> bool {
        let before = self.replicas.len();
        self.replicas.retain(|r| {
            !(r.peer_id == peer && r.stream_id == stream && r.replica_peer == replica_peer)
        });
        self.replicas.len() != before
    }

    fn replicas_of(&self, peer: &str, stream: &str) -> Vec<Declared> {
        self.replicas
            .iter()
            .filter(|r| r.peer_id == peer && r.stream_id == stream)
            .cloned()
            .collect()
    }

    fn canonical_identity(&self, peer: &str, stream: &str) -> (String, String) {
        let exact = (peer.to_string(), stream.to_string());
        if self.descriptors.contains(&exact)
            || self
                .replicas
                .iter()
                .any(|r| r.replica_peer == peer && r.replica_stream == stream)
        {
            return exact;
        }
        let mut by_name = self.descriptors.iter().filter(|(_, s)| s == stream);
        match (by_name.next(), by_name.next()) {
            (Some(key), None) => key.clone(),
            _ => exact,
        }
    }

    fn select_provider(
        &self,
        peer: &str,
        stream: &str,
        proximity: impl Fn(&str) -> u64,
    ) -> (String, String) {
        let mut best = (peer.to_string(), stream.to_string());
        let mut best_score = proximity(peer);
        for replica in self.replicas_of(peer, stream) {
            let score = proximity(&replica.replica_peer);
            if score < best_score && score < u64::MAX {
                best_score = score;
                best = (replica.replica_peer, replica.replica_stream);
            }
        }
        best
    }

    /// The replicas a selection over the `eligible` ones may ask about, in
    /// declaration order: the available ones scoring below the original and
    /// below every earlier eligible replica.
    fn eligibility_questions(
        &self,
        peer: &str,
        stream: &str,
        proximity: impl Fn(&str) -> u64,
        eligible: impl Fn(&str) -> bool,
    ) -> Vec<String> {
        let replicas = self.replicas_of(peer, stream);
        let best_before = |k: usize| {
            replicas[..k]
                .iter()
                .filter(|r| eligible(&r.replica_peer))
                .map(|r| proximity(&r.replica_peer))
                .fold(proximity(peer), u64::min)
        };
        (0..replicas.len())
            .filter(|&k| {
                let score = proximity(&replicas[k].replica_peer);
                score < u64::MAX && score < best_before(k)
            })
            .map(|k| replicas[k].replica_peer.clone())
            .collect()
    }

    fn select_provider_loaded(
        &self,
        peer: &str,
        stream: &str,
        proximity: impl Fn(&str) -> u64,
        load: impl Fn(&str) -> u64,
    ) -> (String, String) {
        let mut best = (peer.to_string(), stream.to_string());
        let mut best_score = proximity(peer);
        let mut best_load = load(peer);
        for replica in self.replicas_of(peer, stream) {
            let score = proximity(&replica.replica_peer);
            if score == u64::MAX {
                continue;
            }
            let closer = score < best_score;
            let lighter = score == best_score && load(&replica.replica_peer) < best_load;
            if closer || lighter {
                best_score = score;
                best_load = load(&replica.replica_peer);
                best = (replica.replica_peer, replica.replica_stream);
            }
        }
        best
    }
}

#[derive(Debug, Clone)]
enum Op {
    Publish(usize, usize),
    Retract(usize, usize),
    PublishReplica {
        origin: (usize, usize),
        replica: (usize, usize),
    },
    RetractReplica {
        origin: (usize, usize),
        replica_peer: usize,
    },
}

fn op() -> BoxedStrategy<Op> {
    // Replica declarations are weighted up (and origins drawn from two
    // streams only) so lists grow, the same peer re-declares, and several
    // declarations share one replica coordinate.
    (0usize..8, 0usize..4, 0usize..2, 0usize..4, 0usize..4).prop_map(
        |(kind, peer, stream, replica_peer, replica_stream)| match kind {
            // Definitions land on all four stream names, replica-local ones
            // included, so `canonical_identity` sees both kinds collide.
            0 => Op::Publish(peer, replica_stream),
            1 => Op::Retract(peer, stream),
            2 => Op::RetractReplica {
                origin: (peer, stream),
                replica_peer,
            },
            _ => Op::PublishReplica {
                origin: (peer, stream),
                replica: (replica_peer, replica_stream),
            },
        },
    )
}

/// A proximity or load score per peer; `0` stands for "unavailable"
/// (`u64::MAX`) so downed providers show up in a quarter of the draws.
fn scores() -> BoxedStrategy<Vec<u64>> {
    proptest::collection::vec(0u64..4, PEERS.len())
}

fn score_of(table: &[u64], unavailable: bool) -> impl Fn(&str) -> u64 + '_ {
    move |peer| {
        let at = PEERS.iter().position(|p| *p == peer).expect("known peer");
        match table[at] {
            0 if unavailable => u64::MAX,
            score => score,
        }
    }
}

/// The same scores by interned id, as the database asks for them.
fn id_score_of(table: &[u64], unavailable: bool) -> impl Fn(Name) -> u64 + '_ {
    let by_name = score_of(table, unavailable);
    move |peer| by_name(peer.as_str())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn origin_keyed_store_agrees_with_the_flat_list(
        ops in proptest::collection::vec(op(), 1..60),
        proximity in scores(),
        load in scores(),
        eligible in proptest::collection::vec(proptest::bool::ANY, PEERS.len()),
    ) {
        let near = score_of(&proximity, true);
        let is_eligible = |peer: &str| eligible[PEERS.iter().position(|p| *p == peer).expect("known peer")];
        let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(8, 3));
        let mut model = FlatModel::default();
        for op in ops {
            match &op {
                Op::Publish(p, s) => {
                    db.publish(StreamDefinition::source(PEERS[*p], STREAMS[*s], "inCOM"));
                    model.publish(PEERS[*p], STREAMS[*s]);
                }
                Op::Retract(p, s) => prop_assert_eq!(
                    db.retract(ChannelId::new(PEERS[*p], STREAMS[*s])),
                    model.retract(PEERS[*p], STREAMS[*s])
                ),
                Op::PublishReplica { origin, replica } => {
                    let declaration = ReplicaDeclaration {
                        origin: ChannelId::new(PEERS[origin.0], STREAMS[origin.1]),
                        replica: ChannelId::new(PEERS[replica.0], STREAMS[replica.1]),
                    };
                    db.publish_replica(declaration);
                    model.publish_replica(&declaration);
                }
                Op::RetractReplica { origin, replica_peer } => prop_assert_eq!(
                    db.retract_replica(
                        ChannelId::new(PEERS[origin.0], STREAMS[origin.1]),
                        Name::new(PEERS[*replica_peer]),
                    ),
                    model.retract_replica(PEERS[origin.0], STREAMS[origin.1], PEERS[*replica_peer])
                ),
            }
            for peer in PEERS {
                for stream in STREAMS {
                    let channel = ChannelId::new(peer, stream);
                    prop_assert_eq!(
                        db.replicas_of(channel).iter().map(|r| named(*r)).collect::<Vec<_>>(),
                        model
                            .replicas_of(peer, stream)
                            .into_iter()
                            .map(|r| (r.replica_peer, r.replica_stream))
                            .collect::<Vec<_>>(),
                        "replicas_of({}, {}) after {:?}", peer, stream, op
                    );
                    prop_assert_eq!(
                        named(db.canonical_identity(channel)),
                        model.canonical_identity(peer, stream),
                        "canonical_identity({}, {}) after {:?}", peer, stream, op
                    );
                    prop_assert_eq!(
                        named(db.select_provider_where(
                            channel,
                            id_score_of(&proximity, true),
                            |_| true,
                        )),
                        model.select_provider(peer, stream, score_of(&proximity, true)),
                        "select_provider_where({}, {}, all) after {:?}", peer, stream, op
                    );
                    prop_assert_eq!(
                        named(db.select_provider_loaded(
                            channel,
                            id_score_of(&proximity, true),
                            id_score_of(&load, false),
                        )),
                        model.select_provider_loaded(
                            peer,
                            stream,
                            score_of(&proximity, true),
                            score_of(&load, false),
                        ),
                        "select_provider_loaded({}, {}) after {:?}", peer, stream, op
                    );
                    let asked = RefCell::new(Vec::new());
                    let chosen = db.select_provider_where(channel, |p: Name| near(&p), |p: Name| {
                        asked.borrow_mut().push(p.to_string());
                        is_eligible(&p)
                    });
                    // A replica on the original's own peer is exempt: it
                    // scores what the original does, so it never wins.
                    let unless_ineligible =
                        |p: &str| if p != peer && !is_eligible(p) { u64::MAX } else { near(p) };
                    prop_assert_eq!(
                        named(chosen),
                        model.select_provider(peer, stream, unless_ineligible),
                        "select_provider_where({}, {}) after {:?}", peer, stream, op
                    );
                    prop_assert_eq!(
                        asked.into_inner(),
                        model.eligibility_questions(peer, stream, &near, is_eligible),
                        "eligibility asked by select_provider_where({}, {}) after {:?}",
                        peer, stream, op
                    );
                }
            }
        }
    }
}

/// One origin, `hub.net/s`, with `declared` replicas on `edge<k>.org`, every
/// name interned: the database, the flat model holding the same
/// declarations, each peer's proximity by name (a spread with ties, a
/// quarter of the replicas unavailable) and the replicas eligibility admits
/// (two in three).
fn wide_origin(
    declared: usize,
) -> (
    StreamDefinitionDatabase,
    FlatModel,
    HashMap<String, u64>,
    HashSet<String>,
) {
    let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(8, 3));
    let mut model = FlatModel::default();
    db.publish(StreamDefinition::source("hub.net", "s", "inCOM"));
    model.publish("hub.net", "s");
    let mut proximity = HashMap::from([("hub.net".to_string(), 60)]);
    let mut eligible = HashSet::new();
    for k in 0..declared {
        let peer = format!("edge{k}.org");
        let declaration = ReplicaDeclaration {
            origin: ChannelId::new("hub.net", "s"),
            replica: ChannelId::new(&peer, format!("s-r{k}")),
        };
        db.publish_replica(declaration);
        model.publish_replica(&declaration);
        let score = if k % 4 == 0 {
            u64::MAX
        } else {
            (k as u64 * 37) % 89 + 10
        };
        proximity.insert(peer.clone(), score);
        if k % 3 != 1 {
            eligible.insert(peer);
        }
    }
    (db, model, proximity, eligible)
}

/// `select_provider_where` over [`wide_origin`], scored by id, and what the
/// string-scored model picks with every ineligible replica unavailable.
fn select_wide(declared: usize) -> ((String, String), (String, String)) {
    let (db, model, proximity, eligible) = wide_origin(declared);
    let by_id: HashMap<Name, u64> = proximity.iter().map(|(p, s)| (p.into(), *s)).collect();
    let eligible_ids: HashSet<Name> = eligible.iter().map(Name::from).collect();
    let origin = ChannelId::new("hub.net", "s");
    let chosen = db.select_provider_where(origin, |p| by_id[&p], |p| eligible_ids.contains(&p));
    let expected = model.select_provider("hub.net", "s", |p| {
        if p != "hub.net" && !eligible.contains(p) {
            u64::MAX
        } else {
            proximity[p]
        }
    });
    (named(chosen), expected)
}

#[test]
fn wide_selections_agree_with_the_string_scored_model() {
    for declared in [8, 64] {
        let (chosen, expected) = select_wide(declared);
        assert_eq!(chosen, expected, "{declared} declarations");
        assert_ne!(chosen.0, "hub.net", "a closer eligible replica wins");
    }
}

#[cfg(debug_assertions)]
#[test]
fn a_selection_takes_no_interner_lock_per_score() {
    use p2pmon_xmlkit::intern::lock_acquisitions;

    let locks = |declared: usize| {
        let (db, _, proximity, eligible) = wide_origin(declared);
        let by_id: HashMap<Name, u64> = proximity.iter().map(|(p, s)| (p.into(), *s)).collect();
        let eligible_ids: HashSet<Name> = eligible.iter().map(Name::from).collect();
        let origin = ChannelId::new("hub.net", "s");
        let before = lock_acquisitions();
        db.select_provider_where(origin, |p| by_id[&p], |p| eligible_ids.contains(&p));
        lock_acquisitions() - before
    };
    let (few, many) = (locks(8), locks(64));
    assert_eq!(
        few, many,
        "56 more declarations must not take one more interner lock"
    );
    assert_eq!(few, 0, "a selection resolves and interns no name");
}
