//! Model-based tests of the discovery queries: the reuse query,
//! `find_derived_channels` by ids and `find_derived_streams` by names, and
//! the alerter lookup, `find_alerter_streams`.
//!
//! The database indexes a derived definition under one term per operand
//! that also carries a digest of its parameters, and the query reads only
//! those terms.  The model below is the definition of what the query must
//! answer — a flat scan of the live descriptors in publish order, keeping
//! those with the same operator, the same parameters and the same operands
//! — kept here as the oracle: after every step of a random `publish` /
//! `retract` sequence both must give the same answer, in the same order,
//! for every query in the vocabulary.
//!
//! The vocabulary is small on purpose: several definitions share
//! parameters, operands and whole operand lists, and a definition may name
//! one operand twice, so the posting lists the index keeps are shared,
//! emptied and refilled.  Lists run to four operands, and queries also
//! name an operand nothing is published over — first, or in the middle —
//! so the query's early exit at an empty intersection runs against the
//! flat scan.  The model also states how many index lookups that exit
//! leaves: one per operand up to the first prefix no live definition
//! names whole.
//!
//! The alerter lookup, `find_alerter_streams`, is modelled the same way:
//! the live sources (definitions without operands) at a peer whose
//! operator is the alerter asked for, in publish order.  Sources and
//! derived definitions are published and retracted interleaved, on the
//! same peers, and the lookup is asked for every operator — the derived
//! ones too — so a derived definition is never found by it, and the model
//! also states what it reads: one posting per source found.

use p2pmon_dht::{ChordNetwork, StreamDefinition, StreamDefinitionDatabase};
use p2pmon_streams::ChannelId;
use proptest::prelude::*;

const PEERS: [&str; 3] = ["p0", "p1", "p2"];
const STREAMS: [&str; 4] = ["s0", "s1", "s2", "s3"];
const OPERATORS: [&str; 2] = ["Filter", "Join"];
const PARAMETERS: [&str; 3] = ["", "x=1", "x=2"];
/// Operands are drawn from three streams, two of them on one peer.
const OPERANDS: [(&str, &str); 3] = [("p0", "s0"), ("p0", "s1"), ("p1", "s0")];

type Key = (String, String);

/// Never an operand of a published definition: its posting lists stay
/// empty.
const GHOST: (&str, &str) = ("p2", "s9");

fn key((peer, stream): (&str, &str)) -> Key {
    (peer.to_string(), stream.to_string())
}

fn channel((peer, stream): &Key) -> ChannelId {
    ChannelId::new(peer, stream)
}

fn named(channel: &ChannelId) -> Key {
    (channel.peer.to_string(), channel.stream.to_string())
}

/// The operand lists definitions are published with: every list of one or
/// two operands, duplicates included, and some of three and four.
fn operand_lists() -> Vec<Vec<Key>> {
    let mut lists: Vec<Vec<Key>> = OPERANDS.iter().map(|&o| vec![key(o)]).collect();
    for &i in &OPERANDS {
        for &j in &OPERANDS {
            lists.push(vec![key(i), key(j)]);
        }
    }
    for picks in [
        &[0, 1, 2][..],
        &[2, 1, 0],
        &[0, 0, 1],
        &[1, 2, 2],
        &[0, 1, 2, 0],
        &[2, 2, 1, 0],
    ] {
        lists.push(picks.iter().map(|&i| key(OPERANDS[i])).collect());
    }
    lists
}

/// The operand lists queried: the published ones, lists naming [`GHOST`]
/// first or in the middle, and the empty list.
fn query_lists() -> Vec<Vec<Key>> {
    let mut lists = operand_lists();
    let (ghost, o) = (key(GHOST), |i: usize| key(OPERANDS[i]));
    lists.push(vec![ghost.clone()]);
    lists.push(vec![ghost.clone(), o(0)]);
    lists.push(vec![ghost.clone(), o(0), o(1)]);
    lists.push(vec![ghost.clone(), o(1), o(2), o(0)]);
    lists.push(vec![o(0), ghost.clone(), o(1)]);
    lists.push(vec![o(2), o(1), ghost]);
    lists.push(Vec::new());
    lists
}

/// The live descriptors in publish order, scanned whole on every query.
#[derive(Default)]
struct FlatModel {
    live: Vec<StreamDefinition>,
}

impl FlatModel {
    fn publish(&mut self, definition: StreamDefinition) {
        self.live.push(definition);
    }

    fn retract(&mut self, peer: &str, stream: &str) -> bool {
        let before = self.live.len();
        self.live
            .retain(|d| !(d.peer_id == peer && d.stream_id == stream));
        self.live.len() != before
    }

    fn find_derived_streams(&self, operator: &str, parameters: &str, operands: &[Key]) -> Vec<Key> {
        if operands.is_empty() {
            return Vec::new();
        }
        self.live
            .iter()
            .filter(|d| {
                d.operator == operator
                    && d.parameters == parameters
                    && d.operands.len() == operands.len()
                    && operands.iter().all(|o| d.operands.contains(o))
            })
            .map(|d| (d.peer_id.clone(), d.stream_id.clone()))
            .collect()
    }

    fn find_alerter_streams(&self, peer: &str, alerter: &str) -> Vec<Key> {
        self.live
            .iter()
            .filter(|d| d.operands.is_empty() && d.peer_id == peer && d.operator == alerter)
            .map(|d| (d.peer_id.clone(), d.stream_id.clone()))
            .collect()
    }

    /// Index lookups the query makes: operand by operand, up to the first
    /// prefix of `operands` that no live definition of this operator and
    /// these parameters names in full.
    fn lookups(&self, operator: &str, parameters: &str, operands: &[Key]) -> u64 {
        let mut asked = 0;
        for k in 1..=operands.len() {
            asked += 1;
            let named = self.live.iter().any(|d| {
                d.operator == operator
                    && d.parameters == parameters
                    && operands[..k].iter().all(|o| d.operands.contains(o))
            });
            if !named {
                break;
            }
        }
        asked
    }
}

#[derive(Debug, Clone)]
enum Op {
    Publish {
        key: (usize, usize),
        operator: usize,
        parameters: usize,
        operands: usize,
    },
    Retract(usize, usize),
}

fn op() -> BoxedStrategy<Op> {
    // Publishes outnumber retractions two to one so lists grow long enough
    // to share, and twelve keys make re-publishing a retracted key common.
    (
        0usize..3,
        0usize..3,
        0usize..4,
        0usize..2,
        0usize..3,
        0usize..operand_lists().len(),
    )
        .prop_map(|(kind, peer, stream, operator, parameters, operands)| {
            if kind == 0 {
                Op::Retract(peer, stream)
            } else {
                Op::Publish {
                    key: (peer, stream),
                    operator,
                    parameters,
                    operands,
                }
            }
        })
        .boxed()
}

/// The alerters sources are published as.
const ALERTERS: [&str; 2] = ["inCOM", "outCOM"];

/// A source or a derived definition, published at `key`, or a retraction.
#[derive(Debug, Clone)]
enum Mixed {
    Source {
        key: (usize, usize),
        alerter: usize,
    },
    Derived {
        key: (usize, usize),
        operator: usize,
        operands: usize,
    },
    Retract(usize, usize),
}

fn mixed() -> BoxedStrategy<Mixed> {
    (
        0usize..5,
        0usize..3,
        0usize..4,
        0usize..2,
        0usize..operand_lists().len(),
    )
        .prop_map(|(kind, peer, stream, pick, operands)| match kind {
            0 => Mixed::Retract(peer, stream),
            1 | 2 => Mixed::Source {
                key: (peer, stream),
                alerter: pick,
            },
            _ => Mixed::Derived {
                key: (peer, stream),
                operator: pick,
                operands,
            },
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_digest_keyed_index_agrees_with_a_flat_scan(
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        let (lists, queries) = (operand_lists(), query_lists());
        let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(8, 5));
        let mut model = FlatModel::default();
        for op in ops {
            match &op {
                Op::Publish { key, operator, parameters, operands } => {
                    let (peer, stream) = (PEERS[key.0], STREAMS[key.1]);
                    // As the monitor does: a live key is never published over.
                    if db.contains(ChannelId::new(peer, stream)) {
                        continue;
                    }
                    let definition = StreamDefinition::derived(
                        peer,
                        stream,
                        OPERATORS[*operator],
                        PARAMETERS[*parameters],
                        lists[*operands].clone(),
                    );
                    db.publish(definition.clone());
                    model.publish(definition);
                }
                Op::Retract(p, s) => prop_assert_eq!(
                    db.retract(ChannelId::new(PEERS[*p], STREAMS[*s])),
                    model.retract(PEERS[*p], STREAMS[*s])
                ),
            }
            prop_assert_eq!(db.len(), model.live.len());
            for operator in OPERATORS {
                for parameters in PARAMETERS {
                    for operands in &queries {
                        let expected = model.find_derived_streams(operator, parameters, operands);
                        let lookups = model.lookups(operator, parameters, operands);
                        // The id path, then the by-name adapter over it:
                        // both must answer the model with its lookups.
                        let before = db.index_stats().query_operations;
                        let ids: Vec<ChannelId> = operands.iter().map(channel).collect();
                        let found: Vec<Key> = db
                            .find_derived_channels(operator, parameters, &ids)
                            .iter()
                            .map(named)
                            .collect();
                        prop_assert_eq!(
                            &found,
                            &expected,
                            "find_derived_channels({}, {:?}, {:?}) after {:?}",
                            operator, parameters, operands, op
                        );
                        prop_assert_eq!(
                            db.index_stats().query_operations - before,
                            lookups,
                            "lookups of ({}, {:?}, {:?})", operator, parameters, operands
                        );
                        let before = db.index_stats().query_operations;
                        let found: Vec<Key> = db
                            .find_derived_streams(operator, parameters, operands)
                            .iter()
                            .map(named)
                            .collect();
                        prop_assert_eq!(
                            &found,
                            &expected,
                            "find_derived_streams({}, {:?}, {:?}) after {:?}",
                            operator, parameters, operands, op
                        );
                        prop_assert_eq!(
                            db.index_stats().query_operations - before,
                            lookups,
                            "by-name lookups of ({}, {:?}, {:?})", operator, parameters, operands
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_alerter_lookup_finds_the_live_sources_in_publish_order(
        ops in proptest::collection::vec(mixed(), 1..80),
    ) {
        let lists = operand_lists();
        let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(8, 5));
        let mut model = FlatModel::default();
        for op in ops {
            let definition = match &op {
                Mixed::Source { key, alerter } => {
                    StreamDefinition::source(PEERS[key.0], STREAMS[key.1], ALERTERS[*alerter])
                }
                Mixed::Derived { key, operator, operands } => StreamDefinition::derived(
                    PEERS[key.0],
                    STREAMS[key.1],
                    OPERATORS[*operator],
                    "",
                    lists[*operands].clone(),
                ),
                Mixed::Retract(p, s) => {
                    prop_assert_eq!(
                        db.retract(ChannelId::new(PEERS[*p], STREAMS[*s])),
                        model.retract(PEERS[*p], STREAMS[*s])
                    );
                    continue;
                }
            };
            // As the monitor does: a live key is never published over.
            if !db.contains(definition.channel_id()) {
                db.publish(definition.clone());
                model.publish(definition);
            }
            prop_assert_eq!(db.len(), model.live.len());
            for peer in PEERS {
                for operator in ALERTERS.iter().chain(&OPERATORS) {
                    let before = db.index_stats().postings_read;
                    let found: Vec<Key> = db
                        .find_alerter_streams(peer, operator)
                        .iter()
                        .map(named)
                        .collect();
                    let expected = model.find_alerter_streams(peer, operator);
                    prop_assert_eq!(
                        db.index_stats().postings_read - before,
                        expected.len() as u64,
                        "postings read by find_alerter_streams({}, {})", peer, operator
                    );
                    prop_assert_eq!(
                        found, expected,
                        "find_alerter_streams({}, {}) after {:?}", peer, operator, op
                    );
                }
            }
        }
    }
}
