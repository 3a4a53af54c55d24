//! Model-based test of `canonical_identity`, and of the query entry points
//! by name.
//!
//! `canonical_identity` answers by ids: the exact definition, a live
//! replica coordinate, then the one definition carrying the stream name.
//! The model below is the definition of the answer — a brute-force scan
//! over the live definitions and replica declarations, by names — kept
//! here as the oracle.  Seeded histories interleave
//! source and derived publishes, retractions (a live origin's replicas go
//! with it), replica declarations, re-declarations and retractions; after
//! every step both must agree for every reference in the vocabulary: exact
//! names, replica coordinates, names one definition carries, names several
//! carry, and names nothing was ever published under.
//!
//! The second test holds the query entry points that take names —
//! `find_alerter_streams` and `find_derived_streams` — to looking names up
//! without interning them: queried with names nobody interned, they find
//! nothing and leave `intern::lookup` at `None`.

use p2pmon_dht::{ChordNetwork, ReplicaDeclaration, StreamDefinition, StreamDefinitionDatabase};
use p2pmon_streams::ChannelId;
use p2pmon_xmlkit::intern::lookup;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PEERS: [&str; 5] = ["a.org", "b.org", "c.org", "d.org", "e.org"];
/// Definitions and replicas are published under the first five; the last
/// two are only ever asked about.
const STREAMS: [&str; 7] = ["s0", "s1", "s2", "r0", "r1", "unknown0", "unknown1"];
const PUBLISHED: usize = 5;

type Key = (usize, usize);

/// Live definitions and replica declarations, scanned whole on every
/// question.
#[derive(Default)]
struct ScanModel {
    definitions: Vec<Key>,
    /// `(origin, replica)`, one per origin and replica peer.
    replicas: Vec<(Key, Key)>,
}

/// Which rule answered a question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    Exact,
    Replica,
    UniqueName,
    AmbiguousName,
    UnknownName,
}

impl ScanModel {
    fn canonical_identity(&self, (peer, stream): Key) -> (Key, Rule) {
        let exact = (peer, stream);
        if self.definitions.contains(&exact) {
            return (exact, Rule::Exact);
        }
        if self.replicas.iter().any(|(_, r)| *r == exact) {
            return (exact, Rule::Replica);
        }
        let mut by_name = self.definitions.iter().filter(|(_, s)| *s == stream);
        match (by_name.next(), by_name.next()) {
            (Some(&only), None) => (only, Rule::UniqueName),
            (Some(_), Some(_)) => (exact, Rule::AmbiguousName),
            _ => (exact, Rule::UnknownName),
        }
    }
}

fn channel((peer, stream): Key) -> ChannelId {
    ChannelId::new(PEERS[peer], STREAMS[stream])
}

/// One seeded history of `steps` operations, checked after every step;
/// adds each rule that answered to `rules`.
fn replay(seed: u64, steps: usize, rules: &mut Vec<Rule>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(8, seed));
    let mut model = ScanModel::default();
    let key = |rng: &mut StdRng| (rng.gen_range(0..PEERS.len()), rng.gen_range(0..PUBLISHED));
    for step in 0..steps {
        let what = rng.gen_range(0..10);
        let (peer, stream) = key(&mut rng);
        let target = (peer, stream);
        match what {
            // A source or a derived definition; as the monitor does, a live
            // key is never published over.
            0..=3 if !model.definitions.contains(&target) => {
                let definition = if what < 2 {
                    StreamDefinition::source(PEERS[peer], STREAMS[stream], "inCOM")
                } else {
                    let (op_peer, op_stream) = key(&mut rng);
                    StreamDefinition::derived(
                        PEERS[peer],
                        STREAMS[stream],
                        "Filter",
                        format!("x={what}"),
                        vec![(PEERS[op_peer].into(), STREAMS[op_stream].into())],
                    )
                };
                db.publish(definition);
                model.definitions.push(target);
            }
            0..=3 => {}
            4 | 5 => {
                let live = model.definitions.contains(&target);
                assert_eq!(db.retract(channel(target)), live, "retract {target:?}");
                // Retracting what is not published is a no-op.
                if live {
                    model.definitions.retain(|d| *d != target);
                    model.replicas.retain(|(origin, _)| *origin != target);
                }
            }
            6..=8 => {
                let replica = key(&mut rng);
                db.publish_replica(ReplicaDeclaration {
                    origin: channel(target),
                    replica: channel(replica),
                });
                model
                    .replicas
                    .retain(|(origin, r)| !(*origin == target && r.0 == replica.0));
                model.replicas.push((target, replica));
            }
            _ => {
                let replica_peer = rng.gen_range(0..PEERS.len());
                let declared = model
                    .replicas
                    .iter()
                    .any(|(origin, r)| *origin == target && r.0 == replica_peer);
                assert_eq!(
                    db.retract_replica(channel(target), PEERS[replica_peer].into()),
                    declared
                );
                model
                    .replicas
                    .retain(|(origin, r)| !(*origin == target && r.0 == replica_peer));
            }
        }
        for peer in 0..PEERS.len() {
            for stream in 0..STREAMS.len() {
                let asked = (peer, stream);
                let (expected, rule) = model.canonical_identity(asked);
                assert_eq!(
                    db.canonical_identity(channel(asked)),
                    channel(expected),
                    "canonical_identity({asked:?}) at step {step} of seed {seed} ({rule:?})"
                );
                if !rules.contains(&rule) {
                    rules.push(rule);
                }
            }
        }
    }
}

#[test]
fn canonical_identity_agrees_with_a_scan_over_every_history() {
    let mut rules = Vec::new();
    for seed in 0..24 {
        replay(seed, 150, &mut rules);
    }
    assert_eq!(
        rules.len(),
        5,
        "every rule answers some question: {rules:?}"
    );
}

#[test]
fn queries_by_name_never_intern() {
    let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(8, 1));
    db.publish(StreamDefinition::source("a.org", "s0", "inCOM"));
    let (peer, stream) = ("never-interned-peer.example", "never-interned-stream");
    assert!(db.find_alerter_streams(peer, "inCOM").is_empty());
    let operands = [(peer.to_string(), stream.to_string())];
    assert!(db.find_derived_streams("Filter", "", &operands).is_empty());
    let half_known = [("a.org".to_string(), stream.to_string())];
    assert!(db
        .find_derived_streams("Filter", "", &half_known)
        .is_empty());
    assert_eq!((lookup(peer), lookup(stream)), (None, None));
}
