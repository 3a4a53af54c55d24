//! The Stream Definition Database costs what it indexes.
//!
//! Two deterministic counters of `IndexStats`, each compared across sizes
//! of what is already published:
//!
//! * `insert_operations` for a publish.  A definition posts one term per
//!   discovery query that can find it: a source (no operands) posts the
//!   alerter lookup's term only, a derived definition one reuse term per
//!   operand and nothing else.
//! * `postings_read` for a retraction.  A retraction scans the lists its
//!   definition was posted under, so retracting one of N Filters on a peer
//!   reads the postings of its own clause — not one per Filter the peer
//!   runs — and retracting the peer's source reads the sources alone.
//!
//! A retraction's DHT traffic is counted like any other operation's: one
//! `remove_operations` per term its definition posted, each routed hop in
//! `total_hops` and `messages`.

use p2pmon_dht::{ChordNetwork, StreamDefinition, StreamDefinitionDatabase};
use p2pmon_streams::ChannelId;

const HUB: &str = "hub.net";
const SOURCE: &str = "src";

fn db() -> StreamDefinitionDatabase {
    StreamDefinitionDatabase::new(ChordNetwork::with_nodes(32, 7))
}

fn operand(peer: &str, stream: &str) -> (String, String) {
    (peer.to_string(), stream.to_string())
}

/// Filter `i` over the hub's source, on the hub, with a clause no other
/// Filter has.
fn filter(i: usize) -> StreamDefinition {
    StreamDefinition::derived(
        HUB,
        format!("f{i}"),
        "Filter",
        format!("callMethod=M{i}"),
        vec![operand(HUB, SOURCE)],
    )
}

/// The hub's source and `n` distinct Filters over it, all on the hub.
fn hub_with_filters(n: usize) -> StreamDefinitionDatabase {
    let mut db = db();
    db.publish(StreamDefinition::source(HUB, SOURCE, "outCOM"));
    for i in 0..n {
        db.publish(filter(i));
    }
    db
}

/// Postings scanned by retracting `(peer, stream)`.
fn postings_to_retract(db: &mut StreamDefinitionDatabase, peer: &str, stream: &str) -> u64 {
    let before = db.index_stats().postings_read;
    assert!(
        db.retract(ChannelId::new(peer, stream)),
        "{peer}|{stream} is live"
    );
    db.index_stats().postings_read - before
}

#[test]
fn retracting_one_of_n_filters_on_a_peer_scans_the_same_postings_for_any_n() {
    let oldest = |n| postings_to_retract(&mut hub_with_filters(n), HUB, "f0");
    let newest =
        |n: usize| postings_to_retract(&mut hub_with_filters(n), HUB, &format!("f{}", n - 1));
    let (few, many) = (oldest(10), oldest(1_000));
    assert_eq!(
        few, many,
        "990 more Filters on the hub must not change what retracting the oldest scans"
    );
    assert_eq!(few, 1, "the Filter's own clause list holds itself alone");
    assert_eq!(
        newest(10),
        newest(1_000),
        "nor what retracting the newest scans"
    );
    let source = |n| postings_to_retract(&mut hub_with_filters(n), HUB, SOURCE);
    assert_eq!(
        (source(10), source(1_000)),
        (1, 1),
        "retracting the hub's source scans the hub's sources, not its Filters"
    );
}

#[test]
fn a_publish_inserts_one_posting_per_operand_or_one_for_a_source() {
    let mut db = db();
    let inserts = |db: &mut StreamDefinitionDatabase, definition: StreamDefinition| {
        let before = db.index_stats().insert_operations;
        db.publish(definition);
        db.index_stats().insert_operations - before
    };
    let source = StreamDefinition::source(HUB, SOURCE, "outCOM");
    assert_eq!(
        inserts(&mut db, source),
        1,
        "a source posts its alerter term"
    );
    for arity in 1..=4 {
        let operands = (0..arity).map(|i| operand(HUB, &format!("s{i}"))).collect();
        let derived = StreamDefinition::derived(HUB, format!("u{arity}"), "Union", "", operands);
        assert_eq!(
            inserts(&mut db, derived),
            arity as u64,
            "a derived definition posts one term per operand, {arity} here"
        );
    }
    // However many Filters the hub already runs.
    let mut db = hub_with_filters(1_000);
    assert_eq!(inserts(&mut db, filter(1_000)), 1);
}

#[test]
fn a_retraction_removes_exactly_its_definitions_terms() {
    let mut db = hub_with_filters(10);
    let operands = (0..3).map(|i| operand(HUB, &format!("s{i}"))).collect();
    db.publish(StreamDefinition::derived(HUB, "u", "Union", "", operands));
    for (stream, terms) in [("f3", 1), ("u", 3), (SOURCE, 1)] {
        let before = db.index_stats();
        assert!(db.retract(ChannelId::new(HUB, stream)), "{stream} is live");
        let after = db.index_stats();
        assert_eq!(
            after.remove_operations - before.remove_operations,
            terms,
            "retracting {stream} removes one posting per term it posted"
        );
        let hops = after.total_hops - before.total_hops;
        assert_eq!(
            after.messages - before.messages,
            hops + terms,
            "each removal is a routed request"
        );
        assert_eq!(
            (after.insert_operations, after.query_operations),
            (before.insert_operations, before.query_operations)
        );
    }
}
