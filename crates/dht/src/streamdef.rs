//! Stream descriptions and the Stream Definition Database.
//!
//! Section 5: the information about a stream is XML data of the form
//!
//! ```xml
//! <Stream PeerId="..." StreamId="..." isAChannel="...">
//!   <Operator>...</Operator><Operands>...</Operands>
//! </Stream>
//! ```
//!
//! The pair `(StreamId, PeerId)` identifies the stream; `Operands` lists the
//! `(OPeerId, OStreamId)` pairs of its inputs (empty for alerter-produced
//! sources); `Operator` says which operator produced it; `isAChannel` tells
//! whether the stream is published.  The paper's `<Stats>` child is not
//! published: a stream's rates are measured where it flows, in the
//! monitor's `RateTable`, and read there by load-aware provider selection
//! and the `monStats` stream.  Replicas are declared separately with `<InChannel>`
//! elements, and — crucially for reuse — derived streams are always
//! described *with respect to the original streams, not the replicas*.
//!
//! **Identity invariant.**  `(PeerId, StreamId)` is the *canonical channel
//! identity* ([`StreamDefinition::channel_id`]): `PeerId` must be the peer
//! whose operator actually *emits* the stream, and the same pair must be used
//! for routing, delivery and discovery.  A definition whose `PeerId` differs
//! from the emitting peer describes a channel nobody multicasts on — a reuse
//! subscriber attaching to it would starve — so publishers (the monitor's
//! deployment layer) mint one `ChannelId` per produced stream and use it for
//! both the definition and the live routing tables.
//!
//! **What is indexed, and who reads it.**  A published definition posts one
//! DHT term per discovery query that can find it — a term nobody queries is
//! a posting list every retraction still has to walk, so no such term is
//! posted:
//!
//! | term | posted | read by |
//! |---|---|---|
//! | `peer+operator=<PeerId>\|<Operator>` | once per source definition | [`StreamDefinitionDatabase::find_alerter_streams`] |
//! | `operator+operand=<Operator>\|<digest>\|<OPeerId>\|<OStreamId>` | once per operand | [`StreamDefinitionDatabase::find_derived_streams`] |
//!
//! `<digest>` is [`hash_key`] of the definition's `parameters` as 16 hex
//! digits, so Section 5's reuse query — an equality on operator, operands
//! *and* parameters — reads one list of candidates that already agree on
//! all three, however many other Filters run over the same source.  The
//! query still checks the parameters on the descriptor: a digest collision
//! only merges two lists.  Within one term, postings keep publish order.
//! There is no operator-only term, so a derived-stream query without
//! operands finds nothing.
//!
//! `<InChannel>` replica declarations are not index terms: they are kept
//! keyed by the *origin* `(PeerId, StreamId)` they replicate, each origin's
//! list in declaration order, so [`StreamDefinitionDatabase::replicas_of`],
//! the `select_provider_*`s, `publish_replica`, `retract_replica` and
//! `retract` touch one origin's declarations — never the whole table — and
//! no lookup builds an owned key.  A reverse count per replica coordinate
//! `(ReplicaPeerId, ReplicaStreamId)` answers
//! [`StreamDefinitionDatabase::canonical_identity`]'s "is this a live
//! replica?" the same way.
//!
//! Each origin's list carries every declaration's replica peer as an
//! interned [`Name`], interned once by `publish_replica`, so provider
//! selection is integer work: every candidate is scored by its `Name`
//! (proximity and load are `Fn(Name) -> u64`), and `retract_replica` finds
//! the declaring peer by comparing ids.  A selection interns no name per
//! candidate — only the origin's, once.

use std::collections::HashMap;

use p2pmon_streams::ChannelId;
use p2pmon_xmlkit::{Element, ElementBuilder, Name};

use crate::chord::{hash_key, ChordNetwork};
use crate::index::{DistributedIndex, IndexStats};

/// The description of one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamDefinition {
    /// Peer producing (or having published) the stream.
    pub peer_id: String,
    /// Stream identifier, unique at that peer.
    pub stream_id: String,
    /// The operator that produces the stream ("inCOM", "outCOM", "Filter",
    /// "Join", "Union", "Restructure", …).
    pub operator: String,
    /// A canonical digest of the operator's parameters (filter conditions,
    /// join predicate, template…), so that only *identical* operations are
    /// considered equal for reuse.  Empty when the operator has no
    /// parameters.
    pub parameters: String,
    /// The operand streams, as (OPeerId, OStreamId) pairs.  Empty for
    /// alerter-produced monitoring sources.
    pub operands: Vec<(String, String)>,
    /// Whether the stream is published as a channel.
    pub is_channel: bool,
}

impl StreamDefinition {
    /// A source stream produced by an alerter at `peer`.
    pub fn source(
        peer: impl Into<String>,
        stream: impl Into<String>,
        alerter: impl Into<String>,
    ) -> Self {
        StreamDefinition {
            peer_id: peer.into(),
            stream_id: stream.into(),
            operator: alerter.into(),
            parameters: String::new(),
            operands: Vec::new(),
            is_channel: true,
        }
    }

    /// A derived stream produced by `operator` over the given operands.
    pub fn derived(
        peer: impl Into<String>,
        stream: impl Into<String>,
        operator: impl Into<String>,
        parameters: impl Into<String>,
        operands: Vec<(String, String)>,
    ) -> Self {
        StreamDefinition {
            peer_id: peer.into(),
            stream_id: stream.into(),
            operator: operator.into(),
            parameters: parameters.into(),
            operands,
            is_channel: true,
        }
    }

    /// The channel identifier of this stream.
    pub fn channel_id(&self) -> ChannelId {
        ChannelId::new(self.peer_id.clone(), self.stream_id.clone())
    }

    /// Serializes to the paper's `<Stream>` XML form.
    pub fn to_element(&self) -> Element {
        let mut operator = Element::new("Operator");
        let mut op_el = Element::new(self.operator.clone());
        if !self.parameters.is_empty() {
            op_el.set_attr("params", self.parameters.clone());
        }
        operator.push_element(op_el);

        let mut operands = Element::new("Operands");
        for (peer, stream) in &self.operands {
            operands.push_element(
                ElementBuilder::new("Operand")
                    .attr("OPeerId", peer.clone())
                    .attr("OStreamId", stream.clone())
                    .build(),
            );
        }

        ElementBuilder::new("Stream")
            .attr("PeerId", self.peer_id.clone())
            .attr("StreamId", self.stream_id.clone())
            .attr("isAChannel", self.is_channel.to_string())
            .child_element(operator)
            .child_element(operands)
            .build()
    }

    /// Parses the `<Stream>` XML form.
    pub fn from_element(element: &Element) -> Option<StreamDefinition> {
        if element.name != "Stream" {
            return None;
        }
        let operator_el = element.child("Operator")?.child_elements().next()?;
        let operands = element
            .child("Operands")
            .map(|ops| {
                ops.children_named("Operand")
                    .filter_map(|o| {
                        Some((
                            o.attr("OPeerId")?.to_string(),
                            o.attr("OStreamId")?.to_string(),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        Some(StreamDefinition {
            peer_id: element.attr("PeerId")?.to_string(),
            stream_id: element.attr("StreamId")?.to_string(),
            operator: operator_el.name.clone(),
            parameters: operator_el.attr("params").unwrap_or("").to_string(),
            operands,
            is_channel: element.attr("isAChannel") == Some("true"),
        })
    }
}

/// A replica declaration: `replica_peer` also provides the channel
/// `(peer_id, stream_id)` under its local id `replica_stream`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaDeclaration {
    /// Original publishing peer.
    pub peer_id: String,
    /// Original stream id.
    pub stream_id: String,
    /// The replicating peer.
    pub replica_peer: String,
    /// The replica's local stream id.
    pub replica_stream: String,
}

impl ReplicaDeclaration {
    /// Serializes to the `<InChannel>` form of Section 5.
    pub fn to_element(&self) -> Element {
        ElementBuilder::new("InChannel")
            .attr("PeerId", self.peer_id.clone())
            .attr("StreamId", self.stream_id.clone())
            .attr("ReplicaPeerId", self.replica_peer.clone())
            .attr("ReplicaStreamId", self.replica_stream.clone())
            .build()
    }

    /// Parses an `<InChannel>` element.
    pub fn from_element(element: &Element) -> Option<ReplicaDeclaration> {
        if element.name != "InChannel" {
            return None;
        }
        Some(ReplicaDeclaration {
            peer_id: element.attr("PeerId")?.to_string(),
            stream_id: element.attr("StreamId")?.to_string(),
            replica_peer: element.attr("ReplicaPeerId")?.to_string(),
            replica_stream: element.attr("ReplicaStreamId")?.to_string(),
        })
    }
}

/// The Stream Definition Database: publish / query stream descriptions and
/// replica declarations through the distributed index.
#[derive(Debug)]
pub struct StreamDefinitionDatabase {
    index: DistributedIndex,
    /// Full descriptors keyed by their posting id, `"peer|stream"` — in
    /// KadoP the repository part is also distributed; here the payload side
    /// is small so it rides along with the index postings, and a posting a
    /// query returns is looked up as it is.
    descriptors: HashMap<String, StreamDefinition>,
    /// `<InChannel>` declarations by origin `(peer, stream)`, each origin's
    /// list in declaration order.
    replicas: PairMap<Vec<Declared>>,
    /// Reverse entry: how many live declarations name each replica
    /// coordinate `(replica peer, replica stream)`.
    replica_coordinates: PairMap<usize>,
}

/// One live declaration, beside its replica peer interned at publish: what
/// selection scores and retraction compares.
#[derive(Debug)]
struct Declared {
    replica_peer: Name,
    declaration: ReplicaDeclaration,
}

/// A map keyed by a `(peer, stream)` pair, nested so that a lookup borrows
/// both halves as `&str` and never builds an owned key.
#[derive(Debug, Default)]
struct PairMap<V>(HashMap<String, HashMap<String, V>>);

impl<V> PairMap<V> {
    fn get(&self, peer: &str, stream: &str) -> Option<&V> {
        self.0.get(peer)?.get(stream)
    }

    fn get_mut(&mut self, peer: &str, stream: &str) -> Option<&mut V> {
        self.0.get_mut(peer)?.get_mut(stream)
    }

    /// The entry for the pair, inserted as `V::default()` when missing.
    fn get_or_default(&mut self, peer: &str, stream: &str) -> &mut V
    where
        V: Default,
    {
        let streams = self.0.entry(peer.to_string()).or_default();
        streams.entry(stream.to_string()).or_default()
    }

    fn remove(&mut self, peer: &str, stream: &str) -> Option<V> {
        let streams = self.0.get_mut(peer)?;
        let removed = streams.remove(stream);
        if streams.is_empty() {
            self.0.remove(peer);
        }
        removed
    }
}

impl StreamDefinitionDatabase {
    /// Creates a database over the given DHT.
    pub fn new(dht: ChordNetwork) -> Self {
        StreamDefinitionDatabase {
            index: DistributedIndex::new(dht),
            descriptors: HashMap::new(),
            replicas: PairMap::default(),
            replica_coordinates: PairMap::default(),
        }
    }

    /// Index/DHT statistics (lookup hops, messages), for E8.
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }

    /// Mutable access to the underlying DHT (e.g. to make nodes join/leave in
    /// churn experiments).
    pub fn dht_mut(&mut self) -> &mut ChordNetwork {
        self.index.dht_mut()
    }

    /// Number of published stream definitions.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// True when no definition has been published.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Publishes a stream definition: stores the descriptor and posts its
    /// index terms into the DHT.
    pub fn publish(&mut self, definition: StreamDefinition) {
        let id = Self::posting_id(&definition.peer_id, &definition.stream_id);
        for term in Self::index_terms(&definition) {
            self.index.insert(&term, &id);
        }
        self.descriptors.insert(id, definition);
    }

    /// The id a definition is posted under and its descriptor kept by.
    fn posting_id(peer: &str, stream: &str) -> String {
        format!("{peer}|{stream}")
    }

    /// Retracts a published stream definition: removes the descriptor, its
    /// index postings and any replica declarations for it (subscription
    /// teardown).  Returns `true` when the definition existed.
    pub fn retract(&mut self, peer: &str, stream: &str) -> bool {
        let id = Self::posting_id(peer, stream);
        let Some(definition) = self.descriptors.remove(&id) else {
            return false;
        };
        for term in Self::index_terms(&definition) {
            self.index.remove(&term, &id);
        }
        for replica in self.replicas.remove(peer, stream).unwrap_or_default() {
            self.forget_coordinate(&replica.declaration);
        }
        true
    }

    /// Drops one declaration's share of its reverse entry.
    fn forget_coordinate(&mut self, replica: &ReplicaDeclaration) {
        let (peer, stream) = (&replica.replica_peer, &replica.replica_stream);
        let count = self
            .replica_coordinates
            .get_mut(peer, stream)
            .expect("every live declaration is counted");
        *count -= 1;
        if *count == 0 {
            self.replica_coordinates.remove(peer, stream);
        }
    }

    /// Publishes a replica declaration.  One peer provides at most one
    /// replica of a given channel: a re-declaration from the same
    /// `replica_peer` for the same original *replaces* the previous entry,
    /// so duplicate declarations can never accumulate.
    pub fn publish_replica(&mut self, replica: ReplicaDeclaration) {
        let replica_peer = Name::new(&replica.replica_peer);
        self.retract_replica(&replica.peer_id, &replica.stream_id, replica_peer);
        *self
            .replica_coordinates
            .get_or_default(&replica.replica_peer, &replica.replica_stream) += 1;
        self.replicas
            .get_or_default(&replica.peer_id, &replica.stream_id)
            .push(Declared {
                replica_peer,
                declaration: replica,
            });
    }

    /// Retracts the replica of `(peer, stream)` declared by `replica_peer`
    /// (replica teardown: the last local subscriber of the replicated channel
    /// unsubscribed).  Returns `true` when a declaration existed.
    pub fn retract_replica(
        &mut self,
        peer: &str,
        stream: &str,
        replica_peer: impl Into<Name>,
    ) -> bool {
        let Some(declared) = self.replicas.get_mut(peer, stream) else {
            return false;
        };
        let replica_peer = replica_peer.into();
        let Some(at) = declared.iter().position(|r| r.replica_peer == replica_peer) else {
            return false;
        };
        let removed = declared.remove(at);
        if declared.is_empty() {
            self.replicas.remove(peer, stream);
        }
        self.forget_coordinate(&removed.declaration);
        true
    }

    /// The replicas known for a given original channel, in declaration
    /// order.
    pub fn replicas_of(&self, peer: &str, stream: &str) -> Vec<&ReplicaDeclaration> {
        self.declared(peer, stream)
            .iter()
            .map(|d| &d.declaration)
            .collect()
    }

    /// One origin's declarations, borrowed from the index.
    fn declared(&self, peer: &str, stream: &str) -> &[Declared] {
        self.replicas.get(peer, stream).map_or(&[], Vec::as_slice)
    }

    /// Looks up a full descriptor.
    pub fn get(&self, peer: &str, stream: &str) -> Option<&StreamDefinition> {
        self.descriptors.get(&Self::posting_id(peer, stream))
    }

    /// Resolves a channel reference to its canonical identity.  Users
    /// address a published channel by the name and manager their
    /// subscription declared (`#alertQoS@p`), but the canonical identity
    /// names the peer placement chose to *emit* the stream — so an exact
    /// `(peer, stream)` match wins, a unique definition carrying the same
    /// `StreamId` resolves the reference, and anything else (unknown or
    /// ambiguous) is returned unchanged.
    pub fn canonical_identity(&self, peer: &str, stream: &str) -> (String, String) {
        let exact = (peer.to_string(), stream.to_string());
        if self.get(peer, stream).is_some() {
            return exact;
        }
        // A live replica's coordinates are canonical too: the replica peer
        // really multicasts the stream under its local id, so a reference the
        // reuse rewriting pointed at a selected replica must not be rewritten
        // away to the original.
        if self.replica_coordinates.get(peer, stream).is_some() {
            return exact;
        }
        let mut by_name = self.descriptors.values().filter(|d| d.stream_id == stream);
        match (by_name.next(), by_name.next()) {
            (Some(d), None) => (d.peer_id.clone(), d.stream_id.clone()),
            _ => exact,
        }
    }

    /// Index terms of a descriptor: one per discovery query that can find
    /// it (see the module docs for which query reads which).  A source — a
    /// definition without operands — is found by the alerter lookup only, a
    /// derived definition by the reuse query only.
    fn index_terms(definition: &StreamDefinition) -> Vec<String> {
        if definition.operands.is_empty() {
            return vec![Self::alerter_term(
                &definition.peer_id,
                &definition.operator,
            )];
        }
        definition
            .operands
            .iter()
            .map(|(op_peer, op_stream)| {
                Self::operand_term(
                    &definition.operator,
                    &definition.parameters,
                    op_peer,
                    op_stream,
                )
            })
            .collect()
    }

    /// The alerter lookup's term.
    fn alerter_term(peer: &str, alerter: &str) -> String {
        format!("peer+operator={peer}|{alerter}")
    }

    /// The reuse query's term for one operand.
    fn operand_term(operator: &str, parameters: &str, peer: &str, stream: &str) -> String {
        let digest = hash_key(parameters);
        format!("operator+operand={operator}|{digest:016x}|{peer}|{stream}")
    }

    /// The live descriptors behind posting ids that `keep` admits, in id
    /// order.
    fn resolve(
        &self,
        ids: &[String],
        keep: impl Fn(&StreamDefinition) -> bool,
    ) -> Vec<&StreamDefinition> {
        ids.iter()
            .filter_map(|id| self.descriptors.get(id))
            .filter(|d| keep(d))
            .collect()
    }

    /// Finds alerter-produced streams of a given kind at a peer — the query
    /// `/Stream[@PeerId = $p1][Operator/inCom]` of the paper — in publish
    /// order.  Only sources (definitions without operands) post the term it
    /// reads, so a derived stream at the same peer is never found, and its
    /// posting is never scanned.
    pub fn find_alerter_streams(&mut self, peer: &str, alerter: &str) -> Vec<&StreamDefinition> {
        let ids = self.index.query(&Self::alerter_term(peer, alerter));
        self.resolve(&ids, |_| true)
    }

    /// Finds streams produced by `operator` over exactly the given operands —
    /// the `/Stream[Operator/Filter][Operands/Operand[@OPeerId=…]…]` queries.
    /// `parameters` must also match, so that only the *same* filter/join is
    /// reused.  Results come in publish order.  Without operands nothing is
    /// found: definitions are indexed by their operands only.
    ///
    /// The index is queried operand by operand, intersecting as it goes, and
    /// stops at the first empty intersection: no further operand can add a
    /// candidate back.  So a query over operands nobody combined yet costs
    /// one lookup, not one per operand.
    pub fn find_derived_streams(
        &mut self,
        operator: &str,
        parameters: &str,
        operands: &[(String, String)],
    ) -> Vec<&StreamDefinition> {
        let mut terms = operands
            .iter()
            .map(|(peer, stream)| Self::operand_term(operator, parameters, peer, stream));
        let Some(first) = terms.next() else {
            return Vec::new();
        };
        let mut ids = self.index.query(&first);
        for term in terms {
            if ids.is_empty() {
                break;
            }
            let listed = self.index.query(&term);
            ids.retain(|id| listed.contains(id));
        }
        // Verify the exact operand set and parameters on the descriptor.
        self.resolve(&ids, |d| {
            d.operator == operator
                && d.parameters == parameters
                && d.operands.len() == operands.len()
                && operands.iter().all(|o| d.operands.contains(o))
        })
    }

    /// Selects the provider for a discovered stream: the original publisher or
    /// one of the replicas `eligible` admits, whichever is "closest"
    /// according to `proximity` (lower is closer) — the replica-selection
    /// step of Section 5.  Ties keep the original, then declaration order.
    /// `eligible = |_| true` admits every replica.
    ///
    /// A proximity of [`u64::MAX`] marks a provider as *unavailable* (the
    /// monitor maps downed peers to it): an unavailable replica is never
    /// selected, and when the original itself is unavailable any reachable
    /// replica wins.  Only when nothing is reachable does the original come
    /// back as the (dead) default.  An ineligible replica is treated the
    /// same way.  `eligible` is the expensive question, so it is asked
    /// last — once per replica at most, and only of a replica whose score
    /// would beat the best so far.  The original publisher is never asked.
    ///
    /// Providers are scored by interned peer id: the origin's name is
    /// interned once per selection, and no candidate's name is resolved.
    pub fn select_provider_where(
        &self,
        peer: &str,
        stream: &str,
        proximity: impl Fn(Name) -> u64,
        eligible: impl Fn(Name) -> bool,
    ) -> (String, String) {
        let mut best = None;
        let mut best_score = proximity(Name::new(peer));
        for replica in self.declared(peer, stream) {
            let score = proximity(replica.replica_peer);
            if score < best_score && score < u64::MAX && eligible(replica.replica_peer) {
                best_score = score;
                best = Some(replica);
            }
        }
        Self::provider(peer, stream, best)
    }

    /// Like [`select_provider_where`](Self::select_provider_where) over
    /// every replica, but with a second, load-based tie-break: among
    /// providers at the minimal proximity, the one currently serving the
    /// fewest measured bytes per second wins.  Remaining ties keep the
    /// original-then-declaration order, so with an all-zero `load` this
    /// selects exactly what `select_provider_where(.., |_| true)` would —
    /// load shedding only ever redirects between equally-close providers.
    pub fn select_provider_loaded(
        &self,
        peer: &str,
        stream: &str,
        proximity: impl Fn(Name) -> u64,
        load: impl Fn(Name) -> u64,
    ) -> (String, String) {
        let origin = Name::new(peer);
        let mut best = None;
        let mut best_score = proximity(origin);
        let mut best_load = load(origin);
        for replica in self.declared(peer, stream) {
            let score = proximity(replica.replica_peer);
            if score == u64::MAX {
                continue;
            }
            let closer = score < best_score;
            let lighter = score == best_score && load(replica.replica_peer) < best_load;
            if closer || lighter {
                best_score = score;
                best_load = load(replica.replica_peer);
                best = Some(replica);
            }
        }
        Self::provider(peer, stream, best)
    }

    /// The selected provider as `(peer, stream)`: the chosen replica's
    /// coordinates, or the origin's when none beat it.
    fn provider(peer: &str, stream: &str, chosen: Option<&Declared>) -> (String, String) {
        match chosen {
            Some(d) => (
                d.declaration.replica_peer.clone(),
                d.declaration.replica_stream.clone(),
            ),
            None => (peer.to_string(), stream.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

    fn db() -> StreamDefinitionDatabase {
        StreamDefinitionDatabase::new(ChordNetwork::with_nodes(32, 11))
    }

    #[test]
    fn stream_definition_xml_round_trip() {
        let def = StreamDefinition::derived(
            "p2",
            "s5",
            "Filter",
            "callee=meteo.com",
            vec![("p1".into(), "s1".into())],
        );
        let el = def.to_element();
        assert_eq!(el.attr("PeerId"), Some("p2"));
        let parsed = StreamDefinition::from_element(&el).unwrap();
        assert_eq!(parsed.peer_id, def.peer_id);
        assert_eq!(parsed.operator, "Filter");
        assert_eq!(parsed.parameters, "callee=meteo.com");
        assert_eq!(parsed.operands, def.operands);
        assert!(parsed.is_channel);
    }

    #[test]
    fn retract_removes_descriptor_index_postings_and_replicas() {
        let mut db = db();
        db.publish(StreamDefinition::source("p1", "s1", "inCOM"));
        db.publish_replica(ReplicaDeclaration {
            peer_id: "p1".into(),
            stream_id: "s1".into(),
            replica_peer: "p2".into(),
            replica_stream: "r1".into(),
        });
        assert_eq!(db.find_alerter_streams("p1", "inCOM").len(), 1);
        assert!(db.retract("p1", "s1"));
        assert!(!db.retract("p1", "s1"), "second retraction is a no-op");
        assert!(db.get("p1", "s1").is_none());
        assert!(db.find_alerter_streams("p1", "inCOM").is_empty());
        assert!(db.replicas_of("p1", "s1").is_empty());
        assert!(db.is_empty());
    }

    #[test]
    fn replica_declaration_round_trip() {
        let r = ReplicaDeclaration {
            peer_id: "p".into(),
            stream_id: "s".into(),
            replica_peer: "p2".into(),
            replica_stream: "s2".into(),
        };
        let el = r.to_element();
        assert_eq!(ReplicaDeclaration::from_element(&el), Some(r));
        assert!(ReplicaDeclaration::from_element(&parse("<Other/>").unwrap()).is_none());
    }

    #[test]
    fn alerter_stream_discovery() {
        let mut db = db();
        db.publish(StreamDefinition::source("p1", "s1", "inCOM"));
        db.publish(StreamDefinition::source("p1", "s2", "outCOM"));
        db.publish(StreamDefinition::source("p2", "s1", "inCOM"));
        let found = db.find_alerter_streams("p1", "inCOM");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].stream_id, "s1");
        assert!(db.find_alerter_streams("p3", "inCOM").is_empty());
    }

    #[test]
    fn derived_stream_discovery_requires_same_operator_params_and_operands() {
        let mut db = db();
        db.publish(StreamDefinition::source("p1", "s1", "inCOM"));
        db.publish(StreamDefinition::derived(
            "p1",
            "s3",
            "Filter",
            "F",
            vec![("p1".into(), "s1".into())],
        ));
        db.publish(StreamDefinition::derived(
            "p1",
            "s4",
            "Filter",
            "OTHER",
            vec![("p1".into(), "s1".into())],
        ));
        let found = db.find_derived_streams("Filter", "F", &[("p1".into(), "s1".into())]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].stream_id, "s3");
        // Different operand: nothing.
        assert!(db
            .find_derived_streams("Filter", "F", &[("p9".into(), "s9".into())])
            .is_empty());
        // No operands: nothing either — there is no operator-only term.
        assert!(db.find_derived_streams("Filter", "F", &[]).is_empty());
    }

    #[test]
    fn a_publish_posts_one_term_per_operand_or_one_for_a_source() {
        let mut db = db();
        db.publish(StreamDefinition::source("p1", "s1", "inCOM"));
        assert_eq!(db.index_stats().insert_operations, 1);
        db.publish(StreamDefinition::derived(
            "p1",
            "sj",
            "Join",
            "callId",
            vec![("p1".into(), "s1".into()), ("p2".into(), "s2".into())],
        ));
        assert_eq!(db.index_stats().insert_operations, 1 + 2);
    }

    #[test]
    fn a_query_reads_the_postings_of_its_parameters_only() {
        let mut db = db();
        let operand = vec![("hub".to_string(), "src".to_string())];
        for i in 0..50 {
            db.publish(StreamDefinition::derived(
                "hub",
                format!("f{i}"),
                "Filter",
                format!("x={i}"),
                operand.clone(),
            ));
        }
        let before = db.index_stats().postings_read;
        let found: Vec<String> = db
            .find_derived_streams("Filter", "x=7", &operand)
            .iter()
            .map(|d| d.stream_id.clone())
            .collect();
        assert_eq!(found, vec!["f7"]);
        assert_eq!(db.index_stats().postings_read - before, 1);
    }

    #[test]
    fn join_streams_are_discoverable_by_both_operands() {
        // The paper's point against StreamGlobe: joined streams are shared too.
        let mut db = db();
        db.publish(StreamDefinition::derived(
            "p1",
            "sj",
            "Join",
            "callId",
            vec![("p1".into(), "s3".into()), ("p2".into(), "s2".into())],
        ));
        let found = db.find_derived_streams(
            "Join",
            "callId",
            &[("p1".into(), "s3".into()), ("p2".into(), "s2".into())],
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].stream_id, "sj");
    }

    #[test]
    fn replica_selection_prefers_closer_provider() {
        let mut db = db();
        db.publish(StreamDefinition::source("origin.com", "s1", "inCOM"));
        db.publish_replica(ReplicaDeclaration {
            peer_id: "origin.com".into(),
            stream_id: "s1".into(),
            replica_peer: "nearby.com".into(),
            replica_stream: "r1".into(),
        });
        let proximity = |peer: Name| if peer == "nearby.com" { 5 } else { 100 };
        assert_eq!(
            db.select_provider_where("origin.com", "s1", proximity, |_| true),
            ("nearby.com".to_string(), "r1".to_string())
        );
        // When the original is closest, keep it.
        let proximity = |peer: Name| if peer == "origin.com" { 1 } else { 50 };
        assert_eq!(
            db.select_provider_where("origin.com", "s1", proximity, |_| true),
            ("origin.com".to_string(), "s1".to_string())
        );
    }

    #[test]
    fn loaded_selection_breaks_proximity_ties_by_load() {
        let mut db = db();
        db.publish(StreamDefinition::source("origin.com", "s1", "inCOM"));
        db.publish_replica(ReplicaDeclaration {
            peer_id: "origin.com".into(),
            stream_id: "s1".into(),
            replica_peer: "twin.com".into(),
            replica_stream: "r1".into(),
        });
        // Equal proximity everywhere: with zero load the original wins, just
        // like `select_provider_where`; under load the lighter twin takes over.
        let flat = |_: Name| 10u64;
        assert_eq!(
            db.select_provider_loaded("origin.com", "s1", flat, |_| 0),
            db.select_provider_where("origin.com", "s1", flat, |_| true)
        );
        assert_eq!(
            db.select_provider_loaded("origin.com", "s1", flat, |p| {
                if p == "origin.com" {
                    5_000
                } else {
                    100
                }
            }),
            ("twin.com".to_string(), "r1".to_string())
        );
        // Load never overrides proximity: a busier but strictly closer
        // provider still wins.
        let near_origin = |p: Name| if p == "origin.com" { 1 } else { 50 };
        assert_eq!(
            db.select_provider_loaded("origin.com", "s1", near_origin, |p| {
                if p == "origin.com" {
                    9_999
                } else {
                    0
                }
            }),
            ("origin.com".to_string(), "s1".to_string())
        );
        // An unavailable provider is skipped regardless of load.
        let origin_down = |p: Name| if p == "origin.com" { u64::MAX } else { 50 };
        assert_eq!(
            db.select_provider_loaded("origin.com", "s1", origin_down, |_| 0),
            ("twin.com".to_string(), "r1".to_string())
        );
    }

    #[test]
    fn duplicate_replica_declarations_from_one_peer_collapse() {
        let mut db = db();
        db.publish(StreamDefinition::source("origin.com", "s1", "inCOM"));
        for stream in ["r1", "r2"] {
            db.publish_replica(ReplicaDeclaration {
                peer_id: "origin.com".into(),
                stream_id: "s1".into(),
                replica_peer: "edge.com".into(),
                replica_stream: stream.into(),
            });
        }
        let replicas = db.replicas_of("origin.com", "s1");
        assert_eq!(replicas.len(), 1, "one replica per declaring peer");
        assert_eq!(
            replicas[0].replica_stream, "r2",
            "a re-declaration replaces the previous entry"
        );
    }

    #[test]
    fn retract_replica_removes_only_that_peers_declaration() {
        let mut db = db();
        db.publish(StreamDefinition::source("origin.com", "s1", "inCOM"));
        for peer in ["edge.com", "far.com"] {
            db.publish_replica(ReplicaDeclaration {
                peer_id: "origin.com".into(),
                stream_id: "s1".into(),
                replica_peer: peer.into(),
                replica_stream: "r".into(),
            });
        }
        assert!(db.retract_replica("origin.com", "s1", "edge.com"));
        assert!(!db.retract_replica("origin.com", "s1", "edge.com"));
        let left = db.replicas_of("origin.com", "s1");
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].replica_peer, "far.com");
    }

    #[test]
    fn unavailable_replicas_are_never_selected() {
        let mut db = db();
        db.publish(StreamDefinition::source("origin.com", "s1", "inCOM"));
        db.publish_replica(ReplicaDeclaration {
            peer_id: "origin.com".into(),
            stream_id: "s1".into(),
            replica_peer: "down.com".into(),
            replica_stream: "r1".into(),
        });
        // The replica would be closest, but it is down (proximity = MAX):
        // selection falls back to the origin.
        let proximity = |peer: Name| if peer == "down.com" { u64::MAX } else { 80 };
        assert_eq!(
            db.select_provider_where("origin.com", "s1", proximity, |_| true),
            ("origin.com".to_string(), "s1".to_string())
        );
        // A downed *origin* yields to any reachable replica.
        db.publish_replica(ReplicaDeclaration {
            peer_id: "origin.com".into(),
            stream_id: "s1".into(),
            replica_peer: "alive.com".into(),
            replica_stream: "r2".into(),
        });
        let proximity = |peer: Name| match peer.as_str() {
            "origin.com" | "down.com" => u64::MAX,
            _ => 200,
        };
        assert_eq!(
            db.select_provider_where("origin.com", "s1", proximity, |_| true),
            ("alive.com".to_string(), "r2".to_string())
        );
        // Nothing reachable: the (dead) original is the default.
        assert_eq!(
            db.select_provider_where("origin.com", "s1", |_| u64::MAX, |_| true),
            ("origin.com".to_string(), "s1".to_string())
        );
    }

    #[test]
    fn canonical_identity_keeps_live_replica_coordinates() {
        let mut db = db();
        db.publish(StreamDefinition::derived(
            "origin.com",
            "s0-t4",
            "Restructure",
            "<incident/>",
            vec![("p1".into(), "s1".into())],
        ));
        db.publish_replica(ReplicaDeclaration {
            peer_id: "origin.com".into(),
            stream_id: "s0-t4".into(),
            replica_peer: "edge.com".into(),
            replica_stream: "s1-t0".into(),
        });
        assert_eq!(
            db.canonical_identity("edge.com", "s1-t0"),
            ("edge.com".to_string(), "s1-t0".to_string()),
            "a replica's coordinates are already canonical"
        );
    }

    #[test]
    fn canonical_identity_resolves_unique_stream_names() {
        let mut db = db();
        db.publish(StreamDefinition::derived(
            "meteo.com",
            "alertQoS",
            "Restructure",
            "<incident/>",
            vec![("p1".into(), "s1".into())],
        ));
        // Exact match wins; a unique name resolves; unknown stays put.
        assert_eq!(
            db.canonical_identity("meteo.com", "alertQoS"),
            ("meteo.com".to_string(), "alertQoS".to_string())
        );
        assert_eq!(
            db.canonical_identity("p", "alertQoS"),
            ("meteo.com".to_string(), "alertQoS".to_string()),
            "a manager-qualified reference resolves to the emitting peer"
        );
        assert_eq!(
            db.canonical_identity("p", "nowhere"),
            ("p".to_string(), "nowhere".to_string())
        );
        // An ambiguous name is left alone.
        db.publish(StreamDefinition::derived(
            "other.com",
            "alertQoS",
            "Restructure",
            "<x/>",
            vec![("p2".into(), "s2".into())],
        ));
        assert_eq!(
            db.canonical_identity("p", "alertQoS"),
            ("p".to_string(), "alertQoS".to_string())
        );
    }

    #[test]
    fn index_stats_accumulate() {
        let mut db = db();
        for i in 0..20 {
            db.publish(StreamDefinition::source(format!("p{i}"), "s", "inCOM"));
        }
        db.find_alerter_streams("p3", "inCOM");
        let stats = db.index_stats();
        assert!(stats.insert_operations > 0);
        assert!(stats.query_operations > 0);
    }
}
