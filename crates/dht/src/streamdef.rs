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
//! **Keys.**  Inside the database a stream is that [`ChannelId`], never a
//! string: descriptors, replica declarations and replica coordinates are
//! keyed by it, a posting *is* one (the index's [`Posting`]), and every
//! query, selection and [`canonical_identity`] answer is one.  So a reuse
//! hit — a posting read, a descriptor probed, a provider selected — builds,
//! hashes and interns no string.  [`StreamDefinition`] and
//! [`ReplicaDeclaration`] are the paper's XML forms: [`publish`] interns a
//! definition's names once, and [`find_derived_streams`], the query by
//! name, looks names up with [`intern::lookup`] and never interns one (a
//! name nobody interned names no published stream, so it finds nothing).
//!
//! **What is indexed, and who reads it.**  A published definition posts one
//! DHT term per discovery query that can find it — a term nobody queries is
//! a posting list every retraction still has to walk, so no such term is
//! posted:
//!
//! | term | posted | read by |
//! |---|---|---|
//! | `peer+operator=<PeerId>\|<Operator>` | once per source definition | [`StreamDefinitionDatabase::find_alerter_streams`] |
//! | `operator+operand=<Operator>\|<digest>\|<OPeerId>\|<OStreamId>` | once per operand | [`StreamDefinitionDatabase::find_derived_channels`] |
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
//! A term is never built: it is hashed from its parts with [`KeyHasher`],
//! which streams bytes, so the ring key — and with it every insert, query,
//! hop and posting read — is the one the concatenated string would have.
//!
//! `<InChannel>` replica declarations are not index terms: they are kept
//! keyed by the *origin* channel they replicate, each origin's list of
//! replica channels in declaration order, so
//! [`StreamDefinitionDatabase::replicas_of`], the `select_provider_*`s,
//! `publish_replica`, `retract_replica` and `retract` touch one origin's
//! declarations — never the whole table.  A reverse count per replica
//! channel answers [`canonical_identity`]'s "is this a live replica?" the
//! same way.  Provider selection scores each candidate by its replica
//! channel's peer id (proximity and load are `Fn(Name) -> u64`), so a
//! selection resolves no name at all.
//!
//! [`canonical_identity`]'s last resort — a reference naming a stream no
//! definition is published under at that peer — scans the descriptors once
//! for the stream name, comparing ids.  The monitor's own references never
//! get there: each is an exact descriptor or a live replica coordinate,
//! answered by the two probes before it.
//!
//! [`publish`]: StreamDefinitionDatabase::publish
//! [`find_derived_streams`]: StreamDefinitionDatabase::find_derived_streams
//! [`canonical_identity`]: StreamDefinitionDatabase::canonical_identity
//! [`intern::lookup`]: p2pmon_xmlkit::intern::lookup
//! [`Posting`]: crate::index::Posting

use std::collections::HashMap;

use p2pmon_streams::ChannelId;
use p2pmon_xmlkit::intern::lookup;
use p2pmon_xmlkit::{Element, ElementBuilder, Name};

use crate::chord::{hash_key, ChordNetwork, KeyHasher, NodeId};
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
        ChannelId::new(self.peer_id.as_str(), self.stream_id.as_str())
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

/// A replica declaration: the peer of `replica` also provides the channel
/// `origin`, under the local stream id of `replica`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaDeclaration {
    /// The original channel.
    pub origin: ChannelId,
    /// The replicating peer and its local stream id.
    pub replica: ChannelId,
}

impl ReplicaDeclaration {
    /// Serializes to the `<InChannel>` form of Section 5.
    pub fn to_element(&self) -> Element {
        ElementBuilder::new("InChannel")
            .attr("PeerId", self.origin.peer.as_str())
            .attr("StreamId", self.origin.stream.as_str())
            .attr("ReplicaPeerId", self.replica.peer.as_str())
            .attr("ReplicaStreamId", self.replica.stream.as_str())
            .build()
    }

    /// Parses an `<InChannel>` element (interning its names).
    pub fn from_element(element: &Element) -> Option<ReplicaDeclaration> {
        if element.name != "InChannel" {
            return None;
        }
        Some(ReplicaDeclaration {
            origin: ChannelId::new(element.attr("PeerId")?, element.attr("StreamId")?),
            replica: ChannelId::new(
                element.attr("ReplicaPeerId")?,
                element.attr("ReplicaStreamId")?,
            ),
        })
    }
}

/// The Stream Definition Database: publish / query stream descriptions and
/// replica declarations through the distributed index.
#[derive(Debug)]
pub struct StreamDefinitionDatabase {
    index: DistributedIndex,
    /// Full descriptors by channel — in KadoP the repository part is also
    /// distributed; here the payload side is small so it rides along with
    /// the index postings, and a posting a query returns is probed as it
    /// is.
    descriptors: HashMap<ChannelId, Descriptor>,
    /// `<InChannel>` declarations: each origin's replica channels, in
    /// declaration order.
    replicas: HashMap<ChannelId, Vec<ChannelId>>,
    /// Reverse entry: how many live declarations name each replica channel.
    replica_coordinates: HashMap<ChannelId, usize>,
}

/// One published definition, by ids.
#[derive(Debug)]
struct Descriptor {
    operator: String,
    parameters: String,
    operands: Vec<ChannelId>,
}

impl StreamDefinitionDatabase {
    /// Creates a database over the given DHT.
    pub fn new(dht: ChordNetwork) -> Self {
        StreamDefinitionDatabase {
            index: DistributedIndex::new(dht),
            descriptors: HashMap::new(),
            replicas: HashMap::new(),
            replica_coordinates: HashMap::new(),
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

    /// Publishes a stream definition given in its XML form: interns its
    /// names and [`publish_channel`](Self::publish_channel)s it.
    pub fn publish(&mut self, definition: StreamDefinition) {
        let operands = definition
            .operands
            .iter()
            .map(|(peer, stream)| ChannelId::new(peer, stream))
            .collect();
        let channel = definition.channel_id();
        self.publish_channel(
            channel,
            &definition.operator,
            definition.parameters,
            operands,
        );
    }

    /// Publishes the definition of `channel`, produced by `operator` with
    /// `parameters` over `operands` (none for an alerter-produced source):
    /// stores the descriptor and posts its index terms into the DHT.
    pub fn publish_channel(
        &mut self,
        channel: ChannelId,
        operator: &str,
        parameters: String,
        operands: Vec<ChannelId>,
    ) {
        let descriptor = Descriptor {
            operator: operator.to_string(),
            parameters,
            operands,
        };
        for term in Self::index_terms(channel, &descriptor) {
            self.index.insert(term, channel);
        }
        self.descriptors.insert(channel, descriptor);
    }

    /// Retracts a published stream definition: removes the descriptor, its
    /// index postings and any replica declarations for it (subscription
    /// teardown).  Returns `true` when the definition existed.
    pub fn retract(&mut self, channel: ChannelId) -> bool {
        let Some(descriptor) = self.descriptors.remove(&channel) else {
            return false;
        };
        for term in Self::index_terms(channel, &descriptor) {
            self.index.remove(term, channel);
        }
        for replica in self.replicas.remove(&channel).unwrap_or_default() {
            self.forget_coordinate(replica);
        }
        true
    }

    /// Drops one declaration's share of its reverse entry.
    fn forget_coordinate(&mut self, replica: ChannelId) {
        let count = self
            .replica_coordinates
            .get_mut(&replica)
            .expect("every live declaration is counted");
        *count -= 1;
        if *count == 0 {
            self.replica_coordinates.remove(&replica);
        }
    }

    /// Publishes a replica declaration.  One peer provides at most one
    /// replica of a given channel: a re-declaration from the same replica
    /// peer for the same original *replaces* the previous entry, so
    /// duplicate declarations can never accumulate.
    pub fn publish_replica(&mut self, declaration: ReplicaDeclaration) {
        let ReplicaDeclaration { origin, replica } = declaration;
        self.retract_replica(origin, replica.peer);
        *self.replica_coordinates.entry(replica).or_default() += 1;
        self.replicas.entry(origin).or_default().push(replica);
    }

    /// Retracts the replica of `origin` declared by `replica_peer` (replica
    /// teardown: the last local subscriber of the replicated channel
    /// unsubscribed).  Returns `true` when a declaration existed.
    pub fn retract_replica(&mut self, origin: ChannelId, replica_peer: Name) -> bool {
        let Some(declared) = self.replicas.get_mut(&origin) else {
            return false;
        };
        let Some(at) = declared.iter().position(|r| r.peer == replica_peer) else {
            return false;
        };
        let removed = declared.remove(at);
        if declared.is_empty() {
            self.replicas.remove(&origin);
        }
        self.forget_coordinate(removed);
        true
    }

    /// The replica channels known for a given original channel, in
    /// declaration order.
    pub fn replicas_of(&self, origin: ChannelId) -> &[ChannelId] {
        self.replicas.get(&origin).map_or(&[], Vec::as_slice)
    }

    /// True when a definition is published under `channel`.
    pub fn contains(&self, channel: ChannelId) -> bool {
        self.descriptors.contains_key(&channel)
    }

    /// Resolves a channel reference to its canonical identity.  Users
    /// address a published channel by the name and manager their
    /// subscription declared (`#alertQoS@p`), but the canonical identity
    /// names the peer placement chose to *emit* the stream — so an exact
    /// match wins, a unique definition carrying the same stream name
    /// resolves the reference, and anything else (unknown or ambiguous) is
    /// returned unchanged.
    pub fn canonical_identity(&self, channel: ChannelId) -> ChannelId {
        // A live replica's coordinates are canonical too: the replica peer
        // really multicasts the stream under its local id, so a reference the
        // reuse rewriting pointed at a selected replica must not be rewritten
        // away to the original.
        if self.descriptors.contains_key(&channel)
            || self.replica_coordinates.contains_key(&channel)
        {
            return channel;
        }
        let mut by_name = self
            .descriptors
            .keys()
            .filter(|published| published.stream == channel.stream);
        match (by_name.next(), by_name.next()) {
            (Some(&unique), None) => unique,
            _ => channel,
        }
    }

    /// Ring keys of a descriptor's index terms: one per discovery query that
    /// can find it (see the module docs for which query reads which).  A
    /// source — a definition without operands — is found by the alerter
    /// lookup only, a derived definition by the reuse query only.
    fn index_terms(
        channel: ChannelId,
        descriptor: &Descriptor,
    ) -> impl Iterator<Item = NodeId> + '_ {
        let source = descriptor
            .operands
            .is_empty()
            .then(|| Self::alerter_term(&channel.peer, &descriptor.operator));
        let digest = hash_key(&descriptor.parameters);
        let derived = descriptor
            .operands
            .iter()
            .map(move |operand| Self::operand_term(&descriptor.operator, digest, *operand));
        source.into_iter().chain(derived)
    }

    /// The alerter lookup's term, `peer+operator=<peer>|<alerter>`.
    fn alerter_term(peer: &str, alerter: &str) -> NodeId {
        KeyHasher::new()
            .str("peer+operator=")
            .str(peer)
            .str("|")
            .str(alerter)
            .finish()
    }

    /// The reuse query's term for one operand,
    /// `operator+operand=<operator>|<digest>|<peer>|<stream>`, the digest as
    /// 16 lowercase hex digits.
    fn operand_term(operator: &str, digest: u64, operand: ChannelId) -> NodeId {
        let hex: [u8; 16] =
            std::array::from_fn(|i| b"0123456789abcdef"[(digest >> (60 - 4 * i)) as usize & 0xf]);
        KeyHasher::new()
            .str("operator+operand=")
            .str(operator)
            .str("|")
            .bytes(&hex)
            .str("|")
            .str(&operand.peer)
            .str("|")
            .str(&operand.stream)
            .finish()
    }

    /// Finds alerter-produced streams of a given kind at a peer — the query
    /// `/Stream[@PeerId = $p1][Operator/inCom]` of the paper — in publish
    /// order.  Only sources (definitions without operands) post the term it
    /// reads, so a derived stream at the same peer is never found, and its
    /// posting is never scanned.  The term is hashed from the names as
    /// given, so nothing is interned or looked up.
    pub fn find_alerter_streams(&mut self, peer: &str, alerter: &str) -> Vec<ChannelId> {
        let mut found = self.index.query(Self::alerter_term(peer, alerter));
        found.retain(|channel| self.descriptors.contains_key(channel));
        found
    }

    /// [`find_derived_channels`](Self::find_derived_channels) over operands
    /// given by name.  Each name is looked up, never interned: an operand
    /// whose name nobody interned was never published, so the query finds
    /// nothing without asking the index.
    pub fn find_derived_streams(
        &mut self,
        operator: &str,
        parameters: &str,
        operands: &[(String, String)],
    ) -> Vec<ChannelId> {
        let known = |name: &str| lookup(name).map(Name::from);
        let operands: Option<Vec<ChannelId>> = operands
            .iter()
            .map(|(peer, stream)| {
                Some(ChannelId {
                    peer: known(peer)?,
                    stream: known(stream)?,
                })
            })
            .collect();
        match operands {
            Some(operands) => self.find_derived_channels(operator, parameters, &operands),
            None => Vec::new(),
        }
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
    pub fn find_derived_channels(
        &mut self,
        operator: &str,
        parameters: &str,
        operands: &[ChannelId],
    ) -> Vec<ChannelId> {
        let digest = hash_key(parameters);
        let mut terms = operands
            .iter()
            .map(|operand| Self::operand_term(operator, digest, *operand));
        let Some(first) = terms.next() else {
            return Vec::new();
        };
        let mut found = self.index.query(first);
        for term in terms {
            if found.is_empty() {
                break;
            }
            let listed = self.index.query(term);
            found.retain(|channel| listed.contains(channel));
        }
        // Verify the exact operand set and parameters on the descriptor.
        found.retain(|channel| {
            self.descriptors.get(channel).is_some_and(|d| {
                d.operator == operator
                    && d.parameters == parameters
                    && d.operands.len() == operands.len()
                    && operands.iter().all(|o| d.operands.contains(o))
            })
        });
        found
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
    /// Providers are scored by their channels' peer ids: no name is
    /// resolved or interned.
    pub fn select_provider_where(
        &self,
        origin: ChannelId,
        proximity: impl Fn(Name) -> u64,
        eligible: impl Fn(Name) -> bool,
    ) -> ChannelId {
        let mut best = origin;
        let mut best_score = proximity(origin.peer);
        for &replica in self.replicas_of(origin) {
            let score = proximity(replica.peer);
            if score < best_score && score < u64::MAX && eligible(replica.peer) {
                best_score = score;
                best = replica;
            }
        }
        best
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
        origin: ChannelId,
        proximity: impl Fn(Name) -> u64,
        load: impl Fn(Name) -> u64,
    ) -> ChannelId {
        let mut best = origin;
        let mut best_score = proximity(origin.peer);
        let mut best_load = load(origin.peer);
        for &replica in self.replicas_of(origin) {
            let score = proximity(replica.peer);
            if score == u64::MAX {
                continue;
            }
            let closer = score < best_score;
            let lighter = score == best_score && load(replica.peer) < best_load;
            if closer || lighter {
                best_score = score;
                best_load = load(replica.peer);
                best = replica;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

    fn db() -> StreamDefinitionDatabase {
        StreamDefinitionDatabase::new(ChordNetwork::with_nodes(32, 11))
    }

    fn id(peer: &str, stream: &str) -> ChannelId {
        ChannelId::new(peer, stream)
    }

    fn replica(origin: (&str, &str), replica: (&str, &str)) -> ReplicaDeclaration {
        ReplicaDeclaration {
            origin: id(origin.0, origin.1),
            replica: id(replica.0, replica.1),
        }
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
        db.publish_replica(replica(("p1", "s1"), ("p2", "r1")));
        assert_eq!(db.find_alerter_streams("p1", "inCOM").len(), 1);
        assert!(db.retract(id("p1", "s1")));
        assert!(!db.retract(id("p1", "s1")), "second retraction is a no-op");
        assert!(!db.contains(id("p1", "s1")));
        assert!(db.find_alerter_streams("p1", "inCOM").is_empty());
        assert!(db.replicas_of(id("p1", "s1")).is_empty());
        assert!(db.is_empty());
    }

    #[test]
    fn replica_declaration_round_trip() {
        let r = replica(("p", "s"), ("p2", "s2"));
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
        assert_eq!(found, vec![id("p1", "s1")]);
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
        assert_eq!(found, vec![id("p1", "s3")]);
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
        let found = db.find_derived_streams("Filter", "x=7", &operand);
        assert_eq!(found, vec![id("hub", "f7")]);
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
        assert_eq!(found, vec![id("p1", "sj")]);
    }

    #[test]
    fn replica_selection_prefers_closer_provider() {
        let mut db = db();
        let origin = id("origin.com", "s1");
        db.publish(StreamDefinition::source("origin.com", "s1", "inCOM"));
        db.publish_replica(replica(("origin.com", "s1"), ("nearby.com", "r1")));
        let proximity = |peer: Name| if peer == "nearby.com" { 5 } else { 100 };
        assert_eq!(
            db.select_provider_where(origin, proximity, |_| true),
            id("nearby.com", "r1")
        );
        // When the original is closest, keep it.
        let proximity = |peer: Name| if peer == "origin.com" { 1 } else { 50 };
        assert_eq!(
            db.select_provider_where(origin, proximity, |_| true),
            id("origin.com", "s1")
        );
    }

    #[test]
    fn loaded_selection_breaks_proximity_ties_by_load() {
        let mut db = db();
        let origin = id("origin.com", "s1");
        db.publish(StreamDefinition::source("origin.com", "s1", "inCOM"));
        db.publish_replica(replica(("origin.com", "s1"), ("twin.com", "r1")));
        // Equal proximity everywhere: with zero load the original wins, just
        // like `select_provider_where`; under load the lighter twin takes over.
        let flat = |_: Name| 10u64;
        assert_eq!(
            db.select_provider_loaded(origin, flat, |_| 0),
            db.select_provider_where(origin, flat, |_| true)
        );
        assert_eq!(
            db.select_provider_loaded(origin, flat, |p| {
                if p == "origin.com" {
                    5_000
                } else {
                    100
                }
            }),
            id("twin.com", "r1")
        );
        // Load never overrides proximity: a busier but strictly closer
        // provider still wins.
        let near_origin = |p: Name| if p == "origin.com" { 1 } else { 50 };
        assert_eq!(
            db.select_provider_loaded(origin, near_origin, |p| {
                if p == "origin.com" {
                    9_999
                } else {
                    0
                }
            }),
            id("origin.com", "s1")
        );
        // An unavailable provider is skipped regardless of load.
        let origin_down = |p: Name| if p == "origin.com" { u64::MAX } else { 50 };
        assert_eq!(
            db.select_provider_loaded(origin, origin_down, |_| 0),
            id("twin.com", "r1")
        );
    }

    #[test]
    fn duplicate_replica_declarations_from_one_peer_collapse() {
        let mut db = db();
        db.publish(StreamDefinition::source("origin.com", "s1", "inCOM"));
        for stream in ["r1", "r2"] {
            db.publish_replica(replica(("origin.com", "s1"), ("edge.com", stream)));
        }
        let replicas = db.replicas_of(id("origin.com", "s1"));
        assert_eq!(replicas.len(), 1, "one replica per declaring peer");
        assert_eq!(
            replicas[0],
            id("edge.com", "r2"),
            "a re-declaration replaces the previous entry"
        );
    }

    #[test]
    fn retract_replica_removes_only_that_peers_declaration() {
        let mut db = db();
        db.publish(StreamDefinition::source("origin.com", "s1", "inCOM"));
        for peer in ["edge.com", "far.com"] {
            db.publish_replica(replica(("origin.com", "s1"), (peer, "r")));
        }
        let origin = id("origin.com", "s1");
        assert!(db.retract_replica(origin, "edge.com".into()));
        assert!(!db.retract_replica(origin, "edge.com".into()));
        assert_eq!(db.replicas_of(origin), [id("far.com", "r")]);
    }

    #[test]
    fn unavailable_replicas_are_never_selected() {
        let mut db = db();
        let origin = id("origin.com", "s1");
        db.publish(StreamDefinition::source("origin.com", "s1", "inCOM"));
        db.publish_replica(replica(("origin.com", "s1"), ("down.com", "r1")));
        // The replica would be closest, but it is down (proximity = MAX):
        // selection falls back to the origin.
        let proximity = |peer: Name| if peer == "down.com" { u64::MAX } else { 80 };
        assert_eq!(
            db.select_provider_where(origin, proximity, |_| true),
            id("origin.com", "s1")
        );
        // A downed *origin* yields to any reachable replica.
        db.publish_replica(replica(("origin.com", "s1"), ("alive.com", "r2")));
        let proximity = |peer: Name| match peer.as_str() {
            "origin.com" | "down.com" => u64::MAX,
            _ => 200,
        };
        assert_eq!(
            db.select_provider_where(origin, proximity, |_| true),
            id("alive.com", "r2")
        );
        // Nothing reachable: the (dead) original is the default.
        assert_eq!(
            db.select_provider_where(origin, |_| u64::MAX, |_| true),
            id("origin.com", "s1")
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
        db.publish_replica(replica(("origin.com", "s0-t4"), ("edge.com", "s1-t0")));
        assert_eq!(
            db.canonical_identity(id("edge.com", "s1-t0")),
            id("edge.com", "s1-t0"),
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
            db.canonical_identity(id("meteo.com", "alertQoS")),
            id("meteo.com", "alertQoS")
        );
        assert_eq!(
            db.canonical_identity(id("p", "alertQoS")),
            id("meteo.com", "alertQoS"),
            "a manager-qualified reference resolves to the emitting peer"
        );
        assert_eq!(
            db.canonical_identity(id("p", "nowhere")),
            id("p", "nowhere")
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
            db.canonical_identity(id("p", "alertQoS")),
            id("p", "alertQoS")
        );
    }

    #[test]
    fn terms_hash_to_the_keys_of_their_spelled_out_strings() {
        assert_eq!(
            StreamDefinitionDatabase::alerter_term("p1", "inCOM"),
            hash_key("peer+operator=p1|inCOM")
        );
        let digest = hash_key("callee=meteo.com");
        assert_eq!(
            StreamDefinitionDatabase::operand_term("Filter", digest, id("p1", "s1")),
            hash_key(&format!("operator+operand=Filter|{digest:016x}|p1|s1"))
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
