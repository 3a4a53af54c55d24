//! Replica re-publication (Section 5's `<InChannel>` declarations).
//!
//! The first subscriber of a published channel on a peer away from the
//! stream's origin re-publishes the stream there: it becomes the replica's
//! **forwarder**, its canonical output channel is declared as the replica's
//! local stream, and later consumers attach to the closest copy.  Further
//! same-peer subscribers share the declaration; there is no cap on copies.
//! The forwarding role never moves: a departing forwarder stays deployed
//! until its replica's other subscribers have left.  [`Replicas`] holds the
//! declarations and answers which origin a channel carries; the `Monitor`
//! methods here run their lifecycle.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};

use p2pmon_dht::ReplicaDeclaration;
use p2pmon_net::PeerId;
use p2pmon_streams::ChannelId;

use crate::monitor::{identity, Monitor};
use crate::placement::TaskKind;
use crate::profile::PhaseClock;
use crate::reuse::ReplicaStats;

/// One live replica: the origin channel re-published by one peer, backed by
/// the forwarding task.
#[derive(Debug)]
struct ReplicaEntry {
    /// The local subscriber tasks of the replicated channel hosted on the
    /// replica peer (the forwarder plus any later same-peer consumers), as
    /// `(subscription, task)`.  The declaration retracts when the last one
    /// goes; membership makes releases exact — a removed task that never
    /// took a replica reference (e.g. a subscriber deployed before the
    /// producer published, later re-pointed) cannot shrink the count.
    subscribers: BTreeSet<(usize, usize)>,
    /// The forwarding task, as `(subscription, task)`: the first subscriber,
    /// and a member of `subscribers` until the entry retracts.
    forwarder: (usize, usize),
    /// The replica's local channel: the forwarder's canonical output channel.
    channel: ChannelId,
}

/// Every live replica declaration and the re-publication counters.
#[derive(Debug, Default)]
pub(crate) struct Replicas {
    /// Origin channel → replica peer → entry.
    refs: HashMap<ChannelId, HashMap<PeerId, ReplicaEntry>>,
    /// A live replica's local channel → its origin.  Definition references
    /// and published operand lists always name the origin ("derived streams
    /// are described with respect to the original streams, not the
    /// replicas" — Section 5), so every key that might be a replica channel
    /// resolves through [`Replicas::origin`] first.
    channels: HashMap<ChannelId, ChannelId>,
    /// Created/retracted and consumer-routing counters
    /// (`origin_messages_saved` is read off the network).
    totals: ReplicaStats,
}

impl Replicas {
    /// The origin behind a subscribed channel: the channel itself unless it
    /// is a live replica's.
    pub(crate) fn origin(&self, channel: &ChannelId) -> ChannelId {
        self.channels.get(channel).copied().unwrap_or(*channel)
    }

    /// True when `channel` is a live replica's local channel.
    pub(crate) fn is_replica(&self, channel: &ChannelId) -> bool {
        self.channels.contains_key(channel)
    }

    /// Whether a sweep keeps the channel subscriber `task` on `peer` of
    /// `origin`: `None` when the origin has no live replica (there is no
    /// reference to release), `Some(true)` when `task` forwards `peer`'s
    /// replica and another of its subscribers `outlives` the sweep, so the
    /// forwarder stays until the replica drains.
    pub(crate) fn pins(
        &self,
        origin: &ChannelId,
        peer: PeerId,
        task: (usize, usize),
        outlives: impl Fn((usize, usize)) -> bool,
    ) -> Option<bool> {
        let replicas = self.refs.get(origin)?;
        Some(replicas.get(&peer).is_some_and(|entry| {
            entry.forwarder == task
                && entry
                    .subscribers
                    .iter()
                    .any(|&other| other != task && outlives(other))
        }))
    }

    /// Every live replica as `(origin identity, replica peer)`, sorted.
    pub(crate) fn live(&self) -> Vec<((String, String), String)> {
        let mut live: Vec<_> = self
            .refs
            .iter()
            .flat_map(|(origin, replicas)| {
                replicas
                    .keys()
                    .map(|peer| (identity(origin), peer.to_string()))
            })
            .collect();
        live.sort();
        live
    }

    /// The entry of `peer`'s replica of `origin`, if it declared one.
    fn entry_mut(&mut self, origin: &ChannelId, peer: PeerId) -> Option<&mut ReplicaEntry> {
        self.refs.get_mut(origin)?.get_mut(&peer)
    }

    /// Records a new replica of `origin` on `peer`, forwarded by `task`
    /// through its canonical output `channel`.
    fn declare(
        &mut self,
        origin: ChannelId,
        peer: PeerId,
        task: (usize, usize),
        channel: ChannelId,
    ) {
        let entry = ReplicaEntry {
            subscribers: BTreeSet::from([task]),
            forwarder: task,
            channel,
        };
        let replicas = self.refs.entry(origin).or_default();
        replicas.insert(peer, entry);
        self.channels.insert(channel, origin);
        self.totals.replicas_created += 1;
    }

    /// Removes the live replica of `origin` declared on `peer` and returns
    /// its local channel.
    fn retract(&mut self, origin: &ChannelId, peer: PeerId) -> ChannelId {
        let replicas = self.refs.get_mut(origin).expect("a live replica");
        let entry = replicas.remove(&peer).expect("a live replica");
        if replicas.is_empty() {
            self.refs.remove(origin);
        }
        self.channels.remove(&entry.channel);
        self.totals.replicas_retracted += 1;
        entry.channel
    }

    /// True when the replica declared at `replica_peer` for `origin` still
    /// pulls items toward the origin: its forwarder's channel subscription
    /// (`subscribed` reads a task's current channel), followed transitively
    /// through other live replicas of the same origin, terminates at the
    /// origin channel.  A forwarder still pointed at a retracted channel (an
    /// orphan not yet re-attached) — or any cycle — fails the walk, which is
    /// what makes orphan re-attachment safe.  The walk is bounded by the
    /// origin's replica count: a chain longer than that revisits a peer, and
    /// a chain that revisits one is a cycle.  It walks ids: no name is
    /// resolved.
    fn chain_reaches_origin(
        &self,
        origin: &ChannelId,
        replica_peer: PeerId,
        subscribed: impl Fn((usize, usize)) -> Option<ChannelId>,
    ) -> bool {
        let Some(replicas) = self.refs.get(origin) else {
            return false;
        };
        let mut peer = replica_peer;
        for _ in 0..replicas.len() {
            let Some(channel) = replicas.get(&peer).and_then(|e| subscribed(e.forwarder)) else {
                return false;
            };
            if channel == *origin {
                return true;
            }
            match self.channels.get(&channel) {
                Some(o) if o == origin => peer = channel.peer,
                _ => return false,
            }
        }
        false
    }
}

impl Monitor {
    /// Notes one deployed `ChannelSource` consumer of `subscribed` on
    /// `peer`: a consumer away from the stream's origin records whether a
    /// replica or the origin served it, and the first one on its peer
    /// re-publishes the stream there, forwarded by `own_channel`.
    pub(crate) fn note_replica_consumer(
        &mut self,
        sub: usize,
        task: usize,
        subscribed: &ChannelId,
        own_channel: &ChannelId,
    ) {
        if !self.config.enable_replicas {
            return;
        }
        let origin = self.replicas.origin(subscribed);
        // The consumer's own output channel names its host.
        let peer = own_channel.peer;
        // Only a stream that actually exists can be re-published; a
        // subscriber of a not-yet-deployed channel (submit order is not a
        // contract) declares nothing.
        if origin.peer == peer || !self.stream_db.contains(origin) {
            return;
        }
        if self.replicas.is_replica(subscribed) {
            self.replicas.totals.consumers_via_replica += 1;
        } else {
            self.replicas.totals.consumers_via_origin += 1;
        }
        if let Some(entry) = self.replicas.entry_mut(&origin, peer) {
            entry.subscribers.insert((sub, task));
            return;
        }
        self.replicas
            .declare(origin, peer, (sub, task), *own_channel);
        self.stream_db.publish_replica(ReplicaDeclaration {
            origin,
            replica: ChannelId {
                peer,
                stream: own_channel.stream,
            },
        });
    }

    /// Releases one removed `ChannelSource` consumer's replica reference.
    /// The last local subscriber retracts the peer's declaration — its
    /// entry, its DHT declaration and its reverse channel entry go — and
    /// re-attaches the replica's orphans.  A forwarder never leaves before
    /// its replica's other subscribers ([`Replicas::pins`]): when the last
    /// of another subscription leaves a retired forwarder alone, this sweeps
    /// the forwarder's subscription, whose release of the forwarder then
    /// retracts the declaration.  Returns the definition references that
    /// sweep freed, for the caller to release.
    pub(crate) fn release_replica_consumer(
        &mut self,
        origin: &ChannelId,
        peer: PeerId,
        removed: (usize, usize),
        clock: &mut PhaseClock,
    ) -> Vec<ChannelId> {
        let Some(entry) = self.replicas.entry_mut(origin, peer) else {
            return Vec::new();
        };
        // Only tasks that actually took a replica reference release one: a
        // removed subscriber that pre-dates the replica (never noted) must
        // not retract a declaration other tasks still back.
        if !entry.subscribers.remove(&removed) {
            return Vec::new();
        }
        let forwarder = entry.forwarder;
        if entry.subscribers.is_empty() {
            let old_channel = self.replicas.retract(origin, peer);
            self.stream_db.retract_replica(*origin, peer);
            self.reattach_orphaned_consumers(&old_channel, origin);
        } else if entry.subscribers.len() == 1
            && removed.0 != forwarder.0
            && self.subscriptions[forwarder.0].retired
        {
            // (A sibling of the forwarder leaves in the forwarder's sweep.)
            debug_assert!(
                entry.subscribers.contains(&forwarder),
                "a forwarder outlives its replica's subscribers"
            );
            // The sweep charges its own phases from here.
            clock.lap("core.unsubscribe.replica", 0);
            return self.sweep_retired(forwarder.0, clock);
        }
        Vec::new()
    }

    /// Re-attaches every consumer of a just-retracted replica channel to the
    /// closest surviving provider of the same origin — another peer's live
    /// replica when one is nearer, the origin otherwise — scored from the
    /// consumer's own peer (downed peers are unavailable).  A replica is
    /// only eligible while its forwarder verifiably still pulls toward the
    /// origin (the chain walk), which rules out the consumer's own dangling
    /// declaration; an orphan moved earlier in this same sweep counts once
    /// re-anchored, so re-attachment stays cycle-free — the first orphan
    /// (deterministic `(sub, task)` order) lands on the origin or an
    /// independent live replica, and later orphans may chain behind it.
    /// Eligibility is asked last (`select_provider_where`): only of a
    /// replica closer than the best so far, so an orphan walks a chain per
    /// improvement, not per replica (counted in
    /// [`ReplicaStats::chains_walked`]).
    fn reattach_orphaned_consumers(&mut self, old_channel: &ChannelId, origin: &ChannelId) {
        let mut consumers = self.routing.detach_all(old_channel);
        consumers.sort_unstable();
        let chains_walked = Cell::new(0u64);
        for (sub, task, port) in consumers {
            let consumer_peer = self.subscriptions[sub].channels[task].peer;
            let target = {
                let proximity = |p: PeerId| {
                    if self.network.is_down(p) {
                        u64::MAX
                    } else if consumer_peer == p {
                        0
                    } else {
                        self.network.expected_latency(consumer_peer, p)
                    }
                };
                let subscribed =
                    |(s, t): (usize, usize)| match &self.subscriptions[s].placed.tasks[t].kind {
                        TaskKind::ChannelSource { channel, .. } => Some(*channel),
                        _ => None,
                    };
                let eligible = |p: PeerId| {
                    chains_walked.set(chains_walked.get() + 1);
                    self.replicas.chain_reaches_origin(origin, p, subscribed)
                };
                self.stream_db
                    .select_provider_where(*origin, proximity, eligible)
            };
            if let TaskKind::ChannelSource { channel, .. } =
                &mut self.subscriptions[sub].placed.tasks[task].kind
            {
                *channel = target;
            }
            self.routing.attach(target, sub, task, port);
        }
        self.replicas.totals.chains_walked += chains_walked.get();
    }

    /// Replica re-publication effectiveness: declarations created and
    /// retracted, remote consumers served by a replica vs the origin, and
    /// the origin-peer messages replica forwarders carried instead
    /// (`NetworkStats::replica_forwarded_messages`).
    pub fn replica_stats(&self) -> ReplicaStats {
        let mut totals = self.replicas.totals;
        totals.origin_messages_saved = self.network.stats().replica_forwarded_messages;
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The origin and two replicas of it: at `a.org`, forwarded by task
    /// `(1, 0)`, and at `b.org`, forwarded by task `(2, 0)`.
    fn two_replicas() -> (Replicas, [ChannelId; 3]) {
        let origin = ChannelId::new("hub.net", "s0-t2");
        let (a, b) = (
            ChannelId::new("a.org", "s1-t0"),
            ChannelId::new("b.org", "s2-t0"),
        );
        let mut replicas = Replicas::default();
        replicas.declare(origin, a.peer, (1, 0), a);
        replicas.declare(origin, b.peer, (2, 0), b);
        (replicas, [origin, a, b])
    }

    #[test]
    fn origin_resolves_a_replica_channel_and_passes_any_other_through() {
        let (mut replicas, [origin, a, b]) = two_replicas();
        let unrelated = ChannelId::new("c.org", "s3-t0");
        for (channel, resolved) in [
            (a, origin),
            (b, origin),
            (origin, origin),
            (unrelated, unrelated),
        ] {
            assert_eq!(replicas.origin(&channel), resolved, "{channel}");
        }
        assert_eq!(replicas.retract(&origin, a.peer), a);
        assert_eq!(replicas.origin(&a), a, "a retracted copy resolves no more");
    }

    #[test]
    fn a_two_replica_cycle_does_not_reach_the_origin() {
        let (replicas, [origin, a, b]) = two_replicas();
        // b.org rides a.org's copy; a.org pulls from the origin, then from
        // b.org's copy — a cycle the walk must stop in rather than loop.
        for (a_pulls_from, reaches) in [(origin, true), (b, false)] {
            let subscribed = |forwarder: (usize, usize)| {
                Some(if forwarder == (1, 0) { a_pulls_from } else { a })
            };
            for peer in [a.peer, b.peer] {
                assert_eq!(
                    replicas.chain_reaches_origin(&origin, peer, subscribed),
                    reaches
                );
            }
        }
    }
}
