//! Model-based test of the network simulator.
//!
//! [`Network`] hashes every per-message table on the peer's interned id and
//! sorts only where a listing is read.  The model below is the simulator it
//! replaced — every table an ordered map keyed by `PeerId`, whose `Ord`
//! compares the names — kept here as the oracle: after every step of a random
//! `add_peer` / `send` (alone, or of one shared payload to many peers) /
//! `fail_peer` / `recover_peer` / `partition` / `heal` /
//! `set_drop_probability` / `advance_clock` / `step` / `run_until_idle` /
//! `take_inbox` / `take_woken_inboxes` sequence both must return the same
//! ids, list the same unread inboxes, hold the same clock and fault state,
//! and account the same traffic in every `NetworkStats` field; drained
//! inboxes must hold the same message ids in the same order.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use p2pmon_net::latency::LatencySampler;
use p2pmon_net::{
    DropBreakdown, DropCause, LatencyModel, LinkStats, Network, NetworkConfig, NetworkStats,
    PeerId, PeerTraffic,
};
use p2pmon_streams::ChannelId;
use p2pmon_xmlkit::Element;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The vocabulary: five peers that may be registered (the first two are from
/// the start, the others by an `AddPeer` step) and one that never is.
const NAMES: [&str; 6] = [
    "a.com",
    "b.com",
    "hub.net",
    "c.org",
    "zeta.io",
    "ghost.example",
];
const GHOST: usize = 5;

struct Flight {
    id: u64,
    from: PeerId,
    to: PeerId,
    bytes: usize,
    channel: bool,
    deliver_at: u64,
}

#[derive(Default)]
struct OrderedInbox {
    queue: VecDeque<u64>,
    listed: bool,
}

/// The ordered-map simulator, as `Network` implemented it before the hashed
/// tables (payloads reduced to their message id and size).
struct OrderedNetwork {
    peers: BTreeSet<PeerId>,
    down: BTreeSet<PeerId>,
    inboxes: BTreeMap<PeerId, OrderedInbox>,
    woken: Vec<PeerId>,
    in_flight: BTreeMap<(u64, u64), Flight>,
    clock: u64,
    next_message_id: u64,
    latency: LatencySampler,
    drop_probability: f64,
    partition: BTreeMap<PeerId, usize>,
    rng: StdRng,
    // The ledger, in ordered maps.
    total_messages: u64,
    total_bytes: u64,
    channel_messages: u64,
    control_messages: u64,
    dropped_messages: u64,
    dropped_by_cause: DropBreakdown,
    dropped_per_peer: BTreeMap<PeerId, DropBreakdown>,
    per_link: BTreeMap<(PeerId, PeerId), LinkStats>,
}

fn charge(breakdown: &mut DropBreakdown, cause: DropCause) {
    match cause {
        DropCause::UnknownPeer => breakdown.unknown_peer += 1,
        DropCause::PeerDown => breakdown.peer_down += 1,
        DropCause::Partition => breakdown.partition += 1,
        DropCause::Random => breakdown.random += 1,
    }
}

impl OrderedNetwork {
    fn new(config: NetworkConfig) -> Self {
        OrderedNetwork {
            peers: BTreeSet::new(),
            down: BTreeSet::new(),
            inboxes: BTreeMap::new(),
            woken: Vec::new(),
            in_flight: BTreeMap::new(),
            clock: 0,
            next_message_id: 0,
            latency: LatencySampler::new(config.latency),
            drop_probability: config.drop_probability.clamp(0.0, 1.0),
            partition: BTreeMap::new(),
            rng: StdRng::seed_from_u64(config.seed),
            total_messages: 0,
            total_bytes: 0,
            channel_messages: 0,
            control_messages: 0,
            dropped_messages: 0,
            dropped_by_cause: DropBreakdown::default(),
            dropped_per_peer: BTreeMap::new(),
            per_link: BTreeMap::new(),
        }
    }

    fn add_peer(&mut self, peer: &str) {
        let peer = PeerId::from(peer);
        self.inboxes.entry(peer).or_default();
        self.peers.insert(peer);
    }

    fn fail_peer(&mut self, peer: &str) {
        let peer = PeerId::from(peer);
        if self.peers.contains(&peer) {
            self.down.insert(peer);
        }
    }

    fn partition(&mut self, groups: &[Vec<&str>]) {
        self.partition.clear();
        for (index, group) in groups.iter().enumerate() {
            for peer in group {
                self.partition.insert(PeerId::from(*peer), index);
            }
        }
    }

    fn blocked(&self, from: PeerId, to: PeerId) -> bool {
        if self.partition.is_empty() || from == to {
            return false;
        }
        self.partition.get(&from) != self.partition.get(&to)
    }

    fn record_drop(&mut self, from: PeerId, to: PeerId, cause: DropCause) {
        self.dropped_messages += 1;
        charge(&mut self.dropped_by_cause, cause);
        self.per_link.entry((from, to)).or_default().dropped += 1;
        charge(self.dropped_per_peer.entry(from).or_default(), cause);
        if from != to {
            charge(self.dropped_per_peer.entry(to).or_default(), cause);
        }
    }

    fn send(&mut self, from: &str, to: &str, channel: bool, bytes: usize) -> Option<u64> {
        let (from, to) = (PeerId::from(from), PeerId::from(to));
        let cause = if !self.peers.contains(&from) || !self.peers.contains(&to) {
            Some(DropCause::UnknownPeer)
        } else if self.down.contains(&from) || self.down.contains(&to) {
            Some(DropCause::PeerDown)
        } else if self.blocked(from, to) {
            Some(DropCause::Partition)
        } else if self.drop_probability > 0.0 && self.rng.gen::<f64>() < self.drop_probability {
            Some(DropCause::Random)
        } else {
            None
        };
        if let Some(cause) = cause {
            self.record_drop(from, to, cause);
            return None;
        }
        let latency = if from == to {
            0
        } else {
            self.latency.sample(&from, &to)
        };
        let id = self.next_message_id;
        self.next_message_id += 1;
        let deliver_at = self.clock + latency;
        self.in_flight.insert(
            (deliver_at, id),
            Flight {
                id,
                from,
                to,
                bytes,
                channel,
                deliver_at,
            },
        );
        Some(id)
    }

    fn step(&mut self) -> Option<PeerId> {
        let (&key, _) = self.in_flight.iter().next()?;
        let flight = self.in_flight.remove(&key).expect("key just observed");
        self.clock = self.clock.max(flight.deliver_at);
        if self.down.contains(&flight.to) {
            self.record_drop(flight.from, flight.to, DropCause::PeerDown);
            return Some(flight.to);
        }
        if self.blocked(flight.from, flight.to) {
            self.record_drop(flight.from, flight.to, DropCause::Partition);
            return Some(flight.to);
        }
        self.total_messages += 1;
        self.total_bytes += flight.bytes as u64;
        if flight.channel {
            self.channel_messages += 1;
        } else {
            self.control_messages += 1;
        }
        let link = self.per_link.entry((flight.from, flight.to)).or_default();
        link.messages += 1;
        link.bytes += flight.bytes as u64;
        let inbox = self.inboxes.entry(flight.to).or_default();
        if !inbox.listed {
            inbox.listed = true;
            self.woken.push(flight.to);
        }
        inbox.queue.push_back(flight.id);
        Some(flight.to)
    }

    fn run_until_idle(&mut self) -> usize {
        let mut delivered = 0;
        while self.step().is_some() {
            delivered += 1;
        }
        delivered
    }

    fn take_inbox(&mut self, peer: &str) -> Vec<u64> {
        self.inboxes
            .get_mut(&PeerId::from(peer))
            .map(|inbox| inbox.queue.drain(..).collect())
            .unwrap_or_default()
    }

    fn take_woken_inboxes(&mut self) -> Vec<(PeerId, Vec<u64>)> {
        let mut drained = Vec::new();
        for peer in std::mem::take(&mut self.woken) {
            let inbox = self.inboxes.get_mut(&peer).expect("listed peers are known");
            inbox.listed = false;
            if !inbox.queue.is_empty() {
                drained.push((peer, inbox.queue.drain(..).collect()));
            }
        }
        drained
    }

    fn per_peer(&self) -> Vec<(PeerId, PeerTraffic)> {
        let mut out: BTreeMap<PeerId, PeerTraffic> = BTreeMap::new();
        for (&(from, to), link) in &self.per_link {
            let sender = out.entry(from).or_default();
            sender.messages_out += link.messages;
            sender.bytes_out += link.bytes;
            sender.dropped_out += link.dropped;
            let receiver = out.entry(to).or_default();
            receiver.messages_in += link.messages;
            receiver.bytes_in += link.bytes;
            receiver.dropped_in += link.dropped;
        }
        for (&peer, &drops) in &self.dropped_per_peer {
            out.entry(peer).or_default().attributed_drops = drops;
        }
        out.into_iter().collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    AddPeer(usize),
    Send {
        from: usize,
        to: usize,
        channel: bool,
        size: usize,
    },
    Multicast {
        from: usize,
        to: Vec<usize>,
        size: usize,
    },
    Fail(usize),
    Recover(usize),
    /// One group index per name; `2` leaves the peer unlisted.
    Partition(Vec<usize>),
    Heal,
    SetDropProbability(f64),
    Step,
    AdvanceClock(u64),
    RunUntilIdle,
    TakeInbox(usize),
    TakeWoken,
}

fn op() -> BoxedStrategy<Op> {
    (
        0usize..20,
        0usize..NAMES.len(),
        0usize..NAMES.len(),
        0usize..40,
        proptest::collection::vec(0usize..3, NAMES.len()),
    )
        .prop_map(|(kind, a, b, n, groups)| match kind {
            0 => Op::AddPeer(a.min(GHOST - 1)),
            1 => Op::Fail(a),
            2 => Op::Recover(a),
            3 => Op::Partition(groups),
            4 => Op::Heal,
            5 => Op::SetDropProbability([0.0, 0.0, 0.3, 1.0][n % 4]),
            6 | 7 => Op::Step,
            8 => Op::AdvanceClock(n as u64),
            12 => Op::RunUntilIdle,
            9 => Op::TakeInbox(a),
            10 => Op::TakeWoken,
            11 => Op::Multicast {
                from: a,
                to: groups.iter().map(|g| (g + b) % NAMES.len()).collect(),
                size: n,
            },
            // Sends are weighted up so queues, links and woken lists grow;
            // `a == b` is a self-send, index `GHOST` an unknown endpoint.
            _ => Op::Send {
                from: a,
                to: b,
                channel: n % 2 == 0,
                size: n,
            },
        })
}

fn latency_model(kind: usize, seed: u64) -> LatencyModel {
    match kind {
        0 => LatencyModel::Constant(10),
        1 => LatencyModel::Uniform {
            min: 1,
            max: 30,
            seed,
        },
        _ => LatencyModel::PerLink {
            links: [
                ((NAMES[0].into(), NAMES[1].into()), 3),
                ((NAMES[1].into(), NAMES[0].into()), 40),
                ((NAMES[2].into(), NAMES[4].into()), 0),
            ]
            .into_iter()
            .collect(),
            default: 15,
        },
    }
}

fn payload(size: usize) -> Arc<Element> {
    Arc::new(Element::text_element("m", "x".repeat(size)))
}

fn ids(messages: &[p2pmon_net::Message]) -> Vec<u64> {
    messages.iter().map(|m| m.id).collect()
}

fn sorted<K: Ord + Copy, V: Copy>(table: impl IntoIterator<Item = (K, V)>) -> Vec<(K, V)> {
    let mut rows: Vec<(K, V)> = table.into_iter().collect();
    rows.sort_by_key(|&(key, _)| key);
    rows
}

/// Every observable of the two simulators that does not consume state.
fn assert_same_state(network: &Network, model: &OrderedNetwork, after: &Op) {
    assert_eq!(network.now(), model.clock, "clock after {after:?}");
    assert_eq!(network.is_partitioned(), !model.partition.is_empty());
    assert_eq!(
        network.peers(),
        model.peers.iter().map(|p| p.as_str()).collect::<Vec<_>>(),
        "peers() lists in name order"
    );
    assert_eq!(
        network.unread_peers(),
        model
            .inboxes
            .iter()
            .filter(|(_, inbox)| !inbox.queue.is_empty())
            .map(|(peer, _)| peer.as_str())
            .collect::<Vec<_>>(),
        "unread inboxes, in name order, after {after:?}"
    );
    for name in NAMES {
        let id = PeerId::from(name);
        assert_eq!(network.has_peer(name), model.peers.contains(&id));
        assert_eq!(network.is_down(name), model.down.contains(&id));
    }
    let stats: &NetworkStats = network.stats();
    assert_eq!(stats.total_messages, model.total_messages);
    assert_eq!(stats.total_bytes, model.total_bytes);
    assert_eq!(stats.channel_messages, model.channel_messages);
    assert_eq!(stats.control_messages, model.control_messages);
    assert_eq!(stats.dropped_messages, model.dropped_messages);
    assert_eq!(stats.dropped_by_cause, model.dropped_by_cause);
    assert_eq!(stats.dropped_by_cause.total(), stats.dropped_messages);
    assert_eq!(
        sorted(stats.per_link.iter().map(|(&k, &v)| (k, v))),
        sorted(model.per_link.iter().map(|(&k, &v)| (k, v))),
        "per-link ledger after {after:?}"
    );
    assert_eq!(
        sorted(stats.dropped_per_peer.iter().map(|(&k, &v)| (k, v))),
        sorted(model.dropped_per_peer.iter().map(|(&k, &v)| (k, v))),
        "per-peer drop attribution after {after:?}"
    );
    assert_eq!(
        stats.per_peer().into_iter().collect::<Vec<_>>(),
        model.per_peer(),
        "per_peer() rollup, in name order, after {after:?}"
    );
    for from in NAMES {
        assert_eq!(
            stats.bytes_out_of(from),
            model
                .per_link
                .iter()
                .filter(|((f, _), _)| *f == PeerId::from(from))
                .map(|(_, link)| link.bytes)
                .sum::<u64>()
        );
        for to in NAMES {
            let link = model
                .per_link
                .get(&(from.into(), to.into()))
                .copied()
                .unwrap_or_default();
            assert_eq!(stats.link(from, to), link);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hashed_network_agrees_with_the_ordered_maps(
        ops in proptest::collection::vec(op(), 1..120),
        latency_kind in 0usize..3,
        seed in 0u64..1000,
    ) {
        let config = || NetworkConfig {
            latency: latency_model(latency_kind, seed),
            drop_probability: 0.0,
            seed,
        };
        let mut network = Network::new(config());
        let mut model = OrderedNetwork::new(config());
        for name in &NAMES[..2] {
            network.add_peer(*name);
            model.add_peer(name);
        }
        // Drains through both readers at the end, so every queued id is
        // compared even when the sequence never took it.
        let drain = (0..NAMES.len()).map(Op::TakeInbox);
        let ops = ops.into_iter().chain([Op::RunUntilIdle, Op::TakeWoken]).chain(drain);
        for op in ops {
            match &op {
                Op::AddPeer(p) => {
                    network.add_peer(NAMES[*p]);
                    model.add_peer(NAMES[*p]);
                }
                Op::Send { from, to, channel, size } => {
                    let channel = channel.then(|| ChannelId::new(NAMES[*from], "s"));
                    prop_assert_eq!(
                        network.send(NAMES[*from], NAMES[*to], channel, payload(*size)),
                        model.send(NAMES[*from], NAMES[*to], channel.is_some(), payload(*size).byte_size()),
                        "send after {:?}", op
                    );
                }
                Op::Multicast { from, to, size } => {
                    let payload = payload(*size);
                    for p in to {
                        prop_assert_eq!(
                            network.send(NAMES[*from], NAMES[*p], None, Arc::clone(&payload)),
                            model.send(NAMES[*from], NAMES[*p], false, payload.byte_size()),
                            "shared send after {:?}", op
                        );
                    }
                }
                Op::Fail(p) => {
                    network.fail_peer(NAMES[*p]);
                    model.fail_peer(NAMES[*p]);
                }
                Op::Recover(p) => {
                    network.recover_peer(NAMES[*p]);
                    model.down.remove(&PeerId::from(NAMES[*p]));
                }
                Op::Partition(assignment) => {
                    let groups: Vec<Vec<&str>> = (0..2)
                        .map(|g| {
                            NAMES
                                .iter()
                                .zip(assignment)
                                .filter(|(_, group)| **group == g)
                                .map(|(name, _)| *name)
                                .collect()
                        })
                        .collect();
                    network.partition(&groups);
                    model.partition(&groups);
                }
                Op::Heal => {
                    network.heal();
                    model.partition.clear();
                }
                Op::SetDropProbability(p) => {
                    network.set_drop_probability(*p);
                    model.drop_probability = *p;
                }
                Op::Step => prop_assert_eq!(network.step(), model.step()),
                Op::AdvanceClock(delta) => {
                    network.advance_clock(*delta);
                    model.clock += delta;
                }
                Op::RunUntilIdle => {
                    prop_assert_eq!(network.run_until_idle(), model.run_until_idle());
                }
                Op::TakeInbox(p) => prop_assert_eq!(
                    ids(&network.take_inbox(NAMES[*p])),
                    model.take_inbox(NAMES[*p]),
                    "inbox order of {}", NAMES[*p]
                ),
                Op::TakeWoken => {
                    let woken: Vec<(PeerId, Vec<u64>)> = network
                        .take_woken_inboxes()
                        .iter()
                        .map(|(peer, inbox)| (*peer, ids(inbox)))
                        .collect();
                    prop_assert_eq!(woken, model.take_woken_inboxes(), "woken order");
                }
            }
            assert_same_state(&network, &model, &op);
        }
        prop_assert_eq!(network.step(), None, "nothing is left in flight");
    }
}
