//! Per-stream statistics.
//!
//! The Stream Definition Database of Section 5 stores, along with each stream
//! description, "statistical information maintained for the stream such as
//! the average volume of data in the stream for some period of time".  Here
//! that information is measured where the stream flows: the monitor's
//! [`RateTable`] records every item of every channel, and load-aware
//! provider selection and the `monStats` stream read it.
//!
//! There is one rate notion: an **EWMA** of the data rate
//! (`ewma_bytes_per_second`, `bytes_per_second_at(now)`) with an
//! exponential time decay.  It tracks the recent rate and decays toward zero when a stream
//! falls silent, which is what provider selection's load tie-break wants to
//! see; a lifetime average would go stale under churn.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use p2pmon_xmlkit::{Name, Symbol};

use crate::channel::ChannelId;

/// Time constant (ms) of the EWMA rate estimate: an interval `dt` folds in
/// with weight `1 - exp(-dt / TAU)`, and an idle stream's rate halves roughly
/// every `TAU * ln 2` ≈ 0.7 s of logical time.
const RATE_TAU_MS: f64 = 1000.0;

/// Running statistics for one stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// Total bytes observed.
    pub bytes: u64,
    /// Timestamp of the most recent item (logical ms).
    pub last_timestamp: Option<u64>,
    /// True once an interval has folded into the EWMA; until then only one
    /// logical instant was seen and every rate reads 0.
    folded: bool,
    /// EWMA of the data rate (bytes/sec) over folded intervals.
    ewma_bytes_per_sec: f64,
    /// Bytes recorded at `last_timestamp` but not yet folded into the EWMA
    /// (dispatch delivers bursts at one logical instant; the burst folds in
    /// when the clock next advances).
    bucket_bytes: u64,
}

impl StreamStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        StreamStats::default()
    }

    /// Records one item.
    pub fn record(&mut self, timestamp: u64, bytes: usize) {
        self.bytes += bytes as u64;
        let Some(last) = self.last_timestamp else {
            self.last_timestamp = Some(timestamp);
            self.bucket_bytes = bytes as u64;
            return;
        };
        if timestamp <= last {
            // Same logical instant (or out-of-order delivery): grow the burst.
            self.bucket_bytes += bytes as u64;
            return;
        }
        self.fold_bucket(timestamp - last);
        self.last_timestamp = Some(timestamp);
        self.bucket_bytes = bytes as u64;
    }

    /// Folds the pending burst into the EWMA as one interval of `dt` ms.
    fn fold_bucket(&mut self, dt: u64) {
        let dt = dt as f64;
        let inst_bytes = self.bucket_bytes as f64 * 1000.0 / dt;
        if !self.folded {
            // Bootstrap: the first completed interval defines the estimate.
            self.folded = true;
            self.ewma_bytes_per_sec = inst_bytes;
        } else {
            let alpha = 1.0 - (-dt / RATE_TAU_MS).exp();
            self.ewma_bytes_per_sec += alpha * (inst_bytes - self.ewma_bytes_per_sec);
        }
    }

    /// Recent data rate (bytes/sec): EWMA over completed intervals, 0 while
    /// fewer than two instants were seen.
    pub fn ewma_bytes_per_second(&self) -> f64 {
        self.ewma_bytes_per_sec
    }

    /// The EWMA data rate decayed to `now`: a stream that has been silent for
    /// a few time constants reads as (nearly) zero.
    pub fn bytes_per_second_at(&self, now: u64) -> f64 {
        self.ewma_bytes_per_sec * self.decay_to(now)
    }

    fn decay_to(&self, now: u64) -> f64 {
        match self.last_timestamp {
            Some(last) if now > last => (-((now - last) as f64) / RATE_TAU_MS).exp(),
            _ => 1.0,
        }
    }
}

/// Measured per-channel rates for one monitor: every multicast emission,
/// alerter feed and sink delivery lands here, keyed by the canonical
/// [`ChannelId`].  Provider selection reads it ([`RateTable::peer_load_at`])
/// and so does the `monStats` stream — this is the paper's "statistical
/// information maintained for the stream" made live.
#[derive(Debug, Default)]
pub struct RateTable {
    entries: HashMap<ChannelId, StreamStats>,
    /// Each producing peer's observed channels, in first-observation order,
    /// keyed by the peer's interned symbol: what [`RateTable::peer_load_at`]
    /// reads instead of the whole table.
    by_peer: HashMap<Symbol, Vec<ChannelId>>,
}

impl RateTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RateTable::default()
    }

    /// Records one item of `bytes` bytes on `channel` at logical `timestamp`.
    pub fn observe(&mut self, channel: ChannelId, timestamp: u64, bytes: usize) {
        let stats = match self.entries.entry(channel) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(first) => {
                self.by_peer
                    .entry(channel.peer.symbol())
                    .or_default()
                    .push(channel);
                first.insert(StreamStats::default())
            }
        };
        stats.record(timestamp, bytes);
    }

    /// The load `peer` carries at `now`: the recent data rate (bytes/sec,
    /// EWMA decayed to `now`) of every channel it produces, each rounded to
    /// a whole number, summed — and how many channels that read.  A peer
    /// with no observed channel carries 0.  Keyed by the interned id, so a
    /// provider selection reading one load per candidate resolves no name.
    pub fn peer_load_at(&self, peer: Name, now: u64) -> (u64, usize) {
        let channels = self
            .by_peer
            .get(&peer.symbol())
            .map_or(&[][..], Vec::as_slice);
        let load = channels
            .iter()
            .map(|channel| self.entries[channel].bytes_per_second_at(now).round() as u64)
            .sum();
        (load, channels.len())
    }

    /// Number of channels with recorded traffic.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no traffic has been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over every observed channel and its statistics.
    pub fn channels(&self) -> impl Iterator<Item = (&ChannelId, &StreamStats)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = StreamStats::new();
        assert_eq!(s.ewma_bytes_per_second(), 0.0);
        assert_eq!(s.bytes_per_second_at(5000), 0.0);
    }

    #[test]
    fn ewma_tracks_recent_rate_and_decays_when_idle() {
        let mut s = StreamStats::new();
        // 10 items of 100 bytes a second for 3 seconds.
        for i in 0..30u64 {
            s.record(i * 100, 100);
        }
        let busy = s.ewma_bytes_per_second();
        assert!(
            (busy - 1000.0).abs() < 100.0,
            "steady 1000 B/s stream should read ≈1000 B/s, got {busy}"
        );
        // Idle for 5 time constants: the decayed estimate collapses.
        let now = 2900 + 5000;
        assert!(s.bytes_per_second_at(now) < 10.0);
    }

    #[test]
    fn ewma_rises_after_a_rate_change() {
        let mut s = StreamStats::new();
        // 100 B/s for 5 s, then 2000 B/s for 5 s.
        for i in 0..5u64 {
            s.record(i * 1000, 100);
        }
        for i in 0..100u64 {
            s.record(5000 + i * 50, 100);
        }
        assert!(
            s.ewma_bytes_per_second() > 1500.0,
            "EWMA must converge to the new rate, got {}",
            s.ewma_bytes_per_second()
        );
    }

    #[test]
    fn bursts_at_one_instant_fold_when_the_clock_advances() {
        let mut s = StreamStats::new();
        // 5 items at t=0 (one dispatch round), 5 more at t=1000.
        for _ in 0..5 {
            s.record(0, 10);
        }
        // One instant seen: nothing has folded, so every recent rate is 0.
        assert_eq!(s.ewma_bytes_per_second(), 0.0);
        assert_eq!(s.bytes_per_second_at(0), 0.0);
        for _ in 0..5 {
            s.record(1000, 10);
        }
        // One folded interval: 5 items of 10 bytes / 1 s.
        assert!((s.ewma_bytes_per_second() - 50.0).abs() < 1e-9);
        assert_eq!(s.bytes, 100);
    }

    #[test]
    fn rate_table_tracks_channels_independently() {
        let mut t = RateTable::new();
        let hot = ChannelId::new("hub.net", "hot");
        let cold = ChannelId::new("hub.net", "cold");
        for i in 0..20u64 {
            t.observe(hot, i * 50, 200);
        }
        t.observe(cold, 0, 10);
        t.observe(cold, 900, 10);
        let now = 1000;
        let rate = |channel: ChannelId| {
            t.channels()
                .find(|(c, _)| **c == channel)
                .map(|(_, s)| s.bytes_per_second_at(now))
        };
        assert!(rate(hot).unwrap() > rate(cold).unwrap());
        assert_eq!(rate(ChannelId::new("x", "y")), None);
        assert_eq!(t.len(), 2);
    }

    mod peer_load {
        use super::*;
        use proptest::prelude::*;

        const PEERS: [&str; 3] = ["load-a.net", "load-b.net", "load-c.net"];
        const STREAMS: [&str; 3] = ["s0", "s1", "s2"];

        /// The load as every submit used to compute it: one pass over the
        /// whole table, each channel's rounded rate added to its peer.
        fn whole_table_sum(table: &RateTable, peer: &str, now: u64) -> u64 {
            table
                .channels()
                .filter(|(channel, _)| channel.peer == peer)
                .map(|(_, stats)| stats.bytes_per_second_at(now).round() as u64)
                .sum()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn per_peer_load_equals_the_whole_table_sum(
                observations in proptest::collection::vec(
                    (0usize..3, 0usize..3, 0u64..400, 1usize..2_000),
                    0..40,
                ),
                probes in proptest::collection::vec(0u64..6_000, 1..4),
            ) {
                let mut table = RateTable::new();
                let mut clock = 0u64;
                for (peer, stream, dt, bytes) in observations {
                    clock += dt;
                    table.observe(ChannelId::new(PEERS[peer], STREAMS[stream]), clock, bytes);
                    for ahead in &probes {
                        let now = clock + ahead;
                        for peer in PEERS {
                            let (load, read) = table.peer_load_at(peer.into(), now);
                            prop_assert_eq!(load, whole_table_sum(&table, peer, now));
                            prop_assert_eq!(
                                read,
                                table.channels().filter(|(c, _)| c.peer == peer).count()
                            );
                        }
                    }
                }
                prop_assert_eq!(table.peer_load_at("load-never-observed.net".into(), clock), (0, 0));
            }
        }
    }
}
