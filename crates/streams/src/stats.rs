//! Per-stream statistics.
//!
//! The Stream Definition Database of Section 5 stores, along with each stream
//! description, "statistical information maintained for the stream such as
//! the average volume of data in the stream for some period of time".  The
//! optimizer uses these statistics to decide where to place operators and
//! which replica of a stream to subscribe to.
//!
//! Two rate notions coexist:
//!
//! * **Lifetime averages** (`items_per_second`, `bytes_per_second`) over the
//!   total *observed* time.  Observed time is tracked per observer, so
//!   merging statistics from concurrent replicas of the same stream averages
//!   their rates instead of summing them.
//! * **EWMA rates** (`ewma_items_per_second`, `*_at(now)`) that track the
//!   recent rate with an exponential time decay — lifetime averages go stale
//!   under churn, while the EWMA decays toward zero when a stream falls
//!   silent, which is what replica retraction and placement want to see.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use p2pmon_xmlkit::{Element, ElementBuilder, Name, Symbol};

use crate::channel::ChannelId;

/// Time constant (ms) of the EWMA rate estimate: an interval `dt` folds in
/// with weight `1 - exp(-dt / TAU)`, and an idle stream's rate halves roughly
/// every `TAU * ln 2` ≈ 0.7 s of logical time.
const RATE_TAU_MS: f64 = 1000.0;

/// Running statistics for one stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// Total items observed.
    pub items: u64,
    /// Total bytes observed.
    pub bytes: u64,
    /// Timestamp of the first item (logical ms).
    pub first_timestamp: Option<u64>,
    /// Timestamp of the most recent item (logical ms).
    pub last_timestamp: Option<u64>,
    /// Milliseconds of observation covered by this recorder (summed across
    /// observers on merge, so overlapping windows do not inflate rates).
    observed_ms: u64,
    /// EWMA of the arrival rate (items/sec) over folded intervals.
    ewma_items_per_sec: f64,
    /// EWMA of the data rate (bytes/sec) over folded intervals.
    ewma_bytes_per_sec: f64,
    /// Items recorded at `last_timestamp` but not yet folded into the EWMA
    /// (dispatch delivers bursts at one logical instant; the burst folds in
    /// when the clock next advances).
    bucket_items: u64,
    /// Bytes pending alongside `bucket_items`.
    bucket_bytes: u64,
}

impl StreamStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        StreamStats::default()
    }

    /// Records one item.
    pub fn record(&mut self, timestamp: u64, bytes: usize) {
        self.items += 1;
        self.bytes += bytes as u64;
        let Some(last) = self.last_timestamp else {
            self.first_timestamp = Some(timestamp);
            self.last_timestamp = Some(timestamp);
            self.bucket_items = 1;
            self.bucket_bytes = bytes as u64;
            return;
        };
        if timestamp <= last {
            // Same logical instant (or out-of-order delivery): grow the burst.
            self.bucket_items += 1;
            self.bucket_bytes += bytes as u64;
            return;
        }
        let dt = timestamp - last;
        self.fold_bucket(dt);
        self.observed_ms += dt;
        self.last_timestamp = Some(timestamp);
        self.bucket_items = 1;
        self.bucket_bytes = bytes as u64;
    }

    /// Folds the pending burst into the EWMA as one interval of `dt` ms.
    fn fold_bucket(&mut self, dt: u64) {
        let dt = dt as f64;
        let inst_items = self.bucket_items as f64 * 1000.0 / dt;
        let inst_bytes = self.bucket_bytes as f64 * 1000.0 / dt;
        if self.observed_ms == 0 {
            // Bootstrap: the first completed interval defines the estimate.
            self.ewma_items_per_sec = inst_items;
            self.ewma_bytes_per_sec = inst_bytes;
        } else {
            let alpha = 1.0 - (-dt / RATE_TAU_MS).exp();
            self.ewma_items_per_sec += alpha * (inst_items - self.ewma_items_per_sec);
            self.ewma_bytes_per_sec += alpha * (inst_bytes - self.ewma_bytes_per_sec);
        }
    }

    /// Observed duration in milliseconds (0 when fewer than two items).
    pub fn duration_ms(&self) -> u64 {
        match (self.first_timestamp, self.last_timestamp) {
            (Some(a), Some(b)) if b > a => b - a,
            _ => 0,
        }
    }

    /// Milliseconds of observation time backing the lifetime rates.  Equal to
    /// `duration_ms` for a single recorder; the *sum* of the parts after a
    /// merge.
    pub fn observed_ms(&self) -> u64 {
        self.observed_ms
    }

    /// Average item rate in items per second over the observed time.
    pub fn items_per_second(&self) -> f64 {
        let d = if self.observed_ms > 0 {
            self.observed_ms
        } else {
            self.duration_ms()
        };
        if d == 0 {
            0.0
        } else {
            self.items as f64 * 1000.0 / d as f64
        }
    }

    /// Average data volume in bytes per second.
    pub fn bytes_per_second(&self) -> f64 {
        let d = if self.observed_ms > 0 {
            self.observed_ms
        } else {
            self.duration_ms()
        };
        if d == 0 {
            0.0
        } else {
            self.bytes as f64 * 1000.0 / d as f64
        }
    }

    /// Recent item rate (items/sec): EWMA over completed intervals, falling
    /// back to the lifetime average while fewer than two instants were seen.
    pub fn ewma_items_per_second(&self) -> f64 {
        if self.observed_ms > 0 {
            self.ewma_items_per_sec
        } else {
            self.items_per_second()
        }
    }

    /// Recent data rate (bytes/sec), EWMA; see [`Self::ewma_items_per_second`].
    pub fn ewma_bytes_per_second(&self) -> f64 {
        if self.observed_ms > 0 {
            self.ewma_bytes_per_sec
        } else {
            self.bytes_per_second()
        }
    }

    /// The EWMA item rate decayed to `now`: a stream that has been silent for
    /// a few time constants reads as (nearly) zero.
    pub fn items_per_second_at(&self, now: u64) -> f64 {
        self.ewma_items_per_second() * self.decay_to(now)
    }

    /// The EWMA data rate decayed to `now`; see [`Self::items_per_second_at`].
    pub fn bytes_per_second_at(&self, now: u64) -> f64 {
        self.ewma_bytes_per_second() * self.decay_to(now)
    }

    fn decay_to(&self, now: u64) -> f64 {
        match self.last_timestamp {
            Some(last) if now > last => (-((now - last) as f64) / RATE_TAU_MS).exp(),
            _ => 1.0,
        }
    }

    /// Average item size in bytes.
    pub fn avg_item_bytes(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.bytes as f64 / self.items as f64
        }
    }

    /// Merges another statistics record into this one (used when a stream is
    /// re-published by a replica peer).
    ///
    /// Volumes add; the reported window is the union of the two windows; the
    /// observation time is the *sum* of both observers' covered time.  Two
    /// concurrent replicas that each saw the same 1 item/s stream therefore
    /// merge to 1 item/s (2× the items over 2× the observer time), where the
    /// old min/max-window denominator would have doubled the rate.
    pub fn merge(&mut self, other: &StreamStats) {
        // Weight the EWMA by observation time so the longer-lived recorder
        // dominates; a never-folded side contributes nothing.
        let (a, b) = (self.observed_ms, other.observed_ms);
        if a + b > 0 {
            let w = |r: f64, ms: u64| r * ms as f64;
            self.ewma_items_per_sec =
                (w(self.ewma_items_per_sec, a) + w(other.ewma_items_per_sec, b)) / (a + b) as f64;
            self.ewma_bytes_per_sec =
                (w(self.ewma_bytes_per_sec, a) + w(other.ewma_bytes_per_sec, b)) / (a + b) as f64;
        }
        self.items += other.items;
        self.bytes += other.bytes;
        self.observed_ms += other.observed_ms;
        self.first_timestamp = match (self.first_timestamp, other.first_timestamp) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        // The merged recorder keeps its own pending burst; the other side's
        // burst is already counted in the volume totals.
        self.last_timestamp = match (self.last_timestamp, other.last_timestamp) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Renders the `<Stats>` element embedded in stream descriptions.
    pub fn to_element(&self) -> Element {
        ElementBuilder::new("Stats")
            .attr("items", self.items)
            .attr("bytes", self.bytes)
            .attr("observedMs", self.observed_ms)
            .attr("avgItemBytes", format!("{:.1}", self.avg_item_bytes()))
            .attr("itemsPerSecond", format!("{:.3}", self.items_per_second()))
            .attr("bytesPerSecond", format!("{:.3}", self.bytes_per_second()))
            .attr(
                "ewmaBytesPerSecond",
                format!("{:.3}", self.ewma_bytes_per_second()),
            )
            .build()
    }

    /// Parses a `<Stats>` element back (volumes, observation time and the
    /// published rates; timestamps are not published).
    pub fn from_element(element: &Element) -> StreamStats {
        fn num<T: std::str::FromStr>(element: &Element, name: &str) -> Option<T> {
            element.attr(name).and_then(|v| v.parse().ok())
        }
        StreamStats {
            items: num(element, "items").unwrap_or(0),
            bytes: num(element, "bytes").unwrap_or(0),
            observed_ms: num(element, "observedMs").unwrap_or(0),
            ewma_items_per_sec: num(element, "itemsPerSecond").unwrap_or(0.0),
            ewma_bytes_per_sec: num(element, "ewmaBytesPerSecond")
                .or_else(|| num(element, "bytesPerSecond"))
                .unwrap_or(0.0),
            ..StreamStats::default()
        }
    }
}

/// Measured per-channel rates for one monitor: every multicast emission,
/// alerter feed and sink delivery lands here, keyed by the canonical
/// [`ChannelId`].  Placement and provider selection read it — this is the
/// paper's "statistical information maintained for the stream" made live.
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

    /// The statistics recorded for a channel, if any traffic was seen.
    pub fn stats(&self, channel: &ChannelId) -> Option<&StreamStats> {
        self.entries.get(channel)
    }

    /// Recent data rate of a channel (bytes/sec, EWMA decayed to `now`), or
    /// `None` when the channel has never been observed.
    pub fn bytes_per_second(&self, channel: &ChannelId, now: u64) -> Option<f64> {
        self.entries
            .get(channel)
            .map(|s| s.bytes_per_second_at(now))
    }

    /// Recent item rate of a channel (items/sec, EWMA decayed to `now`).
    pub fn items_per_second(&self, channel: &ChannelId, now: u64) -> Option<f64> {
        self.entries
            .get(channel)
            .map(|s| s.items_per_second_at(now))
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
    fn record_and_rates() {
        let mut s = StreamStats::new();
        s.record(1000, 100);
        s.record(2000, 300);
        s.record(3000, 200);
        assert_eq!(s.items, 3);
        assert_eq!(s.bytes, 600);
        assert_eq!(s.duration_ms(), 2000);
        assert_eq!(s.observed_ms(), 2000);
        assert!((s.items_per_second() - 1.5).abs() < 1e-9);
        assert!((s.bytes_per_second() - 300.0).abs() < 1e-9);
        assert!((s.avg_item_bytes() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = StreamStats::new();
        assert_eq!(s.items_per_second(), 0.0);
        assert_eq!(s.avg_item_bytes(), 0.0);
        assert_eq!(s.duration_ms(), 0);
        assert_eq!(s.ewma_items_per_second(), 0.0);
        assert_eq!(s.items_per_second_at(5000), 0.0);
    }

    #[test]
    fn merge_combines_windows() {
        let mut a = StreamStats::new();
        a.record(1000, 10);
        let mut b = StreamStats::new();
        b.record(500, 20);
        b.record(3000, 30);
        a.merge(&b);
        assert_eq!(a.items, 3);
        assert_eq!(a.bytes, 60);
        assert_eq!(a.first_timestamp, Some(500));
        assert_eq!(a.last_timestamp, Some(3000));
        // a covered no time on its own; the merged observation time is b's.
        assert_eq!(a.observed_ms(), 2500);
        assert!((a.items_per_second() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn merge_of_concurrent_replicas_does_not_inflate_rates() {
        // Two replicas of the same 10 items/s stream, observed over the SAME
        // 1-second window.  The union-window denominator used to report
        // 20 items over 1 s = 20 items/s; observer-time accounting reports
        // 20 items over 2 observer-seconds = the true 10 items/s.
        let mut a = StreamStats::new();
        let mut b = StreamStats::new();
        for i in 0..=10u64 {
            a.record(i * 100, 50);
            b.record(i * 100, 50);
        }
        assert!((a.items_per_second() - 11.0).abs() < 1e-9);
        a.merge(&b);
        assert_eq!(a.items, 22);
        assert_eq!(a.observed_ms(), 2000);
        assert!(
            (a.items_per_second() - 11.0).abs() < 1e-9,
            "merged rate must match the per-replica rate, got {}",
            a.items_per_second()
        );
        assert!((a.bytes_per_second() - 550.0).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity_for_rates() {
        let mut a = StreamStats::new();
        a.record(0, 100);
        a.record(1000, 100);
        let before = a.items_per_second();
        a.merge(&StreamStats::new());
        assert_eq!(a.items_per_second(), before);
        assert_eq!(a.observed_ms(), 1000);
    }

    #[test]
    fn ewma_tracks_recent_rate_and_decays_when_idle() {
        let mut s = StreamStats::new();
        // 10 items/s for 3 seconds.
        for i in 0..30u64 {
            s.record(i * 100, 100);
        }
        let busy = s.ewma_items_per_second();
        assert!(
            (busy - 10.0).abs() < 1.0,
            "steady 10/s stream should read ≈10/s, got {busy}"
        );
        // Idle for 5 time constants: the decayed estimate collapses while the
        // lifetime average barely moves.
        let now = 2900 + 5000;
        assert!(s.items_per_second_at(now) < 0.1);
        assert!(s.items_per_second() > 9.0);
    }

    #[test]
    fn ewma_rises_after_a_rate_change() {
        let mut s = StreamStats::new();
        // 1 item/s for 5 s, then 20 items/s for 5 s.
        for i in 0..5u64 {
            s.record(i * 1000, 100);
        }
        for i in 0..100u64 {
            s.record(5000 + i * 50, 100);
        }
        assert!(
            s.ewma_items_per_second() > 15.0,
            "EWMA must converge to the new rate, got {}",
            s.ewma_items_per_second()
        );
        // The lifetime average still remembers the slow era.
        assert!(s.items_per_second() < 11.0);
    }

    #[test]
    fn bursts_at_one_instant_fold_when_the_clock_advances() {
        let mut s = StreamStats::new();
        // 5 items at t=0 (one dispatch round), 5 more at t=1000.
        for _ in 0..5 {
            s.record(0, 10);
        }
        for _ in 0..5 {
            s.record(1000, 10);
        }
        // One folded interval: 5 items / 1 s.
        assert!((s.ewma_items_per_second() - 5.0).abs() < 1e-9);
        assert_eq!(s.items, 10);
    }

    #[test]
    fn xml_round_trip_of_volumes_and_rates() {
        let mut s = StreamStats::new();
        s.record(0, 128);
        s.record(1000, 128);
        let el = s.to_element();
        let back = StreamStats::from_element(&el);
        assert_eq!(back.items, 2);
        assert_eq!(back.bytes, 256);
        assert_eq!(back.observed_ms(), 1000);
        assert!((back.items_per_second() - 2.0).abs() < 1e-9);
        assert!(back.ewma_bytes_per_second() > 0.0);
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
        let hot_rate = t.bytes_per_second(&hot, now).unwrap();
        let cold_rate = t.bytes_per_second(&cold, now).unwrap();
        assert!(hot_rate > cold_rate);
        assert_eq!(t.bytes_per_second(&ChannelId::new("x", "y"), now), None);
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
