//! The KadoP-like distributed inverted index.
//!
//! KadoP indexes XML resources in a DHT: each *term* (an element name, an
//! attribute/value pair, a tag path) maps to a posting list stored at the DHT
//! node responsible for the term's hash.  The Stream Definition Database
//! builds its discovery queries out of such term lookups, so the cost of a
//! query is a handful of DHT lookups — independent of how many peers or
//! streams exist, except through the O(log n) routing hops (experiment E8).

use p2pmon_streams::ChannelId;

use crate::chord::{ChordNetwork, LookupResult, NodeId};

/// One posting: the channel identity of an indexed stream definition.
pub type Posting = ChannelId;

/// Counters describing the index's DHT usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Posting insertions performed.
    pub insert_operations: u64,
    /// Term queries performed.
    pub query_operations: u64,
    /// Posting removals performed (one per term a retraction names).
    pub remove_operations: u64,
    /// Total routing hops across all operations.
    pub total_hops: u64,
    /// DHT messages (each hop is one request/response pair, counted once).
    pub messages: u64,
    /// Postings touched: the length of every list a query returned plus
    /// every entry a removal scanned — what a lookup or a retraction costs
    /// beyond its routing hops.
    pub postings_read: u64,
}

impl IndexStats {
    /// Average hops per operation.
    pub fn avg_hops(&self) -> f64 {
        let ops = self.insert_operations + self.query_operations + self.remove_operations;
        if ops == 0 {
            0.0
        } else {
            self.total_hops as f64 / ops as f64
        }
    }
}

/// An inverted index whose posting lists are stored in the DHT.
#[derive(Debug)]
pub struct DistributedIndex {
    dht: ChordNetwork,
    stats: IndexStats,
}

impl DistributedIndex {
    /// Creates an index over the given DHT.
    pub fn new(dht: ChordNetwork) -> Self {
        DistributedIndex {
            dht,
            stats: IndexStats::default(),
        }
    }

    /// Access to the underlying DHT.
    pub fn dht_mut(&mut self) -> &mut ChordNetwork {
        &mut self.dht
    }

    /// Index usage statistics.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    fn record(&mut self, result: &LookupResult) {
        self.stats.total_hops += result.hops as u64;
        // One message per hop plus the final request to the responsible node.
        self.stats.messages += result.hops as u64 + 1;
    }

    /// Adds `posting` to the posting list of the term hashed to `term`
    /// (see [`crate::chord::KeyHasher`]).
    pub fn insert(&mut self, term: NodeId, posting: Posting) {
        let result = self.dht.put(term, posting);
        self.stats.insert_operations += 1;
        self.record(&result);
    }

    /// Returns the posting list of `term` (order of insertion, deduplicated).
    pub fn query(&mut self, term: NodeId) -> Vec<Posting> {
        let (mut values, result) = self.dht.get(term);
        self.stats.query_operations += 1;
        self.record(&result);
        if values.len() > 1 {
            let mut seen = std::collections::HashSet::with_capacity(values.len());
            values.retain(|v| seen.insert(*v));
        }
        self.stats.postings_read += values.len() as u64;
        values
    }

    /// Removes a posting from a term's list; returns `true` when it existed.
    pub fn remove(&mut self, term: NodeId, posting: Posting) -> bool {
        let (removed, scanned, result) = self.dht.remove_where(term, |v| *v == posting);
        self.stats.remove_operations += 1;
        self.record(&result);
        self.stats.postings_read += scanned as u64;
        removed > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chord::hash_key;

    fn index() -> DistributedIndex {
        DistributedIndex::new(ChordNetwork::with_nodes(64, 21))
    }

    fn id(peer: &str, stream: &str) -> Posting {
        ChannelId::new(peer, stream)
    }

    #[test]
    fn insert_and_query() {
        let mut idx = index();
        let (filter, join) = (hash_key("operator=Filter"), hash_key("operator=Join"));
        idx.insert(filter, id("p1", "s3"));
        idx.insert(filter, id("p2", "s9"));
        idx.insert(join, id("p1", "s7"));
        assert_eq!(idx.query(filter), vec![id("p1", "s3"), id("p2", "s9")]);
        assert_eq!(idx.query(join), vec![id("p1", "s7")]);
        assert!(idx.query(hash_key("operator=Union")).is_empty());
    }

    #[test]
    fn duplicate_postings_are_deduplicated_on_read() {
        let mut idx = index();
        let t = hash_key("t");
        idx.insert(t, id("p", "x"));
        idx.insert(t, id("p", "x"));
        assert_eq!(idx.query(t), vec![id("p", "x")]);
    }

    #[test]
    fn remove_posting() {
        let mut idx = index();
        let t = hash_key("t");
        idx.insert(t, id("p", "gone"));
        idx.insert(t, id("p", "stays"));
        assert!(idx.remove(t, id("p", "gone")));
        assert!(!idx.remove(t, id("p", "gone")));
        assert_eq!(idx.query(t), vec![id("p", "stays")]);
    }

    #[test]
    fn stats_count_operations_and_messages() {
        let mut idx = index();
        idx.insert(hash_key("t"), id("p", "a"));
        idx.query(hash_key("t"));
        idx.query(hash_key("u"));
        let s = idx.stats();
        assert_eq!(s.insert_operations, 1);
        assert_eq!(s.query_operations, 2);
        assert!(s.messages >= 3, "at least one message per operation");
        assert!(s.avg_hops() >= 0.0);
    }

    #[test]
    fn removals_count_as_operations_with_their_hops() {
        let mut idx = index();
        let t = hash_key("t");
        idx.insert(t, id("p", "a"));
        let before = idx.stats();
        assert!(idx.remove(t, id("p", "a")));
        assert!(!idx.remove(t, id("p", "a")), "a miss is routed too");
        let after = idx.stats();
        assert_eq!(after.remove_operations, 2);
        let hops = after.total_hops - before.total_hops;
        assert_eq!(
            after.messages - before.messages,
            hops + 2,
            "one request each"
        );
        let ops =
            (after.insert_operations + after.query_operations + after.remove_operations) as f64;
        assert_eq!(after.avg_hops(), after.total_hops as f64 / ops);
    }

    #[test]
    fn postings_read_counts_returned_lists_and_scanned_removals() {
        let mut idx = index();
        let t = hash_key("t");
        for posting in ["a", "b", "a", "c"] {
            idx.insert(t, id("p", posting));
        }
        assert_eq!(idx.stats().postings_read, 0, "inserts read nothing");
        idx.query(t);
        assert_eq!(idx.stats().postings_read, 3, "the deduplicated list");
        idx.query(hash_key("missing"));
        assert_eq!(idx.stats().postings_read, 3);
        assert!(idx.remove(t, id("p", "b")));
        assert_eq!(idx.stats().postings_read, 3 + 4, "a removal scans the list");
    }
}
