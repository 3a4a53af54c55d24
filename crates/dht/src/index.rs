//! The KadoP-like distributed inverted index.
//!
//! KadoP indexes XML resources in a DHT: each *term* (an element name, an
//! attribute/value pair, a tag path) maps to a posting list stored at the DHT
//! node responsible for the term's hash.  The Stream Definition Database
//! builds its discovery queries out of such term lookups, so the cost of a
//! query is a handful of DHT lookups — independent of how many peers or
//! streams exist, except through the O(log n) routing hops (experiment E8).

use crate::chord::{ChordNetwork, LookupResult};

/// One posting: the identifier of an indexed resource.
pub type Posting = String;

/// Counters describing the index's DHT usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Posting insertions performed.
    pub insert_operations: u64,
    /// Term queries performed.
    pub query_operations: u64,
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
        let ops = self.insert_operations + self.query_operations;
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

    /// Adds `posting` to the posting list of `term`.
    pub fn insert(&mut self, term: &str, posting: &str) {
        let result = self.dht.put(term, posting.to_string());
        self.stats.insert_operations += 1;
        self.record(&result);
    }

    /// Returns the posting list of `term` (order of insertion, deduplicated).
    pub fn query(&mut self, term: &str) -> Vec<Posting> {
        let (mut values, result) = self.dht.get(term);
        self.stats.query_operations += 1;
        self.record(&result);
        if values.len() > 1 {
            let mut seen = std::collections::HashSet::with_capacity(values.len());
            values.retain(|v| seen.insert(v.clone()));
        }
        self.stats.postings_read += values.len() as u64;
        values
    }

    /// Removes a posting from a term's list; returns `true` when it existed.
    pub fn remove(&mut self, term: &str, posting: &str) -> bool {
        let (removed, scanned) = self.dht.remove_where(term, |v| v == posting);
        self.stats.postings_read += scanned as u64;
        removed > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> DistributedIndex {
        DistributedIndex::new(ChordNetwork::with_nodes(64, 21))
    }

    #[test]
    fn insert_and_query() {
        let mut idx = index();
        idx.insert("operator=Filter", "p1|s3");
        idx.insert("operator=Filter", "p2|s9");
        idx.insert("operator=Join", "p1|s7");
        assert_eq!(idx.query("operator=Filter"), vec!["p1|s3", "p2|s9"]);
        assert_eq!(idx.query("operator=Join"), vec!["p1|s7"]);
        assert!(idx.query("operator=Union").is_empty());
    }

    #[test]
    fn duplicate_postings_are_deduplicated_on_read() {
        let mut idx = index();
        idx.insert("t", "x");
        idx.insert("t", "x");
        assert_eq!(idx.query("t"), vec!["x"]);
    }

    #[test]
    fn remove_posting() {
        let mut idx = index();
        idx.insert("t", "gone");
        idx.insert("t", "stays");
        assert!(idx.remove("t", "gone"));
        assert!(!idx.remove("t", "gone"));
        assert_eq!(idx.query("t"), vec!["stays"]);
    }

    #[test]
    fn stats_count_operations_and_messages() {
        let mut idx = index();
        idx.insert("t", "a");
        idx.query("t");
        idx.query("u");
        let s = idx.stats();
        assert_eq!(s.insert_operations, 1);
        assert_eq!(s.query_operations, 2);
        assert!(s.messages >= 3, "at least one message per operation");
        assert!(s.avg_hops() >= 0.0);
    }

    #[test]
    fn postings_read_counts_returned_lists_and_scanned_removals() {
        let mut idx = index();
        for posting in ["a", "b", "a", "c"] {
            idx.insert("t", posting);
        }
        assert_eq!(idx.stats().postings_read, 0, "inserts read nothing");
        idx.query("t");
        assert_eq!(idx.stats().postings_read, 3, "the deduplicated list");
        idx.query("missing");
        assert_eq!(idx.stats().postings_read, 3);
        assert!(idx.remove("t", "b"));
        assert_eq!(idx.stats().postings_read, 3 + 4, "a removal scans the list");
    }
}
