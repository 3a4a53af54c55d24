//! The Duplicate-removal operator.
//!
//! "Duplicate-removal detects similar trees based on a duplicate criteria."
//! The criterion is the whole tree: two items are duplicates when their trees
//! serialize identically.  The seen-set can be bounded (keep only the most
//! recent `N` trees) so that long-running monitoring tasks do not grow
//! without bound — the same garbage-collection concern as the Join history.

use std::collections::HashSet;
use std::sync::Arc;

use p2pmon_xmlkit::Element;

use crate::item::StreamItem;

/// The Duplicate-removal operator.
#[derive(Debug, Clone, Default)]
pub struct Dedup {
    seen: HashSet<String>,
    /// FIFO of keys for bounded memory.
    order: Vec<String>,
    max_keys: Option<usize>,
    /// Items dropped as duplicates so far.
    pub duplicates_dropped: u64,
}

impl Dedup {
    /// Creates a duplicate-removal operator with an unbounded seen-set.
    pub fn new() -> Self {
        Dedup::default()
    }

    /// Bounds the seen-set to the most recent `max_keys` keys.
    pub fn with_max_keys(mut self, max_keys: usize) -> Self {
        self.max_keys = Some(max_keys.max(1));
        self
    }

    /// Number of distinct keys currently remembered.
    pub fn remembered(&self) -> usize {
        self.seen.len()
    }

    /// Delivers one item: returns it unless an identical tree was seen.
    pub fn on_item(&mut self, item: &StreamItem) -> Vec<Arc<Element>> {
        let key = item.data.to_xml();
        if self.seen.contains(&key) {
            self.duplicates_dropped += 1;
            return Vec::new();
        }
        self.seen.insert(key.clone());
        self.order.push(key);
        if let Some(max) = self.max_keys {
            while self.order.len() > max {
                let oldest = self.order.remove(0);
                self.seen.remove(&oldest);
            }
        }
        vec![item.data.clone()]
    }

    /// Approximate number of bytes held in the seen-set.
    pub fn state_size(&self) -> usize {
        self.seen.iter().map(String::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

    fn item(xml: &str) -> StreamItem {
        StreamItem::new(0, 0, parse(xml).unwrap())
    }

    #[test]
    fn whole_tree_deduplication() {
        let mut d = Dedup::new();
        assert_eq!(d.on_item(&item("<a x=\"1\"/>")).len(), 1);
        assert_eq!(d.on_item(&item("<a x=\"1\"/>")).len(), 0);
        assert_eq!(d.on_item(&item("<a x=\"2\"/>")).len(), 1);
        assert_eq!(d.duplicates_dropped, 1);
    }

    #[test]
    fn bounded_memory_forgets_old_keys() {
        let mut d = Dedup::new().with_max_keys(2);
        d.on_item(&item(r#"<e k="1"/>"#));
        d.on_item(&item(r#"<e k="2"/>"#));
        d.on_item(&item(r#"<e k="3"/>"#));
        assert_eq!(d.remembered(), 2);
        // Key 1 was evicted, so it is delivered again.
        assert_eq!(d.on_item(&item(r#"<e k="1"/>"#)).len(), 1);
        assert!(d.state_size() > 0);
    }
}
