//! The RSS-feed alerter.
//!
//! "RSS Feed Alerter detects changes in an RSS feed by comparing snapshots
//! also.  With RSS, the alerts have more semantics than with arbitrary XML:
//! e.g., add, remove and modify entry."
//!
//! Items are matched across snapshots by their `<guid>` (falling back to
//! `<link>`, then `<title>`), so a re-ordering of the feed does not produce
//! spurious alerts.

use std::collections::HashMap;

use p2pmon_xmlkit::{Element, ElementBuilder};

use crate::Alerter;

/// The RSS-feed alerter for one peer, able to watch several feeds.
#[derive(Debug, Clone)]
pub struct RssAlerter {
    peer: String,
    /// Last snapshot per feed URL: item key → item element.
    snapshots: HashMap<String, HashMap<String, Element>>,
    buffer: Vec<Element>,
}

impl RssAlerter {
    /// Creates an RSS alerter running at `peer`.
    pub fn new(peer: impl Into<String>) -> Self {
        RssAlerter {
            peer: peer.into(),
            snapshots: HashMap::new(),
            buffer: Vec::new(),
        }
    }

    /// The identity key of an RSS item.
    fn item_key(item: &Element) -> Option<String> {
        item.child_text("guid")
            .or_else(|| item.child_text("link"))
            .or_else(|| item.child_text("title"))
    }

    /// Extracts the items of a feed document (rss/channel/item or a bare list
    /// of `<item>`/`<entry>` elements for Atom-ish feeds).
    fn items_of(feed: &Element) -> Vec<&Element> {
        let mut out = Vec::new();
        feed.walk(&mut |e| {
            if e.name == "item" || e.name == "entry" {
                out.push(e);
            }
        });
        out
    }

    /// Observes a new snapshot of the feed at `url`; emits add/remove/modify
    /// alerts relative to the previous snapshot.  The first snapshot of a
    /// feed produces one `add` alert per item (everything is new).
    pub fn observe_snapshot(&mut self, url: &str, feed: &Element) -> usize {
        let new_items: HashMap<String, Element> = Self::items_of(feed)
            .into_iter()
            .filter_map(|i| Self::item_key(i).map(|k| (k, i.clone())))
            .collect();
        let old_items = self.snapshots.remove(url).unwrap_or_default();
        let mut produced = 0usize;

        for (key, item) in &new_items {
            match old_items.get(key) {
                None => {
                    self.push_alert(url, "add", key, None, Some(item));
                    produced += 1;
                }
                Some(previous) if previous != item => {
                    self.push_alert(url, "modify", key, Some(previous), Some(item));
                    produced += 1;
                }
                Some(_) => {}
            }
        }
        for (key, item) in &old_items {
            if !new_items.contains_key(key) {
                self.push_alert(url, "remove", key, Some(item), None);
                produced += 1;
            }
        }
        self.snapshots.insert(url.to_string(), new_items);
        produced
    }

    fn push_alert(
        &mut self,
        url: &str,
        kind: &str,
        key: &str,
        before: Option<&Element>,
        after: Option<&Element>,
    ) {
        let mut alert = ElementBuilder::new("rssAlert")
            .attr("feed", url)
            .attr("kind", kind)
            .attr("entry", key)
            .attr("peer", self.peer.clone())
            .build();
        if let Some(b) = before {
            let mut w = Element::new("before");
            w.push_element(b.clone());
            alert.push_element(w);
        }
        if let Some(a) = after {
            let mut w = Element::new("after");
            w.push_element(a.clone());
            alert.push_element(w);
        }
        self.buffer.push(alert);
    }
}

impl Alerter for RssAlerter {
    fn drain(&mut self) -> Vec<Element> {
        std::mem::take(&mut self.buffer)
    }

    fn pending(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

    fn feed(items: &[(&str, &str)]) -> Element {
        let body: String = items
            .iter()
            .map(|(guid, title)| format!("<item><guid>{guid}</guid><title>{title}</title></item>"))
            .collect();
        parse(&format!("<rss><channel>{body}</channel></rss>")).unwrap()
    }

    #[test]
    fn first_snapshot_adds_everything() {
        let mut a = RssAlerter::new("portal");
        let produced = a.observe_snapshot("http://feed", &feed(&[("1", "hello"), ("2", "world")]));
        assert_eq!(produced, 2);
        let alerts = a.drain();
        assert_eq!(alerts.len(), 2);
        assert!(alerts.iter().all(|x| x.attr("kind") == Some("add")));
    }

    #[test]
    fn add_modify_remove_are_detected() {
        let mut a = RssAlerter::new("portal");
        a.observe_snapshot("f", &feed(&[("1", "old title"), ("2", "stays")]));
        assert_eq!(a.drain().len(), 2);
        let produced = a.observe_snapshot("f", &feed(&[("1", "new title"), ("3", "brand new")]));
        assert_eq!(produced, 3);
        let alerts = a.drain();
        let kind_of = |guid: &str| {
            alerts
                .iter()
                .find(|x| x.attr("entry") == Some(guid))
                .and_then(|x| x.attr("kind"))
                .map(str::to_string)
        };
        assert_eq!(kind_of("1").as_deref(), Some("modify"));
        assert_eq!(kind_of("3").as_deref(), Some("add"));
        assert_eq!(kind_of("2").as_deref(), Some("remove"));
        assert_eq!(alerts.len(), 3);
    }

    #[test]
    fn unchanged_feed_produces_nothing() {
        let mut a = RssAlerter::new("portal");
        let f = feed(&[("1", "x")]);
        a.observe_snapshot("f", &f);
        a.drain();
        assert_eq!(a.observe_snapshot("f", &f), 0);
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn reordering_is_not_a_change() {
        let mut a = RssAlerter::new("portal");
        a.observe_snapshot("f", &feed(&[("1", "a"), ("2", "b")]));
        a.drain();
        assert_eq!(a.observe_snapshot("f", &feed(&[("2", "b"), ("1", "a")])), 0);
    }

    #[test]
    fn separate_feeds_have_separate_snapshots() {
        let mut a = RssAlerter::new("portal");
        a.observe_snapshot("f1", &feed(&[("1", "x")]));
        let produced = a.observe_snapshot("f2", &feed(&[("1", "x")]));
        assert_eq!(produced, 1, "same guid in a different feed is still new");
    }

    #[test]
    fn alert_carries_before_and_after() {
        let mut a = RssAlerter::new("portal");
        a.observe_snapshot("f", &feed(&[("1", "before")]));
        a.drain();
        a.observe_snapshot("f", &feed(&[("1", "after")]));
        let alerts = a.drain();
        let alert = &alerts[0];
        assert!(alert.child("before").unwrap().text().contains("before"));
        assert!(alert.child("after").unwrap().text().contains("after"));
    }

    #[test]
    fn items_without_any_key_are_ignored() {
        let mut a = RssAlerter::new("portal");
        let f =
            parse("<rss><channel><item><description>no key</description></item></channel></rss>")
                .unwrap();
        assert_eq!(a.observe_snapshot("f", &f), 0);
    }

    #[test]
    fn atom_entries_are_supported() {
        let mut a = RssAlerter::new("portal");
        let f = parse("<feed><entry><link>http://x</link><title>t</title></entry></feed>").unwrap();
        assert_eq!(a.observe_snapshot("f", &f), 1);
    }
}
