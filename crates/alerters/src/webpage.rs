//! The Web-page alerter.
//!
//! "A WebPage Alerter detects changes in XML/XHTML pages by comparing their
//! snapshots.  The alert may provide (if desired) the delta between two
//! pages.  (This alerter uses an auxiliary Web crawler for the surveillance
//! of collections of Web pages.)"  Here a `changed` alert always carries
//! the delta.
//!
//! The crawler of the reproduction is the caller: whatever fetches (or, in
//! the benches, synthesises) page snapshots feeds them to
//! [`WebPageAlerter::observe_snapshot`].

use std::collections::HashMap;

use p2pmon_xmlkit::{diff_elements, DiffOp, Element, ElementBuilder};

use crate::Alerter;

/// The Web-page alerter for one peer.
#[derive(Debug, Clone)]
pub struct WebPageAlerter {
    peer: String,
    snapshots: HashMap<String, Element>,
    buffer: Vec<Element>,
}

impl WebPageAlerter {
    /// Creates a Web-page alerter running at `peer`.
    pub fn new(peer: impl Into<String>) -> Self {
        WebPageAlerter {
            peer: peer.into(),
            snapshots: HashMap::new(),
            buffer: Vec::new(),
        }
    }

    /// Observes a new snapshot of the page at `url`.  The first snapshot
    /// produces a `new` alert; later ones produce a `changed` alert, with
    /// the structural delta between the two versions, when the content
    /// differs.  Returns `true` when an alert was produced.
    pub fn observe_snapshot(&mut self, url: &str, page: &Element) -> bool {
        match self.snapshots.get(url) {
            None => {
                self.snapshots.insert(url.to_string(), page.clone());
                self.buffer.push(
                    ElementBuilder::new("pageAlert")
                        .attr("url", url)
                        .attr("kind", "new")
                        .attr("peer", self.peer.clone())
                        .build(),
                );
                true
            }
            Some(previous) if previous == page => false,
            Some(previous) => {
                let delta = diff_elements(previous, page);
                let mut alert = ElementBuilder::new("pageAlert")
                    .attr("url", url)
                    .attr("kind", "changed")
                    .attr("peer", self.peer.clone())
                    .attr("changes", delta.len())
                    .build();
                alert.push_element(Self::delta_element(&delta));
                self.buffer.push(alert);
                self.snapshots.insert(url.to_string(), page.clone());
                true
            }
        }
    }

    fn delta_element(delta: &[DiffOp]) -> Element {
        let mut out = Element::new("delta");
        for op in delta {
            let mut change = Element::new("change");
            change.set_attr("kind", op.kind());
            match op {
                DiffOp::Added {
                    parent_path,
                    element,
                } => {
                    change.set_attr("path", parent_path.clone());
                    change.push_element(element.clone());
                }
                DiffOp::Removed {
                    parent_path,
                    element,
                } => {
                    change.set_attr("path", parent_path.clone());
                    change.push_element(element.clone());
                }
                DiffOp::Modified { path, after, .. } => {
                    change.set_attr("path", path.clone());
                    change.push_element(after.clone());
                }
                DiffOp::TextChanged {
                    path,
                    before,
                    after,
                } => {
                    change.set_attr("path", path.clone());
                    change.set_attr("before", before.clone());
                    change.set_attr("after", after.clone());
                }
            }
            out.push_element(change);
        }
        out
    }
}

impl Alerter for WebPageAlerter {
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

    #[test]
    fn first_snapshot_is_new_then_changes_are_detected() {
        let mut a = WebPageAlerter::new("crawler");
        let v1 = parse("<html><body><h1>P2P Monitor</h1><p>v1</p></body></html>").unwrap();
        let v2 = parse("<html><body><h1>P2P Monitor</h1><p>v2</p></body></html>").unwrap();
        assert!(a.observe_snapshot("http://site", &v1));
        assert!(
            !a.observe_snapshot("http://site", &v1),
            "no change, no alert"
        );
        assert!(a.observe_snapshot("http://site", &v2));
        let alerts = a.drain();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].attr("kind"), Some("new"));
        assert_eq!(alerts[1].attr("kind"), Some("changed"));
        assert!(alerts.iter().all(|x| x.attr("url") == Some("http://site")));
        let delta = alerts[1]
            .child("delta")
            .expect("a change carries its delta");
        assert_eq!(delta.child("change").unwrap().attr("kind"), Some("text"));
        assert_eq!(alerts[1].attr("changes"), Some("1"));
    }

    #[test]
    fn multiple_pages_are_tracked_independently() {
        let mut a = WebPageAlerter::new("crawler");
        a.observe_snapshot("u1", &parse("<p>x</p>").unwrap());
        a.observe_snapshot("u2", &parse("<p>x</p>").unwrap());
        let watched: Vec<_> = a
            .drain()
            .iter()
            .map(|x| x.attr("url").map(str::to_string))
            .collect();
        assert_eq!(watched, [Some("u1".to_string()), Some("u2".to_string())]);
        assert!(a.observe_snapshot("u1", &parse("<p>y</p>").unwrap()));
        assert!(!a.observe_snapshot("u2", &parse("<p>x</p>").unwrap()));
        let alerts = a.drain();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].attr("url"), Some("u1"));
        assert_eq!(alerts[0].attr("kind"), Some("changed"));
    }

    #[test]
    fn structural_additions_are_reported() {
        let mut a = WebPageAlerter::new("crawler");
        a.observe_snapshot("u", &parse("<div><item>1</item></div>").unwrap());
        a.drain();
        a.observe_snapshot(
            "u",
            &parse("<div><item>1</item><item>2</item></div>").unwrap(),
        );
        let alerts = a.drain();
        let delta = alerts[0].child("delta").unwrap();
        assert_eq!(delta.child("change").unwrap().attr("kind"), Some("add"));
    }
}
