//! Publishers / sinks: how results reach the user.
//!
//! "Publisher is an operator in charge of publishing streams generated by
//! stream processors, under different forms: by emails, in XML files
//! (ordinary XML documents, XHTML Web pages or RSS feeds) or as channels."
//!
//! The channel case is handled by the Monitor (the result stream is
//! multicast to the channel's subscribers and registered in the Stream
//! Definition Database); the other publishers are simulated delivery sinks
//! that collect results and can render the documents the paper describes.
//!
//! A sink keeps the `Arc<Element>` the dispatch plane delivered: one result
//! tree is shared by every sink of a reused stream and by the published
//! channel's history, and delivery copies no bytes.

use std::mem;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use p2pmon_p2pml::ByClause;
use p2pmon_xmlkit::{Element, ElementBuilder};

/// The kind of sink a subscription publishes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkKind {
    /// Published as a channel with the given name.
    Channel(String),
    /// E-mailed to an address (one message per result, batched per drain).
    Email(String),
    /// Appended to an XML / XHTML document at the given path.
    File(String),
    /// Published as an RSS feed at the given path.
    Rss(String),
}

impl From<&ByClause> for SinkKind {
    fn from(by: &ByClause) -> Self {
        match by {
            ByClause::Channel(name) => SinkKind::Channel(name.clone()),
            ByClause::Email(addr) => SinkKind::Email(addr.clone()),
            ByClause::File(path) => SinkKind::File(path.clone()),
            ByClause::Rss(path) => SinkKind::Rss(path.clone()),
        }
    }
}

/// A collecting sink.
#[derive(Debug)]
pub struct Sink {
    kind: SinkKind,
    /// Delivered results, shared with the plane.  Written through
    /// `Mutex::get_mut` on delivery, so the hot path takes no lock; the lock
    /// exists for [`Sink::results`], which empties it through `&self`.
    shared: Mutex<Vec<Arc<Element>>>,
    /// The owned trees [`Sink::results`] moved out of `shared`, followed by
    /// every result delivered after that.
    owned: OnceLock<Vec<Element>>,
}

impl Sink {
    /// Creates a sink of the given kind.
    pub fn new(kind: SinkKind) -> Self {
        Sink {
            kind,
            shared: Mutex::new(Vec::new()),
            owned: OnceLock::new(),
        }
    }

    /// The sink kind.
    pub fn kind(&self) -> &SinkKind {
        &self.kind
    }

    /// Delivers one result, keeping the handle the caller shares.
    pub fn deliver(&mut self, result: Arc<Element>) {
        match self.owned.get_mut() {
            Some(owned) => owned.push(Arc::unwrap_or_clone(result)),
            None => self
                .shared
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .push(result),
        }
    }

    /// Every delivered result, in delivery order, as shared handles.  Results
    /// [`Sink::results`] has moved out come back as fresh handles.
    pub fn handles(&self) -> Vec<Arc<Element>> {
        match self.owned.get() {
            Some(owned) => owned.iter().cloned().map(Arc::new).collect(),
            None => self.lock_shared().clone(),
        }
    }

    /// All results delivered so far, as owned trees.  Kept only for the
    /// end-to-end benchmark's oracle check, which reads `&[Element]`; every
    /// other reader takes [`Sink::handles`].  The first call moves each tree
    /// out of its handle (copying only a tree the plane still shares), and
    /// later deliveries are stored owned.
    #[doc(hidden)]
    pub fn results(&self) -> &[Element] {
        self.owned.get_or_init(|| {
            let shared = mem::take(&mut *self.lock_shared());
            shared.into_iter().map(Arc::unwrap_or_clone).collect()
        })
    }

    /// Number of delivered results.
    pub fn len(&self) -> usize {
        match self.owned.get() {
            Some(owned) => owned.len(),
            None => self.lock_shared().len(),
        }
    }

    /// True when nothing has been delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every update of `shared` is one push or one take, so a poisoned lock
    /// still guards a whole list.
    fn lock_shared(&self) -> MutexGuard<'_, Vec<Arc<Element>>> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Renders the sink's contents in its natural textual form:
    ///
    /// * channel — the items concatenated (what a subscriber would receive),
    /// * e-mail — a digest with one `Subject:` block per item,
    /// * file — a well-formed XML document wrapping the results,
    /// * RSS — an RSS 2.0 feed with one `<item>` per result.
    pub fn render(&self) -> String {
        let results = self.handles();
        match &self.kind {
            SinkKind::Channel(name) => {
                let mut out = format!("channel {name}\n");
                for r in &results {
                    out.push_str(&r.to_xml());
                    out.push('\n');
                }
                out
            }
            SinkKind::Email(address) => {
                let mut out = String::new();
                for (i, r) in results.iter().enumerate() {
                    out.push_str(&format!(
                        "To: {address}\nSubject: [p2pmon] notification {}\n\n{}\n\n",
                        i + 1,
                        r.to_pretty_xml()
                    ));
                }
                out
            }
            SinkKind::File(path) => {
                let mut doc = ElementBuilder::new("results")
                    .attr("file", path.clone())
                    .build();
                for r in &results {
                    doc.push_element(Element::clone(r));
                }
                doc.to_pretty_xml()
            }
            SinkKind::Rss(path) => {
                let mut channel = Element::new("channel");
                channel.push_element(Element::text_element("title", "p2pmon notifications"));
                channel.push_element(Element::text_element("link", path.clone()));
                for (i, r) in results.iter().enumerate() {
                    let mut item = Element::new("item");
                    item.push_element(Element::text_element("guid", (i + 1).to_string()));
                    item.push_element(Element::text_element(
                        "title",
                        format!("notification {}", i + 1),
                    ));
                    let mut description = Element::new("description");
                    description.push_element(Element::clone(r));
                    item.push_element(description);
                    channel.push_element(item);
                }
                let mut rss = Element::new("rss");
                rss.set_attr("version", "2.0");
                rss.push_element(channel);
                rss.to_pretty_xml()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

    fn incident() -> Element {
        parse(r#"<incident type="slowAnswer"><client>a.com</client></incident>"#).unwrap()
    }

    #[test]
    fn from_by_clause() {
        assert_eq!(
            SinkKind::from(&ByClause::Channel("x".into())),
            SinkKind::Channel("x".into())
        );
        assert_eq!(
            SinkKind::from(&ByClause::Rss("r".into())),
            SinkKind::Rss("r".into())
        );
    }

    #[test]
    fn email_rendering() {
        let mut sink = Sink::new(SinkKind::Email("ops@example.org".into()));
        sink.deliver(Arc::new(incident()));
        sink.deliver(Arc::new(incident()));
        let rendered = sink.render();
        assert_eq!(rendered.matches("To: ops@example.org").count(), 2);
        assert!(rendered.contains("slowAnswer"));
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn file_rendering_is_well_formed() {
        let mut sink = Sink::new(SinkKind::File("alerts.xml".into()));
        sink.deliver(Arc::new(incident()));
        let doc = parse(&sink.render()).unwrap();
        assert_eq!(doc.name, "results");
        assert_eq!(doc.children_named("incident").count(), 1);
    }

    #[test]
    fn rss_rendering_has_one_item_per_result() {
        let mut sink = Sink::new(SinkKind::Rss("alerts.rss".into()));
        sink.deliver(Arc::new(incident()));
        sink.deliver(Arc::new(incident()));
        let feed = parse(&sink.render()).unwrap();
        assert_eq!(feed.name, "rss");
        let channel = feed.child("channel").unwrap();
        assert_eq!(channel.children_named("item").count(), 2);
    }

    fn numbered(i: usize) -> Arc<Element> {
        Arc::new(Element::text_element("n", i.to_string()))
    }

    /// Fails to compile unless a sink, and the monitor holding one per
    /// subscription, can be shared across threads.
    #[test]
    fn sink_and_monitor_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Sink>();
        assert_send_sync::<crate::Monitor>();
    }

    #[test]
    fn results_are_the_delivered_values_in_order() {
        let mut sink = Sink::new(SinkKind::Email("ops@example.org".into()));
        let delivered: Vec<Arc<Element>> = (0..5).map(numbered).collect();
        for result in &delivered {
            sink.deliver(Arc::clone(result));
        }
        let handles = sink.handles();
        assert!(handles
            .iter()
            .zip(&delivered)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        let expected: Vec<Element> = delivered.iter().map(|r| Element::clone(r)).collect();
        assert_eq!(sink.results(), &expected[..]);
    }

    #[test]
    fn results_move_a_tree_the_sink_alone_holds() {
        let mut sink = Sink::new(SinkKind::File("alerts.xml".into()));
        let result = numbered(7);
        let name = result.name.as_ptr();
        sink.deliver(result);
        assert_eq!(sink.results()[0].name.as_ptr(), name, "moved, not copied");
    }

    #[test]
    fn deliveries_after_the_first_read_still_appear() {
        let mut sink = Sink::new(SinkKind::Rss("alerts.rss".into()));
        sink.deliver(numbered(0));
        sink.deliver(numbered(1));
        assert_eq!(sink.len(), 2, "shared state");
        assert_eq!(sink.results().len(), 2);
        sink.deliver(numbered(2));
        assert_eq!(sink.len(), 3, "owned state");
        let texts: Vec<String> = sink.results().iter().map(Element::text).collect();
        assert_eq!(texts, ["0", "1", "2"]);
        let handles = sink.handles();
        assert_eq!(handles.len(), 3);
        assert!(handles.iter().map(|r| &**r).eq(sink.results()));
        assert_eq!(sink.render().matches("<item>").count(), 3);
    }

    #[test]
    fn channel_rendering_lists_items() {
        let mut sink = Sink::new(SinkKind::Channel("alertQoS".into()));
        assert!(sink.is_empty());
        sink.deliver(Arc::new(incident()));
        assert!(sink.render().starts_with("channel alertQoS"));
        assert_eq!(sink.kind(), &SinkKind::Channel("alertQoS".into()));
    }
}
