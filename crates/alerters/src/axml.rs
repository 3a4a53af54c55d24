//! The ActiveXML-repository alerter.
//!
//! "An ActiveXML alerter detects updates to the ActiveXML peer's repository."
//! The repository is a named collection of documents with insert/replace/
//! delete operations, a version per document and an update log; this
//! alerter drains the log and turns every event into an alert tree.

use std::collections::BTreeMap;

use p2pmon_xmlkit::{diff_elements, DiffOp, Element};

use crate::Alerter;

/// The kind of update applied to a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UpdateKind {
    /// A new document was inserted.
    Insert,
    /// An existing document was replaced with new content.
    Replace,
    /// A document was deleted.
    Delete,
}

impl UpdateKind {
    /// Stable string tag used in alert XML.
    fn as_str(self) -> &'static str {
        match self {
            UpdateKind::Insert => "insert",
            UpdateKind::Replace => "replace",
            UpdateKind::Delete => "delete",
        }
    }
}

/// An update event recorded by the repository.
#[derive(Debug)]
struct UpdateEvent {
    /// Monotonically increasing sequence number, repository-wide.
    sequence: u64,
    /// Name of the affected document.
    document: String,
    kind: UpdateKind,
    /// Version of the document after the update (1 for first insert).
    version: u64,
    /// Structural delta against the previous version (empty for inserts and
    /// deletes).
    delta: Vec<DiffOp>,
}

impl UpdateEvent {
    /// Renders the event as the alert XML the ActiveXML alerter of `peer`
    /// emits.
    fn to_alert(&self, peer: &str) -> Element {
        let mut alert = Element::new("axmlUpdate");
        alert.set_attr("peer", peer);
        alert.set_attr("document", self.document.clone());
        alert.set_attr("kind", self.kind.as_str());
        alert.set_attr("version", self.version.to_string());
        alert.set_attr("sequence", self.sequence.to_string());
        if !self.delta.is_empty() {
            let mut delta = Element::new("delta");
            for op in &self.delta {
                let mut change = Element::new("change");
                change.set_attr("kind", op.kind());
                delta.push_element(change);
            }
            alert.push_element(delta);
        }
        alert
    }
}

/// A named collection of ActiveXML documents hosted by one peer.  Every
/// update is logged; the owning [`AxmlAlerter`] drains the log.
#[derive(Debug)]
pub struct Repository {
    peer: String,
    /// Each document's current content and version (from 1), by name.
    documents: BTreeMap<String, (Element, u64)>,
    events: Vec<UpdateEvent>,
    next_sequence: u64,
}

impl Repository {
    fn new(peer: impl Into<String>) -> Self {
        Repository {
            peer: peer.into(),
            documents: BTreeMap::new(),
            events: Vec::new(),
            next_sequence: 0,
        }
    }

    /// Inserts a new document or replaces the existing one, recording the
    /// corresponding update event (with a structural delta on replace).
    pub fn insert(&mut self, name: impl Into<String>, content: Element) {
        let name = name.into();
        let (kind, version, delta) = match self.documents.get(&name) {
            Some((existing, version)) => (
                UpdateKind::Replace,
                version + 1,
                diff_elements(existing, &content),
            ),
            None => (UpdateKind::Insert, 1, Vec::new()),
        };
        self.documents.insert(name.clone(), (content, version));
        self.record(name, kind, version, delta);
    }

    /// Deletes a document; returns `false` when it did not exist.
    pub fn delete(&mut self, name: &str) -> bool {
        let Some((_, version)) = self.documents.remove(name) else {
            return false;
        };
        self.record(name.to_string(), UpdateKind::Delete, version, Vec::new());
        true
    }

    fn record(&mut self, document: String, kind: UpdateKind, version: u64, delta: Vec<DiffOp>) {
        self.events.push(UpdateEvent {
            sequence: self.next_sequence,
            document,
            kind,
            version,
            delta,
        });
        self.next_sequence += 1;
    }
}

/// The ActiveXML alerter attached to one repository.
#[derive(Debug)]
pub struct AxmlAlerter {
    repository: Repository,
    buffer: Vec<Element>,
}

impl AxmlAlerter {
    /// Creates an alerter owning a fresh repository for `peer`.
    pub fn new(peer: impl Into<String>) -> Self {
        AxmlAlerter {
            repository: Repository::new(peer),
            buffer: Vec::new(),
        }
    }

    /// The monitored repository (updates applied here produce alerts on the
    /// next [`AxmlAlerter::poll`]).
    pub fn repository_mut(&mut self) -> &mut Repository {
        &mut self.repository
    }

    /// Converts pending repository update events into buffered alerts;
    /// returns how many were produced.
    pub fn poll(&mut self) -> usize {
        let events = std::mem::take(&mut self.repository.events);
        let peer = &self.repository.peer;
        self.buffer.extend(events.iter().map(|e| e.to_alert(peer)));
        events.len()
    }
}

impl Alerter for AxmlAlerter {
    fn drain(&mut self) -> Vec<Element> {
        // Pick up anything that happened since the last poll, too.
        self.poll();
        std::mem::take(&mut self.buffer)
    }

    fn pending(&self) -> usize {
        self.buffer.len() + self.repository.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

    #[test]
    fn insert_replace_delete_lifecycle() {
        let mut repo = Repository::new("edos-server");
        repo.insert(
            "packages",
            parse("<packages><pkg name=\"a\"/></packages>").unwrap(),
        );
        repo.insert(
            "packages",
            parse("<packages><pkg name=\"a\"/><pkg name=\"b\"/></packages>").unwrap(),
        );
        assert!(repo.delete("packages"));
        assert!(!repo.delete("packages"));

        let events = &repo.events;
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, UpdateKind::Insert);
        assert_eq!(events[0].version, 1);
        assert_eq!(events[1].kind, UpdateKind::Replace);
        assert_eq!(events[1].version, 2);
        assert!(!events[1].delta.is_empty(), "replace carries a delta");
        assert_eq!(events[2].kind, UpdateKind::Delete);
    }

    #[test]
    fn sequences_are_monotonic_across_documents() {
        let mut repo = Repository::new("p");
        repo.insert("a", Element::new("a"));
        repo.insert("b", Element::new("b"));
        repo.insert("a", Element::new("a2"));
        let seqs: Vec<u64> = repo.events.iter().map(|e| e.sequence).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn drain_empties_the_log() {
        let mut a = AxmlAlerter::new("p");
        a.repository_mut().insert("a", Element::new("a"));
        assert_eq!(a.poll(), 1);
        assert!(a.repository.events.is_empty());
    }

    #[test]
    fn alert_xml_carries_metadata() {
        let mut repo = Repository::new("p7");
        repo.insert("doc", parse("<d><x>1</x></d>").unwrap());
        repo.insert("doc", parse("<d><x>2</x></d>").unwrap());
        let alert = repo.events[1].to_alert(&repo.peer);
        assert_eq!(alert.name, "axmlUpdate");
        assert_eq!(alert.attr("peer"), Some("p7"));
        assert_eq!(alert.attr("kind"), Some("replace"));
        assert_eq!(alert.attr("version"), Some("2"));
        assert!(alert.child("delta").is_some());
    }

    #[test]
    fn repository_updates_become_alerts() {
        let mut a = AxmlAlerter::new("edos-master");
        a.repository_mut().insert(
            "packages",
            parse("<packages><pkg name=\"bash\"/></packages>").unwrap(),
        );
        a.repository_mut().insert(
            "packages",
            parse("<packages><pkg name=\"bash\"/><pkg name=\"vim\"/></packages>").unwrap(),
        );
        a.repository_mut().delete("packages");
        assert_eq!(a.pending(), 3);
        let alerts = a.drain();
        assert_eq!(alerts.len(), 3);
        assert_eq!(alerts[0].attr("kind"), Some("insert"));
        assert_eq!(alerts[1].attr("kind"), Some("replace"));
        assert_eq!(alerts[2].attr("kind"), Some("delete"));
        assert!(alerts.iter().all(|al| al.name == "axmlUpdate"));
        assert!(alerts
            .iter()
            .all(|al| al.attr("peer") == Some("edos-master")));
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn poll_then_drain_does_not_duplicate() {
        let mut a = AxmlAlerter::new("p");
        a.repository_mut().insert("d", Element::new("d"));
        assert_eq!(a.poll(), 1);
        assert_eq!(a.poll(), 0);
        assert_eq!(a.drain().len(), 1);
        assert_eq!(a.drain().len(), 0);
    }
}
