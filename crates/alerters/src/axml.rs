//! The ActiveXML-repository alerter.
//!
//! "An ActiveXML alerter detects updates to the ActiveXML peer's repository."
//! The repository itself lives in `p2pmon-activexml`; this alerter drains its
//! update log and turns every event into an alert tree.

use p2pmon_activexml::Repository;
use p2pmon_xmlkit::Element;

use crate::Alerter;

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
        let events = self.repository.drain_events();
        let produced = events.len();
        self.buffer.extend(events.iter().map(|e| e.to_alert()));
        produced
    }
}

impl Alerter for AxmlAlerter {
    fn drain(&mut self) -> Vec<Element> {
        // Pick up anything that happened since the last poll, too.
        self.poll();
        std::mem::take(&mut self.buffer)
    }

    fn pending(&self) -> usize {
        self.buffer.len() + self.repository.events().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

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
