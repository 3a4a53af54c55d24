//! # p2pmon-activexml
//!
//! The ActiveXML substrate of the P2P Monitor reproduction.
//!
//! The paper builds its monitoring system on top of the ActiveXML framework
//! (\[4\], \[5\] in the paper): documents may embed *service-call elements*
//! (`sc`), and streams are sequences of (Active)XML trees.
//!
//! This crate provides:
//!
//! * [`ServiceCall`] — the `sc` element: which service, at which peer, with
//!   which parameters, and how to merge its result back into the document
//!   ([`sc::MergeMode`]).  The Filter's lazy-evaluation optimisation
//!   (Section 4, "Web service calls") relies on being able to recognise these
//!   elements without materialising them.
//! * [`AxmlDocument`] and [`Repository`] — a small versioned document store;
//!   every update produces an update event consumed by the ActiveXML alerter.
//!
//! The paper's distributed-evaluation rules (Sections 3.3–3.4) live in the
//! plan `p2pmon-core` places and runs (see `docs/architecture.md`).

pub mod repository;
pub mod sc;

pub use repository::{AxmlDocument, Repository, UpdateEvent, UpdateKind};
pub use sc::{MergeMode, ServiceCall};

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_api_round_trip() {
        // A document with an embedded service call, registered in a repository,
        // produces an update event and the sc element is recognisable.
        let xml =
            r#"<root attr1="x"><sc service="storage" address="site"><parameters/></sc></root>"#;
        let doc = p2pmon_xmlkit::parse(xml).unwrap();
        let calls = ServiceCall::find_in(&doc);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].service, "storage");

        let mut repo = Repository::new("p1");
        repo.insert("doc1", doc);
        assert_eq!(repo.events().len(), 1);
    }
}
