//! What a subscription's lifetime adds to the process-wide name interner.
//!
//! Both halves of a `ChannelId` are interned names, and an interned name is
//! never freed.  Definition references and the replica index are keyed by
//! the `ChannelId`s placement and `output_channels` minted, so keying them
//! interns nothing: a submit interns what it interned when those maps were
//! keyed by `(String, String)` pairs (values captured at 67099a2), and a
//! teardown interns nothing at all.
//!
//! What a submit does intern is a known leak of state that follows history
//! rather than what is deployed: `output_channels` mints one channel name
//! (`s<sub>-t<task>`) per task, and the names outlive the subscription.
//!
//! `PARENT_SUBMITS` was re-recorded when an aggregate's leaf and merge
//! stages stopped being tasks: each submit mints 68 names fewer (64 leaves
//! and 4 merges at 64 peers), `[201, 133, 133]` → `[133, 65, 65]`.  A
//! tree's cross-peer edge names its rate row at its first partial, in a
//! round, never in a submit.  It went down again, `[133, 65, 65]` →
//! `[131, 65, 65]`, when the XML tokenizer stopped interning the element
//! and attribute names it reads: the first submit no longer interns `p`
//! (the `<p>peer</p>` of a FOR clause) and `aggregate` (an aggregate's
//! placeholder RETURN template).
//!
//! One `#[test]` in its own binary, so no other thread interns into the table
//! while this one counts.  To re-record, run `cargo test -q --release -p
//! p2pmon-core --test interned_names -- --nocapture`: the test prints
//! `PARENT_SUBMITS`.

use p2pmon_core::{Monitor, MonitorConfig};
use p2pmon_workloads::SketchStorm;
use p2pmon_xmlkit::intern::interned_count;

/// Names interned by each of the three aggregate submits at 67099a2, less
/// the 68 stage names per submit no longer minted and the two names the
/// tokenizer no longer interns.
const PARENT_SUBMITS: [usize; 3] = [131, 65, 65];

#[test]
fn keys_reuse_minted_names_and_a_teardown_interns_none() {
    let storm = SketchStorm::sized(1, 64);
    let mut monitor = Monitor::new(MonitorConfig {
        dht_nodes: storm.dht_nodes(),
        ..MonitorConfig::default()
    });
    let mut submits = Vec::new();
    let mut handles = Vec::new();
    for text in storm.aggregate_subscriptions(3, 0.99) {
        let before = interned_count();
        let handle = monitor
            .submit(storm.manager(), &text)
            .expect("aggregate deploys");
        submits.push(interned_count() - before);
        handles.push(handle);
    }
    let mut teardowns = Vec::new();
    for handle in &handles {
        let before = interned_count();
        assert!(monitor.unsubscribe(handle));
        teardowns.push(interned_count() - before);
    }
    println!("PARENT_SUBMITS: {submits:?}");
    assert_eq!(submits, PARENT_SUBMITS);
    assert_eq!(teardowns, [0; 3], "a teardown mints no name");
}
