//! Hostile bytes get a parse error, never a panic.
//!
//! A deterministic, seeded mutation sweep: a document with attributes,
//! entities, character references, CDATA, a comment and processing
//! instructions, and a set of path strings, each mutated by deleting,
//! inserting, duplicating and truncating bytes (the result read back as
//! lossy UTF-8, so multi-byte chars get split too).  Every variant goes
//! through `parse` and `parse_fragment`, or `XPath::parse`; a path that
//! parses is also matched and read over the unmutated document.
//!
//! Nor does a path hang its caller: a chain of `//` steps over the deepest
//! document the parser accepts finishes well inside a deadline, and the
//! paths whose cost the walk does not bound are parse errors.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use p2pmon_xmlkit::{parse, parse_fragment, Value, XPath};

const DOCUMENT: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<!-- one monitored call -->
<alert kind="inCOM" callee="meteo.com" note='a &amp; b &lt; c &gt; d'>
  <?trace id="7"?>
  <call method="forecast" t="1200">&quot;Paris&quot; &apos;&#233;&#x20AC;&apos; é€𝄞</call>
  <payload><![CDATA[<raw> & ]] stays raw]]></payload>
  <empty/>
  <nested><a x="1"><b>2</b></a><a x="3"/></nested>
</alert>"#;

const PATHS: &[&str] = &[
    "/alert/call",
    "/alert/@callee",
    "//call[@method='forecast']",
    "/alert[@kind=\"inCOM\"]/call/@t",
    "//nested/a[@x < 2]/b",
    "/alert/*/a",
    "//b/text()",
];

/// Variants per seed input; each applies one to three mutations.
const ROUNDS: usize = 3_000;

/// Bytes the parsers branch on, plus the lead byte of a multi-byte char.
const ALPHABET: &[u8] = b"<>/?!&;#=\"'[]-*@.()x:0 \n\xC3";

/// splitmix64: a fixed seed gives the same sweep on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn mutate(rng: &mut Rng, seed: &str) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(4) {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 => bytes.insert(at, ALPHABET[rng.below(ALPHABET.len())]),
            2 => {
                let end = (at + 1 + rng.below(8)).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn panicking(inputs: &[String], run: impl Fn(&str)) -> Vec<&String> {
    inputs
        .iter()
        .filter(|input| catch_unwind(AssertUnwindSafe(|| run(input))).is_err())
        .collect()
}

fn assert_none_panicked(what: &str, inputs: &[String], panicked: &[&String]) {
    assert!(
        panicked.is_empty(),
        "{what}: {} of {} inputs panicked, first: {:?}",
        panicked.len(),
        inputs.len(),
        panicked.first()
    );
}

#[test]
fn the_seed_inputs_parse() {
    let doc = parse(DOCUMENT).expect("the seed document parses");
    assert_eq!(
        parse_fragment(DOCUMENT).expect("and as a fragment").len(),
        1
    );
    for path in PATHS {
        let xpath = XPath::parse(path).unwrap_or_else(|e| panic!("{path}: {e:?}"));
        assert!(xpath.matches(&doc), "{path} matches nothing");
        assert!(xpath.first_value(&doc).is_some(), "{path} reads no value");
    }
}

#[test]
fn mutated_documents_never_panic_the_parsers() {
    let mut rng = Rng(0x00C0_FFEE);
    let inputs: Vec<String> = (0..ROUNDS).map(|_| mutate(&mut rng, DOCUMENT)).collect();
    let panicked = panicking(&inputs, |input| {
        let _ = parse(input);
        let _ = parse_fragment(input);
    });
    assert_none_panicked("parse / parse_fragment", &inputs, &panicked);
}

#[test]
fn mutated_paths_never_panic_the_path_parsers() {
    let doc = parse(DOCUMENT).expect("the seed document parses");
    let mut rng = Rng(0x0BAD_5EED);
    let inputs: Vec<String> = (0..ROUNDS)
        .map(|i| mutate(&mut rng, PATHS[i % PATHS.len()]))
        .collect();
    let panicked = panicking(&inputs, |input| {
        if let Ok(xpath) = XPath::parse(input) {
            let _ = xpath.first_value(&doc);
            let _ = xpath.matches(&doc);
        }
    });
    assert_none_panicked("XPath::parse / first_value / matches", &inputs, &panicked);
}

/// The deepest document `parse` accepts.
const DEEPEST: usize = 256;

/// How long a path over a [`DEEPEST`]-level chain may take.  The walk needs
/// microseconds; a walk that re-searches a subtree per `//` step needs
/// minutes for five steps.
const DEADLINE: Duration = Duration::from_secs(30);

/// `//a` `steps` times, then `//b`.
fn descendant_chain(steps: usize) -> String {
    format!("{}//b", "//a".repeat(steps))
}

/// A chain of [`DEEPEST`] elements: `a`s, the deepest of them a
/// `<b>1</b>` instead when `with_b`.
fn deep_chain(with_b: bool) -> String {
    let (open, close) = ("<a>".repeat(DEEPEST - 1), "</a>".repeat(DEEPEST - 1));
    let bottom = if with_b { "<b>1</b>" } else { "<a/>" };
    format!("{open}{bottom}{close}")
}

#[test]
fn descendant_chains_over_the_deepest_document_finish() {
    let (tx, rx) = mpsc::channel();
    // On a 2 MB stack, the size test threads get: the walk recurses once
    // per level.
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let without_b = parse(&deep_chain(false)).expect("the deepest chain parses");
            let with_b = parse(&deep_chain(true)).expect("the deepest chain parses");
            for steps in [5, 6] {
                let src = descendant_chain(steps);
                let path = XPath::parse(&src).unwrap();
                assert!(!path.matches(&without_b), "{src}");
                assert_eq!(path.first_value(&without_b), None, "{src}");
                assert!(path.matches(&with_b), "{src}");
                assert_eq!(path.first_value(&with_b), Some(Value::Integer(1)), "{src}");
            }
            tx.send(()).unwrap();
        })
        .unwrap();
    // A worker past the deadline cannot be joined; it is left running.
    if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(DEADLINE) {
        panic!("the paths did not finish within {DEADLINE:?}");
    }
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn paths_the_walk_does_not_bound_are_parse_errors() {
    // 64 steps fill the walk's bit set; a 65th is an error.
    assert!(XPath::parse(&"/a".repeat(64)).is_ok());
    assert!(XPath::parse(&"/a".repeat(65)).is_err());
    assert!(XPath::parse(&descendant_chain(64)).is_err());
    // Each path nested inside a predicate is a fresh walk per candidate:
    // two levels of nesting parse, a third is an error.
    assert!(XPath::parse("//a[a//a[a//b]]").is_ok());
    assert!(XPath::parse("//a[a//a[a//a[a//b]]]").is_err());
    assert!(XPath::parse("//a[a[a[a]]]").is_err());
    assert!(XPath::parse("//a[@x = 1][b[c[d = 2]]]").is_err());
}
