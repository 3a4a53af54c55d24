//! Hostile text gets a parse error, never a panic.
//!
//! A deterministic sweep over the paper's Figure 1 subscription: at every
//! char boundary it is truncated, split (the tail on its own) and has a 2-,
//! 3- and 4-byte UTF-8 char inserted, and each variant goes through
//! `compile_subscription`.  Keyword and `by` lookahead compare the rest of
//! the input up to a byte count, which may fall inside a multi-byte char.

use std::panic::{catch_unwind, AssertUnwindSafe};

use p2pmon_p2pml::{compile_subscription, METEO_SUBSCRIPTION};

fn variants(text: &str) -> Vec<String> {
    let boundaries = text.char_indices().map(|(i, _)| i).chain([text.len()]);
    let mut out = Vec::new();
    for i in boundaries {
        let (head, tail) = text.split_at(i);
        out.push(head.to_string());
        out.push(tail.to_string());
        for wide in ['é', '€', '𝄞'] {
            out.push(format!("{head}{wide}{tail}"));
        }
    }
    out
}

#[test]
fn compile_subscription_never_panics_on_non_ascii_input() {
    let mut inputs = variants(METEO_SUBSCRIPTION);
    inputs.extend(["abé", "for $c in é", "b€", "by"].map(String::from));
    let panicking: Vec<&String> = inputs
        .iter()
        .filter(|input| {
            catch_unwind(AssertUnwindSafe(|| {
                let _ = compile_subscription(input);
            }))
            .is_err()
        })
        .collect();
    assert!(
        panicking.is_empty(),
        "{} of {} inputs panicked, first: {:?}",
        panicking.len(),
        inputs.len(),
        panicking.first()
    );
}

#[test]
fn wide_chars_get_a_parse_error_or_parse_normally() {
    assert!(compile_subscription("abé").is_err());
    let text = METEO_SUBSCRIPTION
        .replace("alertQoS", "alertQoS-é€𝄞")
        .replace("slowAnswer", "slowAnswer-é€𝄞");
    compile_subscription(&text).expect("wide chars inside literals compile");
}

/// A second base text through the scanner's other paths: a nested
/// subscription, a `channel(...)` source, a LET, a `$c//detail` pattern and
/// an aggregate RETURN.
const SECOND_BASE: &str = r##"
for $x in ( for $y in inCOM(<p>a.com</p>) where $y.callMethod = "Ping" return <p>{$y.caller}</p> ),
    $c in outCOM(<p>http://hub.net</p> <p>b.net</p>),
    $k in channel("#alertQoS@p.org")
let $d := $c.responseTimestamp - $c.callTimestamp
where $c.callId = $x.callId and $c.callId = $k.callId and $c//detail and $d > 10
return topk($c.callMethod, 3, $c.bytes) every 2
by email "ops@example.org";
"##;

#[test]
fn the_second_base_text_never_panics() {
    compile_subscription(SECOND_BASE).expect("the second base text compiles");
    let inputs = variants(SECOND_BASE);
    let panicking = inputs
        .iter()
        .filter(|input| {
            catch_unwind(AssertUnwindSafe(|| {
                let _ = compile_subscription(input);
            }))
            .is_err()
        })
        .count();
    assert_eq!(panicking, 0, "of {} inputs", inputs.len());
}

/// A RETURN template `levels` elements deep.
fn nested_template(levels: usize) -> String {
    format!(
        "for $c in inCOM(<p>a.com</p>) return {}{{$c.caller}}{} by publish as channel \"deep\";",
        "<a>".repeat(levels),
        "</a>".repeat(levels)
    )
}

/// The template's XML parser recurses once per level.  Past `xmlkit`'s
/// documented limit of 256 levels the text gets a parse error instead of a
/// stack overflow, which aborts the process where no `catch_unwind` sees
/// it.  Run on a 2 MB stack, the size test threads get.
#[test]
fn a_deeply_nested_template_is_a_parse_error() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            compile_subscription(&nested_template(256)).expect("the limit itself compiles");
            for levels in [257, 30_000] {
                assert!(
                    compile_subscription(&nested_template(levels)).is_err(),
                    "{levels} levels"
                );
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
