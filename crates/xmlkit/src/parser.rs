//! A small, strict-enough XML parser.
//!
//! The parser handles what the monitored systems emit: elements, attributes,
//! text, CDATA sections, comments, processing instructions and an optional
//! XML declaration / DOCTYPE (both skipped).  Namespaces are kept as plain
//! prefixed names ("soap:Envelope"), which is how the paper's alerters treat
//! SOAP envelopes anyway.
//!
//! Errors carry the byte offset and a human-readable description so the
//! Subscription Manager can report malformed alerter output precisely.

use std::fmt;

use crate::escape::unescape;
use crate::node::{Element, Node};

/// The deepest nesting the parser accepts: the root is level 1, and an
/// element below level 256 is a [`ParseError`].  The parser recurses once per
/// level, so an unbounded depth would overflow the stack and abort the
/// process; 256 levels fit a debug build on a 2 MB thread stack with room to
/// spare, and no document the monitored systems emit comes near it.
const MAX_DEPTH: usize = 256;

/// A parse failure with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input at which the error was detected.
    pub offset: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl ParseError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        ParseError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete XML document and returns its root element.
///
/// Leading/trailing whitespace, an XML declaration, a DOCTYPE and comments
/// around the root are accepted; trailing non-whitespace content is an error,
/// and so is an element nested more than 256 levels deep.
pub fn parse(input: &str) -> Result<Element, ParseError> {
    let mut p = Parser::new(input);
    p.skip_prolog();
    let (root, used) = parse_element_at(input, p.pos)?;
    let end = p.pos + used;
    if end < input.len() {
        return Err(ParseError::new(
            end,
            "unexpected content after root element",
        ));
    }
    Ok(root)
}

/// Parses a fragment that may contain several sibling elements (and text,
/// which is ignored at the top level), each through [`parse_element_at`].
pub fn parse_fragment(input: &str) -> Result<Vec<Element>, ParseError> {
    let mut p = Parser::new(input);
    let mut out = Vec::new();
    loop {
        p.skip_misc();
        match p.peek_byte() {
            None => break,
            Some(b'<') => {
                let (element, used) = parse_element_at(input, p.pos)?;
                p.pos += used;
                out.push(element);
            }
            // Skip stray top-level text.
            Some(_) => p.pos = p.next_tag(),
        }
    }
    Ok(out)
}

/// Parses the element that starts at byte `pos` of `input` and returns it
/// with the number of bytes it spans from `pos`.  The whitespace, comments
/// and processing instructions before and after the element are part of
/// the span; whatever follows them is left to the caller, which is how a
/// language embedding XML (a P2PML RETURN template, an alerter's peer list)
/// parses it where it stands.
pub fn parse_element_at(input: &str, pos: usize) -> Result<(Element, usize), ParseError> {
    if !input.is_char_boundary(pos) {
        return Err(ParseError::new(
            pos,
            "element offset is not a char boundary",
        ));
    }
    let mut p = Parser { input, pos };
    p.skip_misc();
    let element = p.parse_element(1)?;
    p.skip_misc();
    Ok((element, p.pos - pos))
}

/// The scanner: it peeks bytes, and decodes a char only where a non-ASCII
/// byte meets a char-class test (whitespace, name chars).  Every delimiter
/// it looks for is ASCII, which never occurs inside a multi-byte char, so
/// `pos` stays on a char boundary.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input, pos: 0 }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek_byte(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    /// The char at `pos`, decoded only when its first byte is not ASCII.
    fn peek(&self) -> Option<char> {
        match self.peek_byte()? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.rest().chars().next(),
        }
    }

    /// Advances past the chars `accept` takes.
    fn skip_while(&mut self, accept: impl Fn(char) -> bool) {
        while let Some(c) = self.peek() {
            if !accept(c) {
                break;
            }
            self.pos += c.len_utf8();
        }
    }

    /// The offset of the next `<` at or after `pos`, or the input's end.
    fn next_tag(&self) -> usize {
        let rest = &self.input.as_bytes()[self.pos..];
        self.pos + rest.iter().position(|&b| b == b'<').unwrap_or(rest.len())
    }

    /// The absolute offset of the next `marker` at or after `pos`.
    fn find_from_here(&self, marker: &str) -> Option<usize> {
        self.rest().find(marker).map(|idx| self.pos + idx)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(ParseError::new(self.pos, format!("expected `{s}`")))
        }
    }

    fn skip_whitespace(&mut self) {
        self.skip_while(char::is_whitespace);
    }

    fn skip_until(&mut self, marker: &str) -> Result<(), ParseError> {
        match self.find_from_here(marker) {
            Some(at) => {
                self.pos = at + marker.len();
                Ok(())
            }
            None => Err(ParseError::new(
                self.pos,
                format!("unterminated construct, expected `{marker}`"),
            )),
        }
    }

    /// Skips the XML declaration, DOCTYPE, comments, PIs and whitespace.
    fn skip_prolog(&mut self) {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                if self.skip_until("?>").is_err() {
                    return;
                }
            } else if self.starts_with("<!--") {
                if self.skip_until("-->").is_err() {
                    return;
                }
            } else if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                if self.skip_until(">").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    /// Skips whitespace, comments and PIs (used after the root element).
    fn skip_misc(&mut self) {
        loop {
            self.skip_whitespace();
            if self.starts_with("<!--") {
                if self.skip_until("-->").is_err() {
                    return;
                }
            } else if self.starts_with("<?") {
                if self.skip_until("?>").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        self.skip_while(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'));
        if self.pos == start {
            return Err(ParseError::new(start, "expected a name"));
        }
        let name = &self.input[start..self.pos];
        if matches!(name.as_bytes()[0], b'0'..=b'9' | b'-' | b'.') {
            return Err(ParseError::new(start, format!("invalid name `{name}`")));
        }
        Ok(name)
    }

    fn parse_attr_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.peek_byte() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(ParseError::new(self.pos, "expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        let value = &self.input.as_bytes()[start..];
        match value.iter().position(|&b| b == quote || b == b'<') {
            Some(len) if value[len] == quote => {
                self.pos = start + len + 1;
                Ok(unescaped(&self.input[start..start + len]))
            }
            Some(len) => Err(ParseError::new(
                start + len,
                "`<` not allowed in attribute value",
            )),
            None => Err(ParseError::new(start, "unterminated attribute value")),
        }
    }

    /// Parses the element at `pos`, which sits at nesting level `depth`.
    fn parse_element(&mut self, depth: usize) -> Result<Element, ParseError> {
        if depth > MAX_DEPTH {
            return Err(ParseError::new(
                self.pos,
                format!("elements nested more than {MAX_DEPTH} levels deep"),
            ));
        }
        self.expect("<")?;
        let mut element = Element::new(self.parse_name()?);

        // Attributes.
        loop {
            self.skip_whitespace();
            match self.peek_byte() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(">")?;
                    return Ok(element);
                }
                Some(_) => {
                    let attr_start = self.pos;
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    self.expect("=")?;
                    self.skip_whitespace();
                    let value = self.parse_attr_value()?;
                    if element.attr(attr_name).is_some() {
                        return Err(ParseError::new(
                            attr_start,
                            format!("duplicate attribute `{attr_name}`"),
                        ));
                    }
                    element.attributes.push((attr_name.to_string(), value));
                }
                None => return Err(ParseError::new(self.pos, "unterminated start tag")),
            }
        }

        // Children.
        let mut pending_text = String::new();
        loop {
            if self.starts_with("</") {
                flush_text(&mut element, &mut pending_text);
                self.pos += 2;
                let close_start = self.pos;
                let close_name = self.parse_name()?;
                if close_name != element.name {
                    return Err(ParseError::new(
                        close_start,
                        format!(
                            "mismatched closing tag: expected `</{}>`, found `</{}>`",
                            element.name, close_name
                        ),
                    ));
                }
                self.skip_whitespace();
                self.expect(">")?;
                return Ok(element);
            } else if self.starts_with("<!--") {
                flush_text(&mut element, &mut pending_text);
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.pos += "<![CDATA[".len();
                let start = self.pos;
                match self.find_from_here("]]>") {
                    Some(end) => {
                        pending_text.push_str(&self.input[start..end]);
                        self.pos = end + 3;
                    }
                    None => return Err(ParseError::new(start, "unterminated CDATA section")),
                }
            } else if self.starts_with("<?") {
                flush_text(&mut element, &mut pending_text);
                self.skip_until("?>")?;
            } else if self.starts_with("<") {
                flush_text(&mut element, &mut pending_text);
                let child = self.parse_element(depth + 1)?;
                element.children.push(Node::Element(child));
            } else if self.at_end() {
                return Err(ParseError::new(
                    self.pos,
                    format!("unexpected end of input inside `<{}>`", element.name),
                ));
            } else {
                let start = self.pos;
                self.pos = self.next_tag();
                let raw = &self.input[start..self.pos];
                if raw.contains('&') {
                    pending_text.push_str(&unescape(raw));
                } else {
                    pending_text.push_str(raw);
                }
            }
        }
    }
}

/// `raw` with its entities replaced; only text holding a `&` goes through
/// [`unescape`].
fn unescaped(raw: &str) -> String {
    if raw.contains('&') {
        unescape(raw)
    } else {
        raw.to_owned()
    }
}

fn flush_text(element: &mut Element, pending: &mut String) {
    if !pending.is_empty() {
        // Whitespace-only runs between elements are insignificant for the
        // monitoring streams and would break structural equality after
        // pretty-printing, so they are dropped.
        if pending.trim().is_empty() {
            pending.clear();
            return;
        }
        element.children.push(Node::Text(std::mem::take(pending)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_interns_no_name() {
        let doc = r#"<parsedOnlyRoot parsedOnlyAttr="1"><parsedOnlyChild/></parsedOnlyRoot>"#;
        let e = parse(doc).unwrap();
        assert_eq!(e.attr("parsedOnlyAttr"), Some("1"));
        for name in ["parsedOnlyRoot", "parsedOnlyAttr", "parsedOnlyChild"] {
            assert_eq!(crate::intern::lookup(name), None, "{name} was interned");
        }
    }

    #[test]
    fn parses_simple_element() {
        let e = parse("<a/>").unwrap();
        assert_eq!(e.name, "a");
        assert!(e.children.is_empty());
    }

    #[test]
    fn parses_attributes_and_children() {
        let e = parse(r#"<alert callId="7" caller='b'><x>1</x><y/></alert>"#).unwrap();
        assert_eq!(e.attr("callId"), Some("7"));
        assert_eq!(e.attr("caller"), Some("b"));
        assert_eq!(e.child_elements().count(), 2);
        assert_eq!(e.child("x").unwrap().text(), "1");
    }

    #[test]
    fn parses_prolog_doctype_comments() {
        let doc =
            "<?xml version=\"1.0\"?>\n<!DOCTYPE html>\n<!-- hi -->\n<root>ok</root>\n<!-- bye -->";
        let e = parse(doc).unwrap();
        assert_eq!(e.name, "root");
        assert_eq!(e.text(), "ok");
    }

    #[test]
    fn parses_cdata_and_entities() {
        let e = parse("<m><![CDATA[a < b]]> &amp; c</m>").unwrap();
        assert_eq!(e.text(), "a < b & c");
    }

    #[test]
    fn namespaced_names_are_plain_strings() {
        let e =
            parse(r#"<soap:Envelope xmlns:soap="http://x"><soap:Body/></soap:Envelope>"#).unwrap();
        assert_eq!(e.name, "soap:Envelope");
        assert!(e.child("soap:Body").is_some());
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn rejects_duplicate_attributes() {
        let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn rejects_unterminated_document() {
        assert!(parse("<a><b>").is_err());
        assert!(parse("<a attr=\"x").is_err());
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let e = parse("<a>\n  <b>1</b>\n  <c>2</c>\n</a>").unwrap();
        assert_eq!(e.children.len(), 2);
    }

    #[test]
    fn significant_text_is_kept() {
        let e = parse("<a>hello <b>world</b></a>").unwrap();
        assert_eq!(e.children.len(), 2);
        assert_eq!(e.text(), "hello world");
    }

    #[test]
    fn fragment_parsing_returns_all_roots() {
        let frags = parse_fragment("<a/> <b x=\"1\"/> <c>t</c>").unwrap();
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[1].attr("x"), Some("1"));
    }

    #[test]
    fn an_element_parses_where_it_stands() {
        let text = "by x <a k=\"v\">t<b/></a> <!-- c --> by y";
        let (e, used) = parse_element_at(text, 5).unwrap();
        assert_eq!(
            (e.name.as_str(), e.attr("k"), e.text()),
            ("a", Some("v"), "t".into())
        );
        assert_eq!(
            &text[5 + used..],
            "by y",
            "the span ends after the trailing comment"
        );
        let err = parse_element_at(text, 0).unwrap_err();
        assert_eq!(err.offset, 0, "offsets are absolute");
        assert!(parse_element_at("é<a/>", 1).is_err(), "not a char boundary");
        assert!(parse_element_at("<a/>", 9).is_err());
    }

    /// `levels` nested `<a>` elements.
    fn nested(levels: usize) -> String {
        format!("{}{}", "<a>".repeat(levels), "</a>".repeat(levels))
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_an_error_not_an_abort() {
        // Test threads get 2 MB stacks; pin that size, where a debug build
        // without the limit aborts at about 700 levels.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut e = parse(&nested(MAX_DEPTH)).expect("the limit itself parses");
                for _ in 1..MAX_DEPTH {
                    e = e.child("a").expect("one level per element").clone();
                }
                assert!(e.children.is_empty());
                let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
                assert_eq!(err.offset, 3 * MAX_DEPTH, "at the too-deep `<a>`");
                assert!(err.message.contains("nested"), "{err}");
                for levels in [MAX_DEPTH + 1, 30_000] {
                    assert!(parse(&nested(levels)).is_err(), "{levels} levels");
                    assert!(parse_fragment(&nested(levels)).is_err());
                    assert!(parse_element_at(&nested(levels), 0).is_err());
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn error_reports_offset() {
        let err = parse("<a><b></wrong></a>").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("byte"));
    }
}
