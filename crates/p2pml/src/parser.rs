//! The P2PML parser.
//!
//! A hand-written recursive-descent scanner (the paper generates its parser
//! with JavaCC; the grammar is small enough that a direct implementation is
//! clearer and dependency-free).  The parser is case-insensitive on keywords
//! and whitespace-insensitive.  It reads the text in one pass: the XML it
//! embeds (an alerter's `<p>` peer list and the RETURN template) is parsed
//! where it stands by `p2pmon-xmlkit`'s [`parse_element_at`], which reports
//! how many bytes each element spans, so neither is captured as text first.
//! The scanner peeks bytes and decodes a char only where a non-ASCII byte
//! meets a char-class test.

use std::fmt;

use p2pmon_streams::{AggregateKind, AggregateSpec, Condition, Operand, Template};
use p2pmon_xmlkit::path::CompareOp;
use p2pmon_xmlkit::{parse_element_at, Element, Node, Value, XPath};

use crate::ast::{ArithOp, ByClause, ForBinding, LetBinding, SourceExpr, Subscription, ValueExpr};

/// A parse error with its position in the subscription text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseErrorP2pml {
    /// Byte offset at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseErrorP2pml {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        ParseErrorP2pml {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseErrorP2pml {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P2PML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseErrorP2pml {}

/// The sentinel constant used to encode existence conditions
/// (`$x/some/path` with no comparison) as `path != SENTINEL`.
pub const EXISTENCE_SENTINEL: &str = "\u{0}__no_such_value__";

/// Parses a complete subscription.
pub fn parse_subscription(source: &str) -> Result<Subscription, ParseErrorP2pml> {
    let mut scanner = Scanner::new(source);
    let subscription = parse_flwr(&mut scanner, false)?;
    scanner.skip_ws();
    scanner.eat(";");
    scanner.skip_ws();
    if !scanner.at_end() {
        return Err(ParseErrorP2pml::new(
            scanner.pos,
            format!("unexpected trailing input: `{}`", scanner.rest_preview()),
        ));
    }
    Ok(subscription)
}

struct Scanner<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(src: &'a str) -> Self {
        Scanner { src, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn rest_preview(&self) -> String {
        self.rest().chars().take(32).collect()
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// The char at `pos`, decoded only when its first byte is not ASCII.
    fn peek(&self) -> Option<char> {
        match self.peek_byte()? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.rest().chars().next(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
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

    fn skip_ws(&mut self) {
        self.skip_while(char::is_whitespace);
    }

    /// Eats a literal string if present.
    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// Eats a keyword case-insensitively; the keyword must be followed by a
    /// non-identifier character.
    fn eat_keyword(&mut self, keyword: &str) -> bool {
        let rest = self.rest();
        // `get` is `None` when the keyword's length ends inside a char.
        match rest.get(..keyword.len()) {
            Some(candidate) if candidate.eq_ignore_ascii_case(keyword) => {}
            _ => return false,
        }
        let next = rest[keyword.len()..].chars().next();
        if matches!(next, Some(c) if c.is_alphanumeric() || c == '_') {
            return false;
        }
        self.pos += keyword.len();
        true
    }

    fn expect_keyword(&mut self, keyword: &str) -> Result<(), ParseErrorP2pml> {
        self.skip_ws();
        if self.eat_keyword(keyword) {
            Ok(())
        } else {
            Err(ParseErrorP2pml::new(
                self.pos,
                format!("expected `{keyword}`, found `{}`", self.rest_preview()),
            ))
        }
    }

    fn parse_identifier(&mut self) -> Result<String, ParseErrorP2pml> {
        self.skip_ws();
        let start = self.pos;
        self.skip_while(|c| c.is_alphanumeric() || c == '_' || c == '-');
        if self.pos == start {
            return Err(ParseErrorP2pml::new(
                start,
                format!("expected an identifier, found `{}`", self.rest_preview()),
            ));
        }
        Ok(self.src[start..self.pos].to_string())
    }

    fn parse_variable(&mut self) -> Result<String, ParseErrorP2pml> {
        self.skip_ws();
        if !self.eat("$") {
            return Err(ParseErrorP2pml::new(
                self.pos,
                format!("expected a `$variable`, found `{}`", self.rest_preview()),
            ));
        }
        self.parse_identifier()
    }

    fn parse_string_literal(&mut self) -> Result<String, ParseErrorP2pml> {
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ ('"' | '\'')) => q,
            _ => {
                return Err(ParseErrorP2pml::new(
                    self.pos,
                    format!("expected a string literal, found `{}`", self.rest_preview()),
                ))
            }
        };
        self.bump();
        let start = self.pos;
        let len = self
            .rest()
            .find(quote)
            .ok_or_else(|| ParseErrorP2pml::new(start, "unterminated string literal"))?;
        self.pos += len + 1;
        Ok(self.src[start..start + len].to_string())
    }

    /// Eats `)`, after optional whitespace.
    fn expect_close_paren(&mut self, what: &str) -> Result<(), ParseErrorP2pml> {
        self.skip_ws();
        if self.eat(")") {
            Ok(())
        } else {
            Err(ParseErrorP2pml::new(
                self.pos,
                format!("expected `)` {what}"),
            ))
        }
    }
}

fn parse_flwr(scanner: &mut Scanner<'_>, nested: bool) -> Result<Subscription, ParseErrorP2pml> {
    scanner.expect_keyword("for")?;
    let mut for_clause = vec![parse_for_binding(scanner)?];
    loop {
        scanner.skip_ws();
        if scanner.eat(",") {
            for_clause.push(parse_for_binding(scanner)?);
        } else {
            break;
        }
    }

    let mut let_clause = Vec::new();
    scanner.skip_ws();
    if scanner.eat_keyword("let") {
        let_clause.push(parse_let_binding(scanner)?);
        loop {
            scanner.skip_ws();
            if scanner.eat(",") {
                let_clause.push(parse_let_binding(scanner)?);
            } else {
                break;
            }
        }
    }

    let mut where_clause = Vec::new();
    scanner.skip_ws();
    if scanner.eat_keyword("where") {
        where_clause.push(parse_condition(scanner)?);
        loop {
            scanner.skip_ws();
            if scanner.eat_keyword("and") {
                where_clause.push(parse_condition(scanner)?);
            } else {
                break;
            }
        }
    }

    scanner.expect_keyword("return")?;
    scanner.skip_ws();
    let distinct = scanner.eat_keyword("distinct");
    scanner.skip_ws();
    let aggregate = parse_aggregate(scanner)?;
    let return_template = if aggregate.is_some() {
        // Aggregate answers are materialized by the sketch root, not by a
        // Restructure; the template is a placeholder.
        Template::parse("<aggregate/>")
            .map_err(|e| ParseErrorP2pml::new(scanner.pos, format!("invalid RETURN: {e}")))?
    } else if scanner.peek() == Some('<') {
        // The template element is parsed where it stands: a `by` or a `)`
        // in its text is the template's, not the end of the clause.
        let (template, used) = Template::parse_at(scanner.src, scanner.pos).map_err(|e| {
            ParseErrorP2pml::new(scanner.pos, format!("invalid RETURN template: {e}"))
        })?;
        scanner.pos += used;
        template
    } else if let Some(var) = capture_return_body(scanner, nested)?.strip_prefix('$') {
        // `return $e` — wrap the whole bound tree.
        Template::parse(&format!("<result>{{${}}}</result>", var.trim()))
            .map_err(|e| ParseErrorP2pml::new(scanner.pos, format!("invalid RETURN: {e}")))?
    } else {
        return Err(ParseErrorP2pml::new(
            scanner.pos,
            "RETURN must be an XML template, a `$variable`, or an aggregate \
             (`topk(...)`, `entropy(...)`, `quantile(...)`)",
        ));
    };

    scanner.skip_ws();
    let by = if scanner.eat_keyword("by") {
        parse_by_clause(scanner)?
    } else if nested {
        // Nested subscriptions need no BY clause: their output feeds the
        // enclosing FOR binding through an implicit internal channel.
        ByClause::Channel("__nested__".to_string())
    } else {
        return Err(ParseErrorP2pml::new(
            scanner.pos,
            "top-level subscriptions require a BY clause",
        ));
    };

    Ok(Subscription {
        for_clause,
        let_clause,
        where_clause,
        distinct,
        return_template,
        aggregate,
        by,
    })
}

/// Parses an aggregate RETURN body when one is present:
/// `topk($c.method, 5 [, $c.bytes])`, `entropy($c.method)` or
/// `quantile($c.duration, 0.99)`, each optionally followed by `every N`
/// (the root emission cadence in dispatch rounds).
fn parse_aggregate(scanner: &mut Scanner<'_>) -> Result<Option<AggregateSpec>, ParseErrorP2pml> {
    scanner.skip_ws();
    let kind_name = if scanner.eat_keyword("topk") {
        "topk"
    } else if scanner.eat_keyword("entropy") {
        "entropy"
    } else if scanner.eat_keyword("quantile") {
        "quantile"
    } else {
        return Ok(None);
    };
    scanner.skip_ws();
    if !scanner.eat("(") {
        return Err(ParseErrorP2pml::new(
            scanner.pos,
            format!("expected `(` after `{kind_name}`"),
        ));
    }
    let (var, key_attr) = parse_key_ref(scanner)?;
    let kind = match kind_name {
        "topk" => {
            expect_comma(scanner)?;
            let k = parse_integer(scanner)? as usize;
            if k == 0 {
                return Err(ParseErrorP2pml::new(scanner.pos, "topk needs k >= 1"));
            }
            AggregateKind::TopK { k }
        }
        "entropy" => AggregateKind::Entropy,
        _ => {
            expect_comma(scanner)?;
            let q = parse_decimal(scanner)?;
            if !(0.0..=1.0).contains(&q) {
                return Err(ParseErrorP2pml::new(
                    scanner.pos,
                    "quantile needs q in [0, 1]",
                ));
            }
            AggregateKind::Quantile {
                q_permille: (q * 1000.0).round() as u32,
            }
        }
    };
    // Optional weight attribute: `topk($c.method, 5, $c.bytes)`.
    scanner.skip_ws();
    let weight_attr = if scanner.eat(",") {
        let (weight_var, attr) = parse_key_ref(scanner)?;
        if weight_var != var {
            return Err(ParseErrorP2pml::new(
                scanner.pos,
                "aggregate weight must come from the same variable as the key",
            ));
        }
        match attr {
            Some(a) => Some(a),
            None => {
                return Err(ParseErrorP2pml::new(
                    scanner.pos,
                    "aggregate weight needs an attribute, e.g. `$c.bytes`",
                ))
            }
        }
    } else {
        None
    };
    scanner.skip_ws();
    if !scanner.eat(")") {
        return Err(ParseErrorP2pml::new(
            scanner.pos,
            format!("expected `)` to close `{kind_name}(...)`"),
        ));
    }
    let mut spec = AggregateSpec::new(kind, var, key_attr);
    spec.weight_attr = weight_attr;
    scanner.skip_ws();
    if scanner.eat_keyword("every") {
        let every = parse_integer(scanner)? as usize;
        spec.every = every.max(1);
    }
    Ok(Some(spec))
}

/// Parses `$var` or `$var.attr` inside an aggregate call.
fn parse_key_ref(scanner: &mut Scanner<'_>) -> Result<(String, Option<String>), ParseErrorP2pml> {
    let var = scanner.parse_variable()?;
    let attr = if scanner.eat(".") {
        Some(scanner.parse_identifier()?)
    } else {
        None
    };
    Ok((var, attr))
}

fn expect_comma(scanner: &mut Scanner<'_>) -> Result<(), ParseErrorP2pml> {
    scanner.skip_ws();
    if scanner.eat(",") {
        Ok(())
    } else {
        Err(ParseErrorP2pml::new(scanner.pos, "expected `,`"))
    }
}

fn parse_integer(scanner: &mut Scanner<'_>) -> Result<u64, ParseErrorP2pml> {
    scanner.skip_ws();
    let start = scanner.pos;
    scanner.skip_while(|c| c.is_ascii_digit());
    scanner.src[start..scanner.pos]
        .parse()
        .map_err(|_| ParseErrorP2pml::new(start, "expected an integer"))
}

fn parse_decimal(scanner: &mut Scanner<'_>) -> Result<f64, ParseErrorP2pml> {
    scanner.skip_ws();
    let start = scanner.pos;
    scanner.skip_while(|c| c.is_ascii_digit() || c == '.');
    scanner.src[start..scanner.pos]
        .parse()
        .map_err(|_| ParseErrorP2pml::new(start, "expected a number"))
}

fn parse_for_binding(scanner: &mut Scanner<'_>) -> Result<ForBinding, ParseErrorP2pml> {
    let var = scanner.parse_variable()?;
    scanner.expect_keyword("in")?;
    scanner.skip_ws();
    let source = parse_source(scanner)?;
    Ok(ForBinding { var, source })
}

fn parse_source(scanner: &mut Scanner<'_>) -> Result<SourceExpr, ParseErrorP2pml> {
    scanner.skip_ws();
    if scanner.eat("(") {
        // A nested subscription.
        let nested = parse_flwr(scanner, true)?;
        scanner.expect_close_paren("after nested subscription")?;
        return Ok(SourceExpr::Nested(Box::new(nested)));
    }
    let function = scanner.parse_identifier()?;
    scanner.skip_ws();
    if function.eq_ignore_ascii_case("channel") {
        // channel("#X@peer")
        if !scanner.eat("(") {
            return Err(ParseErrorP2pml::new(
                scanner.pos,
                "expected `(` after channel",
            ));
        }
        let spec = scanner.parse_string_literal()?;
        scanner.skip_ws();
        if !scanner.eat(")") {
            return Err(ParseErrorP2pml::new(scanner.pos, "expected `)`"));
        }
        let spec = spec.trim_start_matches('#');
        let (stream, peer) = spec.split_once('@').ok_or_else(|| {
            ParseErrorP2pml::new(scanner.pos, "channel reference must be \"#stream@peer\"")
        })?;
        return Ok(SourceExpr::Channel {
            peer: peer.to_string(),
            stream: stream.to_string(),
        });
    }
    if !scanner.eat("(") {
        return Err(ParseErrorP2pml::new(
            scanner.pos,
            format!("expected `(` after alerter function `{function}`"),
        ));
    }
    scanner.skip_ws();
    if scanner.peek() == Some('$') {
        let driver = scanner.parse_variable()?;
        scanner.expect_close_paren("after the driver variable")?;
        return Ok(SourceExpr::DynamicAlerter { function, driver });
    }
    let peers = parse_peer_list(scanner)?;
    if peers.is_empty() {
        return Err(ParseErrorP2pml::new(
            scanner.pos,
            format!("alerter `{function}` needs at least one monitored peer"),
        ));
    }
    Ok(SourceExpr::Alerter { function, peers })
}

/// Parses a static peer list where it stands, through its closing `)`:
/// each element's text (`<p>http://a.com</p>` …) names a monitored peer,
/// and stray text between the elements is skipped.
fn parse_peer_list(scanner: &mut Scanner<'_>) -> Result<Vec<String>, ParseErrorP2pml> {
    let start = scanner.pos;
    let mut peers = Vec::new();
    loop {
        scanner.skip_ws();
        match scanner.peek_byte() {
            Some(b')') => {
                scanner.pos += 1;
                return Ok(peers);
            }
            Some(b'<') => {
                let (element, used) = parse_element_at(scanner.src, scanner.pos).map_err(|e| {
                    ParseErrorP2pml::new(scanner.pos, format!("invalid alerter arguments: {e}"))
                })?;
                scanner.pos += used;
                peers.push(peer_text(element));
            }
            Some(_) => {
                let stray = scanner.rest().find(['<', ')']);
                scanner.pos = stray.map_or(scanner.src.len(), |at| scanner.pos + at);
            }
            None => return Err(ParseErrorP2pml::new(start, "unterminated `(`")),
        }
    }
}

/// A peer element's trimmed text, moved out of the element when it is one
/// text run that is already trimmed.
fn peer_text(mut element: Element) -> String {
    if let [Node::Text(text)] = element.children.as_mut_slice() {
        if text.trim().len() == text.len() {
            return std::mem::take(text);
        }
    }
    element.text().trim().to_string()
}

fn parse_let_binding(scanner: &mut Scanner<'_>) -> Result<LetBinding, ParseErrorP2pml> {
    let var = scanner.parse_variable()?;
    scanner.skip_ws();
    if !scanner.eat(":=") {
        return Err(ParseErrorP2pml::new(
            scanner.pos,
            "expected `:=` in LET clause",
        ));
    }
    let expr = parse_value_expr(scanner)?;
    Ok(LetBinding { var, expr })
}

fn parse_value_expr(scanner: &mut Scanner<'_>) -> Result<ValueExpr, ParseErrorP2pml> {
    let mut expr = ValueExpr::Operand(parse_operand(scanner)?);
    loop {
        scanner.skip_ws();
        let op = if scanner.eat("+") {
            ArithOp::Add
        } else if scanner.eat("-") {
            ArithOp::Sub
        } else if scanner.eat("*") {
            ArithOp::Mul
        } else if scanner.eat_keyword("div") {
            ArithOp::Div
        } else {
            break;
        };
        let right = ValueExpr::Operand(parse_operand(scanner)?);
        expr = ValueExpr::Binary {
            left: Box::new(expr),
            op,
            right: Box::new(right),
        };
    }
    Ok(expr)
}

fn parse_condition(scanner: &mut Scanner<'_>) -> Result<Condition, ParseErrorP2pml> {
    let left = parse_operand(scanner)?;
    scanner.skip_ws();
    let op = if scanner.eat("!=") {
        Some(CompareOp::Ne)
    } else if scanner.eat(">=") {
        Some(CompareOp::Ge)
    } else if scanner.eat("<=") {
        Some(CompareOp::Le)
    } else if scanner.eat("=") {
        Some(CompareOp::Eq)
    } else if scanner.eat(">") {
        Some(CompareOp::Gt)
    } else if scanner.eat("<") {
        Some(CompareOp::Lt)
    } else {
        None
    };
    match op {
        Some(op) => {
            let right = parse_operand(scanner)?;
            Ok(Condition::new(left, op, right))
        }
        None => {
            // Existence condition: `$x/some/path` with no comparison.
            Ok(Condition::new(
                left,
                CompareOp::Ne,
                Operand::Const(Value::Str(EXISTENCE_SENTINEL.to_string())),
            ))
        }
    }
}

fn parse_operand(scanner: &mut Scanner<'_>) -> Result<Operand, ParseErrorP2pml> {
    scanner.skip_ws();
    match scanner.peek() {
        Some('"') | Some('\'') => {
            let lit = scanner.parse_string_literal()?;
            Ok(Operand::Const(Value::Str(lit)))
        }
        Some('$') => {
            let var = scanner.parse_variable()?;
            match scanner.peek() {
                Some('.') => {
                    scanner.bump();
                    let attr = scanner.parse_identifier()?;
                    Ok(Operand::VarAttr { var, attr })
                }
                Some('/') => {
                    let path_text = capture_path(scanner);
                    let path = XPath::parse(path_text).map_err(|e| {
                        ParseErrorP2pml::new(
                            scanner.pos,
                            format!("invalid XPath in condition: {e}"),
                        )
                    })?;
                    Ok(Operand::VarPath { var, path })
                }
                _ => Ok(Operand::Var(var)),
            }
        }
        Some(c) if c.is_ascii_digit() || c == '-' => {
            let start = scanner.pos;
            scanner.bump();
            scanner.skip_while(|c| c.is_ascii_digit() || c == '.');
            let text = &scanner.src[start..scanner.pos];
            Ok(Operand::Const(Value::from_literal(text)))
        }
        _ => Err(ParseErrorP2pml::new(
            scanner.pos,
            format!("expected an operand, found `{}`", scanner.rest_preview()),
        )),
    }
}

/// Captures an XPath starting at `/`, stopping at whitespace or a comparison
/// operator that is *outside* brackets and quotes.
fn capture_path<'a>(scanner: &mut Scanner<'a>) -> &'a str {
    let start = scanner.pos;
    let mut depth = 0usize;
    let mut in_quote: Option<char> = None;
    while let Some(c) = scanner.peek() {
        match in_quote {
            Some(q) => {
                if c == q {
                    in_quote = None;
                }
            }
            None => match c {
                '"' | '\'' => in_quote = Some(c),
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                c if depth == 0
                    && (c.is_whitespace() || matches!(c, '=' | '!' | '<' | '>' | ',' | ')')) =>
                {
                    break;
                }
                _ => {}
            },
        }
        scanner.bump();
    }
    &scanner.src[start..scanner.pos]
}

/// Captures a RETURN body that is not a template (`$e`): everything up to
/// the top-level `by` keyword (or the closing parenthesis of a nested
/// subscription, or end of input).
fn capture_return_body<'a>(
    scanner: &mut Scanner<'a>,
    nested: bool,
) -> Result<&'a str, ParseErrorP2pml> {
    let start = scanner.pos;
    let mut angle_depth = 0usize;
    let mut brace_depth = 0usize;
    let mut in_quote: Option<char> = None;
    while let Some(c) = scanner.peek() {
        match in_quote {
            Some(q) => {
                if c == q {
                    in_quote = None;
                }
                scanner.bump();
            }
            None => {
                if angle_depth == 0 && brace_depth == 0 {
                    if nested && c == ')' {
                        break;
                    }
                    if scanner
                        .rest()
                        .get(..2)
                        .is_some_and(|by| by.eq_ignore_ascii_case("by"))
                        && scanner.rest()[2..]
                            .chars()
                            .next()
                            .map(|n| n.is_whitespace())
                            .unwrap_or(true)
                        && !is_identifier_tail(&scanner.src[..scanner.pos])
                    {
                        break;
                    }
                }
                match c {
                    '"' | '\'' if angle_depth > 0 => in_quote = Some(c),
                    '<' => angle_depth += 1,
                    '>' => angle_depth = angle_depth.saturating_sub(1),
                    '{' => brace_depth += 1,
                    '}' => brace_depth = brace_depth.saturating_sub(1),
                    _ => {}
                }
                scanner.bump();
            }
        }
    }
    let body = scanner.src[start..scanner.pos].trim();
    if body.is_empty() {
        return Err(ParseErrorP2pml::new(start, "empty RETURN clause"));
    }
    Ok(body)
}

/// True when the text ends in the middle of an identifier (so a following
/// "by" would just be part of a longer word).
fn is_identifier_tail(prefix: &str) -> bool {
    prefix
        .chars()
        .last()
        .map(|c| c.is_alphanumeric() || c == '_')
        .unwrap_or(false)
}

fn parse_by_clause(scanner: &mut Scanner<'_>) -> Result<ByClause, ParseErrorP2pml> {
    scanner.skip_ws();
    if scanner.eat_keyword("publish") {
        scanner.expect_keyword("as")?;
        scanner.expect_keyword("channel")?;
        let name = scanner.parse_string_literal()?;
        return Ok(ByClause::Channel(name));
    }
    if scanner.eat_keyword("channel") {
        // Internal form: `by channel X` (generated local tasks).
        scanner.skip_ws();
        let name = if matches!(scanner.peek(), Some('"') | Some('\'')) {
            scanner.parse_string_literal()?
        } else {
            scanner.parse_identifier()?
        };
        return Ok(ByClause::Channel(name));
    }
    if scanner.eat_keyword("email") {
        return Ok(ByClause::Email(scanner.parse_string_literal()?));
    }
    if scanner.eat_keyword("file") {
        return Ok(ByClause::File(scanner.parse_string_literal()?));
    }
    if scanner.eat_keyword("rss") {
        return Ok(ByClause::Rss(scanner.parse_string_literal()?));
    }
    Err(ParseErrorP2pml::new(
        scanner.pos,
        format!(
            "expected `publish as channel`, `channel`, `email`, `file` or `rss`, found `{}`",
            scanner.rest_preview()
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::METEO_SUBSCRIPTION;

    /// The variables the FOR clause binds, in order.
    fn for_vars(sub: &Subscription) -> Vec<&str> {
        sub.for_clause.iter().map(|b| b.var.as_str()).collect()
    }

    #[test]
    fn parses_the_figure_1_subscription() {
        let sub = parse_subscription(METEO_SUBSCRIPTION).unwrap();
        assert_eq!(for_vars(&sub), vec!["c1", "c2"]);
        assert_eq!(sub.let_clause[0].var, "duration");
        assert_eq!(sub.let_clause.len(), 1);
        assert_eq!(sub.where_clause.len(), 4);
        assert!(!sub.distinct);
        assert_eq!(sub.by, ByClause::Channel("alertQoS".to_string()));

        match &sub.for_clause[0].source {
            SourceExpr::Alerter { function, peers } => {
                assert_eq!(function, "outCOM");
                assert_eq!(
                    peers,
                    &vec!["http://a.com".to_string(), "http://b.com".to_string()]
                );
            }
            other => panic!("unexpected source {other:?}"),
        }
        // The join predicate is recognised as such.
        assert!(sub.where_clause.iter().any(Condition::is_join_predicate));
        // The template mentions both variables.
        let vars = sub.return_template.variables();
        assert_eq!(vars, vec!["c1".to_string(), "c2".to_string()]);
    }

    #[test]
    fn parses_single_source_with_simple_conditions() {
        let sub = parse_subscription(
            r#"for $e in rssFeed(<p>portal.example.org</p>)
               where $e.kind = "add"
               return <new>{$e.entry}</new>
               by email "admin@example.org";"#,
        )
        .unwrap();
        assert_eq!(for_vars(&sub), vec!["e"]);
        assert_eq!(sub.by, ByClause::Email("admin@example.org".to_string()));
        assert!(sub.where_clause[0].is_simple());
    }

    #[test]
    fn parses_distinct_and_dollar_return() {
        let sub = parse_subscription(
            r#"for $y in inCOM(<p>s.com</p>) return distinct <a>{$y}</a> by file "out.xml";"#,
        )
        .unwrap();
        assert!(sub.distinct);
        let sub2 = parse_subscription(
            r#"for $e in outCOM(<p>local</p>) where $e.callee = "http://meteo.com" return $e by channel X;"#,
        )
        .unwrap();
        assert_eq!(sub2.by, ByClause::Channel("X".to_string()));
        assert_eq!(sub2.return_template.variables(), vec!["e".to_string()]);
    }

    #[test]
    fn parses_dynamic_alerter_and_nested_subscription() {
        let sub = parse_subscription(
            r#"for $j in areRegistered(<p>s.com/dht</p>),
                   $c in inCOM($j)
               return <seen>{$c.callId}</seen>
               by publish as channel "watch";"#,
        )
        .unwrap();
        match &sub.for_clause[1].source {
            SourceExpr::DynamicAlerter { function, driver } => {
                assert_eq!(function, "inCOM");
                assert_eq!(driver, "j");
            }
            other => panic!("expected a dynamic alerter, got {other:?}"),
        }

        let nested = parse_subscription(
            r#"for $x in ( for $y in inCOM(<p>a.com</p>) where $y.callMethod = "Ping" return <p>{$y.caller}</p> )
               return <caller>{$x}</caller>
               by publish as channel "pings";"#,
        )
        .unwrap();
        match &nested.for_clause[0].source {
            SourceExpr::Nested(inner) => {
                assert_eq!(for_vars(inner), vec!["y"]);
                assert_eq!(inner.by, ByClause::Channel("__nested__".to_string()));
            }
            other => panic!("expected a nested subscription, got {other:?}"),
        }
    }

    #[test]
    fn parses_channel_source() {
        let sub = parse_subscription(
            r##"for $x in channel("#alertQoS@p")
               return <forwarded>{$x}</forwarded>
               by rss "alerts.rss";"##,
        )
        .unwrap();
        match &sub.for_clause[0].source {
            SourceExpr::Channel { peer, stream } => {
                assert_eq!(peer, "p");
                assert_eq!(stream, "alertQoS");
            }
            other => panic!("expected a channel source, got {other:?}"),
        }
        assert_eq!(sub.by, ByClause::Rss("alerts.rss".to_string()));
    }

    #[test]
    fn parses_xpath_conditions() {
        let sub = parse_subscription(
            r#"for $c in inCOM(<p>meteo.com</p>)
               where $c/alert[@callMethod = "GetTemperature"] and $c.callId > 100
               return <hit id="{$c.callId}"/>
               by publish as channel "x";"#,
        )
        .unwrap();
        assert_eq!(sub.where_clause.len(), 2);
        match &sub.where_clause[0].left {
            Operand::VarPath { var, path } => {
                assert_eq!(var, "c");
                assert!(path.source().contains("@callMethod"));
            }
            other => panic!("expected an XPath operand, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_subscriptions() {
        assert!(parse_subscription("for $x in").is_err());
        assert!(parse_subscription("for $x in foo() return <a/> by email \"x\";").is_err());
        assert!(
            parse_subscription("for $x in inCOM(<p>a</p>) return <a/>").is_err(),
            "missing BY at top level"
        );
        assert!(
            parse_subscription("for $x in inCOM(<p>a</p>) where return <a/> by email \"x\";")
                .is_err()
        );
        assert!(
            parse_subscription("for $x in inCOM(<p>a</p>) return <unclosed by email \"x\";")
                .is_err()
        );
        assert!(parse_subscription("").is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse_subscription(
            "for $x in inCOM(<p>a</p>) return <a/> by email \"x\"; extra stuff"
        )
        .is_err());
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let sub = parse_subscription(
            r#"FOR $x IN inCOM(<p>a</p>) WHERE $x.callId = 1 RETURN <a/> BY EMAIL "x";"#,
        )
        .unwrap();
        assert_eq!(for_vars(&sub), vec!["x"]);
    }

    #[test]
    fn a_by_word_in_template_text_is_the_templates() {
        let sub = parse_subscription(
            r#"for $x in inCOM(<p>a</p>) return <a>stand by me</a> by email "x";"#,
        )
        .unwrap();
        assert_eq!(sub.return_template.source(), "<a>stand by me</a>");
        assert_eq!(sub.by, ByClause::Email("x".to_string()));
    }

    #[test]
    fn a_paren_in_nested_template_text_is_the_templates() {
        let sub = parse_subscription(
            r#"for $x in ( for $y in inCOM(<p>a.com</p>) return <p>x (y)</p> )
               return <caller>{$x}</caller>
               by publish as channel "pings";"#,
        )
        .unwrap();
        let SourceExpr::Nested(inner) = &sub.for_clause[0].source else {
            panic!("expected a nested subscription");
        };
        assert_eq!(inner.return_template.source(), "<p>x (y)</p>");
        assert_eq!(inner.by, ByClause::Channel("__nested__".to_string()));
    }

    #[test]
    fn by_in_an_attribute_or_a_placeholder_stays_in_the_template() {
        let sub = parse_subscription(
            r#"for $x in inCOM(<p>a</p>) return <a note="by me">{$x.by}</a> by email "x";"#,
        )
        .unwrap();
        assert_eq!(
            sub.return_template.source(),
            r#"<a note="by me">{$x.by}</a>"#
        );
        assert_eq!(sub.return_template.variables(), vec!["x".to_string()]);
    }

    #[test]
    fn peer_text_is_read_as_xml_text() {
        let sub = parse_subscription(
            r#"for $x in inCOM(<p> it's (a).com </p> <p>b)</p> <!-- c --> <p>c&amp;d</p>)
               return <a/> by email "x";"#,
        )
        .unwrap();
        let SourceExpr::Alerter { peers, .. } = &sub.for_clause[0].source else {
            panic!("expected a static alerter");
        };
        assert_eq!(peers, &["it's (a).com", "b)", "c&d"]);
    }
}
