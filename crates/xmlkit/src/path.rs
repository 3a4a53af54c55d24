//! An XPath subset.
//!
//! The paper uses XPath in three places:
//!
//! 1. WHERE-clause conditions on variables, e.g.
//!    `$c1/alert[@callMethod = "GetTemperature"]`,
//! 2. the complex (tree-pattern) part of Filter subscriptions, e.g.
//!    `$item//c/d`,
//! 3. queries over the Stream Definition Database, e.g.
//!    `/Stream[@PeerId = $p1][Operator/inCom]`.
//!
//! The subset implemented here covers exactly those shapes:
//!
//! * child (`/`) and descendant-or-self (`//`) axes,
//! * name tests and the wildcard `*`,
//! * a final attribute step `@name` or `text()` producing values,
//! * predicates on any step:
//!     * existence of a relative path: `[Operator/inCom]`,
//!     * comparison of `@attr`, `text()`, a relative path or `.` against a
//!       literal: `[@PeerId = "p1"]`, `[price > 10]`.
//!
//! Every evaluation is one walk of the tree in document order that visits
//! each element once.  An element carries the set of steps that may match
//! it as a `u64` bit set: a `//` step's bit stays set below the element
//! that opened it, a `/` step's bit reaches only that element's children.
//! So a path costs elements × steps, however many `//` steps it has.
//! [`XPath::matches`], [`XPath::first_value`] and a predicate comparing a
//! relative path's values all stop at the first element, in document order,
//! that completes the path (and, for a comparison, whose value satisfies
//! it).  Two limits keep that bound, each a [`PathError`] at parse time: a
//! path has at most 64 steps (the bit set's width), and paths nest at most
//! 2 deep inside predicates, since a nested path is a fresh walk from every
//! element its step tests.

use std::fmt;

use crate::node::Element;
use crate::value::Value;

/// Error raised when an XPath expression is outside the supported subset or
/// syntactically malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathError {
    /// Description of the problem.
    pub message: String,
}

impl PathError {
    fn new(message: impl Into<String>) -> Self {
        PathError {
            message: message.into(),
        }
    }
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath error: {}", self.message)
    }
}

impl std::error::Error for PathError {}

/// The axis connecting a step to the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `/` — direct children.
    Child,
    /// `//` — any descendant (or self, for the first step of a relative path).
    Descendant,
}

/// A name test: a specific tag name or the wildcard.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NameTest {
    /// Match a specific element name.
    Name(String),
    /// `*` — match any element.
    Wildcard,
}

impl NameTest {
    /// Whether an element with the given name matches this test.
    pub fn matches(&self, name: &str) -> bool {
        match self {
            NameTest::Name(n) => n == name,
            NameTest::Wildcard => true,
        }
    }
}

/// Comparison operators allowed in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// Applies the operator to two values with XPath-style coercion.
    pub fn apply(&self, left: &Value, right: &Value) -> bool {
        use std::cmp::Ordering::*;
        let ord = match left.compare(right) {
            Some(o) => o,
            None => return false,
        };
        match self {
            CompareOp::Eq => ord == Equal,
            CompareOp::Ne => ord != Equal,
            CompareOp::Lt => ord == Less,
            CompareOp::Le => ord != Greater,
            CompareOp::Gt => ord == Greater,
            CompareOp::Ge => ord != Less,
        }
    }

    /// Renders the operator as its XPath spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }
}

/// The left-hand side of a predicate comparison (or an existence test).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PredicateOperand {
    /// `@name` — an attribute of the context element.
    Attribute(String),
    /// `text()` or `.` — the text content of the context element.
    Text,
    /// A relative path from the context element: a comparison holds when
    /// some value it selects satisfies it, an existence test when it
    /// matches.
    RelativePath(Box<XPath>),
}

/// A predicate attached to a step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// `[operand op literal]`.
    Compare {
        /// What is being compared.
        operand: PredicateOperand,
        /// The comparison operator.
        op: CompareOp,
        /// The literal to compare with (stored raw; typed lazily).
        literal: String,
    },
    /// `[operand]` — existence / truthiness.
    Exists(PredicateOperand),
}

/// One step of a path expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Step {
    /// How this step relates to the previous context.
    pub axis: Axis,
    /// The element-name test.
    pub name: NameTest,
    /// Zero or more predicates, applied in order.
    pub predicates: Vec<Predicate>,
}

/// What the final step of the path selects.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Output {
    /// The elements selected by the last step.
    Elements,
    /// The value of an attribute of the selected elements (`/@name`).
    Attribute(String),
    /// The text content of the selected elements (`/text()`).
    Text,
}

/// A parsed XPath expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct XPath {
    /// `true` if the expression started with `/` or `//` (evaluated from the
    /// document root); relative expressions are evaluated from the context
    /// element itself.
    pub absolute: bool,
    /// The location steps.
    pub steps: Vec<Step>,
    /// What the expression returns.
    pub output: Output,
    source: String,
}

/// The most steps a path may have: the width of the bit set the walk
/// carries.
const MAX_STEPS: usize = 64;

/// How deep paths may nest inside predicates (`//a[b[c]]` nests 2 deep).
/// A nested path is a fresh walk from every element its step tests, so a
/// path of s steps over n elements nested k deep costs O(s · n^(k+1)) step
/// tests; at this cap the worst case is O(s · n³).
const MAX_NESTING: usize = 2;

impl XPath {
    /// Parses an expression in the supported subset.
    pub fn parse(input: &str) -> Result<XPath, PathError> {
        PathParser::new(input, 0).parse_path()
    }

    /// The original source text of the expression.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The first value the expression selects from `root`, in document
    /// order: the attribute or the text of the first element completing the
    /// path that has one.
    ///
    /// For absolute paths the first step is tested against `root` itself
    /// (the "document element"), mirroring how `/Stream[...]` is used against
    /// stream-description documents in Section 5 of the paper.
    pub fn first_value(&self, root: &Element) -> Option<Value> {
        let mut value = None;
        self.find(root, &mut |e| {
            value = self.value(e);
            value.is_some()
        });
        value
    }

    /// True when the expression selects at least one value on `root`.
    pub fn matches(&self, root: &Element) -> bool {
        self.find(root, &mut |e| match &self.output {
            Output::Attribute(name) => e.attr(name).is_some(),
            Output::Elements | Output::Text => true,
        })
    }

    /// Whether some element completing the path over `root` passes
    /// `accept`: one walk in document order that stops at the first such
    /// element.
    fn find(&self, root: &Element, accept: &mut dyn FnMut(&Element) -> bool) -> bool {
        match self.steps.first() {
            // No location step: the context element's own output.
            None => accept(root),
            // The root element is the only "child" of the document node, and
            // `//` is descendant-or-self for the first step.
            Some(first) if self.absolute || first.axis == Axis::Descendant => {
                self.visit(root, 1, accept)
            }
            Some(_) => root.child_elements().any(|e| self.visit(e, 1, accept)),
        }
    }

    /// Whether `e`, a candidate for the steps in `open` (bit `i` for step
    /// `i`), or an element below it completes the path and passes `accept`,
    /// stopping at the first.
    fn visit(&self, e: &Element, open: u64, accept: &mut dyn FnMut(&Element) -> bool) -> bool {
        let last: u64 = 1 << (self.steps.len() - 1);
        let (mut below, mut matched) = (0, 0);
        let mut bits = open;
        while bits != 0 {
            let bit = bits & bits.wrapping_neg();
            bits ^= bit;
            let step = &self.steps[bit.trailing_zeros() as usize];
            // A `//` step stays open below the element that opened it.
            if step.axis == Axis::Descendant {
                below |= bit;
            }
            if step.accepts(e) {
                matched |= bit;
            }
        }
        if matched & last != 0 && accept(e) {
            return true;
        }
        // Each step `e` matches opens the next one for its children.
        below |= (matched & !last) << 1;
        below != 0
            && e.child_elements()
                .any(|child| self.visit(child, below, accept))
    }

    /// The value an element completing the path yields, if it has one.
    fn value(&self, e: &Element) -> Option<Value> {
        match &self.output {
            Output::Attribute(name) => e.attr(name).map(Value::from_literal),
            Output::Elements | Output::Text => Some(Value::from_literal(&e.text())),
        }
    }
}

impl Step {
    /// Whether `e` passes the name test and every predicate.
    fn accepts(&self, e: &Element) -> bool {
        self.name.matches(&e.name) && self.predicates.iter().all(|pred| holds(pred, e))
    }
}

impl fmt::Display for XPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

/// Whether `pred` holds on the element `e`.
fn holds(pred: &Predicate, e: &Element) -> bool {
    match pred {
        Predicate::Exists(PredicateOperand::Attribute(name)) => e.attr(name).is_some(),
        Predicate::Exists(PredicateOperand::Text) => !e.text().is_empty(),
        Predicate::Exists(PredicateOperand::RelativePath(p)) => p.matches(e),
        Predicate::Compare {
            operand,
            op,
            literal,
        } => {
            let lit = Value::from_literal(literal);
            let test = |v: Value| op.apply(&v, &lit);
            match operand {
                PredicateOperand::Attribute(name) => {
                    e.attr(name).map(Value::from_literal).is_some_and(test)
                }
                PredicateOperand::Text => test(Value::from_literal(&e.text())),
                PredicateOperand::RelativePath(p) => {
                    p.find(e, &mut |x| p.value(x).is_some_and(test))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct PathParser<'a> {
    input: &'a str,
    pos: usize,
    /// How deep inside predicates this path is.
    nesting: usize,
}

impl<'a> PathParser<'a> {
    fn new(input: &'a str, nesting: usize) -> Self {
        PathParser {
            input,
            pos: 0,
            nesting,
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn parse_path(&mut self) -> Result<XPath, PathError> {
        let source = self.input.trim().to_string();
        self.skip_ws();
        let mut absolute = false;
        let mut pending_axis = Axis::Child;
        if self.eat("//") {
            absolute = true;
            pending_axis = Axis::Descendant;
        } else if self.eat("/") {
            absolute = true;
        }

        let mut steps = Vec::new();
        let mut output = Output::Elements;

        loop {
            self.skip_ws();
            if self.eat("@") {
                let name = self.parse_name()?;
                output = Output::Attribute(name);
                break;
            }
            if self.rest().starts_with("text()") {
                self.pos += "text()".len();
                output = Output::Text;
                break;
            }
            let name = if self.eat("*") {
                NameTest::Wildcard
            } else {
                NameTest::Name(self.parse_name()?)
            };
            let mut predicates = Vec::new();
            loop {
                self.skip_ws();
                if self.eat("[") {
                    predicates.push(self.parse_predicate()?);
                    self.skip_ws();
                    if !self.eat("]") {
                        return Err(PathError::new("expected `]`"));
                    }
                } else {
                    break;
                }
            }
            if steps.len() == MAX_STEPS {
                return Err(PathError::new(format!(
                    "a path has at most {MAX_STEPS} steps"
                )));
            }
            steps.push(Step {
                axis: pending_axis,
                name,
                predicates,
            });
            self.skip_ws();
            if self.eat("//") {
                pending_axis = Axis::Descendant;
            } else if self.eat("/") {
                pending_axis = Axis::Child;
            } else {
                break;
            }
        }

        self.skip_ws();
        if !self.rest().is_empty() {
            return Err(PathError::new(format!(
                "unexpected trailing input `{}`",
                self.rest()
            )));
        }
        if steps.is_empty() && output == Output::Elements {
            return Err(PathError::new("empty path expression"));
        }
        Ok(XPath {
            absolute,
            steps,
            output,
            source,
        })
    }

    fn parse_name(&mut self) -> Result<String, PathError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                self.bump();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(PathError::new(format!(
                "expected a name at `{}`",
                &self.input[start..]
            )));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn parse_predicate(&mut self) -> Result<Predicate, PathError> {
        self.skip_ws();
        if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(PathError::new("positional predicates are not supported"));
        }
        let operand = self.parse_operand()?;
        self.skip_ws();
        let op = if self.eat("!=") {
            Some(CompareOp::Ne)
        } else if self.eat(">=") {
            Some(CompareOp::Ge)
        } else if self.eat("<=") {
            Some(CompareOp::Le)
        } else if self.eat("=") {
            Some(CompareOp::Eq)
        } else if self.eat(">") {
            Some(CompareOp::Gt)
        } else if self.eat("<") {
            Some(CompareOp::Lt)
        } else {
            None
        };
        match op {
            None => Ok(Predicate::Exists(operand)),
            Some(op) => {
                self.skip_ws();
                let literal = self.parse_literal()?;
                Ok(Predicate::Compare {
                    operand,
                    op,
                    literal,
                })
            }
        }
    }

    fn parse_operand(&mut self) -> Result<PredicateOperand, PathError> {
        self.skip_ws();
        if self.eat("@") {
            return Ok(PredicateOperand::Attribute(self.parse_name()?));
        }
        if self.rest().starts_with("text()") {
            self.pos += "text()".len();
            return Ok(PredicateOperand::Text);
        }
        if self.eat(".") {
            return Ok(PredicateOperand::Text);
        }
        // A relative path: read up to the comparison operator or closing ']'.
        let start = self.pos;
        let mut depth = 0usize;
        while let Some(c) = self.peek() {
            match c {
                '[' => {
                    depth += 1;
                    self.bump();
                }
                ']' if depth == 0 => break,
                ']' => {
                    depth -= 1;
                    self.bump();
                }
                '=' | '!' | '<' | '>' if depth == 0 => break,
                _ => {
                    self.bump();
                }
            }
        }
        let raw = self.input[start..self.pos].trim();
        if raw.is_empty() {
            return Err(PathError::new("empty predicate operand"));
        }
        if self.nesting == MAX_NESTING {
            return Err(PathError::new(format!(
                "paths nest at most {MAX_NESTING} deep inside predicates"
            )));
        }
        let inner = PathParser::new(raw, self.nesting + 1).parse_path()?;
        Ok(PredicateOperand::RelativePath(Box::new(inner)))
    }

    fn parse_literal(&mut self) -> Result<String, PathError> {
        self.skip_ws();
        match self.peek() {
            Some(q @ ('"' | '\'')) => {
                self.bump();
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == q {
                        let lit = self.input[start..self.pos].to_string();
                        self.bump();
                        return Ok(lit);
                    }
                    self.bump();
                }
                Err(PathError::new("unterminated string literal"))
            }
            Some(_) => {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == ']' || c.is_whitespace() {
                        break;
                    }
                    self.bump();
                }
                if self.pos == start {
                    return Err(PathError::new("expected a literal"));
                }
                Ok(self.input[start..self.pos].to_string())
            }
            None => Err(PathError::new("expected a literal, found end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn stream_doc() -> Element {
        parse(
            r#"<Stream PeerId="p1" StreamId="s1" isAChannel="true">
                 <Operator><inCom/></Operator>
                 <Operands>
                   <Operand OPeerId="p0" OStreamId="s0"/>
                 </Operands>
                 <Stats><volume>120</volume></Stats>
               </Stream>"#,
        )
        .unwrap()
    }

    #[test]
    fn absolute_root_test_with_attribute_predicate() {
        let doc = stream_doc();
        let p = XPath::parse(r#"/Stream[@PeerId = "p1"][Operator/inCom]"#).unwrap();
        assert!(p.matches(&doc));
        let p2 = XPath::parse(r#"/Stream[@PeerId = "p2"]"#).unwrap();
        assert!(!p2.matches(&doc));
    }

    #[test]
    fn relative_path_existence_predicate() {
        let doc = stream_doc();
        let p = XPath::parse("/Stream[Operands/Operand]").unwrap();
        assert!(p.matches(&doc));
        let p = XPath::parse("/Stream[Operands/Missing]").unwrap();
        assert!(!p.matches(&doc));
    }

    #[test]
    fn nested_predicate_with_attribute_comparison() {
        let doc = stream_doc();
        let p =
            XPath::parse(r#"/Stream[Operands/Operand[@OPeerId="p0"][@OStreamId="s0"]]"#).unwrap();
        assert!(p.matches(&doc));
        let p = XPath::parse(r#"/Stream[Operands/Operand[@OPeerId="wrong"]]"#).unwrap();
        assert!(!p.matches(&doc));
    }

    #[test]
    fn descendant_axis() {
        let doc = parse("<r><a><b>1</b></a><c><a><b>2</b></a></c></r>").unwrap();
        let p = XPath::parse("//a/b").unwrap();
        assert!(p.matches(&doc));
        assert_eq!(p.first_value(&doc), Some(Value::Integer(1)));
        let p = XPath::parse("//c//b").unwrap();
        assert_eq!(p.first_value(&doc), Some(Value::Integer(2)));
        assert!(!XPath::parse("//b//a").unwrap().matches(&doc));
    }

    #[test]
    fn descendant_axis_matches_root_itself() {
        let doc = parse("<a><b/></a>").unwrap();
        assert!(XPath::parse("//a").unwrap().matches(&doc));
        // A later `//` step looks strictly below its context.
        assert!(!XPath::parse("/a//a").unwrap().matches(&doc));
    }

    #[test]
    fn wildcard_step() {
        let doc = parse("<r><x>1</x><y>2</y></r>").unwrap();
        let p = XPath::parse("/r/*").unwrap();
        assert_eq!(p.first_value(&doc), Some(Value::Integer(1)));
        assert!(XPath::parse("/r/*[. = 2]").unwrap().matches(&doc));
        assert!(!XPath::parse("/r/*[. = 3]").unwrap().matches(&doc));
    }

    /// The first value is the first in document order (XPath 1.0), not the
    /// first found from the first context: here the inner `a`'s `b`.
    #[test]
    fn first_value_is_in_document_order() {
        let doc = parse("<r><a><a><b>2</b></a><b>1</b></a></r>").unwrap();
        let p = XPath::parse("//a/b").unwrap();
        assert_eq!(p.first_value(&doc), Some(Value::Integer(2)));
    }

    #[test]
    fn attribute_output() {
        let doc = stream_doc();
        let p = XPath::parse("/Stream/Operands/Operand/@OPeerId").unwrap();
        assert_eq!(p.first_value(&doc), Some(Value::Str("p0".into())));
    }

    #[test]
    fn text_output_and_numeric_comparison() {
        let doc = stream_doc();
        let p = XPath::parse("/Stream/Stats/volume/text()").unwrap();
        assert_eq!(p.first_value(&doc), Some(Value::Integer(120)));
        let p = XPath::parse("/Stream/Stats[volume > 100]").unwrap();
        assert!(p.matches(&doc));
        let p = XPath::parse("/Stream/Stats[volume > 200]").unwrap();
        assert!(!p.matches(&doc));
    }

    #[test]
    fn relative_path_evaluated_from_context() {
        let doc = parse("<alert callMethod=\"GetTemperature\"><x/></alert>").unwrap();
        let p = XPath::parse(r#"alert[@callMethod = "GetTemperature"]"#).unwrap();
        // Relative: first step's candidates are children of the context when
        // not absolute... the context itself is not `alert`'s child, so use
        // descendant-style matching via `//`.
        assert!(!p.matches(doc.child("x").unwrap()));
        let p2 = XPath::parse(r#"//alert[@callMethod = "GetTemperature"]"#).unwrap();
        assert!(p2.matches(&doc));
    }

    #[test]
    fn parse_errors() {
        assert!(XPath::parse("").is_err());
        assert!(XPath::parse("/a[").is_err());
        assert!(XPath::parse("/a[@x = ").is_err());
        assert!(XPath::parse("/a[0]").is_err());
        assert!(XPath::parse("/a/b junk more").is_err());
    }

    #[test]
    fn positions_are_parse_errors() {
        for src in ["/a[1]", "//a[2]/b", "/a[@x][3]"] {
            let err = XPath::parse(src).unwrap_err();
            assert!(err.message.contains("positional"), "{src}: {err}");
        }
    }

    /// The last of 64 steps is the bit set's top bit: a 64-deep chain
    /// completes the path, a 63-deep one does not.
    #[test]
    fn the_last_of_the_most_steps_is_walked() {
        let deep = |depth: usize| {
            let mut doc = Element::new("a");
            for _ in 1..depth {
                let mut parent = Element::new("a");
                parent.push_element(doc);
                doc = parent;
            }
            doc
        };
        let path = XPath::parse(&"/a".repeat(MAX_STEPS)).unwrap();
        assert!(path.matches(&deep(MAX_STEPS)));
        assert!(!path.matches(&deep(MAX_STEPS - 1)));
    }

    #[test]
    fn display_round_trips_source() {
        let src = r#"/Stream[@PeerId = "p1"][Operator/inCom]"#;
        assert_eq!(XPath::parse(src).unwrap().to_string(), src);
    }
}
