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
//!       literal: `[@PeerId = "p1"]`, `[price > 10]`,
//!     * positional predicates: `[2]` (1-based, per XPath).
//!
//! Evaluation is naive (tree walking).  [`XPath::select`] builds each step's
//! whole node list; [`XPath::matches`], which the Filter's tree patterns and
//! existence conditions use, walks depth-first and stops at the first
//! complete match.  The filter engine in `p2pmon-filter` evaluates only the
//! patterns of the subscriptions a document's root attributes left active.

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
    /// A relative path from the context element; its first selected node's
    /// text is used for comparisons, and non-emptiness for existence tests.
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
    /// `[n]` — positional, 1-based among the nodes selected by this step.
    Position(usize),
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

impl XPath {
    /// Parses an expression in the supported subset.
    pub fn parse(input: &str) -> Result<XPath, PathError> {
        PathParser::new(input).parse_path()
    }

    /// The original source text of the expression.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// True when the path uses no descendant axis, no wildcards and no
    /// predicates.
    pub fn is_simple_chain(&self) -> bool {
        self.steps.iter().all(|s| {
            s.axis == Axis::Child && matches!(s.name, NameTest::Name(_)) && s.predicates.is_empty()
        })
    }

    /// Selects matching elements starting from `root`.
    ///
    /// For absolute paths the first step is tested against `root` itself
    /// (the "document element"), mirroring how `/Stream[...]` is used against
    /// stream-description documents in Section 5 of the paper.
    pub fn select<'a>(&self, root: &'a Element) -> Vec<&'a Element> {
        let mut current: Vec<&'a Element> = vec![root];
        for (idx, step) in self.steps.iter().enumerate() {
            let mut next: Vec<&'a Element> = Vec::new();
            for ctx in &current {
                let candidates: Vec<&'a Element> = match step.axis {
                    Axis::Child => {
                        if idx == 0 && self.absolute {
                            // The root element is the only "child" of the
                            // document node.
                            vec![*ctx]
                        } else {
                            ctx.child_elements().collect()
                        }
                    }
                    Axis::Descendant => {
                        let mut v = Vec::new();
                        if idx == 0 {
                            // descendant-or-self for the first step.
                            v.push(*ctx);
                        }
                        v.extend(ctx.descendants());
                        v
                    }
                };
                let mut matched: Vec<&'a Element> = candidates
                    .into_iter()
                    .filter(|e| step.name.matches(&e.name))
                    .collect();
                // Apply predicates in order; positional predicates apply to
                // the list as filtered so far (per-context, like XPath).
                for pred in &step.predicates {
                    matched = apply_predicate(matched, pred);
                }
                next.extend(matched);
            }
            // De-duplicate while preserving document order: descendant axes
            // from overlapping contexts can select the same node twice.
            dedup_preserving_order(&mut next);
            current = next;
            if current.is_empty() {
                break;
            }
        }
        current
    }

    /// Selects output values: attribute values or text, depending on the
    /// expression's final step; for element outputs, the text content.
    pub fn select_values(&self, root: &Element) -> Vec<Value> {
        let elements = self.select(root);
        match &self.output {
            Output::Elements | Output::Text => elements
                .iter()
                .map(|e| Value::from_literal(&e.text()))
                .collect(),
            Output::Attribute(name) => elements
                .iter()
                .filter_map(|e| e.attr(name))
                .map(Value::from_literal)
                .collect(),
        }
    }

    /// First selected value, if any.
    pub fn first_value(&self, root: &Element) -> Option<Value> {
        self.select_values(root).into_iter().next()
    }

    /// True when the expression selects at least one node/value on `root`
    /// (`!select_values(root).is_empty()`).
    ///
    /// A depth-first walk that stops at the first element completing the
    /// path.  A positional predicate depends on its step's other candidates,
    /// not on one element, so a path with one is selected in full instead.
    pub fn matches(&self, root: &Element) -> bool {
        let positional = self
            .steps
            .iter()
            .flat_map(|step| &step.predicates)
            .any(|pred| matches!(pred, Predicate::Position(_)));
        if positional {
            self.select(root).into_iter().any(|e| self.has_output(e))
        } else {
            self.matches_from(root, 0)
        }
    }

    /// Whether steps `idx..` match from `context` (the document element
    /// before the first step) and the last element reached has the output.
    fn matches_from(&self, context: &Element, idx: usize) -> bool {
        let Some(step) = self.steps.get(idx) else {
            return self.has_output(context);
        };
        let hit = |e: &Element| step.accepts(e) && self.matches_from(e, idx + 1);
        match step.axis {
            // The root element is the only "child" of the document node.
            Axis::Child if idx == 0 && self.absolute => hit(context),
            Axis::Child => context.child_elements().any(hit),
            // descendant-or-self for the first step.
            Axis::Descendant => (idx == 0 && hit(context)) || any_descendant(context, &hit),
        }
    }

    /// Whether a selected element yields a value: the attribute output needs
    /// its attribute, element and text outputs always have one.
    fn has_output(&self, e: &Element) -> bool {
        match &self.output {
            Output::Attribute(name) => e.attr(name).is_some(),
            Output::Elements | Output::Text => true,
        }
    }
}

impl Step {
    /// Whether `e` passes the name test and every predicate that can be
    /// judged on one element.
    fn accepts(&self, e: &Element) -> bool {
        self.name.matches(&e.name) && self.predicates.iter().all(|pred| holds(pred, e))
    }
}

impl fmt::Display for XPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

fn dedup_preserving_order(v: &mut Vec<&Element>) {
    let mut seen: Vec<*const Element> = Vec::with_capacity(v.len());
    v.retain(|e| {
        let ptr = *e as *const Element;
        if seen.contains(&ptr) {
            false
        } else {
            seen.push(ptr);
            true
        }
    });
}

/// Whether `hit` holds on some element strictly below `e`, in document
/// order, stopping at the first.
fn any_descendant<'a>(e: &'a Element, hit: &dyn Fn(&'a Element) -> bool) -> bool {
    e.child_elements()
        .any(|child| hit(child) || any_descendant(child, hit))
}

fn apply_predicate<'a>(mut candidates: Vec<&'a Element>, pred: &Predicate) -> Vec<&'a Element> {
    if let Predicate::Position(n) = pred {
        return n
            .checked_sub(1)
            .and_then(|i| candidates.get(i))
            .map_or_else(Vec::new, |e| vec![*e]);
    }
    candidates.retain(|e| holds(pred, e));
    candidates
}

/// Whether `pred` holds on the element `e`: the per-element test of both
/// [`XPath::select`] and [`XPath::matches`].  A position is judged against
/// its step's candidates in `apply_predicate`, never here.
fn holds(pred: &Predicate, e: &Element) -> bool {
    match pred {
        Predicate::Position(_) => true,
        Predicate::Exists(operand) => operand_exists(e, operand),
        Predicate::Compare {
            operand,
            op,
            literal,
        } => {
            let lit = Value::from_literal(literal);
            operand_values(e, operand).iter().any(|v| op.apply(v, &lit))
        }
    }
}

fn operand_exists(e: &Element, operand: &PredicateOperand) -> bool {
    match operand {
        PredicateOperand::Attribute(name) => e.attr(name).is_some(),
        PredicateOperand::Text => !e.text().is_empty(),
        PredicateOperand::RelativePath(p) => p.matches(e),
    }
}

fn operand_values(e: &Element, operand: &PredicateOperand) -> Vec<Value> {
    match operand {
        PredicateOperand::Attribute(name) => {
            e.attr(name).map(Value::from_literal).into_iter().collect()
        }
        PredicateOperand::Text => vec![Value::from_literal(&e.text())],
        PredicateOperand::RelativePath(p) => p.select_values(e),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct PathParser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> PathParser<'a> {
    fn new(input: &'a str) -> Self {
        PathParser { input, pos: 0 }
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
        // Positional predicate.
        if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
            let n: usize = self.input[start..self.pos]
                .parse()
                .map_err(|_| PathError::new("invalid position"))?;
            if n == 0 {
                return Err(PathError::new("positions are 1-based"));
            }
            return Ok(Predicate::Position(n));
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
        let inner = XPath::parse(raw)?;
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
        let hits = p.select(&doc);
        assert_eq!(hits.len(), 2);
        let vals = p.select_values(&doc);
        assert_eq!(vals, vec![Value::Integer(1), Value::Integer(2)]);
    }

    #[test]
    fn descendant_axis_matches_root_itself() {
        let doc = parse("<a><b/></a>").unwrap();
        let p = XPath::parse("//a").unwrap();
        assert_eq!(p.select(&doc).len(), 1);
    }

    #[test]
    fn wildcard_step() {
        let doc = parse("<r><x>1</x><y>2</y></r>").unwrap();
        let p = XPath::parse("/r/*").unwrap();
        assert_eq!(p.select(&doc).len(), 2);
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
    fn positional_predicate() {
        let doc = parse("<r><i>a</i><i>b</i><i>c</i></r>").unwrap();
        let p = XPath::parse("/r/i[2]").unwrap();
        assert_eq!(p.select(&doc)[0].text(), "b");
        let p = XPath::parse("/r/i[9]").unwrap();
        assert!(p.select(&doc).is_empty());
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
    fn simple_chain_detection() {
        assert!(XPath::parse("/a/b/c").unwrap().is_simple_chain());
        assert!(!XPath::parse("/a//c").unwrap().is_simple_chain());
        assert!(!XPath::parse("/a/*[1]").unwrap().is_simple_chain());
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
    fn display_round_trips_source() {
        let src = r#"/Stream[@PeerId = "p1"][Operator/inCom]"#;
        assert_eq!(XPath::parse(src).unwrap().to_string(), src);
    }
}
