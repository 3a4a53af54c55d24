//! WHERE-clause conditions.
//!
//! The paper distinguishes two classes of conditions:
//!
//! * **simple conditions** — equality / inequality between a *root attribute*
//!   of a stream item and a constant (e.g. `$c1.callee = "http://meteo.com"`).
//!   These are cheap: the pre-filter can check them after reading only the
//!   first tag of the document.  [`AttrCondition`] represents them.
//! * **complex conditions** — anything needing an XML query processor:
//!   XPath/tree-pattern tests on the item's content, or comparisons between
//!   two variables (join predicates).  [`Condition`] with general
//!   [`Operand`]s represents them.
//!
//! Both are evaluated against [`Bindings`].

use std::fmt;

use p2pmon_xmlkit::path::CompareOp;
use p2pmon_xmlkit::{Value, XPath};

use crate::binding::Bindings;

/// A simple condition: `attribute op constant` on the root element of one
/// bound variable.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrCondition {
    /// Root attribute name.
    pub attr: String,
    /// Comparison operator.
    pub op: CompareOp,
    /// Constant to compare against (typed lazily).
    pub constant: String,
}

impl AttrCondition {
    /// Creates a simple condition.
    pub fn new(attr: impl Into<String>, op: CompareOp, constant: impl ToString) -> Self {
        AttrCondition {
            attr: attr.into(),
            op,
            constant: constant.to_string(),
        }
    }

    /// Evaluates the condition against a root element's attributes.
    pub fn eval(&self, root: &p2pmon_xmlkit::Element) -> bool {
        match root.attr_value(&self.attr) {
            Some(v) => self.op.apply(&v, &Value::from_literal(&self.constant)),
            None => false,
        }
    }

    /// A canonical textual key for this condition, used to order and
    /// deduplicate conditions inside the AES hash-tree (which requires a
    /// total order over the condition alphabet).
    pub fn key(&self) -> String {
        format!("{}{}{}", self.attr, self.op.as_str(), self.constant)
    }
}

impl fmt::Display for AttrCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            ".{} {} \"{}\"",
            self.attr,
            self.op.as_str(),
            self.constant
        )
    }
}

/// One side of a general condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A constant.
    Const(Value),
    /// `$var.attr` — a root attribute of a bound tree.
    VarAttr {
        /// Variable name (without the `$`).
        var: String,
        /// Attribute name.
        attr: String,
    },
    /// `$var/relative/path` — the first value, in document order, that an
    /// XPath selects from the bound tree.
    VarPath {
        /// Variable name.
        var: String,
        /// The relative path.
        path: XPath,
    },
    /// `$var` — a derived (LET) value, or the text content of a bound tree
    /// when no derived value with that name exists.
    Var(String),
}

impl Operand {
    /// Evaluates the operand to a value, if possible.
    pub fn eval(&self, bindings: &Bindings) -> Option<Value> {
        match self {
            Operand::Const(v) => Some(v.clone()),
            Operand::VarAttr { var, attr } => bindings.tree(var)?.attr_value(attr),
            Operand::VarPath { var, path } => path.first_value(bindings.tree(var)?),
            Operand::Var(var) => match bindings.value(var) {
                Some(v) => Some(v.clone()),
                None => bindings.tree(var).map(|t| Value::from_literal(&t.text())),
            },
        }
    }

    /// The variables this operand depends on.
    pub fn variables(&self) -> Vec<&str> {
        match self {
            Operand::Const(_) => vec![],
            Operand::VarAttr { var, .. } | Operand::VarPath { var, .. } | Operand::Var(var) => {
                vec![var.as_str()]
            }
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(v) => match v {
                Value::Str(s) => write!(f, "\"{s}\""),
                other => write!(f, "{other}"),
            },
            Operand::VarAttr { var, attr } => write!(f, "${var}.{attr}"),
            Operand::VarPath { var, path } => write!(f, "${var}/{path}"),
            Operand::Var(var) => write!(f, "${var}"),
        }
    }
}

/// A general condition `left op right`.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// Left-hand operand.
    pub left: Operand,
    /// Comparison operator.
    pub op: CompareOp,
    /// Right-hand operand.
    pub right: Operand,
}

impl Condition {
    /// Creates a condition.
    pub fn new(left: Operand, op: CompareOp, right: Operand) -> Self {
        Condition { left, op, right }
    }

    /// Evaluates against bindings.  A condition whose operands cannot be
    /// evaluated (missing variable, missing attribute) is *false*, matching
    /// the paper's filter semantics: an alert without the attribute simply
    /// does not match the subscription.
    pub fn eval(&self, bindings: &Bindings) -> bool {
        match (self.left.eval(bindings), self.right.eval(bindings)) {
            (Some(l), Some(r)) => self.op.apply(&l, &r),
            _ => false,
        }
    }

    /// The set of variables mentioned by the condition.
    pub fn variables(&self) -> Vec<&str> {
        let mut vars = self.left.variables();
        vars.extend(self.right.variables());
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// True when the condition involves a single variable and compares one of
    /// its *root attributes* to a constant — i.e. it is a *simple condition*
    /// that the pre-filter can check on the fly.
    pub fn is_simple(&self) -> bool {
        self.simple_var().is_some()
    }

    /// True when the condition compares attributes of two *different*
    /// variables — i.e. it is a join predicate.
    pub fn is_join_predicate(&self) -> bool {
        self.variables().len() == 2
    }

    /// Converts a simple condition into its [`AttrCondition`] form (with the
    /// variable it applies to).  Returns `None` for non-simple conditions.
    pub fn as_attr_condition(&self) -> Option<(String, AttrCondition)> {
        let var = self.simple_var()?.to_string();
        Some((var, self.clone().into_attr_condition()?))
    }

    /// The variable a simple condition applies to; `None` for non-simple
    /// conditions.
    pub fn simple_var(&self) -> Option<&str> {
        match (&self.left, &self.right) {
            (Operand::VarAttr { var, .. }, Operand::Const(_))
            | (Operand::Const(_), Operand::VarAttr { var, .. }) => Some(var),
            _ => None,
        }
    }

    /// Turns a simple condition into its [`AttrCondition`] form by value,
    /// moving the attribute name and the constant.  Returns `None` for
    /// non-simple conditions.
    pub fn into_attr_condition(self) -> Option<AttrCondition> {
        let (attr, op, constant) = match self {
            Condition {
                left: Operand::VarAttr { attr, .. },
                op,
                right: Operand::Const(c),
            } => (attr, op, c),
            Condition {
                left: Operand::Const(c),
                op,
                right: Operand::VarAttr { attr, .. },
            } => (attr, flip(op), c),
            _ => return None,
        };
        let constant = match constant {
            Value::Str(s) => s,
            other => other.as_string(),
        };
        Some(AttrCondition { attr, op, constant })
    }
}

fn flip(op: CompareOp) -> CompareOp {
    match op {
        CompareOp::Lt => CompareOp::Gt,
        CompareOp::Le => CompareOp::Ge,
        CompareOp::Gt => CompareOp::Lt,
        CompareOp::Ge => CompareOp::Le,
        other => other,
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op.as_str(), self.right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

    fn meteo_bindings() -> Bindings {
        let mut b = Bindings::new();
        b.bind_tree(
            "c1",
            parse(
                r#"<alert callId="42" callMethod="GetTemperature" callee="http://meteo.com"
                        caller="http://a.com" callTimestamp="100" responseTimestamp="115">
                     <soap><body><city>Orsay</city></body></soap>
                   </alert>"#,
            )
            .unwrap(),
        );
        b.bind_tree(
            "c2",
            parse(r#"<alert callId="42" callTimestamp="101"/>"#).unwrap(),
        );
        b.bind_value("duration", Value::Integer(15));
        b
    }

    #[test]
    fn simple_attr_condition() {
        let c = AttrCondition::new("callMethod", CompareOp::Eq, "GetTemperature");
        let b = meteo_bindings();
        assert!(c.eval(b.tree("c1").unwrap()));
        let c2 = AttrCondition::new("callMethod", CompareOp::Eq, "Other");
        assert!(!c2.eval(b.tree("c1").unwrap()));
        let missing = AttrCondition::new("nope", CompareOp::Eq, "x");
        assert!(!missing.eval(b.tree("c1").unwrap()));
    }

    #[test]
    fn attr_condition_key_is_canonical() {
        let a = AttrCondition::new("x", CompareOp::Le, "5");
        let b = AttrCondition::new("x", CompareOp::Le, 5);
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), AttrCondition::new("x", CompareOp::Lt, "5").key());
    }

    #[test]
    fn where_clause_of_the_paper_example() {
        let b = meteo_bindings();
        // $duration > 10
        let c1 = Condition::new(
            Operand::Var("duration".into()),
            CompareOp::Gt,
            Operand::Const(Value::Integer(10)),
        );
        // $c1.callMethod = "GetTemperature"
        let c2 = Condition::new(
            Operand::VarAttr {
                var: "c1".into(),
                attr: "callMethod".into(),
            },
            CompareOp::Eq,
            Operand::Const(Value::Str("GetTemperature".into())),
        );
        // $c1.callId = $c2.callId (join predicate)
        let c3 = Condition::new(
            Operand::VarAttr {
                var: "c1".into(),
                attr: "callId".into(),
            },
            CompareOp::Eq,
            Operand::VarAttr {
                var: "c2".into(),
                attr: "callId".into(),
            },
        );
        assert!(c1.eval(&b));
        assert!(c2.eval(&b));
        assert!(c3.eval(&b));
        assert!(!c1.is_simple());
        assert!(c2.is_simple());
        assert!(!c2.is_join_predicate());
        assert!(c3.is_join_predicate());
    }

    #[test]
    fn xpath_operand() {
        let b = meteo_bindings();
        let c = Condition::new(
            Operand::VarPath {
                var: "c1".into(),
                path: XPath::parse("//city/text()").unwrap(),
            },
            CompareOp::Eq,
            Operand::Const(Value::Str("Orsay".into())),
        );
        assert!(c.eval(&b));
    }

    #[test]
    fn missing_operands_evaluate_to_false() {
        let b = meteo_bindings();
        let c = Condition::new(
            Operand::VarAttr {
                var: "missing".into(),
                attr: "x".into(),
            },
            CompareOp::Eq,
            Operand::Const(Value::Integer(1)),
        );
        assert!(!c.eval(&b));
    }

    #[test]
    fn as_attr_condition_flips_constant_on_left() {
        let c = Condition::new(
            Operand::Const(Value::Integer(10)),
            CompareOp::Lt,
            Operand::VarAttr {
                var: "c1".into(),
                attr: "duration".into(),
            },
        );
        let (var, attr_cond) = c.as_attr_condition().unwrap();
        assert_eq!(var, "c1");
        assert_eq!(attr_cond.op, CompareOp::Gt);
        assert_eq!(attr_cond.attr, "duration");
    }

    #[test]
    fn display_forms() {
        let c = Condition::new(
            Operand::VarAttr {
                var: "c1".into(),
                attr: "callee".into(),
            },
            CompareOp::Eq,
            Operand::Const(Value::Str("http://meteo.com".into())),
        );
        assert_eq!(c.to_string(), "$c1.callee = \"http://meteo.com\"");
    }
}
