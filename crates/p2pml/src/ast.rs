//! The abstract syntax of P2PML subscriptions.

use p2pmon_streams::{AggregateSpec, Condition, Operand, Template};
use p2pmon_xmlkit::Value;

/// A parsed subscription.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// FOR clause: the information sources, one binding per variable.
    pub for_clause: Vec<ForBinding>,
    /// LET clause: derived values.
    pub let_clause: Vec<LetBinding>,
    /// WHERE clause: a conjunction of conditions.
    pub where_clause: Vec<Condition>,
    /// Whether the RETURN clause asked for duplicate-free results.
    pub distinct: bool,
    /// RETURN clause: the output template (a placeholder `<aggregate/>` for
    /// aggregate subscriptions, whose answers the sketch root materializes).
    pub return_template: Template,
    /// Aggregate RETURN clause (`return topk($c.method, 5)` …): compiled to a
    /// sketch merge tree instead of a Restructure.
    pub aggregate: Option<AggregateSpec>,
    /// BY clause: how the user is notified.
    pub by: ByClause,
}

/// One FOR binding: `$var in <source>`.
#[derive(Debug, Clone, PartialEq)]
pub struct ForBinding {
    /// Variable name, without the `$`.
    pub var: String,
    /// The source expression.
    pub source: SourceExpr,
}

/// A source of stream items in a FOR clause.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceExpr {
    /// An alerter function over a static collection of monitored peers, e.g.
    /// `outCOM(<p>http://a.com</p> <p>http://b.com</p>)`.
    Alerter {
        /// The alerter function name (`inCOM`, `outCOM`, `rssFeed`, …).
        function: String,
        /// The monitored peers (the text of the `<p>` arguments).
        peers: Vec<String>,
    },
    /// An alerter function whose collection of monitored peers is *dynamic*,
    /// driven by another stream variable: `inCOM($j)`.
    DynamicAlerter {
        /// The alerter function name.
        function: String,
        /// The variable carrying membership events (`<p-join>`/`<p-leave>`).
        driver: String,
    },
    /// A nested subscription: `for $x in ( for $y in … ) …`.
    Nested(Box<Subscription>),
    /// A subscription to an already-published channel: `channel("#X@peer")`.
    Channel {
        /// The publishing peer.
        peer: String,
        /// The stream/channel identifier.
        stream: String,
    },
}

/// One LET binding: `$var := <expr>`.
#[derive(Debug, Clone, PartialEq)]
pub struct LetBinding {
    /// Variable name, without the `$`.
    pub var: String,
    /// The defining expression.
    pub expr: ValueExpr,
}

/// A value expression in a LET clause.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueExpr {
    /// A single operand (`$c1.callTimestamp`, a constant, an XPath value…).
    Operand(Operand),
    /// A binary arithmetic expression.
    Binary {
        /// Left operand expression.
        left: Box<ValueExpr>,
        /// The operator.
        op: ArithOp,
        /// Right operand expression.
        right: Box<ValueExpr>,
    },
}

impl ValueExpr {
    /// The variables (FOR or LET) this expression reads, sorted and
    /// deduplicated.
    pub fn variables(&self) -> Vec<&str> {
        let mut vars = Vec::new();
        self.collect_variables(&mut vars);
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    fn collect_variables<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            ValueExpr::Operand(op) => out.extend(operand_var(op)),
            ValueExpr::Binary { left, right, .. } => {
                left.collect_variables(out);
                right.collect_variables(out);
            }
        }
    }

    /// Evaluates the expression over bindings.
    pub fn eval(&self, bindings: &p2pmon_streams::Bindings) -> Option<Value> {
        match self {
            ValueExpr::Operand(op) => op.eval(bindings),
            ValueExpr::Binary { left, op, right } => {
                let l = left.eval(bindings)?;
                let r = right.eval(bindings)?;
                match op {
                    ArithOp::Add => l.add(&r),
                    ArithOp::Sub => l.sub(&r),
                    ArithOp::Mul => l.mul(&r),
                    ArithOp::Div => l.div(&r),
                }
            }
        }
    }
}

/// The variable an operand reads, if any.
pub(crate) fn operand_var(operand: &Operand) -> Option<&str> {
    match operand {
        Operand::Const(_) => None,
        Operand::VarAttr { var, .. } | Operand::VarPath { var, .. } | Operand::Var(var) => {
            Some(var)
        }
    }
}

/// Arithmetic operators allowed in LET expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
}

/// The BY clause: how detected events reach the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ByClause {
    /// `publish as channel "name"` — the pub/sub case; other peers and other
    /// subscriptions can refer to the channel.
    Channel(String),
    /// `email "address"` — a digest is mailed (simulated sink).
    Email(String),
    /// `file "path"` — results are appended to an XML / XHTML document.
    File(String),
    /// `rss "path"` — results are published as an RSS feed.
    Rss(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_streams::Bindings;
    use p2pmon_xmlkit::parse;

    #[test]
    fn value_expr_evaluation() {
        let mut b = Bindings::new();
        b.bind_tree(
            "c1",
            parse(r#"<alert callTimestamp="100" responseTimestamp="130"/>"#).unwrap(),
        );
        let expr = ValueExpr::Binary {
            left: Box::new(ValueExpr::Operand(Operand::VarAttr {
                var: "c1".into(),
                attr: "responseTimestamp".into(),
            })),
            op: ArithOp::Sub,
            right: Box::new(ValueExpr::Operand(Operand::VarAttr {
                var: "c1".into(),
                attr: "callTimestamp".into(),
            })),
        };
        assert_eq!(expr.eval(&b), Some(Value::Integer(30)));
        assert_eq!(expr.variables(), vec!["c1".to_string()]);
    }
}
