//! Compilation of parsed subscriptions into logical monitoring plans.
//!
//! The Subscription Manager "is in charge of translating the subscription
//! into a monitoring plan, optimizing this plan, and then deploying the
//! optimized plan".  This module performs the *translation* step: the output
//! is a peer-annotated operator tree in which selections are already pushed
//! onto the individual sources ("the selections were pushed as much as
//! possible to the proximity of the sources to save on communications"),
//! joins connect the sources pairwise, and the RETURN template sits on top.
//! Placement, reuse and deployment are the business of `p2pmon-core`.

use std::collections::BTreeMap;
use std::fmt;

use p2pmon_streams::{AggregateSpec, AttrCondition, ChannelId, Condition, Operand, Template};
use p2pmon_xmlkit::XPath;

use crate::ast::{ByClause, SourceExpr, Subscription, ValueExpr};
use crate::parser::EXISTENCE_SENTINEL;

pub use p2pmon_streams::normalize_peer;

/// Errors raised during plan construction.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanError {
    /// Description of the problem.
    pub message: String,
}

impl PlanError {
    fn new(message: impl Into<String>) -> Self {
        PlanError {
            message: message.into(),
        }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan error: {}", self.message)
    }
}

impl std::error::Error for PlanError {}

/// One node of a logical monitoring plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalNode {
    /// An alerter running at a monitored peer, bound to a variable.
    Alerter {
        /// Alerter function ("inCOM", "outCOM", "rssFeed", …).
        function: String,
        /// The peer whose activity is observed (normalised).
        peer: String,
        /// The FOR variable the alerts bind to.
        var: String,
    },
    /// An alerter whose monitored-peer collection is driven by a membership
    /// stream (`inCOM($j)`).
    DynamicAlerter {
        /// Alerter function.
        function: String,
        /// The FOR variable the alerts bind to.
        var: String,
        /// The plan producing the membership events.
        driver: Box<LogicalNode>,
    },
    /// A subscription to an existing channel.
    ChannelIn {
        /// The channel: its publishing peer (normalised) and stream id.
        channel: ChannelId,
        /// The FOR variable the received items bind to.
        var: String,
    },
    /// Union (∪) of several inputs carrying the same variable.
    Union {
        /// The variable carried by all inputs.
        var: String,
        /// The merged inputs.
        inputs: Vec<LogicalNode>,
    },
    /// Filter (σ): single-variable selection pushed next to its source.
    Select {
        /// The variable the conditions apply to.
        var: String,
        /// The filtered input.
        input: Box<LogicalNode>,
        /// Simple conditions on root attributes.
        simple: Vec<AttrCondition>,
        /// Tree patterns: the existence conditions on `var`.
        patterns: Vec<XPath>,
        /// Derived (LET) values needed by the general conditions.
        derived: Vec<(String, ValueExpr)>,
        /// Remaining general conditions.
        conditions: Vec<Condition>,
    },
    /// Join (⋈) of two inputs on an attribute equality.
    Join {
        /// Left input.
        left: Box<LogicalNode>,
        /// Right input.
        right: Box<LogicalNode>,
        /// (variable, attribute) giving the left join key.
        left_key: (String, String),
        /// (variable, attribute) giving the right join key.
        right_key: (String, String),
        /// Residual conditions evaluated on the joined tuple.
        residual: Vec<Condition>,
    },
    /// Duplicate removal over the whole output tree.
    Dedup {
        /// The de-duplicated input.
        input: Box<LogicalNode>,
    },
    /// Restructure (Π): applies the RETURN template.
    Restructure {
        /// The input.
        input: Box<LogicalNode>,
        /// The output template.
        template: Template,
        /// Derived (LET) values the template may reference.
        derived: Vec<(String, ValueExpr)>,
    },
    /// Sketch aggregation (`TopK` / `Entropy` / `Quantile`) over the keyed
    /// input stream.  The planner expands this single logical node into a
    /// merge tree: leaf sketches next to the sources, interior merge nodes,
    /// and one root that materializes the XML answers.
    Aggregate {
        /// The FOR variable the key is drawn from.
        var: String,
        /// The aggregated input.
        input: Box<LogicalNode>,
        /// Which sketch to maintain and how to key it.
        spec: AggregateSpec,
    },
}

impl LogicalNode {
    /// The variables available in this node's output.
    pub fn output_vars(&self) -> Vec<String> {
        match self {
            LogicalNode::Alerter { var, .. }
            | LogicalNode::DynamicAlerter { var, .. }
            | LogicalNode::ChannelIn { var, .. }
            | LogicalNode::Union { var, .. } => vec![var.clone()],
            LogicalNode::Select { input, .. }
            | LogicalNode::Dedup { input }
            | LogicalNode::Restructure { input, .. }
            | LogicalNode::Aggregate { input, .. } => input.output_vars(),
            LogicalNode::Join { left, right, .. } => {
                let mut vars = left.output_vars();
                vars.extend(right.output_vars());
                vars
            }
        }
    }

    /// All monitored peers mentioned by the plan.
    pub fn peers(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_peers(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_peers(&self, out: &mut Vec<String>) {
        match self {
            LogicalNode::Alerter { peer, .. } => out.push(peer.clone()),
            LogicalNode::ChannelIn { channel, .. } => out.push(channel.peer.to_string()),
            _ => self.children().for_each(|input| input.collect_peers(out)),
        }
    }

    /// Number of operator nodes in the plan.
    pub fn size(&self) -> usize {
        1 + self.children().map(LogicalNode::size).sum::<usize>()
    }

    /// The node's inputs in plan order: a dynamic alerter's driver, a
    /// union's inputs in order, a join's left then right input, or the
    /// single input of every other operator.  Leaves have none.
    pub fn children(&self) -> impl Iterator<Item = &LogicalNode> {
        let (inputs, right): (&[LogicalNode], Option<&LogicalNode>) = match self {
            LogicalNode::Alerter { .. } | LogicalNode::ChannelIn { .. } => (&[], None),
            LogicalNode::Union { inputs, .. } => (inputs, None),
            LogicalNode::Join { left, right, .. } => (std::slice::from_ref(left), Some(right)),
            LogicalNode::DynamicAlerter { driver: input, .. }
            | LogicalNode::Select { input, .. }
            | LogicalNode::Dedup { input }
            | LogicalNode::Restructure { input, .. }
            | LogicalNode::Aggregate { input, .. } => (std::slice::from_ref(input), None),
        };
        inputs.iter().chain(right)
    }

    /// Replaces each input with `f` of it, in [`LogicalNode::children`]'s
    /// order, and keeps every other field.  Nothing is allocated: each
    /// input is rewritten in the slot it occupies.
    pub fn map_children(mut self, mut f: impl FnMut(LogicalNode) -> LogicalNode) -> LogicalNode {
        let mut map = |slot: &mut LogicalNode| {
            // An input-less union is the placeholder: it owns no heap memory.
            let empty = LogicalNode::Union {
                var: String::new(),
                inputs: Vec::new(),
            };
            let input = std::mem::replace(slot, empty);
            *slot = f(input);
        };
        match &mut self {
            LogicalNode::Alerter { .. } | LogicalNode::ChannelIn { .. } => {}
            LogicalNode::Union { inputs, .. } => inputs.iter_mut().for_each(map),
            LogicalNode::Join { left, right, .. } => {
                map(left);
                map(right);
            }
            LogicalNode::DynamicAlerter { driver: input, .. }
            | LogicalNode::Select { input, .. }
            | LogicalNode::Dedup { input }
            | LogicalNode::Restructure { input, .. }
            | LogicalNode::Aggregate { input, .. } => map(input),
        }
        self
    }
}

impl fmt::Display for LogicalNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalNode::Alerter {
                function,
                peer,
                var,
            } => {
                write!(f, "{function}@{peer}→${var}")
            }
            LogicalNode::DynamicAlerter {
                function,
                var,
                driver,
            } => {
                write!(f, "{function}[{driver}]→${var}")
            }
            LogicalNode::ChannelIn { channel, var } => write!(f, "{channel}→${var}"),
            LogicalNode::Union { inputs, .. } => {
                write!(f, "union(")?;
                for (i, input) in inputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{input}")?;
                }
                write!(f, ")")
            }
            LogicalNode::Select {
                input,
                simple,
                patterns,
                conditions,
                ..
            } => {
                write!(
                    f,
                    "select[{} simple, {} patterns, {} general]({input})",
                    simple.len(),
                    patterns.len(),
                    conditions.len()
                )
            }
            LogicalNode::Join {
                left,
                right,
                left_key,
                right_key,
                ..
            } => write!(
                f,
                "join[${}.{} = ${}.{}]({left}, {right})",
                left_key.0, left_key.1, right_key.0, right_key.1
            ),
            LogicalNode::Dedup { input } => write!(f, "dedup({input})"),
            LogicalNode::Restructure { input, .. } => write!(f, "restructure({input})"),
            LogicalNode::Aggregate { input, spec, .. } => {
                write!(f, "{}({input})", spec.kind.name())
            }
        }
    }
}

/// A compiled logical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan {
    /// The operator tree.
    pub root: LogicalNode,
    /// How the result stream is delivered.
    pub by: ByClause,
    /// Whether duplicate-free output was requested (also reflected by a Dedup
    /// node in the tree; kept here for plan descriptions).
    pub distinct: bool,
}

impl LogicalPlan {
    /// All monitored peers involved.
    pub fn peers(&self) -> Vec<String> {
        self.root.peers()
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} by {:?}", self.root, self.by)
    }
}

/// Compiles a parsed subscription into a logical plan.
pub fn compile(subscription: &Subscription) -> Result<LogicalPlan, PlanError> {
    if subscription.for_clause.is_empty() {
        return Err(PlanError::new(
            "a subscription needs at least one FOR binding",
        ));
    }
    let for_vars: Vec<String> = subscription
        .for_clause
        .iter()
        .map(|b| b.var.clone())
        .collect();

    // Which FOR variables does each LET variable (transitively) depend on?
    let mut let_deps: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for binding in &subscription.let_clause {
        let mut deps = Vec::new();
        for v in binding.expr.variables() {
            if for_vars.contains(&v) {
                deps.push(v);
            } else if let Some(inner) = let_deps.get(&v) {
                deps.extend(inner.clone());
            }
        }
        deps.sort();
        deps.dedup();
        let_deps.insert(binding.var.clone(), deps);
    }
    let resolve_vars = |condition: &Condition| -> Vec<String> {
        let mut out = Vec::new();
        for v in condition.variables() {
            if for_vars.iter().any(|fv| fv == v) {
                out.push(v.to_string());
            } else if let Some(deps) = let_deps.get(v) {
                out.extend(deps.clone());
            }
        }
        out.sort();
        out.dedup();
        out
    };

    // Partition the WHERE conditions.
    let mut per_var: BTreeMap<String, Vec<Condition>> = BTreeMap::new();
    let mut join_conditions: Vec<Condition> = Vec::new();
    for condition in &subscription.where_clause {
        let vars = resolve_vars(condition);
        match vars.len() {
            0 | 1 => {
                let var = vars.first().cloned().unwrap_or_else(|| for_vars[0].clone());
                per_var.entry(var).or_default().push(condition.clone());
            }
            _ => join_conditions.push(condition.clone()),
        }
    }

    // Build one (possibly filtered) source sub-plan per FOR variable.
    let sources_by_var: BTreeMap<&str, &SourceExpr> = subscription
        .for_clause
        .iter()
        .map(|b| (b.var.as_str(), &b.source))
        .collect();
    let mut sub_plans: Vec<(String, LogicalNode)> = Vec::new();
    for binding in &subscription.for_clause {
        let source = build_source(&binding.var, &binding.source, &sources_by_var)?;
        let conditions = per_var.remove(&binding.var).unwrap_or_default();
        let derived: Vec<(String, ValueExpr)> = subscription
            .let_clause
            .iter()
            .filter(|l| {
                let_deps
                    .get(&l.var)
                    .map(|deps| deps.len() == 1 && deps[0] == binding.var)
                    .unwrap_or(false)
            })
            .map(|l| (l.var.clone(), l.expr.clone()))
            .collect();
        let node = if conditions.is_empty() && derived.is_empty() {
            source
        } else {
            build_select(&binding.var, source, conditions, derived)
        };
        sub_plans.push((binding.var.clone(), node));
    }

    // Some FOR variables only exist to drive a dynamic alerter; they are
    // consumed inside the DynamicAlerter node and do not join with anything.
    let driver_vars: Vec<String> = subscription
        .for_clause
        .iter()
        .filter_map(|b| match &b.source {
            SourceExpr::DynamicAlerter { driver, .. } => Some(driver.clone()),
            _ => None,
        })
        .collect();
    sub_plans.retain(|(var, _)| !driver_vars.contains(var));

    // Chain the remaining sub-plans with joins.
    let mut iter = sub_plans.into_iter();
    let (first_var, mut current) = iter
        .next()
        .ok_or_else(|| PlanError::new("no usable FOR binding after removing driver variables"))?;
    let mut joined_vars = vec![first_var];
    for (var, node) in iter {
        // Find an equality predicate connecting `var` to one of the joined
        // variables.
        let mut key: Option<((String, String), (String, String))> = None;
        let mut residual: Vec<Condition> = Vec::new();
        join_conditions.retain(|c| {
            let involved = resolve_vars(c);
            let connects = involved.contains(&var)
                && involved.iter().any(|v| joined_vars.contains(v))
                && involved.len() == 2;
            if !connects {
                return true;
            }
            if key.is_none() {
                if let (
                    Operand::VarAttr { var: lv, attr: la },
                    Operand::VarAttr { var: rv, attr: ra },
                ) = (&c.left, &c.right)
                {
                    if c.op == p2pmon_xmlkit::path::CompareOp::Eq {
                        // Orient the key so the left side is an already-joined
                        // variable.
                        let (lk, rk) = if joined_vars.contains(lv) {
                            ((lv.clone(), la.clone()), (rv.clone(), ra.clone()))
                        } else {
                            ((rv.clone(), ra.clone()), (lv.clone(), la.clone()))
                        };
                        key = Some((lk, rk));
                        return false;
                    }
                }
            }
            residual.push(c.clone());
            false
        });
        let (left_key, right_key) = key.ok_or_else(|| {
            PlanError::new(format!(
                "no equality join predicate connects ${var} to the other sources \
                 (cartesian products are not supported)"
            ))
        })?;
        current = LogicalNode::Join {
            left: Box::new(current),
            right: Box::new(node),
            left_key,
            right_key,
            residual,
        };
        joined_vars.push(var);
    }
    if !join_conditions.is_empty() {
        // Leftover multi-variable conditions become residuals of the topmost
        // join when one exists.
        match &mut current {
            LogicalNode::Join { residual, .. } => residual.extend(join_conditions),
            _ => {
                return Err(PlanError::new(
                    "multi-variable conditions require at least two sources",
                ))
            }
        }
    }

    // Derived values the template needs (those not already attached to a
    // single-variable Select, i.e. multi-variable LETs).
    let template_derived: Vec<(String, ValueExpr)> = subscription
        .let_clause
        .iter()
        .filter(|l| {
            let_deps
                .get(&l.var)
                .map(|deps| deps.len() != 1)
                .unwrap_or(true)
                || subscription.return_template.variables().contains(&l.var)
        })
        .map(|l| (l.var.clone(), l.expr.clone()))
        .collect();

    if let Some(spec) = &subscription.aggregate {
        // Aggregates replace the Dedup/Restructure top: the sketch root
        // materializes the answers itself.
        if !for_vars.contains(&spec.var) {
            return Err(PlanError::new(format!(
                "aggregate key variable ${} is not bound by the FOR clause",
                spec.var
            )));
        }
        return Ok(LogicalPlan {
            root: LogicalNode::Aggregate {
                var: spec.var.clone(),
                input: Box::new(current),
                spec: spec.clone(),
            },
            by: subscription.by.clone(),
            distinct: false,
        });
    }

    if subscription.distinct {
        current = LogicalNode::Dedup {
            input: Box::new(current),
        };
    }
    current = LogicalNode::Restructure {
        input: Box::new(current),
        template: subscription.return_template.clone(),
        derived: template_derived,
    };

    Ok(LogicalPlan {
        root: current,
        by: subscription.by.clone(),
        distinct: subscription.distinct,
    })
}

fn build_source(
    var: &str,
    source: &SourceExpr,
    sources_by_var: &BTreeMap<&str, &SourceExpr>,
) -> Result<LogicalNode, PlanError> {
    match source {
        SourceExpr::Alerter { function, peers } => {
            let mut nodes: Vec<LogicalNode> = peers
                .iter()
                .map(|p| LogicalNode::Alerter {
                    function: function.clone(),
                    peer: normalize_peer(p).to_string(),
                    var: var.to_string(),
                })
                .collect();
            if nodes.len() == 1 {
                Ok(nodes.pop().expect("one node"))
            } else {
                Ok(LogicalNode::Union {
                    var: var.to_string(),
                    inputs: nodes,
                })
            }
        }
        SourceExpr::DynamicAlerter { function, driver } => {
            // Inline the driver variable's own source as the membership feed.
            let driver_source = sources_by_var.get(driver.as_str()).ok_or_else(|| {
                PlanError::new(format!(
                    "dynamic alerter {function}(${driver}) refers to an unbound variable"
                ))
            })?;
            let driver_node = build_source(driver, driver_source, sources_by_var)?;
            Ok(LogicalNode::DynamicAlerter {
                function: function.clone(),
                var: var.to_string(),
                driver: Box::new(driver_node),
            })
        }
        SourceExpr::Nested(inner) => {
            let plan = compile(inner)?;
            let _ = sources_by_var;
            // The nested subscription's output items bind to the outer
            // variable; wrap so the variable name is visible to the runtime.
            Ok(LogicalNode::Select {
                var: var.to_string(),
                input: Box::new(plan.root),
                simple: Vec::new(),
                patterns: Vec::new(),
                derived: Vec::new(),
                conditions: Vec::new(),
            })
        }
        SourceExpr::Channel { peer, stream } => Ok(LogicalNode::ChannelIn {
            channel: ChannelId::new(normalize_peer(peer), stream.as_str()),
            var: var.to_string(),
        }),
    }
}

/// Splits single-variable conditions into simple / pattern / general buckets
/// and builds the Select node.
fn build_select(
    var: &str,
    input: LogicalNode,
    conditions: Vec<Condition>,
    derived: Vec<(String, ValueExpr)>,
) -> LogicalNode {
    let mut simple = Vec::new();
    let mut patterns = Vec::new();
    let mut general = Vec::new();
    for condition in conditions {
        if let Some((cond_var, attr_condition)) = condition.as_attr_condition() {
            if cond_var == var {
                simple.push(attr_condition);
                continue;
            }
        }
        // Existence conditions on the variable become tree patterns.
        if let (Operand::VarPath { var: pv, path }, Operand::Const(c)) =
            (&condition.left, &condition.right)
        {
            if pv == var
                && condition.op == p2pmon_xmlkit::path::CompareOp::Ne
                && c.as_string() == EXISTENCE_SENTINEL
            {
                patterns.push(path.clone());
                continue;
            }
        }
        general.push(condition);
    }
    LogicalNode::Select {
        var: var.to_string(),
        input: Box::new(input),
        simple,
        patterns,
        derived,
        conditions: general,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_subscription;
    use crate::METEO_SUBSCRIPTION;

    fn meteo_plan() -> LogicalPlan {
        compile(&parse_subscription(METEO_SUBSCRIPTION).unwrap()).unwrap()
    }

    /// Preorder of a plan through `children()`, one label per node.
    fn preorder(node: &LogicalNode, out: &mut Vec<String>) {
        out.push(match node {
            LogicalNode::Alerter { peer, .. } => peer.clone(),
            LogicalNode::ChannelIn { channel, .. } => channel.peer.to_string(),
            LogicalNode::DynamicAlerter { .. } => "dynamic".into(),
            LogicalNode::Union { .. } => "union".into(),
            LogicalNode::Join { .. } => "join".into(),
            _ => "unary".into(),
        });
        node.children().for_each(|input| preorder(input, out));
    }

    #[test]
    fn plan_node_size() {
        let alerter = |peer: &str| LogicalNode::Alerter {
            function: "inCOM".into(),
            peer: peer.into(),
            var: "c".into(),
        };
        // join(dynamic[driver], union(a, #b, dedup(c)))
        let plan = LogicalNode::Join {
            left: Box::new(LogicalNode::DynamicAlerter {
                function: "inCOM".into(),
                var: "j".into(),
                driver: Box::new(alerter("driver")),
            }),
            right: Box::new(LogicalNode::Union {
                var: "c".into(),
                inputs: vec![
                    alerter("a"),
                    LogicalNode::ChannelIn {
                        channel: ChannelId::new("b", "s"),
                        var: "c".into(),
                    },
                    LogicalNode::Dedup {
                        input: Box::new(alerter("c")),
                    },
                ],
            }),
            left_key: ("j".into(), "id".into()),
            right_key: ("c".into(), "id".into()),
            residual: Vec::new(),
        };
        let mut order = Vec::new();
        preorder(&plan, &mut order);
        let expected = ["join", "dynamic", "driver", "union", "a", "b", "unary", "c"];
        assert_eq!(order, expected);
        assert_eq!(plan.size(), expected.len());

        let mut mapped = Vec::new();
        let same = plan.clone().map_children(|input| {
            mapped.push(input.to_string());
            input
        });
        assert_eq!(same, plan);
        let children: Vec<String> = plan.children().map(ToString::to_string).collect();
        assert_eq!(mapped, children, "map_children visits children() in order");
    }

    #[test]
    fn figure_1_compiles_to_the_expected_shape() {
        let plan = meteo_plan();
        // restructure(join(select(union(outCOM@a, outCOM@b)), select(inCOM@meteo)))
        assert_eq!(
            plan.peers(),
            vec![
                "a.com".to_string(),
                "b.com".to_string(),
                "meteo.com".to_string()
            ]
        );
        let s = plan.root.to_string();
        assert!(s.starts_with("restructure(join["), "{s}");
        assert!(
            s.contains("union(outCOM@a.com→$c1, outCOM@b.com→$c1)"),
            "{s}"
        );
        assert!(s.contains("inCOM@meteo.com→$c2"), "{s}");

        // Selections are pushed below the join.
        match &plan.root {
            LogicalNode::Restructure { input, .. } => match input.as_ref() {
                LogicalNode::Join {
                    left,
                    right,
                    left_key,
                    right_key,
                    residual,
                } => {
                    assert_eq!(left_key, &("c1".to_string(), "callId".to_string()));
                    assert_eq!(right_key, &("c2".to_string(), "callId".to_string()));
                    assert!(residual.is_empty());
                    assert!(matches!(left.as_ref(), LogicalNode::Select { .. }));
                    // c2 has no single-variable conditions in Figure 1, so its
                    // side is the bare alerter.
                    assert!(matches!(right.as_ref(), LogicalNode::Alerter { .. }));
                }
                other => panic!("expected a join below restructure, got {other}"),
            },
            other => panic!("expected restructure at the root, got {other}"),
        }
    }

    #[test]
    fn c1_side_has_the_pushed_down_conditions_and_derivation() {
        let plan = meteo_plan();
        let LogicalNode::Restructure { input, .. } = &plan.root else {
            panic!()
        };
        let LogicalNode::Join { left, .. } = input.as_ref() else {
            panic!()
        };
        let LogicalNode::Select {
            var,
            simple,
            derived,
            conditions,
            ..
        } = left.as_ref()
        else {
            panic!("expected select on the c1 side")
        };
        assert_eq!(var, "c1");
        // callMethod = … and callee = … are simple; $duration > 10 is general.
        assert_eq!(simple.len(), 2);
        assert_eq!(conditions.len(), 1);
        assert_eq!(derived.len(), 1);
        assert_eq!(derived[0].0, "duration");
    }

    #[test]
    fn single_source_with_pattern_condition() {
        let plan = compile(
            &parse_subscription(
                r#"for $c in inCOM(<p>meteo.com</p>)
                   where $c/alert[@callMethod = "GetTemperature"] and $c.callId > 5
                   return <hit id="{$c.callId}"/>
                   by publish as channel "x";"#,
            )
            .unwrap(),
        )
        .unwrap();
        let LogicalNode::Restructure { input, .. } = &plan.root else {
            panic!()
        };
        let LogicalNode::Select {
            simple, patterns, ..
        } = input.as_ref()
        else {
            panic!("expected a select")
        };
        assert_eq!(simple.len(), 1, "callId > 5 is a simple condition");
        assert_eq!(
            patterns.len(),
            1,
            "the XPath existence test becomes a pattern"
        );
    }

    #[test]
    fn distinct_inserts_a_dedup() {
        let plan = compile(
            &parse_subscription(
                r#"for $e in rssFeed(<p>portal</p>) return distinct <t>{$e.entry}</t> by rss "out";"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert!(plan.distinct);
        assert!(plan.root.to_string().contains("dedup("));
    }

    #[test]
    fn missing_join_predicate_is_an_error() {
        let err = compile(
            &parse_subscription(
                r#"for $a in inCOM(<p>x</p>), $b in inCOM(<p>y</p>)
                   return <r/>
                   by email "z";"#,
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.message.contains("join predicate"), "{err}");
    }

    #[test]
    fn dynamic_driver_variable_is_consumed_by_the_dynamic_alerter() {
        let plan = compile(
            &parse_subscription(
                r#"for $j in areRegistered(<p>s.com/dht</p>), $c in inCOM($j)
                   where $c.callMethod = "Query"
                   return <q>{$c.caller}</q>
                   by publish as channel "usage";"#,
            )
            .unwrap(),
        )
        .unwrap();
        // $j is not joined; the dynamic alerter consumes it.
        let s = plan.root.to_string();
        assert!(s.contains("inCOM["), "{s}");
        assert!(!s.contains("join"), "{s}");
    }

    #[test]
    fn nested_subscription_inlines_its_plan() {
        let plan = compile(
            &parse_subscription(
                r#"for $x in ( for $y in inCOM(<p>a.com</p>) where $y.callMethod = "Ping" return <p>{$y.caller}</p> )
                   return <caller>{$x}</caller>
                   by publish as channel "pings";"#,
            )
            .unwrap(),
        )
        .unwrap();
        let s = plan.root.to_string();
        assert!(s.contains("inCOM@a.com→$y"), "{s}");
        assert_eq!(plan.peers(), vec!["a.com".to_string()]);
    }

    #[test]
    fn three_way_join_chains_left_deep() {
        let plan = compile(
            &parse_subscription(
                r#"for $a in outCOM(<p>x.com</p>), $b in inCOM(<p>y.com</p>), $c in inCOM(<p>z.com</p>)
                   where $a.callId = $b.callId and $b.callId = $c.callId
                   return <r id="{$a.callId}"/>
                   by publish as channel "chain";"#,
            )
            .unwrap(),
        )
        .unwrap();
        let s = plan.root.to_string();
        assert_eq!(s.matches("join[").count(), 2, "{s}");
        assert_eq!(plan.root.size(), 6); // 3 alerters + 2 joins + restructure
    }

    #[test]
    fn aggregate_return_compiles_to_an_aggregate_root() {
        use p2pmon_streams::AggregateKind;
        let plan = compile(
            &parse_subscription(
                r#"for $c in inCOM(<p>a.com</p> <p>b.com</p>)
                   return topk($c.callMethod, 5) every 2
                   by publish as channel "hot";"#,
            )
            .unwrap(),
        )
        .unwrap();
        let LogicalNode::Aggregate { var, input, spec } = &plan.root else {
            panic!("expected aggregate root, got {}", plan.root)
        };
        assert_eq!(var, "c");
        assert_eq!(spec.kind, AggregateKind::TopK { k: 5 });
        assert_eq!(spec.key_attr.as_deref(), Some("callMethod"));
        assert_eq!(spec.every, 2);
        assert!(matches!(input.as_ref(), LogicalNode::Union { .. }));
        assert_eq!(plan.root.size(), 4); // 2 alerters + union + aggregate
    }

    #[test]
    fn aggregate_selections_still_push_to_sources() {
        let plan = compile(
            &parse_subscription(
                r#"for $c in inCOM(<p>a.com</p>)
                   where $c.callMethod = "Query"
                   return quantile($c.duration, 0.99)
                   by email "ops@example.com";"#,
            )
            .unwrap(),
        )
        .unwrap();
        let LogicalNode::Aggregate { input, spec, .. } = &plan.root else {
            panic!("expected aggregate root")
        };
        assert!(matches!(input.as_ref(), LogicalNode::Select { .. }));
        assert_eq!(
            spec.kind,
            p2pmon_streams::AggregateKind::Quantile { q_permille: 990 }
        );
    }

    #[test]
    fn weighted_topk_and_entropy_parse() {
        let sub = parse_subscription(
            r#"for $c in inCOM(<p>a.com</p>)
               return topk($c.channel, 3, $c.bytes)
               by publish as channel "bytes";"#,
        )
        .unwrap();
        let spec = sub.aggregate.expect("aggregate");
        assert_eq!(spec.weight_attr.as_deref(), Some("bytes"));

        let sub = parse_subscription(
            r#"for $c in inCOM(<p>a.com</p>)
               return entropy($c.caller)
               by publish as channel "spread";"#,
        )
        .unwrap();
        assert_eq!(
            sub.aggregate.expect("aggregate").kind,
            p2pmon_streams::AggregateKind::Entropy
        );
    }

    #[test]
    fn aggregate_key_must_be_bound() {
        let err = compile(
            &parse_subscription(
                r#"for $c in inCOM(<p>a.com</p>)
                   return topk($z.method, 5)
                   by publish as channel "x";"#,
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.message.contains("not bound"), "{err}");
    }

    #[test]
    fn normalize_peer_strips_scheme() {
        assert_eq!(normalize_peer("http://a.com"), "a.com");
        assert_eq!(normalize_peer("https://b.com/"), "b.com");
        assert_eq!(normalize_peer(" c.com "), "c.com");
    }
}
