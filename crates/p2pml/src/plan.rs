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
//!
//! The compiler takes the subscription by value: every name, condition, LET
//! value and the template moves from the AST into the plan, and variables
//! are resolved to FOR-binding indices rather than looked up by name in
//! maps.  [`compile`] borrows a subscription and clones it into the same
//! compiler.

use std::fmt;

use p2pmon_streams::{AggregateSpec, AttrCondition, ChannelId, Condition, Operand, Template};
use p2pmon_xmlkit::path::CompareOp;
use p2pmon_xmlkit::XPath;

use crate::ast::{
    operand_var, ByClause, ForBinding, LetBinding, SourceExpr, Subscription, ValueExpr,
};
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

/// Compiles a parsed subscription into a logical plan: a clone of it goes
/// through the same by-value compiler that [`crate::compile_subscription`]
/// hands its freshly parsed subscription to.
pub fn compile(subscription: &Subscription) -> Result<LogicalPlan, PlanError> {
    compile_owned(subscription.clone())
}

/// Where a LET value goes: into the Select of the one FOR variable it
/// depends on (`owner`), into the Restructure, or both.  `uses` counts the
/// places still to fill, so the last one moves the value.
struct LetPlacement {
    owner: Option<usize>,
    in_template: bool,
    uses: usize,
}

/// Compiles a subscription by value: names, conditions, derived values and
/// the template move from the AST into the plan.  A variable is resolved to
/// the index of the first FOR binding of that name, and a LET variable to
/// the FOR indices it depends on, transitively.
pub(crate) fn compile_owned(subscription: Subscription) -> Result<LogicalPlan, PlanError> {
    let Subscription {
        mut for_clause,
        mut let_clause,
        where_clause,
        distinct,
        return_template,
        aggregate,
        by,
    } = subscription;
    if for_clause.is_empty() {
        return Err(PlanError::new(
            "a subscription needs at least one FOR binding",
        ));
    }

    // Which FOR variables does each LET variable (transitively) depend on?
    // A name refers to the latest LET binding of that name before it.
    let mut let_deps: Vec<Vec<usize>> = Vec::with_capacity(let_clause.len());
    for (j, binding) in let_clause.iter().enumerate() {
        let mut deps = Vec::new();
        for v in binding.expr.variables() {
            match for_index(&for_clause, v) {
                Some(i) => deps.push(i),
                None => {
                    if let Some(k) = let_index(&let_clause[..j], v) {
                        deps.extend_from_slice(&let_deps[k]);
                    }
                }
            }
        }
        deps.sort_unstable();
        deps.dedup();
        let_deps.push(deps);
    }
    // After the LET clause, a name refers to its last LET binding.
    let final_deps = |name: &str| let_index(&let_clause, name).map_or(&[][..], |k| &let_deps[k]);
    let resolve = |condition: &Condition, out: &mut Vec<usize>| {
        out.clear();
        for v in [&condition.left, &condition.right]
            .into_iter()
            .filter_map(operand_var)
        {
            match for_index(&for_clause, v) {
                Some(i) => out.push(i),
                None => out.extend_from_slice(final_deps(v)),
            }
        }
        out.sort_unstable();
        out.dedup();
    };

    // Partition the WHERE conditions: single-variable ones by FOR index,
    // the others with the FOR indices they join.
    let mut per_var: Vec<Vec<Condition>> = (0..for_clause.len()).map(|_| Vec::new()).collect();
    let mut joins: Vec<(Condition, Vec<usize>)> = Vec::new();
    let mut vars = Vec::new();
    for condition in where_clause {
        resolve(&condition, &mut vars);
        match vars.as_slice() {
            [] => per_var[0].push(condition),
            [i] => per_var[*i].push(condition),
            _ => joins.push((condition, vars.clone())),
        }
    }

    // Some FOR variables only exist to drive a dynamic alerter; they are
    // consumed inside the DynamicAlerter node and do not join with anything.
    let drivers: Vec<bool> = for_clause
        .iter()
        .map(|b| {
            for_clause.iter().any(|d| {
                matches!(&d.source, SourceExpr::DynamicAlerter { driver, .. } if *driver == b.var)
            })
        })
        .collect();

    let template_vars = if aggregate.is_none() && !let_clause.is_empty() {
        return_template.variables()
    } else {
        Vec::new()
    };
    let mut placements: Vec<LetPlacement> = let_clause
        .iter()
        .map(|binding| {
            let owner = match final_deps(&binding.var) {
                [i] => Some(*i),
                _ => None,
            };
            let in_template =
                aggregate.is_none() && (owner.is_none() || template_vars.contains(&binding.var));
            let selects = (0..for_clause.len())
                .filter(|&i| !drivers[i] && Some(first_of(&for_clause, i)) == owner)
                .count();
            LetPlacement {
                owner,
                in_template,
                uses: selects + usize::from(in_template),
            }
        })
        .collect();

    // Build one (possibly filtered) source sub-plan per FOR variable and
    // chain them with joins, left-deep in FOR order.
    let mut current: Option<LogicalNode> = None;
    for i in 0..for_clause.len() {
        let var_index = first_of(&for_clause, i);
        let conditions = std::mem::take(&mut per_var[var_index]);
        if drivers[i] {
            continue;
        }
        let placeholder = SourceExpr::Alerter {
            function: String::new(),
            peers: Vec::new(),
        };
        let source = std::mem::replace(&mut for_clause[i].source, placeholder);
        let var = for_clause[i].var.as_str();
        let source = build_source(var, source, &for_clause, 0)?;
        let derived: Vec<(String, ValueExpr)> = placements
            .iter_mut()
            .zip(&mut let_clause)
            .filter(|(placement, _)| placement.owner == Some(var_index))
            .map(|(placement, binding)| take_let(placement, binding))
            .collect();
        let node = if conditions.is_empty() && derived.is_empty() {
            source
        } else {
            build_select(var, source, conditions, derived)
        };
        let Some(left) = current.take() else {
            current = Some(node);
            continue;
        };

        // Find an equality predicate connecting `var` to one of the joined
        // variables: those of the non-driver bindings before it.
        let joined = |k: usize| {
            (0..i).any(|earlier| !drivers[earlier] && first_of(&for_clause, earlier) == k)
        };
        let mut key = None;
        let mut residual: Vec<Condition> = Vec::new();
        let mut c = 0;
        while c < joins.len() {
            let involved = &joins[c].1;
            if !(involved.len() == 2
                && involved.contains(&var_index)
                && involved.iter().any(|&k| joined(k)))
            {
                c += 1;
                continue;
            }
            let (condition, _) = joins.remove(c);
            if key.is_some() {
                residual.push(condition);
                continue;
            }
            let Condition {
                left: Operand::VarAttr { var: lv, attr: la },
                op: CompareOp::Eq,
                right: Operand::VarAttr { var: rv, attr: ra },
            } = condition
            else {
                residual.push(condition);
                continue;
            };
            // Orient the key so the left side is an already-joined variable.
            key = Some(if for_index(&for_clause, &lv).is_some_and(joined) {
                ((lv, la), (rv, ra))
            } else {
                ((rv, ra), (lv, la))
            });
        }
        let (left_key, right_key) = key.ok_or_else(|| {
            PlanError::new(format!(
                "no equality join predicate connects ${var} to the other sources \
                 (cartesian products are not supported)"
            ))
        })?;
        current = Some(LogicalNode::Join {
            left: Box::new(left),
            right: Box::new(node),
            left_key,
            right_key,
            residual,
        });
    }
    let mut current = current
        .ok_or_else(|| PlanError::new("no usable FOR binding after removing driver variables"))?;
    if !joins.is_empty() {
        // Leftover multi-variable conditions become residuals of the topmost
        // join when one exists.
        match &mut current {
            LogicalNode::Join { residual, .. } => {
                residual.extend(joins.into_iter().map(|(condition, _)| condition))
            }
            _ => {
                return Err(PlanError::new(
                    "multi-variable conditions require at least two sources",
                ))
            }
        }
    }

    if let Some(spec) = aggregate {
        // Aggregates replace the Dedup/Restructure top: the sketch root
        // materializes the answers itself.
        if for_index(&for_clause, &spec.var).is_none() {
            return Err(PlanError::new(format!(
                "aggregate key variable ${} is not bound by the FOR clause",
                spec.var
            )));
        }
        return Ok(LogicalPlan {
            root: LogicalNode::Aggregate {
                var: spec.var.clone(),
                input: Box::new(current),
                spec,
            },
            by,
            distinct: false,
        });
    }

    // Derived values the template needs (those not already attached to a
    // single-variable Select, i.e. multi-variable LETs).
    let template_derived: Vec<(String, ValueExpr)> = placements
        .iter_mut()
        .zip(&mut let_clause)
        .filter(|(placement, _)| placement.in_template)
        .map(|(placement, binding)| take_let(placement, binding))
        .collect();
    if distinct {
        current = LogicalNode::Dedup {
            input: Box::new(current),
        };
    }
    Ok(LogicalPlan {
        root: LogicalNode::Restructure {
            input: Box::new(current),
            template: return_template,
            derived: template_derived,
        },
        by,
        distinct,
    })
}

/// The index of the first FOR binding of `var`.
fn for_index(bindings: &[ForBinding], var: &str) -> Option<usize> {
    bindings.iter().position(|b| b.var == var)
}

/// The index of the first FOR binding of binding `i`'s variable.
fn first_of(bindings: &[ForBinding], i: usize) -> usize {
    for_index(bindings, &bindings[i].var).unwrap_or(i)
}

/// The LET value for one more of its places: a copy, or the value itself
/// for the last place.
fn take_let(placement: &mut LetPlacement, binding: &mut LetBinding) -> (String, ValueExpr) {
    placement.uses -= 1;
    if placement.uses == 0 {
        let expr = ValueExpr::Operand(Operand::Var(String::new()));
        (
            std::mem::take(&mut binding.var),
            std::mem::replace(&mut binding.expr, expr),
        )
    } else {
        (binding.var.clone(), binding.expr.clone())
    }
}

/// The index of the last LET binding of `var`.
fn let_index(bindings: &[LetBinding], var: &str) -> Option<usize> {
    bindings.iter().rposition(|b| b.var == var)
}

/// Builds the sub-plan of the FOR binding of `var` from its source.  A
/// dynamic alerter inlines its driver variable's source, found among
/// `bindings` (the last binding of that name); `depth` counts those hops,
/// so drivers that name each other in a cycle are an error.
fn build_source(
    var: &str,
    source: SourceExpr,
    bindings: &[ForBinding],
    depth: usize,
) -> Result<LogicalNode, PlanError> {
    match source {
        SourceExpr::Alerter { function, peers } => {
            let var = var.to_string();
            match <[String; 1]>::try_from(peers) {
                Ok([peer]) => Ok(LogicalNode::Alerter {
                    function,
                    peer: normalized(peer),
                    var,
                }),
                Err(peers) => Ok(LogicalNode::Union {
                    inputs: peers
                        .into_iter()
                        .map(|peer| LogicalNode::Alerter {
                            function: function.clone(),
                            peer: normalized(peer),
                            var: var.clone(),
                        })
                        .collect(),
                    var,
                }),
            }
        }
        SourceExpr::DynamicAlerter { function, driver } => {
            // Inline the driver variable's own source as the membership feed.
            let driver_source =
                bindings
                    .iter()
                    .rev()
                    .find(|b| b.var == driver)
                    .ok_or_else(|| {
                        PlanError::new(format!(
                            "dynamic alerter {function}(${driver}) refers to an unbound variable"
                        ))
                    })?;
            if depth >= bindings.len() {
                return Err(PlanError::new(format!(
                    "dynamic alerter {function}(${driver}) is driven by itself through a cycle"
                )));
            }
            let driver_node =
                build_source(&driver, driver_source.source.clone(), bindings, depth + 1)?;
            Ok(LogicalNode::DynamicAlerter {
                function,
                var: var.to_string(),
                driver: Box::new(driver_node),
            })
        }
        SourceExpr::Nested(inner) => {
            let plan = compile_owned(*inner)?;
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
            channel: ChannelId::new(normalize_peer(&peer), stream.as_str()),
            var: var.to_string(),
        }),
    }
}

/// `peer` normalised, moved when normalising leaves it as it is.
fn normalized(peer: String) -> String {
    if normalize_peer(&peer).len() == peer.len() {
        peer
    } else {
        normalize_peer(&peer).to_string()
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
        if condition.simple_var() == Some(var) {
            simple.extend(condition.into_attr_condition());
            continue;
        }
        // Existence conditions on the variable become tree patterns.
        match condition {
            Condition {
                left: Operand::VarPath { var: pv, path },
                op: CompareOp::Ne,
                right: Operand::Const(c),
            } if pv == var && c.canonical_str() == EXISTENCE_SENTINEL => patterns.push(path),
            other => general.push(other),
        }
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
    fn drivers_in_a_cycle_are_an_error() {
        for text in [
            r#"for $c in inCOM($c) return <a/> by email "x";"#,
            r#"for $j in inCOM($j), $c in outCOM($j) return <a/> by email "x";"#,
            r#"for $a in inCOM($b), $b in outCOM($a), $c in inCOM($a)
               return <a/> by email "x";"#,
        ] {
            let subscription = parse_subscription(text).unwrap();
            assert!(compile(&subscription).is_err(), "{text}");
        }
    }

    #[test]
    fn a_let_value_goes_to_its_select_and_to_the_template() {
        let plan = compile(
            &parse_subscription(
                r#"for $c in outCOM(<p>hub.net</p>)
                   let $d := $c.responseTimestamp - $c.callTimestamp, $e := $d * 2
                   where $e > 20
                   return <slow d="{$d}"/>
                   by email "slow@example.org";"#,
            )
            .unwrap(),
        )
        .unwrap();
        let LogicalNode::Restructure { input, derived, .. } = &plan.root else {
            panic!("expected restructure at the root")
        };
        let LogicalNode::Select {
            derived: select_derived,
            ..
        } = input.as_ref()
        else {
            panic!("expected a select below the restructure")
        };
        let names =
            |d: &[(String, ValueExpr)]| d.iter().map(|(v, _)| v.clone()).collect::<Vec<_>>();
        assert_eq!(names(select_derived), ["d", "e"], "both depend on $c alone");
        assert_eq!(names(derived), ["d"], "the template reads $d");
    }

    #[test]
    fn normalize_peer_strips_scheme() {
        assert_eq!(normalize_peer("http://a.com"), "a.com");
        assert_eq!(normalize_peer("https://b.com/"), "b.com");
        assert_eq!(normalize_peer(" c.com "), "c.com");
    }
}
