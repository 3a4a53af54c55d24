//! The per-task runtime operators.
//!
//! Deployment instantiates one [`RuntimeOperator`] per placed task, and each
//! of the paper's stream processors runs as one of its arms.  Join and
//! Duplicate-removal wrap the stateful operators of `p2pmon-streams`; Select
//! and Restructure are evaluated here because the compiled plans carry
//! general [`ValueExpr`] derivations (LET clauses) that the runtime evaluates
//! over the tuple bindings before checking conditions or instantiating the
//! template; a Union forwards every input unchanged, as a
//! [`RuntimeOperator::Passthrough`].

use std::collections::BTreeSet;
use std::sync::Arc;

use p2pmon_p2pml::ValueExpr;
use p2pmon_streams::ops::{Dedup, Join, JoinSpec, Window};
use p2pmon_streams::{
    AggregateSpec, AnySketch, AttrCondition, Bindings, Condition, StreamItem, Template,
};
use p2pmon_xmlkit::{Element, PathPattern};

use crate::placement::TaskKind;

/// A deployed operator instance.
pub enum RuntimeOperator {
    /// Pass-through for Source / ChannelSource / Union tasks: incoming items
    /// are forwarded downstream unchanged, whatever their port.
    Passthrough,
    /// Membership-driven source: forwards alerts whose peer (caller for
    /// out-calls, callee for in-calls — both are checked) is currently in the
    /// membership set; membership events (`p-join`/`p-leave`) arrive on
    /// port 1.
    DynamicSource {
        /// The alerter function, used to decide which attribute identifies
        /// the monitored peer.
        function: String,
        /// Currently registered peers.
        members: BTreeSet<String>,
    },
    /// The single-subscription filter with LET derivations.
    Select {
        /// The variable items bind to.
        var: String,
        /// Simple conditions.
        simple: Vec<AttrCondition>,
        /// Tree patterns.
        patterns: Vec<PathPattern>,
        /// LET derivations.
        derived: Vec<(String, ValueExpr)>,
        /// General conditions.
        conditions: Vec<Condition>,
        /// Items examined / passed (statistics).
        examined: u64,
        /// Items that passed the filter.
        passed: u64,
    },
    /// Join on attribute equality.
    Join(Box<Join>),
    /// Duplicate removal over whole output trees.
    Dedup(Dedup),
    /// Template instantiation with LET derivations.
    Restructure {
        /// The RETURN template.
        template: Template,
        /// LET derivations evaluated before instantiation.
        derived: Vec<(String, ValueExpr)>,
        /// Fallback variable for bare (non-tuple) inputs.
        default_var: String,
    },
    /// Sketch leaf: absorbs raw items; emits nothing until the dispatch
    /// round's flush pass hands its delta to the parent stage.
    SketchLeaf {
        /// Key/weight extraction rules.
        spec: AggregateSpec,
        /// The delta accumulated since the last flush; non-empty exactly
        /// when the stage has something to flush.
        sketch: AnySketch,
    },
    /// Interior sketch merge: folds its children's partials
    /// ([`RuntimeOperator::absorb_partial`]), forwards the combined delta at
    /// the next flush.
    SketchMerge {
        /// The delta accumulated since the last flush; non-empty exactly
        /// when the stage has something to flush.
        sketch: AnySketch,
    },
    /// Sketch root: accumulates partials *cumulatively* and materializes an
    /// XML answer every `spec.every` flush opportunities.
    SketchRoot {
        /// What to answer and how often.
        spec: AggregateSpec,
        /// The cumulative sketch over the subscription's lifetime.
        sketch: AnySketch,
        /// Whether new partials arrived since the last emitted answer.
        dirty: bool,
        /// Flush opportunities seen since the last emission.
        flushes_since_emit: usize,
        /// Answers materialized so far (the answer's sequence attribute).
        emitted: u64,
    },
}

impl RuntimeOperator {
    /// Builds the runtime operator for a task kind.
    pub fn for_kind(kind: &TaskKind, join_window: Window) -> RuntimeOperator {
        match kind {
            TaskKind::Source { .. } | TaskKind::ChannelSource { .. } | TaskKind::Union => {
                RuntimeOperator::Passthrough
            }
            TaskKind::DynamicSource { function, .. } => RuntimeOperator::DynamicSource {
                function: function.clone(),
                members: BTreeSet::new(),
            },
            TaskKind::Select {
                var,
                simple,
                patterns,
                derived,
                conditions,
            } => RuntimeOperator::Select {
                var: var.clone(),
                simple: simple.clone(),
                patterns: patterns.clone(),
                derived: derived.clone(),
                conditions: conditions.clone(),
                examined: 0,
                passed: 0,
            },
            TaskKind::Join {
                left_key,
                right_key,
                residual,
            } => {
                let spec = JoinSpec {
                    left_var: left_key.0.clone(),
                    right_var: right_key.0.clone(),
                    left_key: left_key.1.clone(),
                    right_key: right_key.1.clone(),
                    residual: residual.clone(),
                };
                RuntimeOperator::Join(Box::new(Join::new(spec, join_window)))
            }
            TaskKind::Dedup => RuntimeOperator::Dedup(Dedup::new()),
            TaskKind::SketchLeaf { spec } => RuntimeOperator::SketchLeaf {
                spec: spec.clone(),
                sketch: AnySketch::for_spec(spec),
            },
            TaskKind::SketchMerge { spec } => RuntimeOperator::SketchMerge {
                sketch: AnySketch::for_spec(spec),
            },
            TaskKind::SketchRoot { spec } => RuntimeOperator::SketchRoot {
                spec: spec.clone(),
                sketch: AnySketch::for_spec(spec),
                dirty: false,
                flushes_since_emit: 0,
                emitted: 0,
            },
            TaskKind::Restructure { template, derived } => {
                let default_var = template
                    .variables()
                    .first()
                    .cloned()
                    .unwrap_or_else(|| "item".to_string());
                RuntimeOperator::Restructure {
                    template: template.clone(),
                    derived: derived.clone(),
                    default_var,
                }
            }
        }
    }

    /// Memory held by stateful operators (joins, dedups, sketches), in bytes.
    pub fn state_size(&self) -> usize {
        match self {
            RuntimeOperator::Join(j) => j.state_size(),
            RuntimeOperator::Dedup(d) => d.state_size(),
            RuntimeOperator::SketchLeaf { sketch, .. }
            | RuntimeOperator::SketchMerge { sketch, .. }
            | RuntimeOperator::SketchRoot { sketch, .. } => sketch.state_bytes(),
            _ => 0,
        }
    }

    /// Whether this operator holds sketch state awaiting a round-boundary
    /// flush (a leaf/merge delta a flush would hand on) or a pending root
    /// emission.  The dispatcher keeps ticking while any operator reports
    /// pending sketch work, so `run_until_idle` drains the merge tree
    /// completely.
    pub fn sketch_pending(&self) -> bool {
        match self {
            RuntimeOperator::SketchLeaf { sketch, .. }
            | RuntimeOperator::SketchMerge { sketch } => !sketch.is_empty(),
            RuntimeOperator::SketchRoot { dirty, .. } => *dirty,
            _ => false,
        }
    }

    /// Round-boundary flush for leaf and merge stages: moves out the delta
    /// accumulated since the last flush, leaving an empty sketch behind.
    /// `None` when the stage has nothing new (or for non-sketch operators).
    pub fn sketch_flush(&mut self) -> Option<AnySketch> {
        match self {
            RuntimeOperator::SketchLeaf { sketch, .. }
            | RuntimeOperator::SketchMerge { sketch } => {
                (!sketch.is_empty()).then(|| sketch.take())
            }
            _ => None,
        }
    }

    /// Folds a child stage's partial into a merge or root stage — the only
    /// way a partial enters one.  Any other operator, or a partial of
    /// another kind, is left unchanged.
    pub fn absorb_partial(&mut self, partial: &AnySketch) {
        match self {
            RuntimeOperator::SketchMerge { sketch } => {
                sketch.merge_from(partial);
            }
            RuntimeOperator::SketchRoot { sketch, dirty, .. } => {
                *dirty |= sketch.merge_from(partial)
            }
            _ => {}
        }
    }

    /// Round-boundary emission for the root stage: counts a flush
    /// opportunity and, every `spec.every` of them, materializes the XML
    /// answer from the cumulative sketch.  `None` while the cadence has not
    /// been reached (the root stays `sketch_pending` so dispatch keeps
    /// ticking toward the emission).
    pub fn sketch_answer(&mut self) -> Option<Element> {
        match self {
            RuntimeOperator::SketchRoot {
                spec,
                sketch,
                dirty,
                flushes_since_emit,
                emitted,
            } => {
                if !*dirty {
                    return None;
                }
                *flushes_since_emit += 1;
                if *flushes_since_emit < spec.every.max(1) {
                    return None;
                }
                *flushes_since_emit = 0;
                *dirty = false;
                *emitted += 1;
                let mut answer = sketch.answer(spec);
                answer.set_attr("seq", emitted.to_string());
                Some(answer)
            }
            _ => None,
        }
    }

    /// Delivers one item on a port.
    pub fn on_item(&mut self, port: usize, item: &StreamItem) -> Vec<Arc<Element>> {
        match self {
            RuntimeOperator::Passthrough => vec![item.data.clone()],
            RuntimeOperator::DynamicSource { function, members } => {
                if port == 1 {
                    // Membership event.
                    match item.data.name.as_str() {
                        "p-join" => {
                            members.insert(item.data.text());
                        }
                        "p-leave" => {
                            members.remove(&item.data.text());
                        }
                        _ => {}
                    }
                    return Vec::new();
                }
                // An alert: forward only when the monitored peer is a member.
                let attr = if function == "outCOM" {
                    "caller"
                } else {
                    "callee"
                };
                let peer = item
                    .data
                    .attr(attr)
                    .or_else(|| item.data.attr("peer"))
                    .map(p2pmon_p2pml::plan::normalize_peer)
                    .unwrap_or_default();
                if members.contains(&peer) {
                    vec![item.data.clone()]
                } else {
                    Vec::new()
                }
            }
            RuntimeOperator::Select {
                var,
                simple,
                patterns,
                derived,
                conditions,
                examined,
                passed,
            } => eval_select(
                var, simple, patterns, derived, conditions, examined, passed, item, false,
            ),
            RuntimeOperator::Join(op) => op.on_item(port, item),
            RuntimeOperator::Dedup(op) => op.on_item(item),
            RuntimeOperator::Restructure {
                template,
                derived,
                default_var,
            } => {
                let mut bindings = Bindings::from_item(&item.data, default_var);
                for (name, expr) in derived.iter() {
                    if let Some(value) = expr.eval(&bindings) {
                        bindings.bind_value(name.clone(), value);
                    }
                }
                vec![Arc::new(template.instantiate(&bindings))]
            }
            RuntimeOperator::SketchLeaf { spec, sketch } => {
                let (key, weight) = spec.observe(&item.data);
                if !key.is_empty() {
                    sketch.update(&key, weight);
                }
                Vec::new()
            }
            // Partials reach these stages through `absorb_partial`, never
            // as items.
            RuntimeOperator::SketchMerge { .. } | RuntimeOperator::SketchRoot { .. } => Vec::new(),
        }
    }

    /// Delivers an item whose simple conditions and tree patterns were
    /// already verified by the host peer's shared filter engine: a `Select`
    /// only runs its residual check (LET derivations + general conditions);
    /// every other operator behaves exactly like [`RuntimeOperator::on_item`].
    pub fn on_item_prefiltered(&mut self, port: usize, item: &StreamItem) -> Vec<Arc<Element>> {
        match self {
            RuntimeOperator::Select {
                var,
                simple,
                patterns,
                derived,
                conditions,
                examined,
                passed,
            } => eval_select(
                var, simple, patterns, derived, conditions, examined, passed, item, true,
            ),
            _ => self.on_item(port, item),
        }
    }
}

/// The shared Select evaluation.  With `prefiltered` the simple-condition and
/// tree-pattern stages are skipped — the peer's shared engine already ran
/// them — leaving only the residual LET/general-condition tail.
#[allow(clippy::too_many_arguments)]
fn eval_select(
    var: &str,
    simple: &[AttrCondition],
    patterns: &[PathPattern],
    derived: &[(String, ValueExpr)],
    conditions: &[Condition],
    examined: &mut u64,
    passed: &mut u64,
    item: &StreamItem,
    prefiltered: bool,
) -> Vec<Arc<Element>> {
    *examined += 1;
    let mut bindings = Bindings::from_item(&item.data, var);
    if !prefiltered {
        let tree: &Element = bindings.tree(var).unwrap_or(&item.data);
        if !simple.iter().all(|c| c.eval(tree)) {
            return Vec::new();
        }
        if !patterns.iter().all(|p| p.matches(tree)) {
            return Vec::new();
        }
    }
    for (name, expr) in derived.iter() {
        if let Some(value) = expr.eval(&bindings) {
            bindings.bind_value(name.clone(), value);
        }
    }
    if !conditions.iter().all(|c| c.eval(&bindings)) {
        return Vec::new();
    }
    *passed += 1;
    vec![item.data.clone()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_streams::Operand;
    use p2pmon_xmlkit::path::CompareOp;
    use p2pmon_xmlkit::{parse, Value};

    fn item(xml: &str) -> StreamItem {
        StreamItem::new(0, 0, parse(xml).unwrap())
    }

    #[test]
    fn select_with_let_derivation() {
        let kind = TaskKind::Select {
            var: "e".into(),
            simple: vec![AttrCondition::new(
                "callMethod",
                CompareOp::Eq,
                "GetTemperature",
            )],
            patterns: vec![],
            derived: vec![(
                "duration".into(),
                ValueExpr::Binary {
                    left: Box::new(ValueExpr::Operand(Operand::VarAttr {
                        var: "e".into(),
                        attr: "responseTimestamp".into(),
                    })),
                    op: p2pmon_p2pml::ast::ArithOp::Sub,
                    right: Box::new(ValueExpr::Operand(Operand::VarAttr {
                        var: "e".into(),
                        attr: "callTimestamp".into(),
                    })),
                },
            )],
            conditions: vec![Condition::new(
                Operand::Var("duration".into()),
                CompareOp::Gt,
                Operand::Const(Value::Integer(10)),
            )],
        };
        let mut op = RuntimeOperator::for_kind(&kind, Window::unbounded());
        let slow = item(
            r#"<alert callMethod="GetTemperature" callTimestamp="100" responseTimestamp="120"/>"#,
        );
        let fast = item(
            r#"<alert callMethod="GetTemperature" callTimestamp="100" responseTimestamp="105"/>"#,
        );
        assert_eq!(op.on_item(0, &slow).len(), 1);
        assert_eq!(op.on_item(0, &fast).len(), 0);
        // Without the timestamps the LET binds nothing, and a condition
        // over an unbound variable fails.
        let untimed = item(r#"<alert callMethod="GetTemperature"/>"#);
        assert!(op.on_item(0, &untimed).is_empty());
        // Prefiltered items skip the simple conditions but still run the
        // LET and the general conditions.
        assert_eq!(op.on_item_prefiltered(0, &slow).len(), 1);
        assert!(op.on_item_prefiltered(0, &untimed).is_empty());
        let other_method = item(
            r#"<alert callMethod="GetHumidity" callTimestamp="100" responseTimestamp="120"/>"#,
        );
        assert!(op.on_item(0, &other_method).is_empty());
        assert_eq!(op.on_item_prefiltered(0, &other_method).len(), 1);
    }

    #[test]
    fn dynamic_source_follows_membership() {
        let kind = TaskKind::DynamicSource {
            function: "inCOM".into(),
            var: "c".into(),
        };
        let mut op = RuntimeOperator::for_kind(&kind, Window::unbounded());
        let alert = item(r#"<alert callee="http://a.com" callId="1"/>"#);
        assert!(op.on_item(0, &alert).is_empty(), "not yet a member");
        op.on_item(1, &item("<p-join>a.com</p-join>"));
        assert_eq!(op.on_item(0, &alert).len(), 1);
        op.on_item(1, &item("<p-leave>a.com</p-leave>"));
        assert!(op.on_item(0, &alert).is_empty(), "left the system");
    }

    #[test]
    fn restructure_with_derived_values() {
        let kind = TaskKind::Restructure {
            template: Template::parse(r#"<out d="{$lat}">{$e.peer}</out>"#).unwrap(),
            derived: vec![(
                "lat".into(),
                ValueExpr::Operand(Operand::VarAttr {
                    var: "e".into(),
                    attr: "latency".into(),
                }),
            )],
        };
        let mut op = RuntimeOperator::for_kind(&kind, Window::unbounded());
        let out = op.on_item(0, &item(r#"<q peer="x" latency="7"/>"#));
        assert_eq!(out[0].attr("d"), Some("7"));
        assert_eq!(out[0].text(), "x");
    }

    #[test]
    fn passthrough_and_stateful_wrappers() {
        let mut pass = RuntimeOperator::for_kind(
            &TaskKind::Source {
                function: "inCOM".into(),
                monitored_peer: "a".into(),
                var: "x".into(),
                feed: crate::dispatch::source_channel("inCOM", "a"),
            },
            Window::unbounded(),
        );
        assert_eq!(pass.on_item(0, &item("<a/>")).len(), 1);
        assert_eq!(pass.state_size(), 0);

        // A Union forwards each item from every port as the same tree.
        let mut union = RuntimeOperator::for_kind(&TaskKind::Union, Window::unbounded());
        for port in [0, 1] {
            let input = item(&format!(r#"<a port="{port}"/>"#));
            let out = union.on_item(port, &input);
            assert_eq!(out.len(), 1);
            assert!(Arc::ptr_eq(&out[0], &input.data));
        }

        let mut join = RuntimeOperator::for_kind(
            &TaskKind::Join {
                left_key: ("l".into(), "id".into()),
                right_key: ("r".into(), "id".into()),
                residual: vec![],
            },
            Window::items(10),
        );
        join.on_item(0, &item(r#"<a id="1"/>"#));
        assert!(join.state_size() > 0);
        assert_eq!(join.on_item(1, &item(r#"<b id="1"/>"#)).len(), 1);
    }
}
