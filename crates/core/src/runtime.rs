//! The per-task runtime operators.
//!
//! Deployment instantiates one [`RuntimeOperator`] per placed task, and each
//! of the paper's stream processors runs as one of its arms.  Join and
//! Duplicate-removal wrap the stateful operators of `p2pmon-streams`; Select
//! and Restructure are evaluated here because the compiled plans carry
//! general [`ValueExpr`] derivations (LET clauses) that the runtime evaluates
//! over the tuple bindings before checking conditions or instantiating the
//! template; a Union forwards every input unchanged, as a
//! [`RuntimeOperator::Passthrough`].  An aggregate's root carries the leaf
//! and merge stages of its merge tree: one operator, deployed and torn down
//! in one step, whose stages run on the hosts the placed [`MergeTree`]
//! names.

use std::collections::BTreeSet;
use std::sync::Arc;

use p2pmon_net::{Payload, StageId};
use p2pmon_p2pml::ValueExpr;
use p2pmon_streams::ops::{Dedup, Join, JoinSpec, Window};
use p2pmon_streams::{
    AggregateSpec, AnySketch, AttrCondition, Bindings, ChannelId, Condition, StreamItem, Template,
};
use p2pmon_xmlkit::{Element, XPath};

use crate::placement::{MergeTree, TaskKind, SKETCH_MERGE_FANIN};

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
        patterns: Vec<XPath>,
        /// LET derivations.
        derived: Vec<(String, ValueExpr)>,
        /// General conditions.
        conditions: Vec<Condition>,
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
    /// Sketch root with its merge tree's stages: an item on port `p` updates
    /// leaf `p`; each round-boundary flush hands a stage's delta to its
    /// parent stage, which absorbs it; the root accumulates partials
    /// *cumulatively* and materializes an XML answer every `spec.every`
    /// flush opportunities.
    SketchRoot {
        /// What to answer and how often, and how a leaf keys an item.
        spec: AggregateSpec,
        /// The leaf and merge stages, level by level (see [`MergeTree`]).
        stages: Vec<Vec<Stage>>,
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

/// One leaf or merge stage of a merge tree.
pub struct Stage {
    /// The delta accumulated since the last flush; non-empty exactly when
    /// the stage has something to flush.
    delta: AnySketch,
    /// The rate-table key of the stage's edge to its parent, minted at its
    /// first partial over the network (a local edge never gets one).
    edge: Option<ChannelId>,
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
            TaskKind::SketchRoot { spec } => RuntimeOperator::SketchRoot {
                spec: spec.clone(),
                stages: Vec::new(),
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

    /// Gives an aggregate's root the stages of its placed merge tree, each
    /// with an empty delta.  Any other operator is returned unchanged.
    pub(crate) fn with_tree(mut self, tree: &MergeTree) -> Self {
        if let RuntimeOperator::SketchRoot { spec, stages, .. } = &mut self {
            let stage = || Stage {
                delta: AnySketch::for_spec(spec),
                edge: None,
            };
            let levels = tree.levels.iter();
            *stages = levels
                .map(|hosts| hosts.iter().map(|_| stage()).collect())
                .collect();
        }
        self
    }

    /// The operators this instance stands for: one, plus a root's leaf and
    /// merge stages.
    pub(crate) fn operators(&self) -> usize {
        match self {
            RuntimeOperator::SketchRoot { stages, .. } => {
                1 + stages.iter().map(Vec::len).sum::<usize>()
            }
            _ => 1,
        }
    }

    /// Memory held by stateful operators (joins, dedups, sketches — a
    /// root's stages included), in bytes.
    pub fn state_size(&self) -> usize {
        match self {
            RuntimeOperator::Join(j) => j.state_size(),
            RuntimeOperator::Dedup(d) => d.state_size(),
            RuntimeOperator::SketchRoot { sketch, stages, .. } => {
                let deltas = stages
                    .iter()
                    .flatten()
                    .map(|stage| stage.delta.state_bytes());
                sketch.state_bytes() + deltas.sum::<usize>()
            }
            _ => 0,
        }
    }

    /// Whether the root's stage at `(level, slot)` holds sketch state
    /// awaiting a round-boundary flush: a leaf or merge delta a flush would
    /// hand on, or — at the root's own level — a pending emission.  The
    /// dispatcher keeps ticking while any stage is pending, so
    /// `run_until_idle` drains the merge tree completely.  `false` for any
    /// other operator.
    pub(crate) fn stage_pending(&self, level: usize, slot: usize) -> bool {
        match self {
            RuntimeOperator::SketchRoot { stages, dirty, .. } => match stages.get(level) {
                Some(level) => level.get(slot).is_some_and(|stage| !stage.delta.is_empty()),
                None => *dirty,
            },
            _ => false,
        }
    }

    /// Every pending stage of a root, as `(level, slot)`, the root's own
    /// level last (see [`RuntimeOperator::stage_pending`]): what the debug
    /// builds' audit compares with the hosts' flush lists.
    #[cfg(debug_assertions)]
    pub(crate) fn pending_stages(&self) -> Vec<(usize, usize)> {
        let RuntimeOperator::SketchRoot { stages, .. } = self else {
            return Vec::new();
        };
        let slots = stages.iter().enumerate();
        let slots = slots.flat_map(|(level, s)| (0..s.len()).map(move |slot| (level, slot)));
        let root = (stages.len(), 0);
        let all = slots.chain([root]);
        all.filter(|&(level, slot)| self.stage_pending(level, slot))
            .collect()
    }

    /// Round-boundary flush of stage `at` of this root: a leaf or merge
    /// moves out the delta it accumulated since the last flush, leaving an
    /// empty sketch behind, addressed to its parent stage; the root itself
    /// counts a flush opportunity and, every `spec.every` of them,
    /// materializes the XML answer from the cumulative sketch.  `None` when
    /// the stage has nothing to hand on (or for non-sketch operators).
    pub(crate) fn flush_stage(&mut self, at: StageId) -> Option<Payload> {
        let RuntimeOperator::SketchRoot { stages, .. } = self else {
            return None;
        };
        if at.level == stages.len() {
            return self.sketch_answer().map(Payload::from);
        }
        let stage = stages.get_mut(at.level)?.get_mut(at.slot)?;
        let partial = (!stage.delta.is_empty()).then(|| stage.delta.take())?;
        // The top level has at most SKETCH_MERGE_FANIN stages, so its
        // parent slot is the root's 0.
        let to = StageId {
            level: at.level + 1,
            slot: at.slot / SKETCH_MERGE_FANIN,
            ..at
        };
        Some(Payload::Sketch {
            to,
            partial: Arc::new(partial),
        })
    }

    /// The rate-table key of the edge from stage `(level, slot)` to its
    /// parent: the one minted at the edge's first partial over the network,
    /// else `mint`'s, kept.  `None` for a stage this operator does not have.
    pub(crate) fn stage_edge(
        &mut self,
        level: usize,
        slot: usize,
        mint: impl FnOnce() -> ChannelId,
    ) -> Option<ChannelId> {
        let RuntimeOperator::SketchRoot { stages, .. } = self else {
            return None;
        };
        let stage = stages.get_mut(level)?.get_mut(slot)?;
        Some(*stage.edge.get_or_insert_with(mint))
    }

    /// Folds a child stage's partial into the root's stage `(level, slot)`
    /// — a merge, or at the root's own level the cumulative sketch — the
    /// only way a partial enters one.  Any other operator, or a partial of
    /// another kind, is left unchanged.
    pub(crate) fn absorb_partial(&mut self, level: usize, slot: usize, partial: &AnySketch) {
        if let RuntimeOperator::SketchRoot {
            stages,
            sketch,
            dirty,
            ..
        } = self
        {
            match stages.get_mut(level) {
                Some(level) => {
                    if let Some(stage) = level.get_mut(slot) {
                        stage.delta.merge_from(partial);
                    }
                }
                None => *dirty |= sketch.merge_from(partial),
            }
        }
    }

    /// Round-boundary emission for the root stage: counts a flush
    /// opportunity and, every `spec.every` of them, materializes the XML
    /// answer from the cumulative sketch.  `None` while the cadence has not
    /// been reached (the root stays pending so dispatch keeps ticking toward
    /// the emission).
    fn sketch_answer(&mut self) -> Option<Element> {
        match self {
            RuntimeOperator::SketchRoot {
                spec,
                sketch,
                dirty,
                flushes_since_emit,
                emitted,
                ..
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
                if members.contains(peer) {
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
            } => eval_select(var, simple, patterns, derived, conditions, item, false),
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
            // Port `p` is leaf `p`; partials reach the merges and the root
            // through `absorb_partial`, never as items.
            RuntimeOperator::SketchRoot { spec, stages, .. } => {
                let leaf = stages.first_mut().and_then(|leaves| leaves.get_mut(port));
                if let Some(leaf) = leaf {
                    let (key, weight) = spec.observe(&item.data);
                    if !key.is_empty() {
                        leaf.delta.update(&key, weight);
                    }
                }
                Vec::new()
            }
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
            } => eval_select(var, simple, patterns, derived, conditions, item, true),
            _ => self.on_item(port, item),
        }
    }
}

/// The shared Select evaluation.  With `prefiltered` the simple-condition and
/// tree-pattern stages are skipped — the peer's shared engine already ran
/// them — leaving only the residual LET/general-condition tail.
fn eval_select(
    var: &str,
    simple: &[AttrCondition],
    patterns: &[XPath],
    derived: &[(String, ValueExpr)],
    conditions: &[Condition],
    item: &StreamItem,
    prefiltered: bool,
) -> Vec<Arc<Element>> {
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
