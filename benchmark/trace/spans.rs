//! In-memory spans around the public calls the driver makes.
//!
//! One span per call: name, start, end, parent, and the submit / retire /
//! batch index of the operation it belongs to as the shared identifier.
//! Spans live in a vector until the run ends.  The names are the ones a later
//! in-monitor instrumentation (ROADMAP item 4) must reuse.

use std::time::Instant;

use p2pmon_benchmark::json::Json;

/// The span vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Submit,
    P2pmlParse,
    P2pmlCompile,
    CorePushdown,
    CoreReuseSearch,
    CoreDeployPlan,
    CoreUnsubscribe,
    Batch,
    CoreInject,
    CoreTick,
}

impl Name {
    pub const ALL: [Name; 10] = [
        Name::Submit,
        Name::P2pmlParse,
        Name::P2pmlCompile,
        Name::CorePushdown,
        Name::CoreReuseSearch,
        Name::CoreDeployPlan,
        Name::CoreUnsubscribe,
        Name::Batch,
        Name::CoreInject,
        Name::CoreTick,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Submit => "submit",
            Name::P2pmlParse => "p2pml.parse",
            Name::P2pmlCompile => "p2pml.compile",
            Name::CorePushdown => "core.pushdown",
            Name::CoreReuseSearch => "core.reuse_search",
            Name::CoreDeployPlan => "core.deploy_plan",
            Name::CoreUnsubscribe => "core.unsubscribe",
            Name::Batch => "batch",
            Name::CoreInject => "core.inject",
            Name::CoreTick => "core.tick",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Repetition and operation index: the identifier the spans of one
    /// submit, retire or batch share.
    pub repetition: u32,
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one clock.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    pub repetition: u32,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part child spans cover.
    pub self_ns: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            repetition: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: Name, id: u64) -> u32 {
        let index = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            repetition: self.repetition,
            id,
        });
        self.stack.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn close(&mut self, index: u32) {
        let end_ns = self.now();
        assert_eq!(self.stack.pop(), Some(index), "spans close innermost first");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> [Totals; Name::ALL.len()] {
        let mut totals = [Totals::default(); Name::ALL.len()];
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            let t = &mut totals[span.name as usize];
            t.count += 1;
            t.total_ns += span.duration_ns();
            if span.parent != NO_PARENT {
                covered[span.parent as usize] += span.duration_ns();
            }
        }
        for (span, covered) in self.spans.iter().zip(covered) {
            totals[span.name as usize].self_ns += span.duration_ns().saturating_sub(covered);
        }
        totals
    }

    /// The trace file: a name table and one `[name, start_ns, end_ns,
    /// parent, repetition, id]` row per span (`parent` is a row index, -1
    /// for a root).
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "repetition", "id"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            (
                "names",
                Json::Arr(Name::ALL.iter().map(|n| Json::str(n.label())).collect()),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            let parent = if s.parent == NO_PARENT {
                                -1.0
                            } else {
                                f64::from(s.parent)
                            };
                            Json::Arr(vec![
                                Json::Num(f64::from(s.name as u8)),
                                Json::Num(s.start_ns as f64),
                                Json::Num(s.end_ns as f64),
                                Json::Num(parent),
                                Json::Num(f64::from(s.repetition)),
                                Json::Num(s.id as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
