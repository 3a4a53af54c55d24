//! The output oracle: what every sink must hold, computed from the
//! generator's parameters and the injected calls alone — no second monitor,
//! no `MonitorConfig` oracle flag.

use std::collections::HashMap;

use p2pmon_alerters::SoapCall;
use p2pmon_xmlkit::Element;

use crate::workloads::{Expectation, Predicate};

/// Sketch answers may be off by this much: top-k counts 5 % relative,
/// entropy 0.05 bits, the quantile 10 % relative.
const TOPK_REL_ERR: f64 = 0.05;
const ENTROPY_ERR_BITS: f64 = 0.05;
const QUANTILE_REL_ERR: f64 = 0.10;

/// One distinct predicate and the subscriptions sharing it.
struct Shape {
    predicate: Predicate,
    /// Matching calls injected so far.
    matched: u64,
    /// Live subscriptions of this shape.
    live: u64,
}

enum Tracked {
    /// Item subscription: its shape and the shape's `matched` count when it
    /// was submitted (and when it was retired, once it is).
    Items {
        shape: usize,
        from: u64,
        until: Option<u64>,
    },
    Aggregate(Expectation),
}

/// Tracks the live-subscription multiset and every injected call.
#[derive(Default)]
pub struct Oracle {
    shapes: Vec<Shape>,
    by_predicate: HashMap<Predicate, usize>,
    /// `(caller, method)` → shapes, so a call only visits candidates.
    by_call: HashMap<(String, String), Vec<usize>>,
    subscriptions: Vec<Tracked>,
    method_counts: HashMap<String, u64>,
    durations: Vec<u64>,
}

impl Oracle {
    /// Registers subscription `i` (ids are dense, in submit order) as live.
    pub fn submitted(&mut self, i: usize, expect: &Expectation) {
        assert_eq!(
            i,
            self.subscriptions.len(),
            "subscriptions register in order"
        );
        let tracked = match expect {
            Expectation::Items(predicate) => {
                let shape = *self
                    .by_predicate
                    .entry(predicate.clone())
                    .or_insert_with(|| {
                        self.shapes.push(Shape {
                            predicate: predicate.clone(),
                            matched: 0,
                            live: 0,
                        });
                        let shape = self.shapes.len() - 1;
                        self.by_call
                            .entry((predicate.caller.clone(), predicate.method.clone()))
                            .or_default()
                            .push(shape);
                        shape
                    });
                self.shapes[shape].live += 1;
                Tracked::Items {
                    shape,
                    from: self.shapes[shape].matched,
                    until: None,
                }
            }
            aggregate => Tracked::Aggregate(aggregate.clone()),
        };
        self.subscriptions.push(tracked);
    }

    /// Freezes subscription `i`'s expected count at what it has seen so far.
    pub fn unsubscribed(&mut self, i: usize) {
        if let Tracked::Items { shape, until, .. } = &mut self.subscriptions[i] {
            let shape = &mut self.shapes[*shape];
            shape.live -= 1;
            *until = Some(shape.matched);
        }
    }

    /// Accounts for a batch about to be injected; returns how many results
    /// it must add across all item sinks.
    pub fn injected(&mut self, calls: &[SoapCall]) -> u64 {
        let mut results = 0;
        for call in calls {
            *self.method_counts.entry(call.method.clone()).or_default() += 1;
            self.durations.push(call.duration());
            let key = (call.caller.clone(), call.method.clone());
            for &s in self.by_call.get(&key).map_or(&[][..], Vec::as_slice) {
                let shape = &mut self.shapes[s];
                if shape.predicate.matches(call) {
                    shape.matched += 1;
                    results += shape.live;
                }
            }
        }
        results
    }

    /// True when subscription `i` collects items (its sink length is part of
    /// the per-batch result total).
    pub fn counts_items(&self, i: usize) -> bool {
        matches!(self.subscriptions[i], Tracked::Items { .. })
    }

    /// Checks one sink against everything injected during the
    /// subscription's life.
    pub fn check(&self, i: usize, results: &[Element]) -> Result<(), String> {
        match &self.subscriptions[i] {
            Tracked::Items { shape, from, until } => {
                let expected = until.unwrap_or(self.shapes[*shape].matched) - from;
                if results.len() as u64 == expected {
                    Ok(())
                } else {
                    Err(format!(
                        "subscription {i}: {} results, oracle expects {expected}",
                        results.len()
                    ))
                }
            }
            Tracked::Aggregate(expect) => {
                let answer = results
                    .last()
                    .ok_or_else(|| format!("subscription {i}: aggregate never answered"))?;
                self.check_aggregate(i, expect, answer)
            }
        }
    }

    fn check_aggregate(
        &self,
        i: usize,
        expect: &Expectation,
        answer: &Element,
    ) -> Result<(), String> {
        let number = |e: &Element, name: &str| -> Result<f64, String> {
            e.attr(name)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("subscription {i}: answer lacks numeric `{name}`"))
        };
        match expect {
            Expectation::TopK(k) => {
                let entries: Vec<&Element> = answer.children_named("entry").collect();
                if entries.len() != *k {
                    return Err(format!(
                        "subscription {i}: {} top-k entries, want {k}",
                        entries.len()
                    ));
                }
                let mut exact: Vec<u64> = self.method_counts.values().copied().collect();
                exact.sort_unstable_by(|a, b| b.cmp(a));
                let floor = exact.get(*k - 1).copied().unwrap_or(0) as f64;
                for entry in entries {
                    let key = entry.attr("key").unwrap_or_default();
                    let exact = self.method_counts.get(key).copied().unwrap_or(0) as f64;
                    let count = number(entry, "count")?;
                    if (count - exact).abs() > TOPK_REL_ERR * exact.max(1.0) {
                        return Err(format!(
                            "subscription {i}: top-k `{key}` = {count}, exact {exact}"
                        ));
                    }
                    if exact < floor * (1.0 - TOPK_REL_ERR) {
                        return Err(format!("subscription {i}: `{key}` is not a top-{k} method"));
                    }
                }
                Ok(())
            }
            Expectation::Entropy => {
                let total = self.durations.len() as f64;
                let exact: f64 = -self
                    .method_counts
                    .values()
                    .map(|&c| {
                        let p = c as f64 / total;
                        p * p.log2()
                    })
                    .sum::<f64>();
                let bits = number(answer, "bits")?;
                if (bits - exact).abs() <= ENTROPY_ERR_BITS {
                    Ok(())
                } else {
                    Err(format!(
                        "subscription {i}: entropy {bits} bits, exact {exact}"
                    ))
                }
            }
            Expectation::Quantile(q) => {
                let mut durations = self.durations.clone();
                durations.sort_unstable();
                let rank = ((q * durations.len() as f64).ceil() as usize).clamp(1, durations.len());
                let exact = durations[rank - 1] as f64;
                let value = number(answer, "value")?;
                if (value - exact).abs() <= QUANTILE_REL_ERR * exact.max(1.0) {
                    Ok(())
                } else {
                    Err(format!("subscription {i}: quantile {value}, exact {exact}"))
                }
            }
            Expectation::Items(_) => unreachable!("item subscriptions are checked by count"),
        }
    }
}
