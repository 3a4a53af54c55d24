//! Mergeable streaming sketches backing the aggregate operators.
//!
//! The algebra of the ICDE'08 monitoring paper ships whole XML items to
//! subscribers.  Continuous *aggregate* subscriptions ("top-k hottest
//! channels", "distribution entropy", "p99 dispatch latency") instead merge
//! bounded-size partial summaries up the placement tree, so the bytes on the
//! wire are proportional to the sketch size, not to the event volume.
//!
//! Every summary here implements the [`Sketch`] trait: deterministic
//! [`Sketch::update`], exact-or-bounded [`Sketch::merge`], and an XML
//! round-trip ([`Sketch::to_element`] / [`Sketch::from_element`]) whose size
//! is bounded by [`Sketch::max_serialized_entries`] regardless of how many
//! events were absorbed.
//!
//! Inside the monitor a partial moves between stages as a value: a leaf or
//! merge stage hands its delta on with [`AnySketch::take`] and the parent
//! folds it in with [`AnySketch::merge_from`], locally and across the
//! simulated network alike.  The XML form is the external and ledger form:
//! [`AnySketch::absorb`] reads it, and a message carrying a partial is
//! charged [`AnySketch::wire_size`] — the byte size of
//! [`AnySketch::to_element`]'s tree, computed without building it.
//!
//! The concrete summaries:
//!
//! * [`TopKSketch`] — a Misra–Gries summary: at most `capacity` key counts,
//!   each an undercount by at most `(total − Σ counts) / (capacity + 1)`.
//!   `topk` answers its heaviest counts; `entropy` answers an interval
//!   proven from the same counts ([`TopKSketch::entropy_bounds`]), exact
//!   while the distinct keys fit the capacity.
//! * [`QuantileSummary`] — logarithmic buckets with relative-accuracy
//!   guarantee `alpha` (DDSketch-style); merge is exact (bucket-wise add).
//!
//! [`AggregateSpec`] describes one aggregate subscription (which sketch, over
//! which key attribute, at which cadence) and [`AnySketch`] dispatches over
//! the two summaries at runtime.  Counts and totals add saturating, so no
//! partial, however hostile, overflows them.

use p2pmon_xmlkit::Element;
use std::collections::BTreeMap;

/// A bounded-size, mergeable stream summary.
///
/// Implementations guarantee three properties the planner relies on:
///
/// 1. **Determinism** — the same update sequence always produces the same
///    serialized form (no randomized hashing at runtime).
/// 2. **Mergeability** — `a.update(xs); b.update(ys); a.merge(&b)` answers
///    queries within the same error bound as a single sketch that absorbed
///    `xs ++ ys`.  Quantile buckets merge *exactly*; key counts do while
///    the distinct keys fit the capacity.
/// 3. **Bounded size** — the XML partial never exceeds
///    [`max_serialized_entries`](Sketch::max_serialized_entries) entries, no
///    matter how many events were absorbed.
///
/// The XML round-trip is the external form of a summary, and what the wire
/// ledger charges for it; the merge tree itself hands summaries to one
/// another as values (see [`AnySketch`]).
///
/// # Examples
///
/// ```
/// use p2pmon_streams::sketch::{Sketch, TopKSketch};
///
/// let mut left = TopKSketch::new(8);
/// let mut right = TopKSketch::new(8);
/// for _ in 0..9 {
///     left.update("hot", 1);
/// }
/// right.update("cold", 1);
/// assert!(left.merge(&right));
/// let top = left.top(1);
/// assert_eq!(top[0].0, "hot");
/// assert_eq!(top[0].1, 9);
///
/// // XML round-trip preserves the summary bit-for-bit.
/// let wire = left.to_element();
/// let back = TopKSketch::from_element(&wire).unwrap();
/// assert_eq!(back, left);
///
/// // A summary of another shape is not folded in.
/// assert!(!left.merge(&TopKSketch::new(4)));
/// ```
pub trait Sketch: Sized {
    /// Absorb one observation.  `key` identifies the stream element being
    /// counted; `weight` is the increment (for [`QuantileSummary`] the key is
    /// parsed as the numeric observation and the weight is its multiplicity).
    fn update(&mut self, key: &str, weight: u64);

    /// Fold another sketch of the same shape into this one.  Returns `false`,
    /// and changes nothing, when `other` has another shape (capacity,
    /// accuracy or bucket bound).
    fn merge(&mut self, other: &Self) -> bool;

    /// Serialize into a bounded-size XML partial: the external form, and the
    /// tree whose byte size a message carrying the summary is charged.
    fn to_element(&self) -> Element;

    /// Rebuild a sketch from [`to_element`](Sketch::to_element) output.
    /// Returns `None` when the element is not a partial of this kind.
    fn from_element(el: &Element) -> Option<Self>;

    /// Upper bound on the number of serialized entries (key counts,
    /// buckets), independent of how many events were absorbed.
    fn max_serialized_entries(&self) -> usize;

    /// True when no observation has been absorbed since construction (or the
    /// last [`reset`](Sketch::reset)).
    fn is_empty(&self) -> bool;

    /// Clear all absorbed state, keeping the configured shape.  (A flushing
    /// stage moves its state out with [`AnySketch::take`] instead, so each
    /// partial it hands on is a *delta*.)
    fn reset(&mut self);
}

fn parse_u64(el: &Element, attr: &str) -> Option<u64> {
    el.attr(attr)?.parse().ok()
}

/// Adds `weight` to a count, saturating.
fn add_to(count: &mut u64, weight: u64) {
    *count = count.saturating_add(weight);
}

// The `wire_size` methods below compute `to_element().byte_size()` without
// building the tree.  `Element::byte_size` charges an element its open and
// close tags and each attribute its raw name and value lengths plus four
// bytes of syntax — no escaping — so the size is a sum of tag-name lengths,
// key lengths and decimal digit counts.

/// `Element::byte_size` of an element named `name`, without its attributes
/// and children.
fn tag_bytes(name: &str) -> usize {
    2 * name.len() + 5
}

/// `Element::byte_size` of one attribute named `name` whose value is
/// `value_len` bytes long.
fn attr_bytes(name: &str, value_len: usize) -> usize {
    name.len() + value_len + 4
}

/// Length of `n.to_string()`.
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Length of `n.to_string()` for a signed bucket index.
fn signed_digits(n: i32) -> usize {
    usize::from(n < 0) + digits(u64::from(n.unsigned_abs()))
}

/// Heavy-hitters sketch: a Misra–Gries summary of at most `capacity` key
/// counts (Agarwal et al., "Mergeable Summaries", PODS 2012).  It backs
/// both key aggregates: `topk` reads its heaviest counts and `entropy` an
/// interval proven from them ([`TopKSketch::entropy_bounds`]).
///
/// An update adds its weight to its key.  When that makes `capacity + 1`
/// keys, the smallest count is subtracted from every count and the keys at
/// zero are dropped; a merge adds the counts and, past `capacity` keys,
/// subtracts the `(capacity + 1)`-th largest.  Each such reduction removes
/// at least `capacity + 1` times what it takes from any one key, so with
/// `N` the total weight absorbed and `Σĉ` the counts kept, every key's count
/// `ĉ` satisfies `exact − (N − Σĉ) / (capacity + 1) ≤ ĉ ≤ exact` (a dropped
/// key reads 0).  While the distinct keys fit the capacity no reduction
/// happens and the counts are exact, merged in any partition and order.
/// Ties break on the key string so answers are reproducible across runs.
/// The partial is `<sketch kind="topk" cap total>` with one
/// `<kv k=".." n=".."/>` per kept key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKSketch {
    capacity: usize,
    counts: BTreeMap<String, u64>,
    total: u64,
}

impl TopKSketch {
    /// Keep at most `capacity` key counts.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            counts: BTreeMap::new(),
            total: 0,
        }
    }

    /// The `k` heaviest keys, heaviest first; count descending then key
    /// ascending so the answer is deterministic.
    pub fn top(&self, k: usize) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> = self
            .counts
            .iter()
            .map(|(key, &count)| (key.clone(), count))
            .collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Total weight absorbed across all keys.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// An interval `(lo, hi)` that contains the Shannon entropy, in bits, of
    /// the key distribution absorbed.
    ///
    /// With `N` the total, `T` the kept keys, `R = N − Σĉ` the mass the
    /// reductions removed, `Δ = R / (capacity + 1)` and
    /// `h(c) = −(c/N)·log2(c/N)`: every kept key's exact count lies in
    /// `[ĉ, ĉ + Δ]`, and every other key's in `[1, Δ]`.  So
    /// `hi = Σ_T h(ĉ) + (R/N)·log2 N` — each unit of mass `R` adds at most
    /// `log2 N` — and `lo = Σ_T min(h(ĉ), h(ĉ + Δ)) + max(0, R − |T|·Δ)/N ·
    /// log2(N/Δ)`, since `h` is concave and the mass outside `T` sits on
    /// keys of count at most `Δ`.  While the distinct keys fit the capacity
    /// `R = 0` and `lo = hi` is the exact entropy.  `N = 0` answers `(0, 0)`.
    pub fn entropy_bounds(&self) -> (f64, f64) {
        if self.total == 0 {
            return (0.0, 0.0);
        }
        let n = self.total as f64;
        // Every kept count is positive, so `h` never reads log2(0).
        let h = |c: f64| -(c / n) * (c / n).log2();
        let mass = self
            .counts
            .values()
            .fold(0, |sum: u64, &c| sum.saturating_add(c));
        let r = self.total.saturating_sub(mass) as f64;
        let delta = r / (self.capacity as f64 + 1.0);
        let (mut lo, mut hi) = (0.0, 0.0);
        for &count in self.counts.values() {
            let c = count as f64;
            lo += h(c).min(h(c + delta));
            hi += h(c);
        }
        if r > 0.0 {
            hi += r / n * n.log2();
            let outside = r - self.counts.len() as f64 * delta;
            if outside > 0.0 {
                lo += outside / n * (n / delta).log2();
            }
        }
        (lo, hi)
    }

    /// Adds `weight` to `key`'s count, saturating.  A counted key is found by
    /// reference; only a new one is copied.
    fn add(&mut self, key: &str, weight: u64) {
        match self.counts.get_mut(key) {
            Some(count) => add_to(count, weight),
            None => {
                self.counts.insert(key.to_string(), weight);
            }
        }
    }

    /// `self.to_element().byte_size()`, computed from the state.
    fn wire_size(&self) -> usize {
        let entries: usize = self
            .counts
            .iter()
            .map(|(key, &count)| {
                tag_bytes("kv") + attr_bytes("k", key.len()) + attr_bytes("n", digits(count))
            })
            .sum();
        tag_bytes("sketch")
            + attr_bytes("kind", "topk".len())
            + attr_bytes("cap", digits(self.capacity as u64))
            + attr_bytes("total", digits(self.total))
            + entries
    }

    /// Past `capacity` keys, subtracts the `(capacity + 1)`-th largest count
    /// from every count and drops the keys it takes to zero.
    fn reduce(&mut self) {
        if self.counts.len() <= self.capacity {
            return;
        }
        let mut counts: Vec<u64> = self.counts.values().copied().collect();
        let (_, &mut cut, _) = counts.select_nth_unstable_by(self.capacity, |a, b| b.cmp(a));
        self.counts.retain(|_, count| {
            *count = count.saturating_sub(cut);
            *count > 0
        });
    }
}

impl Sketch for TopKSketch {
    fn update(&mut self, key: &str, weight: u64) {
        if weight == 0 {
            return;
        }
        self.add(key, weight);
        self.total = self.total.saturating_add(weight);
        self.reduce();
    }

    fn merge(&mut self, other: &Self) -> bool {
        if self.capacity != other.capacity {
            return false;
        }
        for (key, &count) in &other.counts {
            self.add(key, count);
        }
        self.total = self.total.saturating_add(other.total);
        self.reduce();
        true
    }

    fn to_element(&self) -> Element {
        let mut el = Element::new("sketch");
        el.set_attr("kind", "topk");
        el.set_attr("cap", self.capacity.to_string());
        el.set_attr("total", self.total.to_string());
        for (key, &count) in &self.counts {
            let mut kv = Element::new("kv");
            kv.set_attr("k", key.clone());
            kv.set_attr("n", count.to_string());
            el.push_element(kv);
        }
        el
    }

    /// `None` also when `cap` is not a capacity [`TopKSketch::new`] keeps,
    /// or the counts add up to more than the partial's total.  A repeated
    /// key adds up, and an over-capacity entry list (not one
    /// [`to_element`](Sketch::to_element) writes) is reduced to the capacity.
    fn from_element(el: &Element) -> Option<Self> {
        if el.name != "sketch" || el.attr("kind") != Some("topk") {
            return None;
        }
        let capacity = usize::try_from(parse_u64(el, "cap")?).ok()?;
        let mut sketch = TopKSketch::new(capacity);
        if sketch.capacity != capacity {
            return None;
        }
        sketch.total = parse_u64(el, "total")?;
        for kv in el.children_named("kv") {
            sketch.add(kv.attr("k")?, parse_u64(kv, "n")?);
        }
        let mass = sketch
            .counts
            .values()
            .fold(0, |sum: u64, &n| sum.saturating_add(n));
        if mass > sketch.total {
            return None;
        }
        sketch.counts.retain(|_, count| *count > 0);
        sketch.reduce();
        Some(sketch)
    }

    fn max_serialized_entries(&self) -> usize {
        self.capacity
    }

    fn is_empty(&self) -> bool {
        self.total == 0
    }

    fn reset(&mut self) {
        self.counts.clear();
        self.total = 0;
    }
}

/// Mergeable p-quantile summary over non-negative integer observations,
/// using logarithmic buckets with relative accuracy `alpha` (DDSketch-style).
///
/// Bucket `i` covers `(gamma^(i-1), gamma^i]` with `gamma = (1+α)/(1-α)`, so
/// reporting a bucket midpoint is within relative error `alpha` of the true
/// value.  Merging adds bucket counts — *exact* — and when the bucket count
/// exceeds `max_buckets` the lowest buckets collapse together, preserving
/// accuracy for the high quantiles (p95/p99) the monitor asks about.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSummary {
    /// Relative-accuracy parameter in per-mille (e.g. 10 ⇒ α = 0.01).
    alpha_permille: u32,
    max_buckets: usize,
    zero_count: u64,
    buckets: BTreeMap<i32, u64>,
    total: u64,
}

impl QuantileSummary {
    /// Create a summary with relative accuracy `alpha_permille / 1000` and at
    /// most `max_buckets` live buckets.
    pub fn new(alpha_permille: u32, max_buckets: usize) -> Self {
        Self {
            alpha_permille: alpha_permille.clamp(1, 500),
            max_buckets: max_buckets.max(2),
            zero_count: 0,
            buckets: BTreeMap::new(),
            total: 0,
        }
    }

    fn gamma(&self) -> f64 {
        let alpha = self.alpha_permille as f64 / 1000.0;
        (1.0 + alpha) / (1.0 - alpha)
    }

    /// Absorb one numeric observation with multiplicity `weight`.
    pub fn observe(&mut self, value: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        if value == 0 {
            self.zero_count = self.zero_count.saturating_add(weight);
        } else {
            let idx = (value as f64).ln() / self.gamma().ln();
            let idx = idx.ceil() as i32;
            add_to(self.buckets.entry(idx).or_insert(0), weight);
            self.collapse();
        }
        self.total = self.total.saturating_add(weight);
    }

    /// The value at quantile `q_permille / 1000` (e.g. 990 ⇒ p99), within
    /// relative error `alpha` of the true order statistic.
    pub fn quantile(&self, q_permille: u32) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q_permille.min(1000) as u128 * (self.total as u128 - 1)) / 1000) as u64;
        if rank < self.zero_count {
            return 0;
        }
        // The bucket the rank falls in; the highest one should rounding (or
        // a partial whose buckets fall short of its total) leave it short.
        let mut seen = self.zero_count;
        let bucket = self.buckets.iter().find_map(|(idx, &count)| {
            seen = seen.saturating_add(count);
            (seen > rank).then_some(idx)
        });
        let gamma = self.gamma();
        // Midpoint of (gamma^(idx-1), gamma^idx].
        bucket
            .or(self.buckets.keys().next_back())
            .map_or(0, |&idx| {
                ((gamma.powi(idx) + gamma.powi(idx.saturating_sub(1))) / 2.0).round() as u64
            })
    }

    /// Total weight absorbed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `self.to_element().byte_size()`, computed from the state.
    fn wire_size(&self) -> usize {
        let buckets: usize = self
            .buckets
            .iter()
            .map(|(&idx, &count)| {
                tag_bytes("b")
                    + attr_bytes("i", signed_digits(idx))
                    + attr_bytes("n", digits(count))
            })
            .sum();
        tag_bytes("sketch")
            + attr_bytes("kind", "quantile".len())
            + attr_bytes("alpha", digits(self.alpha_permille.into()))
            + attr_bytes("maxb", digits(self.max_buckets as u64))
            + attr_bytes("zero", digits(self.zero_count))
            + attr_bytes("total", digits(self.total))
            + buckets
    }

    fn collapse(&mut self) {
        while self.buckets.len() > self.max_buckets {
            // Fold the lowest bucket into its neighbor: high quantiles stay
            // accurate, the far-left tail degrades first.
            let (_, mass) = self.buckets.pop_first().expect("over max implies some");
            let (_, next) = self.buckets.iter_mut().next().expect("max_buckets >= 2");
            add_to(next, mass);
        }
    }
}

impl Sketch for QuantileSummary {
    /// `key` is parsed as the numeric observation; unparsable keys count as 0.
    fn update(&mut self, key: &str, weight: u64) {
        let value = key.parse::<u64>().unwrap_or(0);
        self.observe(value, weight.max(1));
    }

    fn merge(&mut self, other: &Self) -> bool {
        if (self.alpha_permille, self.max_buckets) != (other.alpha_permille, other.max_buckets) {
            return false;
        }
        self.zero_count = self.zero_count.saturating_add(other.zero_count);
        for (&idx, &count) in &other.buckets {
            add_to(self.buckets.entry(idx).or_insert(0), count);
        }
        self.total = self.total.saturating_add(other.total);
        self.collapse();
        true
    }

    fn to_element(&self) -> Element {
        let mut el = Element::new("sketch");
        el.set_attr("kind", "quantile");
        el.set_attr("alpha", self.alpha_permille.to_string());
        el.set_attr("maxb", self.max_buckets.to_string());
        el.set_attr("zero", self.zero_count.to_string());
        el.set_attr("total", self.total.to_string());
        for (&idx, &count) in &self.buckets {
            let mut b = Element::new("b");
            b.set_attr("i", idx.to_string());
            b.set_attr("n", count.to_string());
            el.push_element(b);
        }
        el
    }

    fn from_element(el: &Element) -> Option<Self> {
        if el.name != "sketch" || el.attr("kind") != Some("quantile") {
            return None;
        }
        let alpha_permille = u32::try_from(parse_u64(el, "alpha")?).ok()?;
        let max_buckets = usize::try_from(parse_u64(el, "maxb")?).ok()?;
        let mut summary = QuantileSummary::new(alpha_permille, max_buckets);
        if (summary.alpha_permille, summary.max_buckets) != (alpha_permille, max_buckets) {
            return None;
        }
        summary.zero_count = parse_u64(el, "zero")?;
        summary.total = parse_u64(el, "total")?;
        for b in el.children_named("b") {
            let idx = b.attr("i")?.parse::<i32>().ok()?;
            summary.buckets.insert(idx, parse_u64(b, "n")?);
        }
        summary.collapse();
        Some(summary)
    }

    fn max_serialized_entries(&self) -> usize {
        self.max_buckets + 1
    }

    fn is_empty(&self) -> bool {
        self.total == 0
    }

    fn reset(&mut self) {
        self.zero_count = 0;
        self.buckets.clear();
        self.total = 0;
    }
}

/// Which aggregate a subscription computes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggregateKind {
    /// The `k` heaviest keys by total weight.
    TopK {
        /// How many heavy hitters the answer reports.
        k: usize,
    },
    /// Shannon entropy of the key distribution, in bits.
    Entropy,
    /// The `q_permille / 1000` quantile of the numeric key values
    /// (990 ⇒ p99).
    Quantile {
        /// Quantile in per-mille, clamped to `0..=1000`.
        q_permille: u32,
    },
}

impl AggregateKind {
    /// Stable name used in surface syntax, plan display and answer items.
    pub fn name(&self) -> &'static str {
        match self {
            AggregateKind::TopK { .. } => "topk",
            AggregateKind::Entropy => "entropy",
            AggregateKind::Quantile { .. } => "quantile",
        }
    }
}

/// Full description of one aggregate subscription: the sketch kind, the key
/// it is keyed on, an optional weight attribute, and the root emission
/// cadence in dispatch rounds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggregateSpec {
    /// Which summary the merge tree maintains.
    pub kind: AggregateKind,
    /// Variable the key is drawn from (`$c` in `topk($c.method, 5)`).
    pub var: String,
    /// Attribute on the bound element supplying the key (or the numeric
    /// observation for quantiles).  `None` uses the element's text content.
    pub key_attr: Option<String>,
    /// Attribute supplying the per-item weight; `None` counts each item once.
    pub weight_attr: Option<String>,
    /// Root answers materialize every `every` flush opportunities (≥ 1).
    pub every: usize,
}

impl AggregateSpec {
    /// Spec with cadence 1 and unit weights.
    pub fn new(kind: AggregateKind, var: impl Into<String>, key_attr: Option<String>) -> Self {
        Self {
            kind,
            var: var.into(),
            key_attr,
            weight_attr: None,
            every: 1,
        }
    }

    /// Extract `(key, weight)` from a bound element according to this spec.
    ///
    /// The key attribute is looked up on the element root first, then on the
    /// first descendant carrying it (deterministic depth-first order).
    pub fn observe(&self, el: &Element) -> (String, u64) {
        let key = match &self.key_attr {
            Some(attr) => find_attr(el, attr).unwrap_or_default(),
            None => el.text(),
        };
        let weight = self
            .weight_attr
            .as_ref()
            .and_then(|attr| find_attr(el, attr))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(1);
        (key, weight)
    }
}

fn find_attr(el: &Element, attr: &str) -> Option<String> {
    if let Some(v) = el.attr(attr) {
        return Some(v.to_string());
    }
    for child in el.child_elements() {
        if let Some(v) = find_attr(child, attr) {
            return Some(v);
        }
    }
    None
}

/// Key-count bound used for operator-level [`TopKSketch`]es, `topk` and
/// `entropy` alike (`topk(k)` keeps at least `k`).
pub const DEFAULT_TOPK_CAPACITY: usize = 512;
/// Relative accuracy (per-mille) for operator-level [`QuantileSummary`]s.
pub const DEFAULT_QUANTILE_ALPHA_PERMILLE: u32 = 10;
/// Bucket bound for operator-level [`QuantileSummary`]s.
pub const DEFAULT_QUANTILE_MAX_BUCKETS: usize = 256;

/// Runtime dispatch over the two operator-facing summaries.
///
/// The planner knows only the [`AggregateSpec`]; `AnySketch::for_spec` picks
/// the summary, and the leaf/merge/root operators drive it through this enum
/// without caring which concrete sketch is inside.  A stage hands its delta
/// to its parent as a value ([`AnySketch::take`], [`AnySketch::merge_from`]);
/// [`AnySketch::wire_size`] is what a message carrying it is charged.
#[derive(Debug, Clone, PartialEq)]
pub enum AnySketch {
    /// Key-count state, for `topk` and `entropy` aggregates.
    TopK(TopKSketch),
    /// Quantile-summary state.
    Quantile(QuantileSummary),
}

impl AnySketch {
    /// Fresh, empty sketch of the shape `spec` calls for.
    pub fn for_spec(spec: &AggregateSpec) -> Self {
        match spec.kind {
            AggregateKind::TopK { k } => {
                AnySketch::TopK(TopKSketch::new(DEFAULT_TOPK_CAPACITY.max(k)))
            }
            AggregateKind::Entropy => AnySketch::TopK(TopKSketch::new(DEFAULT_TOPK_CAPACITY)),
            AggregateKind::Quantile { .. } => AnySketch::Quantile(QuantileSummary::new(
                DEFAULT_QUANTILE_ALPHA_PERMILLE,
                DEFAULT_QUANTILE_MAX_BUCKETS,
            )),
        }
    }

    /// Absorb one raw observation (see [`Sketch::update`]).
    pub fn update(&mut self, key: &str, weight: u64) {
        match self {
            AnySketch::TopK(s) => s.update(key, weight),
            AnySketch::Quantile(s) => s.update(key, weight),
        }
    }

    /// Fold another sketch of the same kind and shape into this one (see
    /// [`Sketch::merge`]).  Returns `false` (and changes nothing) when
    /// `other` is of another kind, or of another shape: a key-count
    /// capacity, a quantile accuracy or bucket bound that differs.
    pub fn merge_from(&mut self, other: &AnySketch) -> bool {
        match (self, other) {
            (AnySketch::TopK(s), AnySketch::TopK(o)) => s.merge(o),
            (AnySketch::Quantile(s), AnySketch::Quantile(o)) => s.merge(o),
            _ => false,
        }
    }

    /// Move the absorbed state out, leaving an empty sketch of the same
    /// shape: how a leaf or merge stage hands on the delta of a round.
    pub fn take(&mut self) -> AnySketch {
        let empty = match self {
            AnySketch::TopK(s) => AnySketch::TopK(TopKSketch::new(s.capacity)),
            AnySketch::Quantile(s) => {
                AnySketch::Quantile(QuantileSummary::new(s.alpha_permille, s.max_buckets))
            }
        };
        std::mem::replace(self, empty)
    }

    /// Absorb a serialized partial produced by [`AnySketch::to_element`]:
    /// the XML entry point, parsed and then [merged](AnySketch::merge_from).
    /// Returns `false` (and changes nothing) when the element is not a
    /// partial of this sketch's kind and shape.
    pub fn absorb(&mut self, el: &Element) -> bool {
        let other = match self {
            AnySketch::TopK(_) => TopKSketch::from_element(el).map(AnySketch::TopK),
            AnySketch::Quantile(_) => QuantileSummary::from_element(el).map(AnySketch::Quantile),
        };
        other.is_some_and(|other| self.merge_from(&other))
    }

    /// `self.to_element().byte_size()` — what a message carrying this sketch
    /// is charged — computed from the state without building the tree.
    pub fn wire_size(&self) -> usize {
        match self {
            AnySketch::TopK(s) => s.wire_size(),
            AnySketch::Quantile(s) => s.wire_size(),
        }
    }

    /// Serialize the current state as a bounded-size XML partial.
    pub fn to_element(&self) -> Element {
        match self {
            AnySketch::TopK(s) => s.to_element(),
            AnySketch::Quantile(s) => s.to_element(),
        }
    }

    /// True when nothing has been absorbed since construction or the last
    /// [`take`](AnySketch::take).
    pub fn is_empty(&self) -> bool {
        match self {
            AnySketch::TopK(s) => s.is_empty(),
            AnySketch::Quantile(s) => s.is_empty(),
        }
    }

    /// Approximate in-memory footprint, for operator state accounting.
    pub fn state_bytes(&self) -> usize {
        match self {
            AnySketch::TopK(s) => 48 * s.counts.len() + 64,
            AnySketch::Quantile(s) => 16 * s.buckets.len() + 64,
        }
    }

    /// Materialize the user-facing XML answer for `spec`, e.g.
    /// `<aggregate kind="topk"><entry key=".." count=".."/></aggregate>`.
    pub fn answer(&self, spec: &AggregateSpec) -> Element {
        let mut el = Element::new("aggregate");
        el.set_attr("kind", spec.kind.name());
        match (self, &spec.kind) {
            (AnySketch::TopK(s), AggregateKind::TopK { k }) => {
                el.set_attr("total", s.total().to_string());
                for (rank, (key, count)) in s.top(*k).into_iter().enumerate() {
                    let mut entry = Element::new("entry");
                    entry.set_attr("rank", (rank + 1).to_string());
                    entry.set_attr("key", key);
                    entry.set_attr("count", count.to_string());
                    el.push_element(entry);
                }
            }
            (AnySketch::TopK(s), AggregateKind::Entropy) => {
                let (lo, hi) = s.entropy_bounds();
                el.set_attr("total", s.total().to_string());
                el.set_attr("bits", format!("{:.6}", (lo + hi) / 2.0));
                el.set_attr("lo", format!("{lo:.6}"));
                el.set_attr("hi", format!("{hi:.6}"));
            }
            (AnySketch::Quantile(s), AggregateKind::Quantile { q_permille }) => {
                el.set_attr("total", s.total().to_string());
                el.set_attr("q", q_permille.to_string());
                el.set_attr("value", s.quantile(*q_permille).to_string());
            }
            _ => {
                el.set_attr("error", "sketch/spec kind mismatch");
            }
        }
        el
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(sketch: &mut impl Sketch, pairs: &[(&str, u64)]) {
        for (k, w) in pairs {
            sketch.update(k, *w);
        }
    }

    #[test]
    fn topk_finds_heavy_hitters_and_round_trips() {
        let mut sketch = TopKSketch::new(8);
        for i in 0..40 {
            sketch.update(&format!("light{}", i % 20), 1);
        }
        sketch.update("heavy", 30);
        sketch.update("warm", 12);
        let top = sketch.top(2);
        assert_eq!(top[0].0, "heavy");
        assert_eq!(top[1].0, "warm");

        let back = TopKSketch::from_element(&sketch.to_element()).expect("round trip");
        assert_eq!(back.top(2), sketch.top(2));
        assert_eq!(back.total(), sketch.total());
    }

    #[test]
    fn topk_serialized_size_is_bounded() {
        let mut sketch = TopKSketch::new(4);
        for i in 0..10_000 {
            sketch.update(&format!("k{i}"), 1);
        }
        let el = sketch.to_element();
        assert!(el.children.len() <= 4);
        assert_eq!(el.children_named("kv").count(), el.children.len());
        assert!(el.children.len() <= sketch.max_serialized_entries());
    }

    #[test]
    fn topk_reduces_like_misra_gries() {
        let mut sketch = TopKSketch::new(2);
        sketch.update("idle", 0);
        assert_eq!(sketch, TopKSketch::new(2), "a zero weight changes nothing");
        feed(&mut sketch, &[("a", 3), ("b", 2), ("c", 1)]);
        // The third key subtracts the smallest count (1) from all three.
        assert_eq!(sketch.top(3), [("a".to_string(), 2), ("b".to_string(), 1)]);
        assert_eq!(sketch.total(), 6);

        // A merge past the capacity subtracts the third-largest count.
        let mut other = TopKSketch::new(2);
        feed(&mut other, &[("c", 4), ("b", 1)]);
        assert!(sketch.merge(&other));
        assert_eq!(sketch.top(3), [("c".to_string(), 2)]);
        assert_eq!(sketch.total(), 11);
    }

    #[test]
    fn entropy_exact_when_under_capacity() {
        assert_eq!(TopKSketch::new(16).entropy_bounds(), (0.0, 0.0));
        let mut sketch = TopKSketch::new(16);
        // Uniform over 4 keys => exactly 2 bits.
        feed(&mut sketch, &[("a", 5), ("b", 5), ("c", 5), ("d", 5)]);
        assert_eq!(sketch.entropy_bounds(), (2.0, 2.0));
        let back = TopKSketch::from_element(&sketch.to_element()).expect("round trip");
        assert_eq!(back.entropy_bounds(), (2.0, 2.0));

        // Five keys over a capacity of four: one reduction takes 1 from
        // each, so the interval widens around the exact value.
        let mut tight = TopKSketch::new(4);
        feed(
            &mut tight,
            &[("a", 2), ("b", 2), ("c", 2), ("d", 2), ("e", 1)],
        );
        assert_eq!(tight.top(5).len(), 4);
        let (lo, hi) = tight.entropy_bounds();
        let h = |p: f64| -p * p.log2();
        let exact = 4.0 * h(2.0 / 9.0) + h(1.0 / 9.0);
        assert!(lo < exact && exact < hi, "{lo} < {exact} < {hi}");
    }

    #[test]
    fn entropy_merge_matches_single_sketch() {
        let mut a = TopKSketch::new(32);
        let mut b = TopKSketch::new(32);
        feed(&mut a, &[("a", 3), ("b", 1)]);
        feed(&mut b, &[("a", 1), ("c", 5)]);
        assert!(a.merge(&b));
        let mut single = TopKSketch::new(32);
        feed(&mut single, &[("a", 4), ("b", 1), ("c", 5)]);
        assert_eq!(a, single);
        let (lo, hi) = a.entropy_bounds();
        assert_eq!(lo, hi);
        assert_eq!((lo, hi), single.entropy_bounds());
    }

    #[test]
    fn quantile_accuracy_and_merge() {
        let mut a = QuantileSummary::new(10, 256);
        let mut b = QuantileSummary::new(10, 256);
        for v in 1..=500u64 {
            a.observe(v, 1);
        }
        for v in 501..=1000u64 {
            b.observe(v, 1);
        }
        a.merge(&b);
        assert_eq!(a.total(), 1000);
        let p50 = a.quantile(500) as f64;
        let p99 = a.quantile(990) as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.03, "p50 = {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.03, "p99 = {p99}");

        let back = QuantileSummary::from_element(&a.to_element()).expect("round trip");
        assert_eq!(back.quantile(990), a.quantile(990));
    }

    #[test]
    fn quantile_bucket_bound_holds() {
        let mut q = QuantileSummary::new(10, 32);
        for v in 1..=100_000u64 {
            q.observe(v, 1);
        }
        assert!(q.buckets.len() <= 32);
        // High quantiles survive the collapse of the low buckets.
        let p99 = q.quantile(990) as f64;
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.03, "p99 = {p99}");
    }

    #[test]
    fn any_sketch_partials_flow_leaf_to_root() {
        let spec = AggregateSpec::new(
            AggregateKind::TopK { k: 2 },
            "c",
            Some("method".to_string()),
        );
        let mut leaf_a = AnySketch::for_spec(&spec);
        let mut leaf_b = AnySketch::for_spec(&spec);
        let mut item = Element::new("call");
        item.set_attr("method", "get");
        let (key, weight) = spec.observe(&item);
        assert_eq!((key.as_str(), weight), ("get", 1));
        for _ in 0..6 {
            leaf_a.update("get", 1);
        }
        leaf_b.update("put", 1);

        let mut root = AnySketch::for_spec(&spec);
        assert!(root.absorb(&leaf_a.to_element()));
        assert!(root.absorb(&leaf_b.to_element()));
        let answer = root.answer(&spec);
        assert_eq!(answer.attr("kind"), Some("topk"));
        let first = answer.children_named("entry").next().expect("entry");
        assert_eq!(first.attr("key"), Some("get"));
        assert_eq!(first.attr("count"), Some("6"));
    }

    #[test]
    fn absorb_rejects_foreign_partials() {
        let spec = |kind| AggregateSpec::new(kind, "c", None);
        let mut sketch = AnySketch::for_spec(&spec(AggregateKind::Entropy));
        let mut other = AnySketch::for_spec(&spec(AggregateKind::Quantile { q_permille: 500 }));
        other.update("7", 1);
        assert!(!sketch.absorb(&other.to_element()));
        assert!(sketch.is_empty());
        // Entropy and top-k aggregates keep the same key counts.
        let mut topk = AnySketch::for_spec(&spec(AggregateKind::TopK { k: 1 }));
        topk.update("get", 1);
        assert!(sketch.absorb(&topk.to_element()));
        assert_eq!(sketch, topk);
    }

    #[test]
    fn spec_observe_finds_nested_attrs_and_weights() {
        let mut spec =
            AggregateSpec::new(AggregateKind::TopK { k: 1 }, "c", Some("chan".to_string()));
        spec.weight_attr = Some("bytes".to_string());
        let mut inner = Element::new("stats");
        inner.set_attr("chan", "news");
        inner.set_attr("bytes", "4096");
        let mut outer = Element::new("metric");
        outer.push_element(inner);
        let (key, weight) = spec.observe(&outer);
        assert_eq!(key, "news");
        assert_eq!(weight, 4096);
    }

    #[test]
    fn reset_produces_delta_semantics() {
        let spec = AggregateSpec::new(AggregateKind::Entropy, "c", None);
        let mut leaf = AnySketch::for_spec(&spec);
        leaf.update("a", 2);
        let first_delta = leaf.take();
        assert!(leaf.is_empty());
        leaf.update("b", 3);
        let second_delta = leaf.take();

        let mut root = AnySketch::for_spec(&spec);
        assert!(root.merge_from(&first_delta));
        assert!(root.absorb(&second_delta.to_element()));
        let mut single = TopKSketch::new(DEFAULT_TOPK_CAPACITY);
        single.update("a", 2);
        single.update("b", 3);
        assert_eq!(root, AnySketch::TopK(single));
        let answer = root.answer(&spec);
        assert_eq!(answer.attr("bits"), answer.attr("lo"));
        assert_eq!(answer.attr("bits"), answer.attr("hi"));
    }

    /// A top-k partial in the retired count-min form: one row of `cells`
    /// cells `width` wide beside a candidate key, and no total on the
    /// sketch element.
    fn count_min_topk_partial(width: usize, cells: usize) -> Element {
        let mut cm = Element::new("cm");
        cm.set_attr("w", width.to_string());
        cm.set_attr("d", "1");
        cm.set_attr("total", cells.to_string());
        for c in 0..cells {
            let mut cell = Element::new("cell");
            cell.set_attr("r", "0");
            cell.set_attr("c", c.to_string());
            cell.set_attr("n", "1");
            cm.push_element(cell);
        }
        let mut cand = Element::new("cand");
        cand.set_attr("k", "get");
        let mut el = Element::new("sketch");
        el.set_attr("kind", "topk");
        el.set_attr("cap", DEFAULT_TOPK_CAPACITY.to_string());
        el.push_element(cm);
        el.push_element(cand);
        el
    }

    /// A partial of `kind` with the given attributes and `<kv>` entries.
    fn kv_partial(kind: &str, attrs: &[(&str, &str)], entries: &[(&str, &str)]) -> Element {
        let mut el = Element::new("sketch");
        el.set_attr("kind", kind);
        for &(name, value) in attrs {
            el.set_attr(name, value);
        }
        for &(key, n) in entries {
            let mut kv = Element::new("kv");
            kv.set_attr("k", key);
            kv.set_attr("n", n);
            el.push_element(kv);
        }
        el
    }

    fn assert_within_entry_bound(sketch: &AnySketch) {
        let bound = match sketch {
            AnySketch::TopK(s) => s.max_serialized_entries(),
            AnySketch::Quantile(s) => s.max_serialized_entries(),
        };
        assert!(sketch.to_element().children.len() <= bound);
    }

    /// `absorb` either folds a partial in or changes nothing; `refused`
    /// says which it must be.  Either way nothing panics, answering
    /// included, and the state stays within the entry bound.
    fn absorb_hostile(kind: AggregateKind, partial: &Element, refused: bool) -> AnySketch {
        let spec = AggregateSpec::new(kind, "c", None);
        let mut sketch = AnySketch::for_spec(&spec);
        sketch.update("1", 1);
        let before = sketch.clone();
        assert_eq!(sketch.absorb(partial), !refused);
        assert_eq!(sketch.absorb(partial), !refused);
        if refused {
            assert_eq!(sketch, before);
        }
        assert_within_entry_bound(&sketch);
        assert!(sketch.answer(&spec).attr("error").is_none());
        sketch
    }

    #[test]
    fn hostile_partials_neither_panic_nor_outgrow_the_bound() {
        let topk = || AggregateKind::TopK { k: 3 };
        // The retired count-min form: a foreign geometry, and 20 000 cells.
        absorb_hostile(topk(), &count_min_topk_partial(1, 1), true);
        absorb_hostile(topk(), &count_min_topk_partial(512, 20_000), true);

        // Another capacity, and counts adding up past the total.
        let max = u64::MAX.to_string();
        let cap = DEFAULT_TOPK_CAPACITY.to_string();
        let cap = cap.as_str();
        absorb_hostile(
            topk(),
            &kv_partial("topk", &[("cap", "8"), ("total", "1")], &[("a", "1")]),
            true,
        );
        absorb_hostile(
            topk(),
            &kv_partial(
                "topk",
                &[("cap", cap), ("total", "1")],
                &[("a", "1"), ("b", "1")],
            ),
            true,
        );
        // Counts at the top of the range saturate instead of overflowing.
        let topk_max = kv_partial("topk", &[("cap", cap), ("total", &max)], &[("a", &max)]);
        let AnySketch::TopK(s) = absorb_hostile(topk(), &topk_max, false) else {
            unreachable!()
        };
        assert_eq!((s.total(), s.top(1)[0].1), (u64::MAX, u64::MAX));

        // More entries than the capacity are reduced to it.
        let many: Vec<(String, String)> = (0..600).map(|i| (format!("k{i}"), "1".into())).collect();
        let many: Vec<(&str, &str)> = many.iter().map(|(k, n)| (k.as_str(), n.as_str())).collect();
        absorb_hostile(
            topk(),
            &kv_partial("topk", &[("cap", cap), ("total", "600")], &many),
            false,
        );

        // A capacity `new` would not keep as written (it clamps 0 to 1).
        let cap_zero = kv_partial("topk", &[("cap", "0"), ("total", "1")], &[("a", "1")]);
        assert_eq!(TopKSketch::from_element(&cap_zero), None);
        absorb_hostile(topk(), &cap_zero, true);

        // An entropy aggregate reads the top-k partial, and refuses the
        // retired residual form.
        let entropy = || AggregateKind::Entropy;
        let AnySketch::TopK(s) = absorb_hostile(entropy(), &topk_max, false) else {
            unreachable!()
        };
        assert_eq!(s.total(), u64::MAX);
        let residual = [("cap", "512"), ("rm", "4"), ("rk", "2"), ("total", "5")];
        absorb_hostile(
            entropy(),
            &kv_partial("entropy", &residual, &[("a", "1")]),
            true,
        );

        // A quantile partial of another accuracy or bucket bound.
        let quantile = || AggregateKind::Quantile { q_permille: 990 };
        for shape in [QuantileSummary::new(20, 256), QuantileSummary::new(10, 8)] {
            let mut partial = shape;
            partial.observe(1_000, 1);
            absorb_hostile(quantile(), &partial.to_element(), true);
        }
        // An accuracy or bucket bound `new` would clamp, or one that
        // truncates to the operators' shape (2^32 + 10 ⇒ 10).
        let mut partial = QuantileSummary::new(10, 256);
        for (alpha, maxb) in [
            ("0", "256"),
            ("501", "256"),
            ("4294967306", "256"),
            ("10", "1"),
        ] {
            let mut el = partial.to_element();
            el.set_attr("alpha", alpha);
            el.set_attr("maxb", maxb);
            assert_eq!(
                QuantileSummary::from_element(&el),
                None,
                "alpha {alpha} maxb {maxb}"
            );
            absorb_hostile(quantile(), &el, true);
        }
        partial.observe(1_000, u64::MAX);
        absorb_hostile(quantile(), &partial.to_element(), false);
        // The lowest bucket index a partial can name, answered at p0.
        let mut partial = partial.to_element();
        partial.children.clear();
        let mut lowest = Element::new("b");
        lowest.set_attr("i", i32::MIN.to_string());
        lowest.set_attr("n", "5");
        partial.push_element(lowest);
        let spec = AggregateSpec::new(AggregateKind::Quantile { q_permille: 0 }, "c", None);
        let mut sketch = AnySketch::for_spec(&spec);
        assert!(sketch.absorb(&partial));
        assert_eq!(sketch.answer(&spec).attr("value"), Some("0"));
    }
}
