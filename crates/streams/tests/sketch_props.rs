//! Property tests for the mergeable sketches: partials merged across
//! arbitrary partitions (in arbitrary order, through flush/reset delta
//! cycles, across the XML wire format) must equal one sketch built over the
//! concatenated stream — and in the under-capacity regime the answers must
//! match the exact oracle.  These are the invariants the distributed merge
//! tree leans on: leaves flush deltas whenever their round boundary happens
//! to fall, interior nodes merge in whatever order the network delivers,
//! and the root must still answer as if it had seen every event itself.
//! Over capacity, the top-k sketch's counts must stay within its stated
//! Misra–Gries bound, and the entropy interval read off them must contain
//! the exact entropy, for random partitions and for zipf streams merged
//! from 100 sites.
//!
//! The second half pins the by-value partial path of [`AnySketch`] to the
//! XML form it replaced: `wire_size` is the byte size of the built tree,
//! `merge_from` is `absorb` of the serialized partial, `take` hands the state
//! on and leaves a fresh sketch of the shape, and a kind mismatch merges
//! nothing.

use std::collections::BTreeMap;

use proptest::prelude::*;

use p2pmon_streams::sketch::{
    AggregateKind, AggregateSpec, AnySketch, QuantileSummary, Sketch, TopKSketch,
    DEFAULT_TOPK_CAPACITY,
};
use p2pmon_xmlkit::Element;

/// Distinct keys in the generated streams — kept under every sketch's
/// capacity so the "merged ≡ whole ≡ exact" regime applies.
const VOCAB: u8 = 12;
const CAPACITY: usize = 64;
/// A top-k capacity under `VOCAB`: the over-capacity regime.
const TIGHT: usize = 4;
const ALPHA_PERMILLE: u32 = 20;
const MAX_BUCKETS: usize = 512;

fn key(i: u8) -> String {
    format!("k{i}")
}

/// The numeric value key `i` stands for in quantile streams (spread over
/// more than two orders of magnitude so relative accuracy is exercised).
fn value(i: u8) -> u64 {
    (u64::from(i) + 1) * (u64::from(i) + 1) * 31
}

/// A stream of `(key, weight, partition)` observations.
fn events_strategy() -> impl Strategy<Value = Vec<(u8, u64, u8)>> {
    proptest::collection::vec((0u8..VOCAB, 1u64..9, 0u8..4), 1..200)
}

fn exact_counts(events: &[(u8, u64, u8)]) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for &(k, w, _) in events {
        *counts.entry(key(k)).or_insert(0) += w;
    }
    counts
}

/// Shannon entropy, in bits, of the distribution `counts` describe.
fn exact_entropy(counts: &BTreeMap<String, u64>) -> f64 {
    let total = counts.values().sum::<u64>() as f64;
    -counts
        .values()
        .map(|&c| {
            let p = c as f64 / total;
            p * p.log2()
        })
        .sum::<f64>()
}

/// The `(bits, lo, hi)` of the entropy answer over `sketch`'s counts.
fn entropy_answer(sketch: &TopKSketch) -> (f64, f64, f64) {
    let spec = AggregateSpec::new(AggregateKind::Entropy, "c", None);
    let answer = AnySketch::TopK(sketch.clone()).answer(&spec);
    let read = |attr| answer.attr(attr).expect("entropy answer").parse().unwrap();
    (read("bits"), read("lo"), read("hi"))
}

/// Build one sketch over the whole stream and four partial sketches over
/// the stream's partitions, then fold the partials in both orders.
fn split<S: Sketch + Clone>(
    fresh: impl Fn() -> S,
    events: &[(u8, u64, u8)],
    keyer: impl Fn(u8) -> String,
) -> (S, S, S) {
    let mut whole = fresh();
    let mut parts: Vec<S> = (0..4).map(|_| fresh()).collect();
    for &(k, w, p) in events {
        whole.update(&keyer(k), w);
        parts[p as usize].update(&keyer(k), w);
    }
    let mut forward = fresh();
    for part in &parts {
        assert!(forward.merge(part));
    }
    let mut backward = fresh();
    for part in parts.iter().rev() {
        assert!(backward.merge(part));
    }
    (whole, forward, backward)
}

/// Drive a leaf through flush/reset delta cycles — every `flush_every`
/// events the leaf serializes its delta, the root re-parses and merges it,
/// and the leaf resets (exactly what the dispatch rounds do, with the churn
/// of arbitrary flush boundaries and the XML wire format in between).
fn drive_rounds<S: Sketch>(
    mut leaf: S,
    mut root: S,
    events: &[(u8, u64, u8)],
    flush_every: usize,
    keyer: impl Fn(u8) -> String,
) -> S {
    for (i, &(k, w, _)) in events.iter().enumerate() {
        leaf.update(&keyer(k), w);
        if (i + 1) % flush_every == 0 {
            let delta = S::from_element(&leaf.to_element()).expect("partials round-trip");
            assert!(root.merge(&delta));
            leaf.reset();
        }
    }
    if !leaf.is_empty() {
        let delta = S::from_element(&leaf.to_element()).expect("partials round-trip");
        assert!(root.merge(&delta));
    }
    root
}

proptest! {
    #[test]
    fn topk_merge_agrees_with_the_whole_stream_and_the_exact_oracle(events in events_strategy()) {
        let (whole, forward, backward) = split(|| TopKSketch::new(CAPACITY), &events, key);
        let answer = whole.top(VOCAB as usize);
        prop_assert_eq!(&forward.top(VOCAB as usize), &answer);
        prop_assert_eq!(&backward.top(VOCAB as usize), &answer);
        prop_assert_eq!(forward.total(), whole.total());
        // Under capacity the heavy-hitter counts are exact.
        let exact = exact_counts(&events);
        prop_assert_eq!(answer.len(), exact.len());
        for (k, count) in answer {
            prop_assert_eq!(count, exact[&k], "topk count drifted for {}", k);
        }
    }

    #[test]
    fn entropy_merge_agrees_with_the_whole_stream_and_is_exact_under_capacity(
        events in events_strategy()
    ) {
        // What `AnySketch::for_spec` builds for an entropy aggregate.
        let fresh = || TopKSketch::new(DEFAULT_TOPK_CAPACITY);
        let (whole, forward, backward) = split(fresh, &events, key);
        prop_assert_eq!(&forward, &whole);
        prop_assert_eq!(&backward, &whole);
        let exact = exact_entropy(&exact_counts(&events));
        let (lo, hi) = whole.entropy_bounds();
        prop_assert_eq!(lo, hi, "under capacity the interval is a point");
        prop_assert!(
            (lo - exact).abs() < 1e-9,
            "under-capacity entropy must be exact: {} vs {}",
            lo,
            exact
        );
        let (bits, lo, hi) = entropy_answer(&whole);
        prop_assert!((bits - exact).abs() < 1e-6 && bits == lo && bits == hi);
    }

    #[test]
    fn quantile_merge_agrees_with_the_whole_stream_and_stays_within_alpha(
        events in events_strategy()
    ) {
        let keyer = |k: u8| value(k).to_string();
        let (whole, forward, backward) =
            split(|| QuantileSummary::new(ALPHA_PERMILLE, MAX_BUCKETS), &events, keyer);
        prop_assert_eq!(&forward, &whole);
        prop_assert_eq!(&backward, &whole);
        // Exact weighted order statistics from the expanded stream.
        let mut expanded: Vec<u64> = events
            .iter()
            .flat_map(|&(k, w, _)| std::iter::repeat_n(value(k), w as usize))
            .collect();
        expanded.sort_unstable();
        for q in [0u32, 250, 500, 750, 990, 1000] {
            let rank = (q.min(1000) as u128 * (expanded.len() as u128 - 1) / 1000) as usize;
            let exact = expanded[rank] as f64;
            let est = whole.quantile(q) as f64;
            let alpha = ALPHA_PERMILLE as f64 / 1000.0;
            prop_assert!(
                (est - exact).abs() <= exact * (2.0 * alpha) + 1.0,
                "p{q} drifted beyond the alpha bound: {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn delta_flush_cycles_reconstruct_the_whole_stream_at_the_root(
        events in events_strategy(),
        flush_every in 1usize..25
    ) {
        // The root after arbitrary flush cadences equals a single sketch
        // fed every event (through XML partials each cycle) — top-k and
        // entropy answers alike, since both read the key counts.
        let mut whole_topk = TopKSketch::new(CAPACITY);
        let mut whole_quantile = QuantileSummary::new(ALPHA_PERMILLE, MAX_BUCKETS);
        for &(k, w, _) in &events {
            whole_topk.update(&key(k), w);
            whole_quantile.update(&value(k).to_string(), w);
        }
        let root_topk = drive_rounds(
            TopKSketch::new(CAPACITY),
            TopKSketch::new(CAPACITY),
            &events,
            flush_every,
            key,
        );
        prop_assert_eq!(root_topk.top(VOCAB as usize), whole_topk.top(VOCAB as usize));
        prop_assert_eq!(root_topk.total(), whole_topk.total());
        prop_assert_eq!(&root_topk, &whole_topk);
        let root_quantile = drive_rounds(
            QuantileSummary::new(ALPHA_PERMILLE, MAX_BUCKETS),
            QuantileSummary::new(ALPHA_PERMILLE, MAX_BUCKETS),
            &events,
            flush_every,
            |k| value(k).to_string(),
        );
        prop_assert_eq!(&root_quantile, &whole_quantile);
    }

    #[test]
    fn wire_roundtrip_preserves_answers_and_respects_the_entry_bound(
        events in events_strategy()
    ) {
        let mut topk = TopKSketch::new(CAPACITY);
        let mut quantile = QuantileSummary::new(ALPHA_PERMILLE, MAX_BUCKETS);
        let mut tight = TopKSketch::new(TIGHT);
        for &(k, w, _) in &events {
            topk.update(&key(k), w);
            quantile.update(&value(k).to_string(), w);
            tight.update(&key(k), w);
        }
        for topk in [&topk, &tight] {
            let back = TopKSketch::from_element(&topk.to_element()).expect("topk round-trips");
            prop_assert_eq!(&back, topk);
            // The entropy answer is read off the same counts.
            prop_assert_eq!(entropy_answer(&back), entropy_answer(topk));
        }
        let quantile_back =
            QuantileSummary::from_element(&quantile.to_element()).expect("quantile round-trips");
        prop_assert_eq!(&quantile_back, &quantile);
        // The wire partial stays within the declared entry bound no matter
        // how many events were absorbed.
        for (el, bound) in [
            (topk.to_element(), topk.max_serialized_entries()),
            (quantile.to_element(), quantile.max_serialized_entries()),
            (tight.to_element(), tight.max_serialized_entries()),
        ] {
            prop_assert!(
                el.children.len() <= bound,
                "serialized entries exceed the declared bound: {} > {}",
                el.children.len(),
                bound
            );
        }
    }
}

/// Asserts the Misra–Gries bound of a top-k sketch against the exact
/// counts of the stream it absorbed: every key's count `ĉ` (0 when dropped)
/// satisfies `exact − (N − Σĉ) / (capacity + 1) ≤ ĉ ≤ exact`.  Returns
/// whether a reduction happened (`Σĉ < N`).
fn assert_misra_gries_bound(
    sketch: &TopKSketch,
    capacity: usize,
    exact: &BTreeMap<String, u64>,
) -> bool {
    let kept: BTreeMap<String, u64> = sketch.top(usize::MAX).into_iter().collect();
    assert!(
        kept.len() <= capacity,
        "{} counts kept over {capacity}",
        kept.len()
    );
    let n: u64 = exact.values().sum();
    assert_eq!(sketch.total(), n);
    let mass: u64 = kept.values().sum();
    for (k, &count) in exact {
        let estimate = kept.get(k).copied().unwrap_or(0);
        assert!(estimate <= count, "{k} overcounted: {estimate} > {count}");
        assert!(
            (count - estimate) * (capacity as u64 + 1) <= n - mass,
            "{k} undercounted past the bound: {estimate} for {count}, N {n}, kept {mass}"
        );
    }
    assert!(
        kept.keys().all(|k| exact.contains_key(k)),
        "a key no event carried"
    );
    mass < n
}

/// The over-capacity regime beside the exact one: a tight top-k over
/// `VOCAB` keys, split into four partials and merged in both orders, holds
/// its bound for the whole stream and for either fold — and at least one
/// generated case reduces, so the bound is not held vacuously.
#[test]
fn topk_over_capacity_holds_the_misra_gries_bound_in_any_partition_and_order() {
    // Driven by the runner directly, so the cases can be counted.
    let mut reduced = 0;
    TestRunner::new(ProptestConfig::default()).run(|rng| {
        let events = events_strategy().new_value(rng);
        let exact = exact_counts(&events);
        let (whole, forward, backward) = split(|| TopKSketch::new(TIGHT), &events, key);
        for sketch in [&forward, &backward] {
            assert_misra_gries_bound(sketch, TIGHT, &exact);
        }
        let whole_reduced = assert_misra_gries_bound(&whole, TIGHT, &exact);
        // One sketch reduces exactly when the stream outgrows its capacity.
        assert_eq!(whole_reduced, exact.len() > TIGHT);
        reduced += usize::from(whole_reduced);
        Ok(())
    });
    assert!(reduced > 0, "no generated case reduced");
}

/// Asserts that the entropy answer over `sketch` contains `exact`:
/// `lo ≤ exact ≤ hi` and `|bits − exact| ≤ (hi − lo)/2`, up to rounding.
/// Returns the mass the reductions removed, `R = N − Σĉ`.
fn assert_entropy_interval(sketch: &TopKSketch, exact: f64) -> u64 {
    const EPS: f64 = 1e-9;
    let (lo, hi) = sketch.entropy_bounds();
    assert!(
        lo <= exact + EPS && exact <= hi + EPS,
        "exact entropy {exact} outside [{lo}, {hi}]"
    );
    // The answer prints six decimals.
    let (bits, _, _) = entropy_answer(sketch);
    assert!(
        (bits - exact).abs() <= (hi - lo) / 2.0 + 1e-6,
        "bits {bits}, exact {exact}"
    );
    let mass: u64 = sketch.top(usize::MAX).iter().map(|(_, c)| c).sum();
    sketch.total() - mass
}

/// The entropy interval over a tight key map: `VOCAB` keys through a
/// capacity-4 sketch, whole and split into four partials folded in both
/// orders.  Every fold contains the exact entropy; the interval is the
/// exact point when no reduction happened and has width otherwise — and at
/// least one generated case reduces, so the bound is not held vacuously.
#[test]
fn entropy_interval_holds_the_exact_value_in_any_partition_and_order() {
    let mut reduced = 0;
    TestRunner::new(ProptestConfig::default()).run(|rng| {
        let events = events_strategy().new_value(rng);
        let exact = exact_entropy(&exact_counts(&events));
        let (whole, forward, backward) = split(|| TopKSketch::new(TIGHT), &events, key);
        for sketch in [&whole, &forward, &backward] {
            let r = assert_entropy_interval(sketch, exact);
            let (lo, hi) = sketch.entropy_bounds();
            if r == 0 {
                assert_eq!(lo, hi, "no reduction, yet an interval");
                assert!((lo - exact).abs() < 1e-9, "{lo} is not exact {exact}");
            } else {
                // One exception: every key reduced away with Δ = 1 pins
                // the entropy at log2 N, and the interval is that point.
                let all_gone = r == sketch.total() && r == TIGHT as u64 + 1;
                assert!(lo < hi || all_gone, "R {r} > 0, yet [{lo}, {hi}]");
            }
            reduced += usize::from(r > 0);
        }
        Ok(())
    });
    assert!(reduced > 0, "no generated case reduced");
}

/// `n` zipf(`skew`) draws over `keys` keys, each with the site (of 100)
/// that observes it; deterministic (xorshift64*).
fn zipf_events(keys: usize, skew: f64, n: usize, mut seed: u64) -> Vec<(usize, usize)> {
    let mut cumulative = Vec::with_capacity(keys);
    let mut sum = 0.0;
    for rank in 1..=keys {
        sum += 1.0 / (rank as f64).powf(skew);
        cumulative.push(sum);
    }
    let mut next = move || {
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    (0..n)
        .map(|_| {
            let u = (next() >> 11) as f64 / (1u64 << 53) as f64 * sum;
            let key = cumulative.partition_point(|&c| c <= u).min(keys - 1);
            (key, (next() % 100) as usize)
        })
        .collect()
}

/// 100 000 zipf(`skew`) events over `keys` keys, counted exactly, by one
/// sketch of the operators' capacity and by the merge of 100 sites'.
fn zipf_sketches(keys: usize, skew: f64) -> (BTreeMap<String, u64>, TopKSketch, TopKSketch) {
    let names: Vec<String> = (0..keys).map(|k| format!("key{k}")).collect();
    let mut exact = BTreeMap::new();
    let mut whole = TopKSketch::new(DEFAULT_TOPK_CAPACITY);
    let mut sites = vec![TopKSketch::new(DEFAULT_TOPK_CAPACITY); 100];
    for (k, site) in zipf_events(keys, skew, 100_000, 0x9e37_79b9_7f4a_7c15) {
        *exact.entry(names[k].clone()).or_insert(0) += 1;
        whole.update(&names[k], 1);
        sites[site].update(&names[k], 1);
    }
    let mut merged = TopKSketch::new(DEFAULT_TOPK_CAPACITY);
    for site in &sites {
        assert!(merged.merge(site));
    }
    (exact, whole, merged)
}

/// The operators' top-k over 100 000 zipf events whose distinct keys far
/// outnumber its capacity: one sketch over the whole stream and the merge of
/// 100 sites' sketches both hold the Misra–Gries bound, and both reduced.
#[test]
fn topk_holds_the_misra_gries_bound_on_zipf_streams_for_one_sketch_and_100_sites() {
    for (keys, skew) in [(5_000, 0.5), (5_000, 1.0), (50_000, 1.1)] {
        let (exact, whole, merged) = zipf_sketches(keys, skew);
        let n: u64 = exact.values().sum();
        for (name, sketch) in [("one sketch", &whole), ("100 sites", &merged)] {
            assert!(
                assert_misra_gries_bound(sketch, DEFAULT_TOPK_CAPACITY, &exact),
                "{keys} keys at skew {skew}: {name} never reduced"
            );
            let mut heaviest: Vec<(&String, &u64)> = exact.iter().collect();
            heaviest.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
            let kept: BTreeMap<String, u64> = sketch.top(usize::MAX).into_iter().collect();
            let top10_err = heaviest[..10]
                .iter()
                .map(|&(k, &c)| (c - kept.get(k).copied().unwrap_or(0)) as f64 / c as f64)
                .fold(0.0, f64::max);
            println!(
                "{keys} keys · skew {skew} · {name}: kept mass {:.3} of N, top-10 max rel err {top10_err:.3}",
                kept.values().sum::<u64>() as f64 / n as f64
            );
        }
    }
}

/// The entropy answer at the operators' capacity over 100 000 zipf events
/// at five shapes whose distinct keys outnumber it, the uniform stream
/// among them: one sketch and the merge of 100 sites both reduced, and both
/// intervals contain the exact entropy.
#[test]
fn entropy_interval_contains_the_exact_value_on_zipf_streams_for_one_sketch_and_100_sites() {
    for (keys, skew) in [
        (600, 1.0),
        (5_000, 1.0),
        (5_000, 0.5),
        (50_000, 1.1),
        (5_000, 0.0),
    ] {
        let (exact, whole, merged) = zipf_sketches(keys, skew);
        let h = exact_entropy(&exact);
        for (name, sketch) in [("one sketch", &whole), ("100 sites", &merged)] {
            let r = assert_entropy_interval(sketch, h);
            assert!(r > 0, "{keys} keys at skew {skew}: {name} never reduced");
            let (lo, hi) = sketch.entropy_bounds();
            println!("{keys} keys · skew {skew} · {name}: exact {h:.3} in [{lo:.2}, {hi:.2}]");
        }
    }
}

/// The sketch shapes the by-value properties run over: the three the
/// operators build (top-k and entropy build the same key counts), and a
/// tight one beside each so that Misra–Gries reduction and bucket collapse
/// happen within a short stream.
const SHAPES: usize = 6;

fn shape(at: usize) -> AnySketch {
    let spec = |kind| AggregateSpec::new(kind, "c", None);
    match at {
        0 => AnySketch::for_spec(&spec(AggregateKind::TopK { k: 3 })),
        1 => AnySketch::for_spec(&spec(AggregateKind::Entropy)),
        2 => AnySketch::for_spec(&spec(AggregateKind::Quantile { q_permille: 990 })),
        3 => AnySketch::TopK(TopKSketch::new(2)),
        4 => AnySketch::TopK(TopKSketch::new(3)),
        _ => AnySketch::Quantile(QuantileSummary::new(200, 3)),
    }
}

/// The summary a shape runs on: key counts for the top-k and entropy
/// shapes, buckets for the quantile ones (`2` and `5`).
fn kind_of(at: usize) -> bool {
    at % 3 == 2
}

/// Keys that stress the size formula: the empty key, keys XML would have to
/// escape (`Element::byte_size` counts them raw), plain names, and decimal
/// numbers of every width — quantile observations among them.
fn key_strategy() -> BoxedStrategy<String> {
    const FIXED: [&str; 6] = ["", "Get", "a<b", "x&y", "\"q\"", "<&\">"];
    (0usize..4, proptest::num::u64::ANY, 0usize..40).prop_map(|(form, n, i)| match form {
        0 => FIXED[i % FIXED.len()].to_string(),
        1 => n.to_string(),
        2 => (n % 1_000).to_string(),
        _ => format!("k{i}"),
    })
}

/// Zero, small and many-digit weights (bounded so sums cannot overflow).
fn weight_strategy() -> BoxedStrategy<u64> {
    (0usize..3, 0u64..1 << 40).prop_map(|(form, n)| match form {
        0 => 0,
        1 => n % 10,
        _ => n,
    })
}

fn updates_strategy() -> BoxedStrategy<Vec<(String, u64)>> {
    proptest::collection::vec((key_strategy(), weight_strategy()), 0..24)
}

/// One step of a stage's life: absorb an observation, fold in a sibling
/// partial, or flush.
#[derive(Debug, Clone)]
enum Op {
    Update(String, u64),
    MergeIn(Vec<(String, u64)>),
    Take,
}

fn ops_strategy() -> BoxedStrategy<Vec<Op>> {
    let op = (
        0usize..10,
        key_strategy(),
        weight_strategy(),
        updates_strategy(),
    )
        .prop_map(|(pick, key, weight, updates)| match pick {
            0..=6 => Op::Update(key, weight),
            7 | 8 => Op::MergeIn(updates),
            _ => Op::Take,
        });
    proptest::collection::vec(op, 0..48)
}

fn fed(at: usize, updates: &[(String, u64)]) -> AnySketch {
    let mut sketch = shape(at);
    for (key, weight) in updates {
        sketch.update(key, *weight);
    }
    sketch
}

fn assert_charged_its_xml_form(sketch: &AnySketch) {
    let el = sketch.to_element();
    assert_eq!(
        sketch.wire_size(),
        el.byte_size(),
        "wire_size drifted from the XML form {}",
        el.to_xml()
    );
}

proptest! {
    #[test]
    fn wire_size_is_the_byte_size_of_the_xml_form(at in 0usize..SHAPES, ops in ops_strategy()) {
        let mut sketch = shape(at);
        assert_charged_its_xml_form(&sketch);
        for op in ops {
            match op {
                Op::Update(key, weight) => sketch.update(&key, weight),
                Op::MergeIn(updates) => prop_assert!(sketch.merge_from(&fed(at, &updates))),
                Op::Take => assert_charged_its_xml_form(&sketch.take()),
            }
            assert_charged_its_xml_form(&sketch);
        }
    }

    #[test]
    fn wire_size_holds_for_parsed_partials_with_negative_bucket_indices(
        buckets in proptest::collection::vec((proptest::num::i32::ANY, 0u64..1 << 40), 0..12),
        low in -40i32..0,
        zero in 0u64..1 << 40,
        max_buckets in 2u64..8,
    ) {
        // No observation lands below bucket 0, but a parsed partial may
        // carry any index; the tight bound makes the parse collapse some.
        let mut el = Element::new("sketch");
        el.set_attr("kind", "quantile");
        el.set_attr("alpha", "10");
        el.set_attr("maxb", max_buckets.to_string());
        el.set_attr("zero", zero.to_string());
        el.set_attr("total", "0");
        for (i, &(idx, n)) in buckets.iter().enumerate() {
            let mut b = Element::new("b");
            // Every other bucket sits just below zero.
            let idx = if i % 2 == 0 { low - i as i32 } else { idx };
            b.set_attr("i", idx.to_string());
            b.set_attr("n", n.to_string());
            el.push_element(b);
        }
        let parsed = QuantileSummary::from_element(&el).expect("a well-formed quantile partial");
        let sketch = AnySketch::Quantile(parsed);
        assert_charged_its_xml_form(&sketch);
        // The operators' summary refuses a partial of another bucket bound;
        // one of the partial's own shape folds it in.
        prop_assert!(!shape(2).merge_from(&sketch));
        let mut merged = AnySketch::Quantile(QuantileSummary::new(10, max_buckets as usize));
        merged.update("1000", 3);
        prop_assert!(merged.merge_from(&sketch));
        assert_charged_its_xml_form(&merged);
    }

    #[test]
    fn merge_from_leaves_the_state_absorb_of_the_xml_form_leaves(
        at in 0usize..SHAPES,
        mine in updates_strategy(),
        theirs in updates_strategy(),
    ) {
        let base = fed(at, &mine);
        let partial = fed(at, &theirs);
        let mut by_value = base.clone();
        prop_assert!(by_value.merge_from(&partial));
        let mut by_xml = base;
        prop_assert!(by_xml.absorb(&partial.to_element()));
        prop_assert_eq!(by_value, by_xml);
    }

    #[test]
    fn take_hands_on_the_state_and_leaves_a_fresh_sketch_of_the_shape(
        at in 0usize..SHAPES,
        updates in updates_strategy(),
    ) {
        let mut sketch = fed(at, &updates);
        let before = sketch.clone();
        prop_assert_eq!(sketch.take(), before);
        prop_assert_eq!(&sketch, &shape(at));
        prop_assert_eq!(sketch.wire_size(), shape(at).wire_size());
    }

    #[test]
    fn a_kind_mismatch_merges_nothing(
        at in 0usize..SHAPES,
        other in 0usize..SHAPES,
        mine in updates_strategy(),
        theirs in updates_strategy(),
    ) {
        prop_assume!(kind_of(at) != kind_of(other));
        let mut sketch = fed(at, &mine);
        let before = sketch.clone();
        let foreign = fed(other, &theirs);
        prop_assert!(!sketch.merge_from(&foreign));
        prop_assert!(!sketch.absorb(&foreign.to_element()));
        prop_assert_eq!(sketch, before);
    }
}
