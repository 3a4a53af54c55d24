#!/usr/bin/env python3
"""CI gates over the BENCH_*.json bench trajectories.

This is the committed, locally runnable home of the gates that used to live
as inline heredocs in .github/workflows/ci.yml.  Each gate is a subcommand
reading the trajectory JSON a `cargo bench -p p2pmon-bench` run writes to
the workspace root:

    python3 ci/check_bench.py schema      # every trajectory parses and
                                          # carries the fields the gates read
    python3 ci/check_bench.py dispatch    # engine >= 3x naive at 256 subs
    python3 ci/check_bench.py filter      # engine never slower than naive;
                                          # >= 5.5x at 10000 subs
    python3 ci/check_bench.py reuse       # reuse hit rate >= 50% and no
                                          # added traffic at 256 subs
    python3 ci/check_bench.py replica     # replicas serve >= 50% of remote
                                          # consumers and never add
                                          # origin-peer messages at 256 subs
    python3 ci/check_bench.py locality    # rate-aware placement beats
                                          # count-based on bytes x latency-
                                          # weighted hops at 256 paired subs,
                                          # no regression at 10k, sinks
                                          # byte-identical
    python3 ci/check_bench.py scale       # per-alert cost at 10k subs stays
                                          # under 3x the 1k tier (sublinear
                                          # growth over the MassiveStorm)
    python3 ci/check_bench.py dht         # definition lookups stay within the
                                          # Chord log2(nodes) hop bound
    python3 ci/check_bench.py chaos       # every chaos scenario converges to
                                          # the fault-free oracle with zero
                                          # unaccounted or double-delivered
                                          # alerts and a deterministic replay
    python3 ci/check_bench.py sketch      # sketch-on wire bytes sublinear in
                                          # the peer count, >= 5x under the
                                          # ship-items baseline at the 10k
                                          # tier, answers within the sketches'
                                          # accuracy bounds of the exact
                                          # oracle
    python3 ci/check_bench.py all         # schema + every gate
    python3 ci/check_bench.py --self-test # run the built-in fixtures

`--root DIR` points at a workspace other than the script's parent.  Exit
status is non-zero on the first failed gate.  The self-test feeds tiny
fixture trajectories through every gate (passing and failing variants), so
`cargo test` / CI can verify the harness itself without running a bench.
"""

import argparse
import json
import math
import sys
from pathlib import Path


class GateError(Exception):
    """A gate failed: the message says which check and shows the row."""


# The fields each gate reads, per trajectory.  `schema` fails when any listed
# file is missing or any listed field disappears from a row, so a bench (or
# field) rename cannot silently skip a gate.
REQUIRED = {
    "dispatch": {
        "": ["results"],
        "results": ["subscriptions", "speedup"],
    },
    "filter": {
        "": ["results"],
        "results": [
            "subscriptions",
            "engine_ns_per_doc",
            "naive_ns_per_doc",
            "speedup",
            "condition_probes_per_doc",
        ],
    },
    "reuse": {
        "": ["results", "replica", "locality"],
        "results": [
            "subscriptions",
            "hit_rate",
            "reuse_on_messages",
            "reuse_off_messages",
            "messages_saved_by_multicast",
        ],
        "replica": [
            "subscriptions",
            "remote_consumers",
            "served_by_replica",
            "replica_on_origin_messages",
            "replica_off_origin_messages",
        ],
        "locality": [
            "workload",
            "subscriptions",
            "rate_aware_bytes_hops",
            "count_based_bytes_hops",
            "rate_aware_bytes",
            "count_based_bytes",
            "rate_aware_origin_egress",
            "count_based_origin_egress",
            "rate_aware_replicas",
            "count_based_replicas",
            "results",
            "sink_bytes_identical",
        ],
    },
    "scale": {
        "": ["results"],
        "results": [
            "subscriptions",
            "peers",
            "dht_nodes",
            "ns_per_alert",
            "results_delivered",
            "dht_avg_hops",
            "dht_operations",
        ],
    },
    "sketch": {
        "": ["results"],
        "results": [
            "peers",
            "events",
            "sketch_bytes",
            "ship_bytes",
            "ratio",
            "answers",
            "topk_max_rel_err",
            "entropy_err_bits",
            "quantile_rel_err",
        ],
    },
    "chaos": {
        "": ["results"],
        "results": [
            "scenario",
            "faults",
            "delivered",
            "oracle_delivered",
            "missing",
            "double_delivered",
            "dropped_messages",
            "unaccounted",
            "converged",
            "replay_deterministic",
            "digest",
        ],
    },
}

GATED_SUBSCRIPTIONS = 256


def row_at(data, axis, subscriptions, bench):
    """The row of `axis` gated at `subscriptions` subscriptions."""
    for row in data.get(axis, []):
        if row.get("subscriptions") == subscriptions:
            return row
    raise GateError(
        f"BENCH_{bench}.json has no '{axis}' row at {subscriptions} subscriptions "
        f"— the gate would silently skip; regenerate the trajectory"
    )


def gate_dispatch(data):
    """Engine-gated dispatch must stay >= 3x over naive at 256 subscriptions."""
    row = row_at(data, "results", GATED_SUBSCRIPTIONS, "dispatch")
    print(f"engine vs naive at {GATED_SUBSCRIPTIONS} subscriptions: {row['speedup']:.2f}x")
    if row["speedup"] < 3.0:
        raise GateError(f"dispatch speedup regressed below 3x: {row}")


FILTER_CEILING_SUBSCRIPTIONS = 10_000
FILTER_CEILING_SPEEDUP = 5.5


def gate_filter(data):
    """The filter engine must never be slower than the naive scan at ANY
    measured subscription count (the small-N regression gate), and must keep
    its large-N ceiling: >= 5.5x over naive at 10000 subscriptions."""
    rows = data.get("results", [])
    if not rows:
        raise GateError("BENCH_filter.json has no 'results' rows — regenerate the trajectory")
    for row in rows:
        print(
            f"filter at {row['subscriptions']} subscriptions: {row['speedup']:.2f}x vs naive "
            f"({row['condition_probes_per_doc']:.2f} preFilter probes/doc)"
        )
        if row["speedup"] < 1.0:
            raise GateError(
                f"filter engine is SLOWER than naive at "
                f"{row['subscriptions']} subscriptions — the small-N regression is back: {row}"
            )
    ceiling = next(
        (r for r in rows if r["subscriptions"] == FILTER_CEILING_SUBSCRIPTIONS), None
    )
    if ceiling is None:
        raise GateError(
            f"BENCH_filter.json has no row at {FILTER_CEILING_SUBSCRIPTIONS} subscriptions "
            f"— the large-N ceiling gate would silently skip; regenerate the trajectory"
        )
    if ceiling["speedup"] < FILTER_CEILING_SPEEDUP:
        raise GateError(
            f"filter speedup at {FILTER_CEILING_SUBSCRIPTIONS} subscriptions regressed "
            f"below {FILTER_CEILING_SPEEDUP}x: {ceiling}"
        )


def gate_reuse(data):
    """Stream reuse must keep covering the overlapping storm (hit rate >= 50%)
    and must never send more messages than the reuse-off baseline."""
    row = row_at(data, "results", GATED_SUBSCRIPTIONS, "reuse")
    print(f"reuse hit rate over the {GATED_SUBSCRIPTIONS}-sub overlapping storm: {row['hit_rate']:.2f}")
    print(
        f"messages: reuse-on {row['reuse_on_messages']} vs reuse-off {row['reuse_off_messages']}"
        f" ({row['messages_saved_by_multicast']} saved by multicast)"
    )
    if row["hit_rate"] < 0.5:
        raise GateError(f"reuse hit rate regressed below 50%: {row}")
    if row["reuse_on_messages"] > row["reuse_off_messages"]:
        raise GateError(f"stream reuse sent MORE network messages than the reuse-off baseline: {row}")


def gate_replica(data):
    """Replica re-publication must serve at least half of the clustered
    remote consumers from re-published copies, and must never make the
    origin peer send more messages than the replica-off baseline."""
    row = row_at(data, "replica", GATED_SUBSCRIPTIONS, "reuse")
    remote = row["remote_consumers"]
    served = row["served_by_replica"]
    share = served / remote if remote else 0.0
    print(
        f"replicas over the {GATED_SUBSCRIPTIONS}-sub clustered storm: "
        f"{served}/{remote} remote consumers served by a replica ({share:.0%})"
    )
    print(
        f"origin-peer messages: replica-on {row['replica_on_origin_messages']} "
        f"vs replica-off {row['replica_off_origin_messages']}"
    )
    if remote == 0:
        raise GateError(f"the clustered storm produced no remote consumers: {row}")
    if share < 0.5:
        raise GateError(f"replicas serve fewer than 50% of remote consumers: {row}")
    if row["replica_on_origin_messages"] > row["replica_off_origin_messages"]:
        raise GateError(
            f"replica-on sent MORE origin-peer messages than replica-off: {row}"
        )


LOCALITY_MASSIVE_SUBS = 10_000


def locality_row_at(data, workload, subscriptions):
    """The locality row of `workload` at `subscriptions` subscriptions."""
    for row in data.get("locality", []):
        if row.get("workload") == workload and row.get("subscriptions") == subscriptions:
            return row
    raise GateError(
        f"BENCH_reuse.json has no 'locality' row for {workload} at {subscriptions} "
        f"subscriptions — the gate would silently skip; regenerate the trajectory"
    )


def gate_locality(data):
    """Rate-aware placement must strictly beat count-based placement on the
    locality score (total bytes x latency-weighted hops) over the paired
    multi-input storm at 256 subscriptions without adding origin-peer
    egress, must not regress the single-input MassiveStorm 10k tier, and
    must keep sink output byte-identical on every row — placement is an
    optimization, never a semantics change."""
    rows = data.get("locality", [])
    if not rows:
        raise GateError("BENCH_reuse.json has no 'locality' rows — regenerate the trajectory")
    for row in rows:
        print(
            f"locality [{row['workload']}, {row['subscriptions']} subs]: "
            f"bytes x hops {row['rate_aware_bytes_hops']:.0f} rate-aware vs "
            f"{row['count_based_bytes_hops']:.0f} count-based, origin egress "
            f"{row['rate_aware_origin_egress']} vs {row['count_based_origin_egress']}, "
            f"sinks identical {row['sink_bytes_identical']}"
        )
        if not row["sink_bytes_identical"]:
            raise GateError(
                f"rate-aware placement changed sink bytes on "
                f"{row['workload']} at {row['subscriptions']} subscriptions: {row}"
            )
        if row["results"] == 0:
            raise GateError(
                f"the {row['workload']} locality row at {row['subscriptions']} "
                f"subscriptions delivered nothing — the score passed vacuously: {row}"
            )
    gated = locality_row_at(data, "paired-storm", GATED_SUBSCRIPTIONS)
    if gated["rate_aware_bytes_hops"] >= gated["count_based_bytes_hops"]:
        raise GateError(
            f"rate-aware placement no longer beats count-based on bytes x "
            f"latency-weighted hops over the paired storm at "
            f"{GATED_SUBSCRIPTIONS} subscriptions: {gated}"
        )
    if gated["rate_aware_origin_egress"] > gated["count_based_origin_egress"]:
        raise GateError(
            f"rate-aware placement sent MORE bytes out of the origin hubs than "
            f"count-based at {GATED_SUBSCRIPTIONS} subscriptions: {gated}"
        )
    massive = locality_row_at(data, "massive-storm", LOCALITY_MASSIVE_SUBS)
    if massive["rate_aware_bytes_hops"] > massive["count_based_bytes_hops"]:
        raise GateError(
            f"rate-aware placement regressed the single-input MassiveStorm tier "
            f"at {LOCALITY_MASSIVE_SUBS} subscriptions — it must change nothing there: {massive}"
        )


SCALE_BASE_SUBS = 1_000
SCALE_TOP_SUBS = 10_000
SCALE_MAX_GROWTH = 3.0


def gate_scale(data):
    """Per-alert dispatch cost must grow sublinearly over the MassiveStorm
    trajectory: the 10000-subscription tier (10x the subscriptions, 10x the
    peers) must stay under 3x the 1000-subscription tier's ns-per-alert."""
    for row in data.get("results", []):
        print(
            f"scale at {row['subscriptions']} subscriptions over {row['peers']} peers: "
            f"{row['ns_per_alert']:.0f} ns/alert, {row['results_delivered']} results"
        )
    base = row_at(data, "results", SCALE_BASE_SUBS, "scale")
    top = row_at(data, "results", SCALE_TOP_SUBS, "scale")
    if base["ns_per_alert"] <= 0:
        raise GateError(f"degenerate base tier (ns_per_alert <= 0): {base}")
    growth = top["ns_per_alert"] / base["ns_per_alert"]
    print(
        f"per-alert growth {SCALE_BASE_SUBS} -> {SCALE_TOP_SUBS} subscriptions: "
        f"{growth:.2f}x (bound {SCALE_MAX_GROWTH}x)"
    )
    if growth >= SCALE_MAX_GROWTH:
        raise GateError(
            f"per-alert cost at {SCALE_TOP_SUBS} subscriptions grew {growth:.2f}x "
            f"over the {SCALE_BASE_SUBS} tier (bound {SCALE_MAX_GROWTH}x) — "
            f"dispatch stopped scaling sublinearly: {top}"
        )
    if top["results_delivered"] == 0:
        raise GateError(f"the {SCALE_TOP_SUBS}-subscription tier delivered nothing: {top}")


def gate_dht(data):
    """Definition publishes and lookups ride the Chord overlay: every tier's
    average hop count must stay within the log2(nodes) bound, and the index
    must actually be exercised (a bypassed DHT would pass trivially)."""
    rows = data.get("results", [])
    if not rows:
        raise GateError("BENCH_scale.json has no 'results' rows — regenerate the trajectory")
    for row in rows:
        bound = math.log2(row["dht_nodes"]) if row["dht_nodes"] > 1 else 1.0
        print(
            f"dht at {row['subscriptions']} subscriptions: {row['dht_operations']} ops, "
            f"{row['dht_avg_hops']:.2f} avg hops over {row['dht_nodes']} nodes "
            f"(log2 bound {bound:.2f})"
        )
        if row["dht_operations"] == 0:
            raise GateError(
                f"no definition-index operations went through the DHT at "
                f"{row['subscriptions']} subscriptions — lookups are bypassing Chord: {row}"
            )
        if row["dht_avg_hops"] > bound:
            raise GateError(
                f"Chord routing exceeded the log2(nodes) hop bound at "
                f"{row['subscriptions']} subscriptions ({row['dht_avg_hops']:.2f} > "
                f"{bound:.2f}): {row}"
            )


CHAOS_MIN_SCENARIOS = 6


def gate_chaos(data):
    """Every chaos scenario must uphold the conservation invariants: the
    faulty run converges to the fault-free oracle after heal, never
    delivers a sink item more often than the oracle, explains every lost
    item with a recorded network drop (zero unaccounted), and replays
    bit-identically from its seed.  The suite must keep covering at least
    the six built-in fault families."""
    rows = data.get("results", [])
    if len(rows) < CHAOS_MIN_SCENARIOS:
        raise GateError(
            f"BENCH_chaos.json covers only {len(rows)} scenarios "
            f"(need >= {CHAOS_MIN_SCENARIOS}) — a fault family lost its coverage"
        )
    names = [row["scenario"] for row in rows]
    if len(set(names)) != len(names):
        raise GateError(f"duplicate scenario rows in BENCH_chaos.json: {names}")
    for row in rows:
        print(
            f"chaos [{row['scenario']}]: {row['faults']} faults, "
            f"{row['delivered']}/{row['oracle_delivered']} delivered, "
            f"{row['missing']} missing vs {row['dropped_messages']} dropped, "
            f"converged {row['converged']}, replay {row['replay_deterministic']}"
        )
        if not row["converged"]:
            raise GateError(
                f"scenario '{row['scenario']}' did not converge to the "
                f"fault-free oracle after heal: {row}"
            )
        if not row["replay_deterministic"]:
            raise GateError(
                f"scenario '{row['scenario']}' did not replay bit-identically "
                f"from its seed: {row}"
            )
        if row["double_delivered"] != 0:
            raise GateError(
                f"scenario '{row['scenario']}' double-delivered "
                f"{row['double_delivered']} sink items: {row}"
            )
        if row["unaccounted"] != 0:
            raise GateError(
                f"scenario '{row['scenario']}' lost {row['unaccounted']} sink "
                f"items with no recorded network drop — alerts are leaking: {row}"
            )
        if row["missing"] > 0 and row["dropped_messages"] == 0:
            raise GateError(
                f"scenario '{row['scenario']}' reports missing items but a "
                f"clean drop ledger — the accounting identity broke: {row}"
            )
        if row["oracle_delivered"] == 0:
            raise GateError(
                f"scenario '{row['scenario']}' drove no traffic through the "
                f"oracle — the invariants passed vacuously: {row}"
            )
    faulted = [row for row in rows if row["dropped_messages"] > 0]
    if not faulted:
        raise GateError(
            "no chaos scenario dropped a single message — the fault schedule "
            "stopped biting, so the conservation invariants are untested"
        )


SKETCH_BASE_PEERS = 1_000
SKETCH_TOP_PEERS = 10_000
SKETCH_MIN_RATIO = 5.0
# Sketch bytes may grow at most half as fast as the peer count (sublinear
# with real margin: the measured trajectory is near-flat).
SKETCH_MAX_SUBLINEAR_SHARE = 0.5
SKETCH_TOPK_MAX_REL_ERR = 0.05
SKETCH_ENTROPY_MAX_ERR_BITS = 0.05
SKETCH_QUANTILE_MAX_REL_ERR = 0.10


def sketch_row_at(data, peers):
    for row in data.get("results", []):
        if row.get("peers") == peers:
            return row
    raise GateError(
        f"BENCH_sketch.json has no row at {peers} peers — the gate would "
        f"silently skip; regenerate the trajectory"
    )


def gate_sketch(data):
    """The sketch plane must earn its keep on the wire and stay honest in its
    answers: at the 10k-peer tier the three aggregate subscriptions must move
    at least 5x fewer bytes than the ship-items baseline, sketch bytes must
    grow sublinearly while the peer count (and with it the baseline) grows
    10x, and every tier's answers must sit within the sketches' accuracy
    bounds of the exact oracle computed over the same event stream."""
    rows = data.get("results", [])
    if not rows:
        raise GateError("BENCH_sketch.json has no 'results' rows — regenerate the trajectory")
    for row in rows:
        print(
            f"sketch at {row['peers']} peers: {row['sketch_bytes']} sketch bytes vs "
            f"{row['ship_bytes']} ship bytes ({row['ratio']:.1f}x), "
            f"topk err {row['topk_max_rel_err']:.4f}, "
            f"entropy err {row['entropy_err_bits']:.4f} bits, "
            f"quantile err {row['quantile_rel_err']:.4f}, {row['answers']} answers"
        )
        if row["events"] == 0 or row["answers"] == 0:
            raise GateError(
                f"the {row['peers']}-peer tier drove no events or produced no "
                f"aggregate answers — the byte comparison passed vacuously: {row}"
            )
        if row["topk_max_rel_err"] > SKETCH_TOPK_MAX_REL_ERR:
            raise GateError(
                f"topk heavy-hitter counts drifted beyond "
                f"{SKETCH_TOPK_MAX_REL_ERR:.0%} of exact at {row['peers']} peers: {row}"
            )
        if row["entropy_err_bits"] > SKETCH_ENTROPY_MAX_ERR_BITS:
            raise GateError(
                f"entropy answer drifted beyond {SKETCH_ENTROPY_MAX_ERR_BITS} bits "
                f"of exact at {row['peers']} peers: {row}"
            )
        if row["quantile_rel_err"] > SKETCH_QUANTILE_MAX_REL_ERR:
            raise GateError(
                f"quantile answer drifted beyond {SKETCH_QUANTILE_MAX_REL_ERR:.0%} "
                f"of exact at {row['peers']} peers: {row}"
            )
    base = sketch_row_at(data, SKETCH_BASE_PEERS)
    top = sketch_row_at(data, SKETCH_TOP_PEERS)
    if top["ratio"] < SKETCH_MIN_RATIO:
        raise GateError(
            f"the sketch plane moves only {top['ratio']:.1f}x fewer bytes than "
            f"the ship-items baseline at {SKETCH_TOP_PEERS} peers "
            f"(bound {SKETCH_MIN_RATIO}x) — partials stopped paying for themselves: {top}"
        )
    if base["sketch_bytes"] <= 0:
        raise GateError(f"degenerate base tier (sketch_bytes <= 0): {base}")
    byte_growth = top["sketch_bytes"] / base["sketch_bytes"]
    peer_growth = top["peers"] / base["peers"]
    print(
        f"sketch bytes growth {SKETCH_BASE_PEERS} -> {SKETCH_TOP_PEERS} peers: "
        f"{byte_growth:.2f}x against {peer_growth:.0f}x peers "
        f"(bound {SKETCH_MAX_SUBLINEAR_SHARE * peer_growth:.1f}x)"
    )
    if byte_growth > SKETCH_MAX_SUBLINEAR_SHARE * peer_growth:
        raise GateError(
            f"sketch wire bytes grew {byte_growth:.2f}x while the peer count grew "
            f"{peer_growth:.0f}x — the partial flow is no longer sublinear: {top}"
        )
    ratios = [r["ratio"] for r in sorted(rows, key=lambda r: r["peers"])]
    for prev, cur in zip(ratios, ratios[1:]):
        if cur < prev * 0.9:
            raise GateError(
                f"the bytes-saved ratio fell as the population grew ({ratios}) — "
                f"sketching should pay MORE at scale, not less"
            )


def validate_trajectory(bench, data):
    """The schema check for one parsed trajectory: every field a gate reads
    must be present (top-level keys, and per-row fields of each axis)."""
    spec = REQUIRED[bench]
    problems = []
    for key in spec[""]:
        if key not in data:
            problems.append(f"BENCH_{bench}.json: missing top-level field '{key}'")
    for axis, fields in spec.items():
        if not axis or axis not in data:
            continue
        if not data[axis]:
            problems.append(f"BENCH_{bench}.json: axis '{axis}' is empty")
        for i, row in enumerate(data[axis]):
            for field in fields:
                if field not in row:
                    problems.append(
                        f"BENCH_{bench}.json: '{axis}' row {i} lacks field '{field}'"
                    )
    return problems


def check_schema(root):
    """Every BENCH_*.json in the workspace root parses; every *gated*
    trajectory exists and carries the fields its gates read."""
    found = {}
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise GateError(f"{path.name} does not parse: {e}") from e
        found[path.name] = data
        print(f"{path.name}: parses ({', '.join(sorted(k for k in data if isinstance(data[k], list)))})")
    problems = []
    for bench in REQUIRED:
        name = f"BENCH_{bench}.json"
        if name not in found:
            problems.append(
                f"{name} is missing — a gated trajectory was renamed or its bench "
                f"no longer writes it, so its gate would silently skip"
            )
            continue
        problems.extend(validate_trajectory(bench, found[name]))
    if problems:
        raise GateError("\n".join(problems))
    print(f"schema ok: {len(found)} trajectories, all gated fields present")


def load(root, bench):
    path = root / f"BENCH_{bench}.json"
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise GateError(f"{path} not found — run `cargo bench -p p2pmon-bench` first") from None
    except json.JSONDecodeError as e:
        raise GateError(f"{path} does not parse: {e}") from e


# ---------------------------------------------------------------------------
# Self-test fixtures: tiny passing trajectories plus one failing mutation per
# gate, so the harness itself is testable without running a bench.
# ---------------------------------------------------------------------------

FIXTURE_DISPATCH = {
    "bench": "dispatch",
    "results": [{"subscriptions": 256, "speedup": 5.2}],
}

FIXTURE_REUSE = {
    "bench": "reuse",
    "results": [
        {
            "subscriptions": 256,
            "hit_rate": 0.99,
            "reuse_on_messages": 300,
            "reuse_off_messages": 4900,
            "messages_saved_by_multicast": 5000,
        }
    ],
    "replica": [
        {
            "subscriptions": 256,
            "remote_consumers": 248,
            "served_by_replica": 232,
            "replica_on_origin_messages": 489,
            "replica_off_origin_messages": 1467,
        }
    ],
    "locality": [
        {
            "workload": "paired-storm",
            "subscriptions": 256,
            "rate_aware_bytes_hops": 786530.0,
            "count_based_bytes_hops": 888030.0,
            "rate_aware_bytes": 14312,
            "count_based_bytes": 15327,
            "rate_aware_origin_egress": 6395,
            "count_based_origin_egress": 8541,
            "rate_aware_replicas": 64,
            "count_based_replicas": 64,
            "results": 937,
            "sink_bytes_identical": True,
        },
        {
            "workload": "massive-storm",
            "subscriptions": 10000,
            "rate_aware_bytes_hops": 91055.0,
            "count_based_bytes_hops": 91055.0,
            "rate_aware_bytes": 18211,
            "count_based_bytes": 18211,
            "rate_aware_origin_egress": 18211,
            "count_based_origin_egress": 18211,
            "rate_aware_replicas": 824,
            "count_based_replicas": 824,
            "results": 2116,
            "sink_bytes_identical": True,
        },
    ],
}

FIXTURE_FILTER = {
    "bench": "filter",
    "results": [
        {
            "subscriptions": 100,
            "engine_ns_per_doc": 400,
            "naive_ns_per_doc": 520,
            "speedup": 1.3,
            "condition_probes_per_doc": 4.0,
        },
        {
            "subscriptions": 10000,
            "engine_ns_per_doc": 100,
            "naive_ns_per_doc": 800,
            "speedup": 8.0,
            "condition_probes_per_doc": 4.0,
        },
    ],
}


FIXTURE_SCALE = {
    "bench": "scale",
    "results": [
        {
            "subscriptions": 1000,
            "peers": 18,
            "dht_nodes": 18,
            "ns_per_alert": 12000,
            "results_delivered": 5000,
            "dht_avg_hops": 2.7,
            "dht_operations": 3700,
        },
        {
            "subscriptions": 10000,
            "peers": 180,
            "dht_nodes": 180,
            "ns_per_alert": 21000,
            "results_delivered": 6000,
            "dht_avg_hops": 4.7,
            "dht_operations": 37000,
        },
    ],
}


def _sketch_row(peers, **overrides):
    row = {
        "peers": peers,
        "events": peers * 16,
        "rounds": 2,
        "sketch_bytes": 700000,
        "ship_bytes": peers * 700,
        "ratio": peers * 700 / 700000,
        "sketch_messages": 1200,
        "ship_messages": peers * 16,
        "answers": 6,
        "topk_max_rel_err": 0.0,
        "entropy_err_bits": 0.001,
        "quantile_rel_err": 0.005,
        "deploy_ms": 100,
    }
    row.update(overrides)
    return row


FIXTURE_SKETCH = {
    "bench": "sketch",
    "events_per_peer": 16,
    "results": [
        _sketch_row(1000),
        _sketch_row(4000, sketch_bytes=800000, ratio=4000 * 700 / 800000),
        _sketch_row(10000, sketch_bytes=830000, ratio=10000 * 700 / 830000),
    ],
}


def _chaos_row(name, **overrides):
    row = {
        "scenario": name,
        "rounds": 12,
        "faults": 1,
        "delivered": 120,
        "oracle_delivered": 140,
        "missing": 20,
        "double_delivered": 0,
        "dropped_messages": 15,
        "dropped_peer_down": 15,
        "dropped_partition": 0,
        "dropped_random": 0,
        "unaccounted": 0,
        "converged": True,
        "replay_deterministic": True,
        "digest": 1234567890,
    }
    row.update(overrides)
    return row


FIXTURE_CHAOS = {
    "bench": "chaos",
    "seed": 17,
    "results": [
        _chaos_row("crash-recover", faults=2),
        _chaos_row("partition-heal", dropped_peer_down=0, dropped_partition=15),
        _chaos_row("forwarder-flap"),
        _chaos_row("cluster-failure"),
        _chaos_row("drop-burst", dropped_peer_down=0, dropped_random=15),
        _chaos_row("subscription-churn", faults=5),
    ],
}


def mutated(fixture, axis, field, value, row=0):
    copy = json.loads(json.dumps(fixture))
    copy[axis][row][field] = value
    return copy


def expect_pass(name, gate, data):
    gate(data)
    print(f"self-test: {name} passes on the good fixture")


def expect_fail(name, gate, data):
    try:
        gate(data)
    except GateError as e:
        print(f"self-test: {name} correctly fails ({str(e).splitlines()[0][:72]}…)")
        return
    raise GateError(f"self-test: {name} did NOT fail on the bad fixture")


def self_test():
    expect_pass("dispatch", gate_dispatch, FIXTURE_DISPATCH)
    expect_fail("dispatch speedup", gate_dispatch, mutated(FIXTURE_DISPATCH, "results", "speedup", 2.0))
    expect_pass("filter", gate_filter, FIXTURE_FILTER)
    expect_fail(
        "filter small-N regression",
        gate_filter,
        mutated(FIXTURE_FILTER, "results", "speedup", 0.9),
    )
    expect_fail(
        "filter large-N ceiling",
        gate_filter,
        mutated(FIXTURE_FILTER, "results", "speedup", 4.0, row=1),
    )
    expect_fail(
        "filter missing ceiling row",
        gate_filter,
        mutated(FIXTURE_FILTER, "results", "subscriptions", 5000, row=1),
    )
    expect_pass("reuse", gate_reuse, FIXTURE_REUSE)
    expect_fail("reuse hit rate", gate_reuse, mutated(FIXTURE_REUSE, "results", "hit_rate", 0.3))
    expect_fail(
        "reuse traffic", gate_reuse, mutated(FIXTURE_REUSE, "results", "reuse_on_messages", 9000)
    )
    expect_pass("replica", gate_replica, FIXTURE_REUSE)
    expect_fail(
        "replica share", gate_replica, mutated(FIXTURE_REUSE, "replica", "served_by_replica", 10)
    )
    expect_fail(
        "replica origin load",
        gate_replica,
        mutated(FIXTURE_REUSE, "replica", "replica_on_origin_messages", 2000),
    )
    expect_pass("locality", gate_locality, FIXTURE_REUSE)
    expect_fail(
        "locality paired-storm win",
        gate_locality,
        mutated(FIXTURE_REUSE, "locality", "rate_aware_bytes_hops", 900000.0),
    )
    expect_fail(
        "locality origin egress",
        gate_locality,
        mutated(FIXTURE_REUSE, "locality", "rate_aware_origin_egress", 9000),
    )
    expect_fail(
        "locality massive-storm regression",
        gate_locality,
        mutated(FIXTURE_REUSE, "locality", "rate_aware_bytes_hops", 99999.0, row=1),
    )
    expect_fail(
        "locality sink equivalence",
        gate_locality,
        mutated(FIXTURE_REUSE, "locality", "sink_bytes_identical", False, row=1),
    )
    expect_fail(
        "locality vacuous delivery",
        gate_locality,
        mutated(FIXTURE_REUSE, "locality", "results", 0),
    )
    expect_pass("scale", gate_scale, FIXTURE_SCALE)
    expect_fail(
        "scale sublinear growth",
        gate_scale,
        mutated(FIXTURE_SCALE, "results", "ns_per_alert", 40000, row=1),
    )
    expect_fail(
        "scale missing base tier",
        gate_scale,
        mutated(FIXTURE_SCALE, "results", "subscriptions", 500),
    )
    expect_pass("dht", gate_dht, FIXTURE_SCALE)
    expect_fail(
        "dht hop bound",
        gate_dht,
        mutated(FIXTURE_SCALE, "results", "dht_avg_hops", 9.5, row=1),
    )
    expect_fail(
        "dht bypass",
        gate_dht,
        mutated(FIXTURE_SCALE, "results", "dht_operations", 0),
    )
    expect_pass("chaos", gate_chaos, FIXTURE_CHAOS)
    expect_fail(
        "chaos convergence",
        gate_chaos,
        mutated(FIXTURE_CHAOS, "results", "converged", False, row=1),
    )
    expect_fail(
        "chaos replay determinism",
        gate_chaos,
        mutated(FIXTURE_CHAOS, "results", "replay_deterministic", False, row=2),
    )
    expect_fail(
        "chaos double delivery",
        gate_chaos,
        mutated(FIXTURE_CHAOS, "results", "double_delivered", 3, row=3),
    )
    expect_fail(
        "chaos unaccounted loss",
        gate_chaos,
        mutated(FIXTURE_CHAOS, "results", "unaccounted", 7, row=4),
    )
    expect_fail(
        "chaos accounting identity",
        gate_chaos,
        mutated(FIXTURE_CHAOS, "results", "dropped_messages", 0, row=5),
    )
    expect_pass("sketch", gate_sketch, FIXTURE_SKETCH)
    expect_fail(
        "sketch byte ratio",
        gate_sketch,
        mutated(FIXTURE_SKETCH, "results", "ratio", 3.0, row=2),
    )
    expect_fail(
        "sketch sublinearity",
        gate_sketch,
        mutated(FIXTURE_SKETCH, "results", "sketch_bytes", 6000000, row=2),
    )
    expect_fail(
        "sketch topk accuracy",
        gate_sketch,
        mutated(FIXTURE_SKETCH, "results", "topk_max_rel_err", 0.2, row=1),
    )
    expect_fail(
        "sketch entropy accuracy",
        gate_sketch,
        mutated(FIXTURE_SKETCH, "results", "entropy_err_bits", 0.5, row=0),
    )
    expect_fail(
        "sketch quantile accuracy",
        gate_sketch,
        mutated(FIXTURE_SKETCH, "results", "quantile_rel_err", 0.3, row=2),
    )
    expect_fail(
        "sketch vacuous answers",
        gate_sketch,
        mutated(FIXTURE_SKETCH, "results", "answers", 0, row=0),
    )
    expect_fail(
        "sketch ratio monotonicity",
        gate_sketch,
        mutated(FIXTURE_SKETCH, "results", "ratio", 0.5, row=1),
    )
    expect_fail(
        "sketch missing top tier",
        gate_sketch,
        mutated(FIXTURE_SKETCH, "results", "peers", 9000, row=2),
    )
    shrunk = json.loads(json.dumps(FIXTURE_CHAOS))
    shrunk["results"] = shrunk["results"][:4]
    expect_fail("chaos scenario coverage", gate_chaos, shrunk)
    toothless = json.loads(json.dumps(FIXTURE_CHAOS))
    for row in toothless["results"]:
        row["dropped_messages"] = 0
        row["missing"] = 0
    expect_fail("chaos faults must bite", gate_chaos, toothless)
    # Schema validation: the good fixtures are complete; a dropped field (as a
    # bench rename or refactor would cause) is reported.
    for bench, fixture in [
        ("dispatch", FIXTURE_DISPATCH),
        ("reuse", FIXTURE_REUSE),
        ("filter", FIXTURE_FILTER),
        ("scale", FIXTURE_SCALE),
        ("sketch", FIXTURE_SKETCH),
        ("chaos", FIXTURE_CHAOS),
    ]:
        problems = validate_trajectory(bench, fixture)
        if problems:
            raise GateError(f"self-test: good {bench} fixture flagged: {problems}")
    broken = json.loads(json.dumps(FIXTURE_REUSE))
    del broken["replica"][0]["served_by_replica"]
    del broken["results"]
    problems = validate_trajectory("reuse", broken)
    if len(problems) != 2:
        raise GateError(f"self-test: schema check missed a dropped field: {problems}")
    print("self-test: schema validation catches dropped axes and fields")
    print("self-test: OK")


GATES = {
    "dispatch": gate_dispatch,
    "filter": gate_filter,
    "reuse": gate_reuse,
    "replica": gate_replica,
    "locality": gate_locality,
    "scale": gate_scale,
    "dht": gate_dht,
    "chaos": gate_chaos,
    "sketch": gate_sketch,
}
# Which trajectory file each gate reads.
GATE_SOURCE = {
    "dispatch": "dispatch",
    "filter": "filter",
    "reuse": "reuse",
    "replica": "reuse",
    "locality": "reuse",
    "scale": "scale",
    "dht": "scale",
    "chaos": "chaos",
    "sketch": "sketch",
}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "command",
        nargs="?",
        choices=[
            "schema",
            "dispatch",
            "filter",
            "reuse",
            "replica",
            "locality",
            "scale",
            "dht",
            "chaos",
            "sketch",
            "all",
        ],
        help="the gate to run",
    )
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--self-test", action="store_true", help="run the fixture self-test")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            self_test()
            if args.command is None:
                return 0
        if args.command is None:
            parser.error("a command (or --self-test) is required")
        if args.command in ("schema", "all"):
            check_schema(args.root)
        if args.command != "schema":
            gates = GATES if args.command == "all" else {args.command: GATES[args.command]}
            for name, gate in gates.items():
                gate(load(args.root, GATE_SOURCE[name]))
    except GateError as e:
        print(f"GATE FAILED: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
