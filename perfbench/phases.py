"""Phases of the workloads: session creation, update streams, goal bursts, checks.

Every phase talks to the service only through a client's
``request(method, path, body)`` and checks each answer it receives.  A wrong
answer raises :class:`WrongAnswer`, which fails the run; it is never counted
as a slow request.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time

from util import BLOCKED_PROGRAM, REACH_PROGRAM, Segment, closure, median, on_one_cpu, pairs

_now = time.perf_counter


class WrongAnswer(AssertionError):
    """The service answered, but not what the oracle says it must."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def rows(payload: dict, relation: str) -> "set[tuple]":
    return {tuple(row) for row in payload["answers"][relation]}


async def call(client, method: str, path: str, body=None, ok=(200, 201)) -> dict:
    status, payload = await client.request(method, path, body)
    expect(status in ok, f"{method} {path} answered {status}: {payload}")
    return payload


# -- session sets ------------------------------------------------------------------------


def reach_spec(graph_text: str, **options) -> dict:
    return {"program": REACH_PROGRAM, "instance": graph_text, "output_relation": "T", "options": options}


def blocked_spec(graph_text: str, blocked, **options) -> dict:
    text = graph_text + "".join(f"Blocklist({node}).\n" for node in sorted(blocked))
    return {"program": BLOCKED_PROGRAM, "instance": text, "output_relation": "T", "options": options}


async def create_sets(client, make_specs, repeats: int, speed, data_root=None,
                      server_pid=None) -> "tuple[float, list, list]":
    """Create the workload's session set *repeats* times; keep the last one.

    ``make_specs(r)`` gives the bodies of repeat *r* (persist names must be
    unique per repeat).  A repeat's set-up time runs from its first create
    request until every session can answer reads; each create is its own
    :meth:`Speed.segment` of *speed*, so the kernel is timed close to the
    work it scales, and on the same CPU: this process and the serving
    process *server_pid* (when the service is a child) run on one CPU
    throughout.  Returns the median set-up time in reference seconds, every
    repeat's :class:`Segment` (the sum of its creates), and the kept session
    ids.
    """
    with on_one_cpu(None if server_pid is None else (os.getpid(), server_pid)):
        return await _create_sets(client, make_specs, repeats, speed, data_root)


async def _create_sets(client, make_specs, repeats, speed, data_root):
    segments, kept = [], []
    for repeat in range(repeats):
        specs = make_specs(repeat)
        gc.collect()
        ids, total = [], Segment()
        for spec in specs:
            with speed.segment() as segment:
                payload = await call(client, "POST", "/v1/sessions", spec)
            ids.append(payload["session"])
            total += segment
        segments.append(total)
        if repeat < repeats - 1:
            for session_id, spec in zip(ids, specs):
                await call(client, "DELETE", f"/v1/sessions/{session_id}")
                persist = spec.get("options", {}).get("persist")
                if persist and data_root is not None:
                    shutil.rmtree(data_root / "default" / persist, ignore_errors=True)
        else:
            kept = ids
    return median([segment.ref_wall for segment in segments]), segments, kept


# -- updates -----------------------------------------------------------------------------


class UpdateStream:
    """Update batches over a layered graph, tracking the EDB they lead to.

    Odd batches are *structural*: one forward edge added between adjacent
    layers plus one live edge of the same layer retracted, so the graph stays
    the same size and the retraction exercises delete-and-rederive.  The
    layer cycles through the graph, so every seed gets the same mix of deep
    and shallow changes.  Even batches add a fresh disconnected leaf edge (an
    O(1) delta) and retract the oldest leaf edge once ``leaf_window`` are
    live, so the EDB is stationary.
    """

    def __init__(self, graph, rng: random.Random, leaf_window: int = 16, prefix: str = "u"):
        self.graph, self.rng = graph, rng
        self.edges = set(graph.edges)
        self.leaves: list = []
        self.leaf_window, self.prefix = leaf_window, prefix
        self.count = 0
        self.structural_count = 0

    def next(self) -> "tuple[list, list]":
        self.count += 1
        if self.count % 2:
            return self.structural()
        return self._leaf()

    def structural(self):
        graph, rng = self.graph, self.rng
        layer = self.structural_count % (graph.layers - 1)
        self.structural_count += 1
        layer_edges = sorted(
            (edge for edge in self.edges if graph.layer_of.get(edge[0]) == layer), key=graph.shape_key)
        while True:
            added = (rng.choice(graph.nodes[layer]), rng.choice(graph.nodes[layer + 1]))
            if added not in self.edges:
                break
        retracted = rng.choice(layer_edges)
        self.edges.add(added)
        self.edges.discard(retracted)
        return [["E", *added]], [["E", *retracted]]

    def _leaf(self):
        index = self.count
        added = (f"{self.prefix}{index}a", f"{self.prefix}{index}b")
        self.edges.add(added)
        self.leaves.append(added)
        retract = []
        if len(self.leaves) > self.leaf_window:
            old = self.leaves.pop(0)
            self.edges.discard(old)
            retract = [["E", *old]]
        return [["E", *added]], retract


def apply_batch(edges: set, additions, retractions) -> None:
    """Apply one batch to an EDB edge set (retractions first, as the merge does)."""
    for _, source, target in retractions:
        edges.discard((source, target))
    for _, source, target in additions:
        edges.add((source, target))


async def check_full(client, session_id: str, edges, blocked=frozenset(), label: str = "") -> None:
    """The session's whole output equals the BFS oracle over *edges*."""
    payload = await call(client, "POST", f"/v1/sessions/{session_id}/query", {})
    got = rows(payload, "T")
    want = pairs(closure(edges, blocked))
    expect(got == want, f"{label}: {len(got)} pairs served, oracle has {len(want)}")


# -- point reads -------------------------------------------------------------------------


def read_body(rng: random.Random, draw, rid: int) -> dict:
    """≈80 % bound source, ≈20 % bound target; *rid* tags the request for tracing."""
    position = "0" if rng.random() < 0.8 else "1"
    return {"binding": {position: draw()}, "rid": rid}


def expected_rows(reach: "dict[str, set]", binding: dict) -> "set[tuple]":
    (position, node), = binding.items()
    if position == "0":
        return {(node, target) for target in reach.get(node, ())}
    return {(source, node) for source, targets in reach.items() if node in targets}


# -- tabled goal bursts ------------------------------------------------------------------


async def goal_burst(client, sessions: dict, graph, blocked, rng: random.Random, fixed: random.Random) -> dict:
    """Tabled goal queries on non-materialized sessions, checked against BFS.

    *sessions* maps ``"reach"``/``"blocked"`` to session ids.  Two thirds of
    each program's goals come from ``low_overlap_goal_stream`` — every
    distinct source once, in shuffled order, which overflows the 64-entry
    answer table; the other third repeat a hot set of 8 sources spread over
    the layers (it fits the table), chosen by *fixed*; *rng* orders them.  With table hits a third of the goals,
    the median falls inside the misses rather than on the edge between the
    two populations.  Covering every source keeps the cost mix the
    same for every seed.  Returns latencies, how many goals were served by
    the table, and the engine's extension attempts per goal.
    """
    from repro.io.serialization import instance_from_text
    from repro.workloads import low_overlap_goal_stream

    instance = instance_from_text(graph.text())
    oracle = {"reach": closure(graph.edges), "blocked": closure(graph.edges, blocked)}
    distinct = len({source for source, _ in graph.edges})
    hot = [fixed.choice(graph.nodes[i * (graph.layers - 1) // 8]) for i in range(8)]
    latencies, tabled, attempts = [], 0, []
    gc.collect()
    for program, session_id in sessions.items():
        cold = [str(path[0]) for path in low_overlap_goal_stream(
            instance, relation="E", position=0, goals=distinct, seed=rng.randrange(1 << 30))]
        goals = [hot[i % len(hot)] for i in range(len(cold) // 2)] + cold
        rng.shuffle(goals)
        for source in goals:
            started = _now()
            payload = await call(client, "POST", f"/v1/sessions/{session_id}/query",
                                 {"binding": {"0": source}, "mode": "tabled"})
            latencies.append((_now() - started) * 1000.0)
            want = {(source, target) for target in oracle[program].get(source, ())}
            expect(rows(payload, "T") == want, f"goal {program}({source}) answered wrongly")
            if payload.get("served_by") == "tabled":
                tabled += 1
            attempts.append(payload.get("statistics", {}).get("extension_attempts", 0))
    return {"latencies": latencies, "tabled": tabled, "attempts": attempts}


def pick_blocked(graph, rng: random.Random, count: int = 6) -> set:
    """A handful of mid-graph nodes for the negation program's Blocklist."""
    middle = [node for layer in graph.nodes[1:-1] for node in layer]
    return set(rng.sample(middle, count))
