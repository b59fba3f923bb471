"""Per-layer figures from a traced run's spans.

:func:`link` turns the raw span list into a causal graph (see the
:mod:`spans` docstring for why executor work needs re-attaching),
:func:`self_shares` splits the root span among layers, and :func:`metrics`
derives every per-layer figure.  A figure whose layer did no work on the
workload is 0 (its count is 0 too).
"""

from __future__ import annotations

from collections import defaultdict

from spans import ATTRS, END, ID, LAYER_NAMES, NAME, PARENT, START, THREAD, layer_of
from util import median, percentile

#: Asynchronous entry points that await work in the service's executor
#: thread; an executor span they contain in time is theirs.
DELEGATORS = {"registry.create", "registry.restore_all", "core.snapshot_now", "core.run_query"}


def _ms(ns) -> float:
    return ns / 1e6


def _dur(span) -> int:
    return span[END] - span[START]


def link(spans: list) -> "dict[int, list[int]]":
    """Parents of every span id: context parents, pass links and adoption."""
    by_id = {span[ID]: span for span in spans}
    parents: "dict[int, list[int]]" = {}
    orphans = []
    for span in spans:
        parent = by_id.get(span[PARENT]) if span[PARENT] is not None else None
        if parent is not None and parent[START] <= span[START] and span[END] <= parent[END]:
            parents[span[ID]] = [parent[ID]]
        else:
            parents[span[ID]] = []
            orphans.append(span)
    # A maintenance pass (query.update, then its wal.append) serves every
    # enqueue_update acked with its generation.
    waiting = defaultdict(list)
    for span in spans:
        if span[NAME] == "core.enqueue_update" and span[ATTRS] and "generation" in span[ATTRS]:
            waiting[span[ATTRS]["generation"]].append(span[ID])
    delegators = sorted(
        (span for span in spans if span[NAME] in DELEGATORS), key=lambda span: span[START]
    )
    for span in orphans:
        attrs = span[ATTRS] or {}
        if span[NAME] in ("query.update", "wal.append") and attrs.get("generation") in waiting:
            parents[span[ID]] = list(waiting[attrs["generation"]])
            continue
        best = None
        for candidate in delegators:
            if candidate[START] > span[START]:
                break
            if (candidate[THREAD] != span[THREAD] and span[END] <= candidate[END]
                    and candidate[ID] != span[ID]
                    and (best is None or candidate[START] >= best[START])):
                best = candidate
        if best is not None:
            parents[span[ID]] = [best[ID]]
    return parents


def self_shares(spans: list, parents: dict, root_start: int, root_end: int) -> "dict[str, float]":
    """Each layer's share of the root span, plus ``untraced``; sums to 1."""
    events = []
    for span in spans:
        start, end = max(span[START], root_start), min(span[END], root_end)
        if end > start:
            events.append((start, 1, span[ID]))
            events.append((end, 0, span[ID]))
    events.sort()
    layer = {span[ID]: layer_of(span[NAME]) for span in spans}
    active: set = set()
    children = defaultdict(int)
    innermost_layers = defaultdict(int)
    innermost: set = set()
    totals = defaultdict(float)
    previous = root_start

    def credit(until: int) -> None:
        span_ns = until - previous
        if span_ns <= 0:
            return
        count = len(innermost)
        if not count:
            totals["untraced"] += span_ns
            return
        for name, n in innermost_layers.items():
            if n:
                totals[name] += span_ns * n / count

    for time_ns, starting, ident in events:
        credit(time_ns)
        previous = max(previous, time_ns)
        if starting:
            active.add(ident)
            for parent in parents.get(ident, ()):
                if parent in active:
                    children[parent] += 1
                    if children[parent] == 1 and parent in innermost:
                        innermost.discard(parent)
                        innermost_layers[layer[parent]] -= 1
            if children[ident] == 0:
                innermost.add(ident)
                innermost_layers[layer[ident]] += 1
        else:
            active.discard(ident)
            if ident in innermost:
                innermost.discard(ident)
                innermost_layers[layer[ident]] -= 1
            for parent in parents.get(ident, ()):
                if parent in active:
                    children[parent] -= 1
                    if children[parent] == 0:
                        innermost.add(parent)
                        innermost_layers[layer[parent]] += 1
    credit(root_end)
    whole = float(root_end - root_start)
    shares = {name: totals.get(name, 0.0) / whole for name in LAYER_NAMES}
    shares["untraced"] = totals.get("untraced", 0.0) / whole
    return shares


def _children_ns(spans: list, parents: dict) -> "dict[int, int]":
    covered = defaultdict(int)
    for span in spans:
        plist = parents.get(span[ID], ())
        if len(plist) == 1:
            covered[plist[0]] += _dur(span)
    return covered


def metrics(spans: list, root_start: int, root_end: int, extras: dict) -> "dict[str, float]":
    """Every per-layer figure the traced run reports (see README.md for the map)."""
    parents = link(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
    covered = _children_ns(spans, parents)
    out: "dict[str, float]" = {}

    def attrs(span) -> dict:
        return span[ATTRS] or {}

    def ms(group) -> list:
        return [_ms(_dur(span)) for span in group]

    def self_ms(group) -> list:
        return [_ms(_dur(span) - covered[span[ID]]) for span in group]

    def under(name: str, group) -> list:
        """Spans called *name* whose parents include a span of *group*."""
        ids = {span[ID] for span in group}
        return [span for span in by_name[name] if ids.intersection(parents.get(span[ID], ()))]

    def per(total: float, count: int) -> float:
        return total / count if count else 0.0

    # service.http
    dispatch = by_name["http.dispatch"]
    out["http.dispatch_self_ms_p50"] = percentile(self_ms(dispatch), 50)
    out["http.non200_count"] = float(
        sum(1 for span in dispatch if attrs(span).get("status") not in (200, 201)))
    by_rid = {attrs(span)["rid"]: span for span in dispatch if "rid" in attrs(span)}
    transport = [
        _ms(_dur(client) - _dur(by_rid[attrs(client)["rid"]]))
        for client in by_name["http.request"]
        if attrs(client).get("rid") in by_rid
    ]
    out["http.transport_ms_p50"] = percentile(transport, 50)

    # service.core
    reads = [span for span in by_name["core.run_query"]
             if attrs(span).get("served_by") == "maintained"]
    out["core.run_query_self_ms_p50"] = percentile(self_ms(reads), 50)
    out["core.read_wait_ms_p99"] = percentile(
        [_ms(_dur(span) - attrs(span).get("cpu_ns", 0)) for span in reads], 99)
    out["serialization.rows_to_json_ms_p50"] = percentile(
        ms(by_name["serialization.rows_to_json"]), 50)
    selects = by_name["core.select"]
    out["core.select_ms_p50"] = percentile(ms(selects), 50)
    out["core.select_ms_p99"] = percentile(ms(selects), 99)
    out["core.select_rows_p50"] = percentile(
        [attrs(span)["rows"] for span in selects if "rows" in attrs(span)], 50)
    out["core.capture_ms_p50"] = percentile(ms(by_name["core.capture"]), 50)
    out["core.capture_count"] = float(len(by_name["core.capture"]))

    # A live maintenance pass is a query.update tagged with the generation it
    # logged; restore replays carry none.
    passes = {attrs(span)["generation"]: span for span in by_name["query.update"]
              if "generation" in attrs(span)}
    waits = [_ms(passes[attrs(span)["generation"]][START] - span[START])
             for span in by_name["core.enqueue_update"]
             if attrs(span).get("generation") in passes]
    out["core.queue_wait_ms_p50"] = percentile(waits, 50)
    out["core.queue_wait_ms_p95"] = percentile(waits, 95)
    out["core.batches_per_pass"] = per(len(waits), len(passes))
    out["core.shed_count"] = float(extras.get("shed_count", 0))

    # engine.query / engine.maintenance
    live = list(passes.values())
    out["query.update_ms_p50"] = percentile(ms(live), 50)
    out["query.update_ms_p95"] = percentile(ms(live), 95)
    maint = under("maintenance.update", live)
    out["maintenance.update_ms_p50"] = percentile(ms(maint), 50)
    attempts = sum(attrs(span)["extension_attempts"] for span in live)
    derived = sum(attrs(span)["facts_derived"] for span in live)
    rederived = sum(attrs(span)["rederivation_attempts"] for span in live)
    out["maintenance.extension_attempts_per_pass"] = per(attempts, len(live))
    out["maintenance.rederivation_attempts_per_pass"] = per(rederived, len(live))
    out["maintenance.facts_derived_per_pass"] = per(derived, len(live))
    out["maintenance.useful_ratio"] = per(derived, attempts)
    out["query.update_fallbacks"] = float(sum(1 for span in live if not attrs(span)["maintained"]))
    kinds = {"E": "reach", "R": "compliance", "D,F,N,R": "nfa"}
    materialize = defaultdict(list)
    for span in by_name["query.run"]:
        if attrs(span).get("mode") == "full" and attrs(span).get("schema") in kinds:
            materialize[kinds[attrs(span)["schema"]]].append(_ms(_dur(span)))
    for kind in ("reach", "compliance", "nfa"):
        out[f"query.materialize_ms.{kind}"] = median(materialize[kind])

    # storage.relation, per live pass
    probes = under("storage.probe", maint)
    out["storage.probe_calls_per_pass"] = per(len(probes), len(live))
    out["storage.probe_ms_per_pass"] = per(sum(ms(probes)), len(live))
    out["storage.view_ms_per_pass"] = per(sum(ms(under("storage.view", maint))), len(live))

    # io.durability
    appends = by_name["wal.append"]
    out["wal.append_ms_p50"] = percentile(ms(appends), 50)
    out["wal.fsync_ms_p50"] = percentile(ms(by_name["wal.fsync"]), 50)
    batches = extras.get("batches_committed", 0)
    out["wal.fsyncs_per_batch"] = per(len(under("wal.fsync", appends)), batches)
    out["wal.bytes_per_batch"] = per(
        sum(attrs(span)["bytes"] for span in under("wal.write", appends)), batches)
    snapshots = by_name["snapshot.write"]
    out["snapshot.count"] = float(len(snapshots))
    out["snapshot.ms_p50"] = percentile(ms(snapshots), 50)
    out["snapshot.bytes"] = float(extras.get("snapshot_bytes", 0))
    inside: list = []
    if by_name["registry.restore_all"]:
        last = max(by_name["registry.restore_all"], key=lambda span: span[START])
        inside = [span for span in spans if last[START] <= span[START] and span[END] <= last[END]]
    replays = [span for span in inside if span[NAME] == "query.update"]
    out["recover.snapshot_load_ms"] = sum(
        ms(span for span in inside if span[NAME] == "recover.snapshot_load"))
    out["recover.replay_ms"] = sum(ms(replays))
    out["recover.records_replayed"] = float(len(replays))

    # parser / io.serialization
    out["parse.program_ms"] = percentile(ms(by_name["parse.program"]), 50)
    out["serialization.instance_from_text_ms"] = percentile(
        ms(by_name["serialization.instance_from_text"]), 50)

    # transform.magic / engine.tabling / engine.sharding / load generator
    out["magic.rewrite_count"] = float(len(by_name["magic.rewrite"]))
    out["magic.rewrite_ms_total"] = sum(ms(by_name["magic.rewrite"]))
    for name in ("tabling.hit_ratio", "goal.extension_attempts_p50", "sharding.attempts_imbalance",
                 "loadgen.lag_p99_ms", "loadgen.sent", "loadgen.completed"):
        out[name] = float(extras.get(name, 0.0))

    shares = self_shares(spans, parents, root_start, root_end)
    for name, share in shares.items():
        out[f"{name}.self_share"] = share
    out["trace.share_sum"] = sum(shares.values())
    out["trace.spans"] = float(len(spans))
    return out
