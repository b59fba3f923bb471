"""The three workloads: ``read_http``, ``write_durable`` and ``cold_start``.

Each takes a :class:`Run` (seed, seconds, optional span recorder, scratch
directory inside the checkout), drives the service through its public
surfaces, checks every answer it samples, and returns a dict with the
end-to-end metrics, the request counts, the figures the traced run needs
(``extras``) and the stamps.  See README.md for why each workload exists.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import shutil
import signal
import socket
import sys
import time

import phases
from clients import HttpClient, InProcessClient, open_loop
from phases import WrongAnswer, call, expect, rows  # noqa: F401 — WrongAnswer is re-exported
from util import (
    ALL_CPUS,
    ONE_CPU,
    Graph,
    Speed,
    backlog_growth,
    child_env,
    closure,
    median,
    on_cpus,
    on_one_cpu,
    peak_rss_mb,
    percentile,
    shape_seed,
    zipf_sampler,
)

_now = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))

#: Shape of each workload (documented in README.md; the curve mode overrides some).
READ_HTTP = dict(layers=10, width=16, rate=600.0, connections=2, repeats=9, slice_s=1.0)
WRITE_DURABLE = dict(layers=8, width=12, update_rate=15.0, reads_per_update=40,
                     snapshot_wal_bytes=4_000, repeats=9, slice_s=1.0)
COLD_START = dict(layers=12, width=16, logs=2000, words=400, states=6, tail=24, repeats=5, restores=3)

#: Generator lateness beyond which a run is invalid rather than slow.  In
#: ``write_durable`` the generator shares the interpreter lock with the
#: maintenance thread, so tens of milliseconds of lag are normal there (and
#: counted: latency runs from the due time); a quarter second is not.
MAX_LAG_P99_MS = 250.0

#: Tail percentiles of an open-loop window are taken over groups of slices this long.
P99_GROUP_S = 2.0


class Run:
    """One run's inputs; *shape* overrides entries of the workload's shape (curve mode).

    ``rng`` follows the run seed: node labels, the order of reads and goals,
    the event logs.  ``fixed`` makes every choice that decides how much work
    a request costs — which edges an update touches, which nodes are hot or
    blocked, the NFA — and is the same for every seed but the hold-out
    (:func:`util.shape_seed`), so runs with different seeds are comparable.
    ``speed`` times the kernel beside each measured stretch of work.
    """

    def __init__(self, seed: int, seconds: float, work_dir, recorder=None, shape=None):
        self.seed, self.seconds, self.work_dir, self.recorder = seed, seconds, work_dir, recorder
        self.shape = shape or {}
        self.rng = random.Random(seed)
        self.shape_seed = shape_seed(seed)
        self.fixed = random.Random(self.shape_seed)
        self.speed = Speed()


class InvalidRun(RuntimeError):
    """The load generator fell behind its schedule: not a valid measurement."""


def _lag_check(samples) -> float:
    lag = percentile([(s.sent - s.due) * 1000.0 for s in samples], 99)
    if lag > MAX_LAG_P99_MS:
        raise InvalidRun(f"load generator lag p99 {lag:.1f} ms > {MAX_LAG_P99_MS} ms")
    return lag


async def _sliced_window(run: Run, schedule, slice_s: float, send, on_reply, pid=None,
                         cpus=None) -> "tuple[list, list]":
    """Run *schedule* as back-to-back open loops of *slice_s* seconds each.

    Each slice is one :meth:`Speed.segment` measuring the CPU of *pid* (or of
    this process), with the kernel on *cpus*, the CPU the serving work is
    pinned to; the kernel samples fall between slices, when nothing is due.
    A slice ends when its last request has been answered.  Returns each
    slice's samples and segment.
    """
    slices, segments = [], []
    for index in range(int(max(offset for offset, _, _ in schedule) // slice_s) + 1):
        start = index * slice_s
        part = [(offset - start, kind, spec) for offset, kind, spec in schedule
                if start <= offset < start + slice_s]
        gc.collect()  # start the slice without a pending full collection
        with run.speed.segment(pid, cpus) as segment:
            samples, _ = await open_loop(part, send, on_reply)
        slices.append(samples)
        segments.append(segment)
    return slices, segments


def _slice_p99(slices, slice_s: float, kind: str = "read") -> float:
    """Median over groups of slices of each group's p99 latency of *kind*.

    Latency is in ms from due time.  A tail percentile of one whole run is at
    the mercy of a single stall on a shared machine; the median over groups
    reports the tail a typical group sees.  A group spans :data:`P99_GROUP_S`
    (or one slice, if longer) and should leave ten samples beyond the
    percentile.
    """
    per = max(1, round(P99_GROUP_S / slice_s))
    groups = [[s.latency_ms for part in slices[i:i + per] for s in part
               if s.kind == kind and s.status == 200 and s.error is None]
              for i in range(0, len(slices), per)]
    return median([percentile(group, 99) for group in groups])


def _in_process_app(root, snapshot_wal_bytes=None, recorder=None):
    from repro.service import ServiceApp, SessionRegistry

    kwargs = {} if snapshot_wal_bytes is None else {"snapshot_wal_bytes": snapshot_wal_bytes}
    registry = SessionRegistry(persist_root=root, fsync=True, **kwargs)
    if recorder is not None:
        from spans import traced_shim

        registry.durability_shim = traced_shim(recorder)
    return ServiceApp(registry)


# -- read_http ---------------------------------------------------------------------------


class ServerChild:
    """A ``python -m repro.service`` child (or the tracing launcher) on loopback."""

    def __init__(self, data_dir, trace_out=None, id_base=0):
        self.data_dir, self.trace_out, self.id_base = data_dir, trace_out, id_base
        self.proc = None
        self.port = 0

    async def start(self) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        if self.trace_out is None:
            argv = [sys.executable, "-m", "repro.service"]
        else:
            argv = [sys.executable, os.path.join(HERE, "server.py"),
                    "--trace-out", str(self.trace_out), "--id-base", str(self.id_base)]
        argv += ["--host", "127.0.0.1", "--port", str(self.port), "--data-dir", str(self.data_dir)]
        self.log = open(self.data_dir.parent / f"server-{self.id_base}.log", "wb")
        self.proc = await asyncio.create_subprocess_exec(
            *argv, stdout=asyncio.subprocess.PIPE, stderr=self.log, env=child_env())
        while True:
            line = await asyncio.wait_for(self.proc.stdout.readline(), 120)
            if not line:
                self.log.close()
                sys.stderr.write((self.data_dir.parent / f"server-{self.id_base}.log").read_text())
                raise RuntimeError("the service exited before it started serving")
            if line.startswith(b"repro serving on"):
                break
        self._drain = asyncio.ensure_future(self._drain_stdout())

    async def _drain_stdout(self) -> None:
        while await self.proc.stdout.readline():
            pass

    async def stop(self) -> None:
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            await asyncio.wait_for(self.proc.wait(), 30)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
        await self._drain
        self.log.close()


async def read_http(run: Run) -> dict:
    cfg = {**READ_HTTP, **run.shape}
    rng = run.rng
    graph = Graph(cfg["layers"], cfg["width"], run.seed)
    text = graph.text()
    trace_out = run.work_dir / "server.json" if run.recorder is not None else None
    server = ServerChild(run.work_dir / "data", trace_out, 10**9)
    await server.start()
    client = HttpClient("127.0.0.1", server.port, cfg["connections"], run.recorder)
    try:
        await client.connect()
        setup_s, setups, (reach,) = await phases.create_sets(
            client, lambda repeat: [phases.reach_spec(text)], cfg["repeats"], run.speed,
            server_pid=server.proc.pid)

        # Open-loop point reads over both connections.
        reach_map = closure(graph.edges)
        draw = zipf_sampler(graph.stratified(run.fixed), rng)
        interval = 1.0 / cfg["rate"]
        count = int(run.seconds * cfg["rate"])
        schedule = [(i * interval, "read", phases.read_body(rng, draw, i)) for i in range(count)]
        wrong: list = []

        async def send(sample):
            sample.status, sample.payload = await client.request(
                "POST", f"/v1/sessions/{reach}/query", sample.spec)

        def on_reply(sample):
            if sample.status == 200 and sample.spec["rid"] % 4 == 0:
                if rows(sample.payload, "T") != phases.expected_rows(reach_map, sample.spec["binding"]):
                    wrong.append(sample.spec)
            sample.payload = None

        # The server on one CPU, where the speed kernel runs; the load generator on the other.
        with on_cpus(ONE_CPU, [server.proc.pid]), on_cpus(ALL_CPUS - ONE_CPU or ALL_CPUS):
            slices, window = await _sliced_window(run, schedule, cfg["slice_s"], send, on_reply,
                                                  pid=server.proc.pid, cpus=ONE_CPU)
        samples = [sample for part in slices for sample in part]
        rss = peak_rss_mb(server.proc.pid)
        expect(not wrong, f"{len(wrong)} sampled reads answered wrongly, e.g. {wrong[:1]}")
        lag = _lag_check(samples)
        ok = [s for s in samples if s.status == 200 and s.error is None]
        failed = len(samples) - len(ok)
        read_ms = [(s.due, s.latency_ms) for s in ok]
        await phases.check_full(client, reach, graph.edges, label="after the window")
    finally:
        await client.close()
        await server.stop()

    spans = json.loads(trace_out.read_text()) if trace_out is not None and trace_out.exists() else []
    return {
        "metrics": {
            "setup_s": setup_s,
            "read_p50_ms": percentile([ms for _, ms in read_ms], 50),
            "read_p99_ms": _slice_p99(slices, cfg["slice_s"]),
            "cpu_ms_per_request": sum(segment.ref_cpu for segment in window) * 1000.0 / max(1, len(ok)),
            "peak_rss_mb": rss,
            "failed_frac": failed / max(1, len(samples)),
        },
        "attempted": len(samples),
        "failed": failed,
        "child_spans": spans,
        "extras": {
            "loadgen.lag_p99_ms": lag,
            "loadgen.sent": len(samples),
            "loadgen.completed": len(ok),
            "shed_count": sum(1 for s in samples if s.status == 429),
        },
        "detail": {
            "setup_wall_s": [segment.wall for segment in setups],
            "cpu_ms_per_request_raw": sum(segment.cpu for segment in window) * 1000.0 / max(1, len(ok)),
            "window_s": sum(segment.wall for segment in window),
            "offered_rps": cfg["rate"],
            "reads": len(samples),
            "read_p99_whole_window_ms": percentile([ms for _, ms in read_ms], 99),
            "backlog_growth": backlog_growth(read_ms),
        },
    }


# -- write_durable -----------------------------------------------------------------------


async def write_durable(run: Run) -> dict:
    cfg = {**WRITE_DURABLE, **run.shape}
    rng = run.rng
    graph = Graph(cfg["layers"], cfg["width"], run.seed)
    text = graph.text()
    data = run.work_dir / "data"
    app = _in_process_app(data, cfg["snapshot_wal_bytes"], run.recorder)
    client = InProcessClient(app)
    try:
        setup_s, setups, (sid,) = await phases.create_sets(
            client, lambda repeat: [phases.reach_spec(text, persist=f"wd{repeat}")],
            cfg["repeats"], run.speed, data)
        handle = app.registry.get(sid)
        base_generation = handle.generation

        # A fixed schedule: one update every 1/rate s, reads evenly in between.
        stream = phases.UpdateStream(graph, run.fixed)
        draw = zipf_sampler(graph.stratified(run.fixed), rng)
        per = cfg["reads_per_update"]
        interval = 1.0 / cfg["update_rate"]
        schedule, batches = [], []
        for i in range(int(run.seconds * cfg["update_rate"])):
            additions, retractions = stream.next()
            batches.append((additions, retractions))
            schedule.append((i * interval, "update", {"add": additions, "retract": retractions, "index": i}))
            for j in range(per):
                schedule.append(((i + (j + 1) / (per + 1)) * interval, "read",
                                 phases.read_body(rng, draw, len(schedule))))
        schedule.sort(key=lambda item: item[0])

        async def send(sample):
            spec = sample.spec
            if sample.kind == "update":
                body = {"add": spec["add"], "retract": spec["retract"]}
                sample.status, sample.payload = await client.request(
                    "POST", f"/v1/sessions/{sid}/update", body)
            else:
                sample.status, sample.payload = await client.request(
                    "POST", f"/v1/sessions/{sid}/query", spec)

        checked: list = []

        def on_reply(sample):
            if sample.status != 200:
                return
            if sample.kind == "update":
                sample.payload = {"generation": sample.payload["generation"],
                                  "batches": sample.payload["coalesced_batches"]}
            elif sample.spec["rid"] % 5 == 0:
                checked.append((sample.payload["generation"], sample.spec["binding"],
                                rows(sample.payload, "T")))
                sample.payload = None
            else:
                sample.payload = None

        # One CPU for every thread: they take turns on the interpreter lock anyway.
        with on_one_cpu():
            slices, window = await _sliced_window(run, schedule, cfg["slice_s"], send, on_reply)
        samples = [sample for part in slices for sample in part]
        rss = peak_rss_mb()
        lag = _lag_check(samples)
        ok = [s for s in samples if s.status == 200 and s.error is None]
        failed = len(samples) - len(ok)
        updates = [s for s in ok if s.kind == "update"]
        expect(len(updates) == len(batches), f"{len(batches) - len(updates)} updates were not acked")

        # Every sampled read saw exactly the acked prefix of its generation.
        generation_of = {s.spec["index"]: s.payload["generation"] for s in updates}
        edges = set(graph.edges)
        cursor = 0
        order = sorted(range(len(batches)), key=lambda k: (generation_of[k], k))
        expect(order == list(range(len(batches))), "acks are not in arrival order")
        for generation, binding, got in sorted(checked, key=lambda item: item[0]):
            while cursor < len(batches) and generation_of[cursor] <= generation:
                phases.apply_batch(edges, *batches[cursor])
                cursor += 1
            want = phases.expected_rows(closure(edges), binding)
            expect(got == want, f"read at generation {generation} of {binding} answered wrongly")
        passes = len({s.payload["generation"] for s in updates})
        stats = handle.stats()
        last_generation = handle.generation
        snapshot_bytes = _newest_snapshot_bytes(data / "default" / f"wd{cfg['repeats'] - 1}")
    finally:
        app.close()

    # Durability contract: a fresh registry restores every acked batch.
    restored_app = _in_process_app(data, cfg["snapshot_wal_bytes"], run.recorder)
    try:
        handles = await restored_app.registry.restore_all()
        expect(len(handles) == 1, f"restore_all brought back {len(handles)} sessions")
        expect(handles[0].generation == last_generation,
               f"restored generation {handles[0].generation}, last ack {last_generation}")
        await phases.check_full(InProcessClient(restored_app), handles[0].session_id, stream.edges,
                                label="restored")
    finally:
        restored_app.close()

    read_ms = [(s.due, s.latency_ms) for s in ok if s.kind == "read"]
    update_ms = [s.latency_ms for s in updates]
    return {
        "metrics": {
            "setup_s": setup_s,
            "read_p50_ms": percentile([ms for _, ms in read_ms], 50),
            "read_p99_ms": _slice_p99(slices, cfg["slice_s"]),
            "update_p50_ms": percentile(update_ms, 50),
            "update_p95_ms": percentile(update_ms, 95),
            "cpu_ms_per_request": sum(segment.ref_cpu for segment in window) * 1000.0 / max(1, len(ok)),
            "peak_rss_mb": rss,
            "failed_frac": failed / max(1, len(samples)),
        },
        "attempted": len(samples),
        "failed": failed,
        "extras": {
            "loadgen.lag_p99_ms": lag,
            "loadgen.sent": len(samples),
            "loadgen.completed": len(ok),
            "shed_count": sum(1 for s in samples if s.status == 429),
            "batches_committed": len(updates),
            "snapshot_bytes": snapshot_bytes,
        },
        "detail": {
            "setup_wall_s": [segment.wall for segment in setups],
            "cpu_ms_per_request_raw": sum(segment.cpu for segment in window) * 1000.0 / max(1, len(ok)),
            "window_s": sum(segment.wall for segment in window),
            "offered_updates_per_s": cfg["update_rate"],
            "batches_per_pass": len(updates) / max(1, passes),
            "read_p99_whole_window_ms": percentile([ms for _, ms in read_ms], 99),
            "backlog_growth": backlog_growth([(s.due, s.latency_ms) for s in updates]),
            "snapshots_written": stats["snapshots_written"],
            "generations": last_generation - base_generation,
        },
    }


def _newest_snapshot_bytes(directory) -> int:
    snapshots = sorted(directory.glob("snapshot-*.json"))
    return snapshots[-1].stat().st_size if snapshots else 0


# -- cold_start --------------------------------------------------------------------------


async def cold_start(run: Run) -> dict:
    cfg = {**COLD_START, **run.shape}
    from repro.io.serialization import instance_to_text, path_to_text
    from repro.queries.canonical import get_query
    from repro.workloads import random_event_log_instance, random_nfa_instance

    rng = run.rng
    graph = Graph(cfg["layers"], cfg["width"], run.seed)
    blocked = phases.pick_blocked(graph, run.fixed)
    text = graph.text()
    compliance = get_query("process_compliance")
    nfa = get_query("nfa_acceptance")
    logs = random_event_log_instance(logs=cfg["logs"], max_events=8, seed=run.seed)
    # The NFA's shape is fixed like the graph's; the event logs follow the seed.
    words = random_nfa_instance(states=cfg["states"], transitions=14, words=cfg["words"],
                                max_word_length=8, seed=run.shape_seed)
    want_compliance = {(path_to_text(p),) for p in compliance.reference(logs)}
    want_nfa = {(path_to_text(p),) for p in nfa.reference(words)}
    logs_text, words_text = instance_to_text(logs), instance_to_text(words)

    def specs(repeat):
        return [
            phases.reach_spec(text),
            {"program": compliance.program_text, "instance": logs_text, "output_relation": "S"},
            {"program": nfa.program_text, "instance": words_text, "output_relation": "A"},
        ]

    # Every phase is a speed segment; their reference CPU gives cpu_ms_per_request.
    segments: list = []
    setup, setup_wall, restore, goal_ms, sharded = [], [], [], [], []
    tabled = 0
    attempts: list = []
    imbalance: list = []
    requests = 0
    # One CPU for all but the sharded build, so the speed kernel shares it with the work.
    with on_one_cpu():
        started = _now()
        cycle = 0
        while cycle == 0 or _now() - started < run.seconds:
            data = run.work_dir / f"cycle{cycle}"
            # Create: three default-option sessions from text, checked.
            app = _in_process_app(data, recorder=run.recorder)
            client = InProcessClient(app)
            try:
                setup_s, created, (reach, comp, acc) = await phases.create_sets(
                    client, specs, cfg["repeats"], run.speed)
                setup.append(setup_s)
                setup_wall += [segment.wall for segment in created]
                segments += created
                with run.speed.segment() as segment:
                    got = await call(client, "POST", f"/v1/sessions/{comp}/query", {})
                    expect(rows(got, "S") == want_compliance, "process_compliance differs from its reference")
                    got = await call(client, "POST", f"/v1/sessions/{acc}/query", {})
                    expect(rows(got, "A") == want_nfa, "nfa_acceptance differs from its reference")
                    await phases.check_full(client, reach, graph.edges, label="created")
                    persisted = await call(client, "POST", "/v1/sessions",
                                           phases.reach_spec(text, persist="tail"))
                segments.append(segment)
                requests += 3 * cfg["repeats"] + 3 + 1

                # Restart: the persisted session gets a stationary WAL tail, one segment a commit.
                stream = phases.UpdateStream(graph, run.fixed)
                for _ in range(cfg["tail"]):
                    additions, retractions = stream.structural()
                    with run.speed.segment() as segment:
                        await call(client, "POST", f"/v1/sessions/{persisted['session']}/update",
                                   {"add": additions, "retract": retractions})
                    segments.append(segment)
                requests += cfg["tail"]

                # Goals on non-materialized sessions, one segment a program.
                specs_by_program = {"reach": phases.reach_spec(text, materialize=False),
                                    "blocked": phases.blocked_spec(text, blocked, materialize=False)}
                for program, spec in specs_by_program.items():
                    with run.speed.segment() as segment:
                        session = (await call(client, "POST", "/v1/sessions", spec))["session"]
                        goals = await phases.goal_burst(
                            client, {program: session}, graph, blocked, rng, run.fixed)
                    segments.append(segment)
                    goal_ms += goals["latencies"]
                    tabled += goals["tabled"]
                    attempts += goals["attempts"]
                    requests += 1 + len(goals["latencies"])

                # Sharded build over two worker processes, on every CPU.
                gc.collect()
                with on_cpus(ALL_CPUS):
                    with run.speed.segment() as segment:
                        shard = await call(client, "POST", "/v1/sessions",
                                           phases.reach_spec(text, shards=2, executor="process"))
                    await phases.check_full(client, shard["session"], graph.edges, label="sharded")
                    stats = await call(client, "GET", f"/v1/sessions/{shard['session']}")
                    await call(client, "DELETE", f"/v1/sessions/{shard['session']}")
                segments.append(segment)
                sharded.append(segment.wall)
                per_shard = stats["sharding"]["per_shard_extension_attempts"]
                imbalance.append(max(per_shard) / (sum(per_shard) / len(per_shard)) if sum(per_shard) else 1.0)
                requests += 1
            finally:
                app.close()

            # Restore the tail session several times; each up to its first read.
            for _ in range(cfg["restores"]):
                gc.collect()
                with run.speed.segment() as segment:
                    restore_started = _now()
                    restored_app = _in_process_app(data, recorder=run.recorder)
                    try:
                        handles = await restored_app.registry.restore_all()
                        expect(len(handles) == 1, f"restore_all brought back {len(handles)} sessions")
                        await call(InProcessClient(restored_app), "POST",
                                   f"/v1/sessions/{handles[0].session_id}/query", {"binding": {"0": "l0n0"}})
                        restore.append(_now() - restore_started)
                        await phases.check_full(InProcessClient(restored_app), handles[0].session_id,
                                                stream.edges, label="restored tail")
                    finally:
                        restored_app.close()
                segments.append(segment)
                requests += 2
            shutil.rmtree(data, ignore_errors=True)
            cycle += 1

    return {
        "metrics": {
            "setup_s": median(setup),
            "cpu_ms_per_request": sum(segment.ref_cpu for segment in segments) * 1000.0 / requests,
            "peak_rss_mb": peak_rss_mb(),
            "restore_s": median(restore),
            "goal_p50_ms": percentile(goal_ms, 50),
            "goal_p95_ms": percentile(goal_ms, 95),
            "sharded_setup_s": median(sharded),
            "failed_frac": 0.0,
        },
        "attempted": requests,
        "failed": 0,
        "extras": {
            "tabling.hit_ratio": tabled / max(1, len(goal_ms)),
            "goal.extension_attempts_p50": percentile(attempts, 50),
            "sharding.attempts_imbalance": median(imbalance),
            "batches_committed": cfg["tail"] * cycle,
        },
        "detail": {
            "cycles": cycle,
            "setup_s_per_cycle": setup,
            "setup_wall_s": setup_wall,
            "cpu_ms_per_request_raw": sum(segment.cpu for segment in segments) * 1000.0 / requests,
            "restore_s_samples": restore,
        },
    }


WORKLOADS = {"read_http": read_http, "write_durable": write_durable, "cold_start": cold_start}
__all__ = ["WORKLOADS", "Run", "InvalidRun", "WrongAnswer"]
