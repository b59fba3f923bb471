"""Curve mode: latency against offered rate, and O(1)-update cost against |T|.

    python3 perfbench/curves.py --seed 1 --out perfbench/CURVES.md

Not part of the gated runs.  It sweeps the offered rate of ``read_http`` and
of ``write_durable`` (each point creating its session once), reports each
point's latency percentiles, CPU per request, generator lag and backlog
growth, and names the highest rate that meets the stated limit without a
growing backlog.  It then sweeps the graph width under the
``write_durable`` session and times single disconnected-edge updates (an
O(1) delta) against the materialization size |T|.  The tables are written
as Markdown to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import platform
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from util import WORK, Graph, median, require_source  # noqa: E402

READ_LIMIT_P99_MS = 10.0
UPDATE_LIMIT_P95_MS = 250.0
#: Backlog is "growing" when the last fifth of a window's requests waits more
#: than twice as long (p50, from due time) as the first fifth.
BACKLOG_GROWTH_LIMIT = 2.0
#: The sweeps measure windows only, so each point creates its session once.  A
#: window runs as one open loop (not in slices), so a growing backlog shows.
TOKEN = dict(repeats=1)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _sweep(workload, name: str, rates, rate_key: str, seed: int, seconds: float, limit_metric: str,
           limit: float, work) -> "tuple[list, str]":
    from workloads import InvalidRun, Run

    rows, best = [], None
    for rate in rates:
        directory = work / f"{name}-{rate}"
        directory.mkdir(parents=True)
        try:
            shape = {rate_key: rate, "slice_s": seconds, **TOKEN}
            result = asyncio.run(workload(Run(seed, seconds, directory, shape=shape)))
        except InvalidRun as error:
            rows.append(f"| {rate:g} | invalid: {error} | | | | | |")
            continue
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        m, d = result["metrics"], result["detail"]
        growth = d["backlog_growth"]
        meets = m[limit_metric] <= limit and growth <= BACKLOG_GROWTH_LIMIT
        if meets:
            best = rate
        kind = "read" if name == "read_http" else "update"
        tail = "p99" if kind == "read" else "p95"
        rows.append(
            f"| {rate:g} | {m[f'{kind}_p50_ms']:.2f} | {m[f'{kind}_{tail}_ms']:.2f} | "
            f"{m['cpu_ms_per_request']:.3f} | {result['extras']['loadgen.lag_p99_ms']:.2f} | "
            f"{growth:.2f} | {'yes' if meets else 'no'} |"
        )
    return rows, (f"{best:g}/s" if best is not None else "none of the rates tried")


async def _width_point(width: int, seed: int, updates: int) -> "tuple[int, float, float]":
    import phases
    from clients import InProcessClient
    from repro.service import ServiceApp

    graph = Graph(8, width, seed)
    app = ServiceApp()
    client = InProcessClient(app)
    try:
        session = (await phases.call(client, "POST", "/v1/sessions", phases.reach_spec(graph.text())))["session"]
        full = await phases.call(client, "POST", f"/v1/sessions/{session}/query", {})
        size = len(full["answers"]["T"])
        latencies, passes = [], []
        for index in range(updates):
            started = time.perf_counter()
            ack = await phases.call(client, "POST", f"/v1/sessions/{session}/update",
                                    {"add": [["E", f"x{index}", f"y{index}"]]})
            latencies.append((time.perf_counter() - started) * 1000.0)
            passes.append(ack["update"]["statistics"]["extension_attempts"])
        return size, median(latencies), median(passes)
    finally:
        app.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--out", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "CURVES.md"))
    args = parser.parse_args()
    require_source()
    from workloads import WRITE_DURABLE, read_http, write_durable

    work = WORK / f"curves-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        read_rows, read_best = _sweep(read_http, "read_http", [300, 600, 1200, 1800, 2400], "rate",
                                      args.seed, args.seconds, "read_p99_ms", READ_LIMIT_P99_MS, work)
        write_rows, write_best = _sweep(write_durable, "write_durable", [5, 10, 20, 30, 45], "update_rate",
                                        args.seed, args.seconds, "update_p95_ms", UPDATE_LIMIT_P95_MS, work)
        width_rows = []
        for width in (4, 8, 16, 24, 32):
            size, ms, attempts = asyncio.run(_width_point(width, args.seed, 40))
            width_rows.append(f"| 8×{width} | {size} | {ms:.2f} | {attempts:g} |")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    header = (
        "| offered rate | p50 ms | tail ms | reference CPU ms/request | generator lag p99 ms | backlog growth "
        "| meets limit |\n"
        "|---|---|---|---|---|---|---|"
    )
    text = f"""# Curves

Written by `python3 perfbench/curves.py --seed {args.seed} --seconds {args.seconds:g}`
on {os.cpu_count()} virtual CPUs ({_cpu_model()}) shared with other guests,
Python {platform.python_version()}, a virtual disk: fsync and latency figures
are that machine's, not a dedicated storage device's.  Latency is timed from each request's due time (open loop).
Each window is one open loop (the gated runs slice theirs), on the same CPUs
as in the gated runs; CPU per request is in reference ms (see README.md).
"Backlog growth" is the p50 latency of the window's last fifth of requests
over its first fifth; above {BACKLOG_GROWTH_LIMIT:g} the queue is growing.

## read_http: read latency against offered rate

Limit: read p99 ≤ {READ_LIMIT_P99_MS:g} ms without a growing backlog.
Highest rate tried that meets it: **{read_best}**.

{header}
{chr(10).join(read_rows)}

## write_durable: update latency against offered update rate

{WRITE_DURABLE["reads_per_update"]} reads per update ride along.  Limit: update p95 ≤ {UPDATE_LIMIT_P95_MS:g} ms
without a growing backlog.  Highest rate tried that meets it: **{write_best}**.

{header}
{chr(10).join(write_rows)}

## write_durable: cost of one O(1) update against |T|

A reachability-pairs session over an 8-layer graph of growing width; each
update adds one disconnected edge (one new T fact), sequentially, without
persistence.  A maintenance pass that cost O(Δ) would stay flat.

| graph | \\|T\\| | update ms (median of 40) | extension attempts per update |
|---|---|---|---|
{chr(10).join(width_rows)}
"""
    with open(args.out, "w") as handle:
        handle.write(text)
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
