"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload read_http --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the result carries every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` the workload runs once untraced and
once with the span wrappers installed, and the result carries every
per-layer metric instead (the untraced run gives ``trace.overhead_frac``).
The line before the result is a ``{"detail": ...}`` object with the validity
stamps and, under ``not_gated``, the end-to-end figures the workload
measures that ``BENCHMARK.json`` does not gate (see README.md).  A wrong answer
prints ``"correct": false`` and exits 1; a run whose load generator fell
behind its schedule is invalid and exits 3 without a result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from util import ROOT, WORK, cpu_ticks, emit, require_source, stamps  # noqa: E402

#: Tolerance on the self-time shares summing to 1 (they do by construction;
#: anything more than rounding is a bug in the attribution).
SHARE_TOLERANCE = 1e-6


def _unit(name: str) -> str:
    """The unit a metric's name ends in (``_ms``, ``_s``, ``_mb``, ``_frac``)."""
    return {"ms": "ms", "s": "s", "mb": "MB", "frac": "frac"}.get(name.rsplit("_", 1)[-1], "count")


def _load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        print(f"perfbench: {path} is missing", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    contract = _load_contract()
    require_source()

    import layers
    from spans import Recorder, install
    from workloads import WORKLOADS, InvalidRun, Run, WrongAnswer

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def once(recorder=None, tag="plain") -> dict:
        directory = work / tag
        directory.mkdir()
        return asyncio.run(workload(Run(args.seed, args.seconds, directory, recorder)))

    steal0, total0 = cpu_ticks()
    try:
        untraced = once()
        if args.trace:
            recorder = Recorder()
            uninstall = install(recorder)
            root_start = time.perf_counter_ns()
            try:
                traced = once(recorder, "traced")
            finally:
                root_end = time.perf_counter_ns()
                uninstall()
            spans = recorder.spans + traced.get("child_spans", [])
            figures = layers.metrics(spans, root_start, root_end, traced["extras"])
            base = untraced["metrics"]["cpu_ms_per_request"]
            figures["trace.overhead_frac"] = traced["metrics"]["cpu_ms_per_request"] / base - 1.0
            if abs(figures["trace.share_sum"] - 1.0) > SHARE_TOLERANCE:
                print(f"perfbench: self shares sum to {figures['trace.share_sum']}", file=sys.stderr)
                return 4
            declared = contract["per_layer"]
            values = figures
            detail = dict(untraced["detail"], traced_metrics=traced["metrics"],
                          untraced_metrics=untraced["metrics"], spans=len(spans))
        else:
            declared = contract["end_to_end"]
            values = untraced["metrics"]
            gated = {metric["name"] for metric in declared}
            detail = dict(untraced["detail"], not_gated={
                name: {"value": value, "unit": _unit(name)}
                for name, value in values.items() if name not in gated
            })
    except WrongAnswer as error:
        print(f"perfbench: wrong answer: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except InvalidRun as error:
        print(f"perfbench: invalid run: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from workloads import COLD_START, READ_HTTP, WRITE_DURABLE

    shapes = {"read_http": READ_HTTP, "write_durable": WRITE_DURABLE, "cold_start": COLD_START}
    steal1, total1 = cpu_ticks()
    detail = dict(detail, stamps=stamps(
        args.seed,
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        fsync="nothing persisted" if args.workload == "read_http" else True,
        snapshot_wal_bytes=WRITE_DURABLE["snapshot_wal_bytes"] if args.workload == "write_durable" else "default",
        shape=shapes[args.workload],
        valid=True,
        steal_frac=(steal1 - steal0) / max(1, total1 - total0),
    ))
    result = {
        "correct": True,
        "attempted": int(untraced["attempted"]),
        "failed": int(untraced["failed"]),
        "metrics": {
            metric["name"]: {"value": float(values.get(metric["name"], 0.0)), "unit": metric["unit"]}
            for metric in declared
        },
    }
    emit(result, detail)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
