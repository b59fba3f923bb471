"""Shared helpers: inputs from a seed, the BFS oracle, statistics, process figures.

Everything here is deterministic in its arguments; nothing touches the
engine under test except through the public ``repro`` package.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import platform
import random
import resource
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: The hold-out seed.  It also draws a new graph shape, update picks and
#: hot/blocked nodes, so a claimed gain is checked on a different graph
#: (every other seed runs the shape drawn from :data:`SHAPE_SEED`).
HOLDOUT_SEED = 1_000_003
SHAPE_SEED = 0

REACH_PROGRAM = "T(@x, @y) :- E(@x, @y).\nT(@x, @z) :- T(@x, @y), E(@y, @z).\n"
BLOCKED_PROGRAM = (
    "Blocked(@x) :- Blocklist(@x).\n"
    "T(@x, @y) :- E(@x, @y), not Blocked(@y).\n"
    "T(@x, @z) :- T(@x, @y), E(@y, @z), not Blocked(@z).\n"
)


def require_source() -> None:
    """Fail fast (non-zero exit, no result line) when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child processes: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


# -- inputs ------------------------------------------------------------------------------


class Graph:
    """A layered DAG (``layers`` × ``width``) with the acked EDB the generator knows.

    The shape — which positions connect — comes from :func:`shape_seed` and
    is the same for every run seed but the hold-out: every node has
    ``fanout`` distinct random successors in the next layer.  Otherwise the
    run *seed* only relabels nodes (a permutation within each layer), so
    those seeds get isomorphic graphs and the same costs, while names, hash
    order and the request streams drawn over them change.  ``nodes[i]`` lists layer *i* in shape order;
    ``edges`` is the live EDB and the oracle's ground truth.
    """

    def __init__(self, layers: int, width: int, seed: int, fanout: int = 2):
        self.layers, self.width = layers, width
        shape, labels = random.Random(shape_seed(seed)), random.Random(seed)
        self.nodes = []
        for i in range(layers):
            names = list(range(width))
            labels.shuffle(names)
            self.nodes.append([f"l{i}n{name}" for name in names])
        self.position = {node: (i, j) for i, row in enumerate(self.nodes) for j, node in enumerate(row)}
        self.layer_of = {node: i for node, (i, _) in self.position.items()}
        self.edges: set = set()
        for i in range(layers - 1):
            for source in self.nodes[i]:
                for target in shape.sample(range(width), fanout):
                    self.edges.add((source, self.nodes[i + 1][target]))

    def shape_key(self, edge) -> tuple:
        """Sort key of an edge by node positions (independent of the labels)."""
        return self.position[edge[0]], self.position[edge[1]]

    def stratified(self, rng: random.Random) -> list:
        """Every node once, rank *r* drawn from layer ``r mod layers``.

        A popularity ranking over this order gives each seed hot keys spread
        over all layers, so answer sizes (and costs) do not depend on which
        nodes the seed happened to make hot.
        """
        columns = [rng.sample(row, len(row)) for row in self.nodes]
        return [columns[layer][index] for index in range(self.width) for layer in range(self.layers)]

    def text(self) -> str:
        return "".join(f"E({s}, {t}).\n" for s, t in sorted(self.edges))


def shape_seed(seed: int) -> int:
    """The seed of the work's shape for run *seed* (see :data:`HOLDOUT_SEED`)."""
    return seed if seed == HOLDOUT_SEED else SHAPE_SEED


def closure(edges, blocked: "frozenset | set" = frozenset()) -> "dict[str, set]":
    """Reachability pairs by BFS from every source: ``{x: {y, ...}}``.

    With *blocked*, paths may not enter a blocked node (the negation program).
    """
    succ: dict = {}
    for source, target in edges:
        succ.setdefault(source, set()).add(target)
    reach: dict = {}
    for source in succ:
        seen: set = set()
        frontier = [t for t in succ[source] if t not in blocked]
        seen.update(frontier)
        while frontier:
            node = frontier.pop()
            for nxt in succ.get(node, ()):
                if nxt not in seen and nxt not in blocked:
                    seen.add(nxt)
                    frontier.append(nxt)
        if seen:
            reach[source] = seen
    return reach


def pairs(reach: "dict[str, set]") -> "set[tuple[str, str]]":
    return {(x, y) for x, ys in reach.items() for y in ys}


def zipf_sampler(order: list, rng: random.Random, s: float = 1.1):
    """Draw from *order* with Zipf(s) weights by rank (``order[0]`` hottest)."""
    weights = [1.0 / (rank + 1) ** s for rank in range(len(order))]
    cumulative, total = [], 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)

    def draw() -> str:
        return rng.choices(order, cum_weights=cumulative, k=1)[0]

    return draw


# -- statistics --------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return float(ordered[rank])


def median(values) -> float:
    return percentile(values, 50)


def backlog_growth(samples) -> float:
    """p50 latency of the last fifth of *samples* (by due time) over the first fifth."""
    ordered = [latency for _, latency in sorted(samples)]
    fifth = max(1, len(ordered) // 5)
    first = median(ordered[:fifth])
    return median(ordered[-fifth:]) / first if first else 0.0


# -- machine speed -----------------------------------------------------------------------

#: Seconds :func:`speed_kernel` takes on the reference machine (2 shared
#: vCPUs, Python 3.11; see README.md).  Only ratios to a run's own kernel
#: timings are used; the constant just keeps reference seconds close to that
#: machine's raw ones.  Changing it rescales every reference-second figure.
KERNEL_REFERENCE_S = 0.006


class _Node:
    __slots__ = ("name", "successors")

    def __init__(self, name: str):
        self.name, self.successors = name, []


def speed_kernel() -> int:
    """A fixed pure-Python job shaped like the engine's: objects, tuples, sets, BFS.

    It uses nothing from ``repro``, so a change to the program never changes
    its cost; only the machine's speed does.
    """
    nodes = [_Node(f"n{i}") for i in range(400)]
    for i, node in enumerate(nodes[:-1]):
        node.successors = [nodes[(i * 7 + step) % 400] for step in (1, 3)]
    found = 0
    for start in nodes[:30]:
        stack, seen = [start], set()
        while stack:
            for nxt in stack.pop().successors:
                if (start.name, nxt.name) not in seen:
                    seen.add((start.name, nxt.name))
                    stack.append(nxt)
        found += len(frozenset(seen))
    return found


#: The CPUs this process may run on when it starts, and the one scaled work runs on.
ALL_CPUS = frozenset(os.sched_getaffinity(0))
ONE_CPU = frozenset({min(ALL_CPUS)})


def _set_affinity(pid: int, mask) -> None:
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), mask)
        except ProcessLookupError:  # the thread ended meanwhile
            pass


@contextlib.contextmanager
def on_cpus(mask, pids=None):
    """Run every thread of processes *pids* (default: this one) on the CPUs in *mask*.

    Threads and processes started inside inherit the mask; on the way out
    every thread of each process gets that process's previous mask back.
    """
    previous = {pid: os.sched_getaffinity(pid) for pid in (pids or (os.getpid(),))}
    for pid in previous:
        _set_affinity(pid, mask)
    try:
        yield
    finally:
        for pid, old in previous.items():
            _set_affinity(pid, old)


def on_one_cpu(pids=None):
    """:func:`on_cpus` with a single CPU, so the work and :func:`speed_kernel` share it.

    The two vCPUs of the reference machine do not change speed in step, and
    a session's engine calls run on an executor thread the scheduler may
    place on either; timed beside work on the other CPU, the kernel tracked
    it worse than not scaling at all.
    """
    return on_cpus(ONE_CPU, pids)


class Segment:
    """Measured work: raw wall and CPU seconds, and both in reference seconds."""

    wall = cpu = ref_wall = ref_cpu = 0.0

    def __iadd__(self, other: "Segment") -> "Segment":
        self.wall += other.wall
        self.cpu += other.cpu
        self.ref_wall += other.ref_wall
        self.ref_cpu += other.ref_cpu
        return self


class Speed:
    """Samples of the machine's speed, taken right beside the work they scale.

    On a 2-vCPU shared VM the speed flips between two states about 1.6×
    apart, every few seconds, as other load comes and goes: the same engine
    work, with the same extension-attempt counts, took 0.34 s or 0.56 s in
    one process.  :func:`speed_kernel` slows down in step (5.0 against
    8.3 ms).  ``segment()`` times a stretch of work with a kernel sample
    (median of *repeats*) on either side; dividing by the kernel's time and
    multiplying by :data:`KERNEL_REFERENCE_S` gives *reference seconds*, the
    time the work would have taken at the reference machine's kernel speed.
    """

    def __init__(self, repeats: int = 3):
        self.repeats = repeats
        self.samples: list = []

    def sample(self, cpus=None) -> "tuple[float, float]":
        """Time the kernel (on *cpus*, if given); returns its median ``(wall, thread CPU)`` seconds."""
        previous = os.sched_getaffinity(0)
        if cpus is not None:
            os.sched_setaffinity(0, cpus)  # this thread only
        walls, cpu_times = [], []
        try:
            for _ in range(self.repeats):
                wall, cpu = time.perf_counter(), time.thread_time()
                speed_kernel()
                walls.append(time.perf_counter() - wall)
                cpu_times.append(time.thread_time() - cpu)
        finally:
            if cpus is not None:
                os.sched_setaffinity(0, previous)
        self.samples.append((median(walls), median(cpu_times)))
        return self.samples[-1]

    @contextlib.contextmanager
    def segment(self, pid: "int | None" = None, cpus=None):
        """Measure the enclosed work: CPU of this process, or of child *pid*.

        The kernel runs on *cpus* — the CPU the work runs on — if given.
        """
        before = self.sample(cpus)
        segment = Segment()
        cpu, wall = process_cpu_s(pid), time.perf_counter()
        yield segment
        segment.wall = time.perf_counter() - wall
        segment.cpu = process_cpu_s(pid) - cpu
        after = self.sample(cpus)
        segment.ref_wall = segment.wall * 2 * KERNEL_REFERENCE_S / (before[0] + after[0])
        segment.ref_cpu = segment.cpu * 2 * KERNEL_REFERENCE_S / (before[1] + after[1])


# -- process figures ---------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: "int | None" = None) -> float:
    """User+system CPU seconds of this process (or of child *pid*, via /proc)."""
    if pid is None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: "int | None" = None) -> float:
    """Peak resident set size in MB (``VmHWM``) of this process or child *pid*."""
    target = "self" if pid is None else str(pid)
    with open(f"/proc/{target}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_ticks() -> "tuple[int, int]":
    """``(steal, total)`` CPU ticks of the machine so far, from ``/proc/stat``.

    Steal is time the hypervisor gave the machine's CPUs to another guest; a
    run with a large steal share measured a contended host.
    """
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def commit_id() -> str:
    """The checkout's commit when it is itself a git work tree, else ``unknown``."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest() -> str:
    """A digest of every file under ``src/`` — identifies the code without git."""
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def stamps(seed: int, **extra) -> dict:
    """The validity stamps every result records."""
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit_id(),
        "source_digest": source_digest(),
        **extra,
    }


def emit(result: dict, detail: dict) -> None:
    """Print the detail line, then the result line (always the last line)."""
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
