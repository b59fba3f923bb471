"""Traced runs: spans recorded around the public entry points of each layer.

The wrappers live here, in the benchmark, not in the program: :func:`install`
patches the public functions and methods of each ``repro`` module in place
(and every module binding that imported the same function object), and
returns a callable that restores the originals.  Spans are kept in memory
and written out when the run ends.

A span is ``[id, name, start_ns, end_ns, parent_id, thread_id, attrs]``.  The
parent comes from a :class:`contextvars.ContextVar`, so spans nest per asyncio
task and per thread.  ``loop.run_in_executor`` does not copy the context, so
work the service hands to its executor thread starts parentless there;
:func:`layers.link` re-attaches it afterwards (a maintenance pass to every
``enqueue_update`` it acked, other executor work to the awaiting call).

:func:`layers.self_shares` splits the root span's wall time among layers.  Each
instant goes to the innermost spans active then — spans with no active
child — divided evenly when several run concurrently; instants with no span
but the root go to ``untraced``.  The shares therefore sum to 1 up to
floating-point rounding.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time

_now = time.perf_counter_ns

#: Span-name prefix → layer, for the self-time shares (first match wins).
LAYERS = [
    ("http.", "http"),
    ("core.", "core"),
    ("registry.", "core"),
    ("query.", "query"),
    ("maintenance.", "maintenance"),
    ("storage.", "storage"),
    ("wal.", "durability"),
    ("snapshot.", "durability"),
    ("recover.", "durability"),
    ("parse.", "parse"),
    ("serialization.", "serialization"),
    ("magic.", "magic"),
    ("tabling.", "tabling"),
    ("sharding.", "sharding"),
]
LAYER_NAMES = sorted({layer for _, layer in LAYERS})

ID, NAME, START, END, PARENT, THREAD, ATTRS = range(7)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "untraced"


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self, id_base: int = 0):
        self.spans: list = []
        self._ids = itertools.count(id_base + 1)
        self.current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
        #: Per-thread most recent ``query.update`` span (to tag it with the
        #: generation the following ``log_commit`` writes).
        self.local = threading.local()

    def open(self, name: str, attrs: "dict | None" = None) -> list:
        parent = self.current.get()
        span = [next(self._ids), name, _now(), 0, parent[ID] if parent else None,
                threading.get_ident(), attrs if attrs is not None else {}]
        self.spans.append(span)
        return span

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _wrap(recorder: Recorder, name: str, fn, hook=None, cpu: bool = False, leaf: bool = False):
    """A span-recording wrapper for sync or async *fn*.

    *hook(span, args, kwargs, result)* adds attributes after the call; *leaf*
    skips setting the context (for hot functions that call nothing traced).
    """
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            span = recorder.open(name)
            token = recorder.current.set(span)
            cpu0 = time.thread_time_ns() if cpu else 0
            try:
                result = await fn(*args, **kwargs)
            except BaseException as error:
                span[ATTRS]["error"] = type(error).__name__
                raise
            finally:
                span[END] = _now()
                if cpu:
                    span[ATTRS]["cpu_ns"] = time.thread_time_ns() - cpu0
                recorder.current.reset(token)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return async_wrapper

    if leaf:

        @functools.wraps(fn)
        def leaf_wrapper(*args, **kwargs):
            parent = recorder.current.get()
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.spans.append([next(recorder._ids), name, start, _now(),
                                       parent[ID] if parent else None,
                                       threading.get_ident(), None])

        return leaf_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        token = recorder.current.set(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:
            span[ATTRS]["error"] = type(error).__name__
            raise
        finally:
            span[END] = _now()
            recorder.current.reset(token)
        if hook is not None:
            hook(span, args, kwargs, result)
        return result

    return wrapper


def _patch_function(module, attr: str, wrapped, restore: list) -> None:
    """Replace ``module.attr`` and every ``repro`` module binding of the same object."""
    original = getattr(module, attr)
    for other in list(sys.modules.values()):
        if getattr(other, "__name__", "").startswith("repro") and getattr(other, attr, None) is original:
            setattr(other, attr, wrapped)
            restore.append((other, attr, original))


def _patch_method(owner, attr: str, make, restore: list) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, staticmethod):
        replacement = staticmethod(make(raw.__func__))
    elif isinstance(raw, classmethod):
        replacement = classmethod(make(raw.__func__))
    else:
        replacement = make(raw)
    setattr(owner, attr, replacement)
    restore.append((owner, attr, raw))


def install(recorder: Recorder):
    """Wrap every traced entry point; returns an ``uninstall()`` callable."""
    from repro.engine import sharding
    from repro.engine.maintenance import MaintainedFixpoint
    from repro.engine.query import QuerySession
    from repro.engine.tabling import AnswerTable
    from repro.io import durability, serialization
    from repro.parser import parser
    from repro.service import core, http
    from repro.storage.relation import Relation
    from repro.transform import magic

    restore: list = []

    def method(owner, attr, name, hook=None, **options):
        _patch_method(owner, attr, lambda fn: _wrap(recorder, name, fn, hook, **options), restore)

    def function(module, attr, name, hook=None, **options):
        fn = getattr(module, attr)
        _patch_function(module, attr, _wrap(recorder, name, fn, hook, **options), restore)

    # service.http
    def on_dispatch(span, args, kwargs, result):
        body = args[3] if len(args) > 3 else kwargs.get("body")
        if isinstance(body, dict) and "rid" in body:
            span[ATTRS]["rid"] = body["rid"]
        span[ATTRS]["status"] = result[0]

    method(http.ServiceApp, "dispatch", "http.dispatch", on_dispatch)

    # service.core
    def on_query(span, args, kwargs, result):
        span[ATTRS]["served_by"] = result.get("served_by")

    def on_enqueue(span, args, kwargs, result):
        span[ATTRS]["generation"] = result["generation"]
        span[ATTRS]["batches"] = result["coalesced_batches"]

    def on_select(span, args, kwargs, result):
        span[ATTRS]["rows"] = len(result)

    method(core.SessionHandle, "run_query", "core.run_query", on_query, cpu=True)
    method(core.SessionHandle, "enqueue_update", "core.enqueue_update", on_enqueue)
    method(core.SessionHandle, "snapshot_now", "core.snapshot_now")
    method(core.CommittedView, "select", "core.select", on_select)
    method(core.CommittedView, "capture", "core.capture")
    method(core.SessionRegistry, "create", "registry.create")
    method(core.SessionRegistry, "restore_all", "registry.restore_all")

    # engine.query / engine.maintenance
    def on_update(span, args, kwargs, result):
        stats = result.statistics
        span[ATTRS].update(
            extension_attempts=stats.extension_attempts,
            rederivation_attempts=stats.rederivation_attempts,
            facts_derived=stats.facts_derived,
            maintained=result.maintained,
        )
        recorder.local.last_update = span

    def on_run(span, args, kwargs, result):
        session = args[0]
        span[ATTRS]["mode"] = kwargs.get("mode")
        span[ATTRS]["schema"] = ",".join(sorted(session.query.input_schema.relation_names))
        span[ATTRS]["extension_attempts"] = result.statistics.extension_attempts

    method(QuerySession, "update", "query.update", on_update)
    method(QuerySession, "run", "query.run", on_run)
    method(QuerySession, "restore", "query.restore")
    method(QuerySession, "export_state", "query.export_state")
    method(MaintainedFixpoint, "update", "maintenance.update")
    method(MaintainedFixpoint, "evaluate", "maintenance.evaluate")

    # storage.relation (hot: leaf spans without context switching)
    for attr in ("rows_with_path", "rows_with_first_atom", "rows_with_last_atom", "rows_with_length"):
        method(Relation, attr, "storage.probe", leaf=True)
    method(Relation, "view", "storage.view", leaf=True)

    # io.durability
    def on_log_commit(span, args, kwargs, result):
        span[ATTRS]["generation"] = args[1]
        last = getattr(recorder.local, "last_update", None)
        if last is not None:
            last[ATTRS]["generation"] = args[1]
            recorder.local.last_update = None

    method(durability.SessionDurability, "log_commit", "wal.append", on_log_commit)
    method(durability.SessionDurability, "snapshot", "snapshot.write")
    method(durability.SessionDurability, "recover", "recover.recover")
    function(durability, "load_snapshot", "recover.snapshot_load")

    # parser / io.serialization
    function(parser, "parse_program", "parse.program")
    function(serialization, "instance_from_text", "serialization.instance_from_text")
    function(serialization, "rows_to_json", "serialization.rows_to_json")
    function(serialization, "query_result_to_json", "serialization.query_result_to_json")

    # transform.magic / engine.tabling / engine.sharding
    function(magic, "magic_rewrite", "magic.rewrite")
    method(AnswerTable, "lookup", "tabling.lookup")
    method(AnswerTable, "insert", "tabling.insert")
    method(AnswerTable, "apply_update", "tabling.apply_update")
    for attr in ("round", "run_stratum", "dred", "counting"):
        if attr in sharding.ProcessExecutor.__dict__:
            method(sharding.ProcessExecutor, attr, f"sharding.{attr}")

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall


def traced_shim(recorder: Recorder):
    """A :class:`~repro.io.durability.FileSystemShim` that records write/fsync spans."""
    from repro.io.durability import FileSystemShim

    class TracedShim(FileSystemShim):
        def write(self, handle, data):
            span = recorder.open("wal.write", {"bytes": len(data)})
            try:
                super().write(handle, data)
            finally:
                span[END] = _now()

        def fsync(self, handle):
            span = recorder.open("wal.fsync")
            try:
                super().fsync(handle)
            finally:
                span[END] = _now()

    return TracedShim()
