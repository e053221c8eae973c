"""Outside-in layer trace of in-process ``oqmap.cli.main`` calls.

The tracer wraps each public oqmap function at the module attribute
where its caller looks it up (``oqmap.cli.<name>`` for everything the
CLI imports, plus the nested lookups in ``oqmap.spectral`` and
``oqmap.phasespace``), so nothing under ``src/`` changes.  Each call
records a span: name, start, end, parent span, command id and thread.
The span stack is kept per thread; a span opened on a pool thread with
an empty stack takes the command span as its parent.  Spans stay in
memory until the run ends.

Counts marked *computed* are derived from call arguments and return
shapes; ``serialize.bytes`` is *measured* from the files on disk.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

import oqmap.cli
import oqmap.phasespace
import oqmap.spectral

# nested lookups the CLI cannot see: (module, attribute)
NESTED = (
    (oqmap.spectral, "eigen_decompose"),
    (oqmap.spectral, "residual_decay"),
    (oqmap.spectral, "trapped_cover"),
    (oqmap.phasespace, "husimi_field"),
    (oqmap.phasespace, "merged_strip_cover"),
    (oqmap.phasespace, "trapped_cover"),
)
LAYERS = ("classical", "quantize", "spectral", "phasespace", "serialize")
# per-cell formatting helper; its calls stay in the caller's self time
UNTRACED = {"fmt_float"}

# (metric, unit, computed or measured) for every count the trace keeps
COUNTS = (
    ("quantize.quantize_open.calls", "count", "measured"),
    ("quantize.dense_bytes", "bytes", "computed"),
    ("spectral.eigen_decompose.calls", "count", "measured"),
    ("spectral.eigen_decompose.n3", "count", "computed"),
    ("spectral.eigen_decompose.vector_calls", "count", "measured"),
    ("phasespace.husimi_cells", "count", "computed"),
    ("phasespace.overlap_ops", "count", "computed"),
    ("classical.intervals", "count", "computed"),
    ("serialize.bytes", "bytes", "measured"),
    ("serialize.files", "count", "measured"),
)
SELF_TIMES = (
    "quantize.quantize_open", "quantize.walsh_open",
    "quantize.apply_diagonal_phases", "spectral.eigen_decompose",
    "spectral.effective_hamiltonian", "spectral.residual_decay",
    "spectral.trapped_quasiprojector", "phasespace.husimi_field",
    "phasespace.husimi_report", "classical.escape_report",
    "classical.trapped_cover", "classical.thermo_report",
    "serialize.write", "serialize.sha256_file",
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    command: int
    thread: int


def _dense_bytes(value, depth: int = 0) -> int:
    """16 * rows * cols summed over the 2-D complex arrays in a result."""
    if isinstance(value, np.ndarray):
        return 16 * value.shape[0] * value.shape[1] if value.ndim == 2 else 0
    if depth < 2 and dataclasses.is_dataclass(value):
        return sum(_dense_bytes(getattr(value, f.name), depth + 1)
                   for f in dataclasses.fields(value))
    return 0


def _refinements(keep, levels: int) -> int:
    return sum(len(keep) ** m for m in range(1, levels + 1))


def _count(name: str, call: inspect.BoundArguments, result) -> Dict[str, int]:
    """Work counts of one call, from its arguments and return value."""
    a = call.arguments
    if name == "quantize.quantize_open":
        return {"quantize.quantize_open.calls": 1,
                "quantize.dense_bytes": _dense_bytes(result)}
    if name.startswith("quantize."):
        return {"quantize.dense_bytes": _dense_bytes(result)}
    if name == "spectral.eigen_decompose":
        return {"spectral.eigen_decompose.calls": 1,
                "spectral.eigen_decompose.n3": result.dimension ** 3,
                "spectral.eigen_decompose.vector_calls":
                    int(bool(a.get("want_vectors", False)))}
    if name == "phasespace.husimi_field":
        grid = a.get("grid", 64)
        gx, gxi = (grid, grid) if isinstance(grid, int) else grid
        frame = a["frame"]
        cells = gx * gxi
        return {"phasespace.husimi_cells": cells,
                "phasespace.overlap_ops":
                    cells * frame.dimension * (2 * frame.image_radius + 1)}
    if name == "classical.escape_report":
        return {"classical.intervals":
                _refinements(a["spec"].keep, a["horizon"])}
    if name == "classical.trapped_cover":
        return {"classical.intervals": _refinements(a["spec"].keep, a["level"])}
    if name.startswith("serialize.write_"):
        return {"serialize.files": 1,
                "serialize.bytes": Path(result).stat().st_size}
    return {}


class Tracer:
    """Installs span-recording wrappers and collects spans and counts."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._command: Optional[int] = None
        self._originals: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def targets(self) -> List[Tuple[object, str]]:
        found = [(oqmap.cli, name) for name, fn in vars(oqmap.cli).items()
                 if inspect.isfunction(fn) and name not in UNTRACED
                 and fn.__module__.rsplit(".", 1)[-1] in LAYERS]
        return found + list(NESTED)

    def install(self) -> None:
        for owner, attr in self.targets():
            fn = getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._command
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent,
                                         tracer._command,
                                         threading.get_ident()))
            counts = _count(name, signature.bind(*args, **kwargs), result)
            if counts:
                with tracer._lock:
                    tracer.counts.update(counts)
            return result
        return traced

    # -- running -----------------------------------------------------------

    def command(self, argv) -> int:
        """Run one CLI command inside a command span; return its exit code."""
        sid = next(self._ids)
        self._command = sid
        start = time.perf_counter()
        try:
            return oqmap.cli.main(list(argv))
        finally:
            end = time.perf_counter()
            self.spans.append(Span(sid, "cli.command", start, end, None, sid,
                                   threading.get_ident()))
            self._command = None


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _union(intervals: List[Tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _max_overlap(intervals: List[Tuple[float, float]]) -> int:
    events = sorted([(lo, 1) for lo, _ in intervals]
                    + [(hi, -1) for _, hi in intervals])
    depth = best = 0
    for _, step in events:
        depth += step
        best = max(best, depth)
    return best


class CommandAccount(NamedTuple):
    wall: float
    cli_self: float
    layer_self: Dict[str, float]
    concurrency: int
    child_busy: float
    problems: List[str]


def account(spans: List[Span]) -> Tuple[Dict[str, float], Dict[int, CommandAccount]]:
    """Self time per span name, and the accounting of each command.

    Self time is a span's duration minus the union of its children's
    intervals.  On each command, the self times of all its spans sum to
    its wall time when no children overlap, and to at least its wall
    time when a pool runs children side by side.
    """
    by_id = {s.id: s for s in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    self_by_name: Dict[str, float] = defaultdict(float)
    per_command: Dict[int, List[Tuple[Span, float]]] = defaultdict(list)
    for s in spans:
        kids = children.get(s.id, [])
        own = (s.end - s.start) - _union([(k.start, k.end) for k in kids])
        self_by_name[s.name] += own
        per_command[s.command].append((s, own))

    accounts = {}
    eps = 1e-6
    for cid, items in per_command.items():
        root = by_id[cid]
        wall = root.end - root.start
        kids = children.get(cid, [])
        layer_self: Dict[str, float] = defaultdict(float)
        problems = []
        for s, own in items:
            if s.id != cid:
                layer_self[s.name.split(".", 1)[0]] += own
                parent = by_id[s.parent]
                if s.start < parent.start - eps or s.end > parent.end + eps:
                    problems.append(f"span {s.name} leaves its parent")
            if own < -eps:
                problems.append(f"span {s.name} has negative self time")
        cli_self = next(own for s, own in items if s.id == cid)
        total = cli_self + sum(layer_self.values())
        concurrency = _max_overlap([(k.start, k.end) for k in kids])
        if total < wall - eps or (concurrency <= 1 and total > wall + eps):
            problems.append(f"self times sum to {total:.6f} s of a "
                            f"{wall:.6f} s command")
        accounts[cid] = CommandAccount(wall, cli_self, dict(layer_self),
                                       concurrency,
                                       sum(k.end - k.start for k in kids),
                                       problems)
    return dict(self_by_name), accounts


def layer_metrics(spans: List[Span], counts: Counter
                  ) -> Tuple[Dict[str, float], Dict[int, CommandAccount]]:
    """Per-layer metrics of one traced pass."""
    self_by_name, accounts = account(spans)
    metrics: Dict[str, float] = {}
    for name in SELF_TIMES:
        if name == "serialize.write":
            value = sum(v for k, v in self_by_name.items()
                        if k.startswith("serialize.write_"))
        else:
            value = self_by_name.get(name, 0.0)
        metrics[f"{name}.self_s"] = value
    for name, _, _ in COUNTS:
        metrics[name] = float(counts.get(name, 0))
    walls = sum(a.wall for a in accounts.values())
    metrics["cli.self_s"] = sum(a.cli_self for a in accounts.values())
    metrics["cli.pool_parallelism"] = (
        sum(a.child_busy for a in accounts.values()) / walls if walls else 0.0)
    metrics["cli.max_concurrency"] = float(
        max((a.concurrency for a in accounts.values()), default=0))
    return metrics, accounts
