"""Per-layer wall-clock attribution, measured from outside the program.

The simulator's own :class:`~repro.obs.profiler.SelfProfiler` buckets
time by the module of each event callback, so all coroutine code lands
in ``repro.kernel.scheduler``.  This tracer instead wraps the public
entry points of each layer (plus the few private dispatch methods that
carry a layer's real work, such as the transport's per-kind receive
handlers) and times every call into them.  Generators -- the migration
procedures, placement ``select`` and the program-manager loop -- are
timed per resumption.

A span is ``(point, start, end, parent, op)``; ``op`` is the exec or
migration id where the call site knows it, else -1.  A layer's self
time is the time inside its spans minus the time inside their child
spans, accumulated online so no span has to be kept to compute it.  The
first :data:`SPAN_CAP` spans are also kept in memory (compact arrays)
and written out when the run ends.

Every wrap is installed on the class before the cluster is built (some
components cache bound methods at construction) and removed afterwards.
A target that no longer exists is skipped and listed in
:attr:`Tracer.missing`, so a refactor that deletes one degrades the
report instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers, named after the modules they wrap.  A point belongs to the
#: longest layer name that prefixes it (``ipc.copy`` before ``ipc``).
LAYERS = ("sim", "net", "ipc", "ipc.copy", "kernel", "vm", "migration",
          "placement", "services")

#: Spans kept in memory per traced run (27 bytes each).
SPAN_CAP = 500_000

#: Smallest self-time growth :func:`flag_layers` blames on a layer, as a
#: share of the median total traced time.
MIN_SHARE = 0.02


def _pages(args) -> int:
    # Transport.copy_to(pcb, dst, pages) / copy_from(pcb, src, indexes).
    return len(args[3])


def _is_receive(instruction) -> int:
    return 1 if type(instruction).__name__ == "Receive" else 0


#: (point, module, class names, attribute names or ``prefix*`` patterns,
#: kind, count hook).  ``call`` targets are timed per call; ``gen``
#: targets return generators that are timed per resumption.
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...], Tuple[str, ...], str,
                     Optional[Callable]], ...] = (
    ("sim.run", "repro.sim.engine", ("Simulator",), ("run",), "call", None),
    ("sim.schedule", "repro.sim.engine", ("Simulator",), ("schedule",),
     "call", None),
    ("net.transmit", "repro.net.ethernet", ("Ethernet",),
     ("transmit", "_deliver", "_run_rx_batch"), "call", None),
    ("net.receive", "repro.net.nic", ("Nic",), ("receive",), "call", None),
    ("ipc", "repro.ipc.transport", ("Transport",),
     ("on_packet", "client_send", "reply_from", "_on_*"), "call", None),
    ("ipc.copy.start", "repro.ipc.transport", ("Transport",),
     ("copy_to", "copy_from"), "call", _pages),
    ("ipc.copy", "repro.ipc.copyops", ("CopyEngine",),
     ("start_stream", "serve_copyfrom", "apply_local_copyto", "on_*",
      "_send_*", "_stream_*", "_end_reply"), "call", None),
    ("kernel.load_summary", "repro.kernel.kernel", ("Kernel",),
     ("load_summary",), "call", None),
    ("kernel.address_space", "repro.kernel.address_space",
     ("AddressSpace",),
     ("collect_dirty", "collect_dirty_runs", "collect_dirty_indexes",
      "full_runs", "apply_copy", "touch", "touch_pages"), "call", None),
    ("kernel.scheduler", "repro.kernel.scheduler", ("Scheduler",),
     ("_execute", "_compute_done"), "call", None),
    ("kernel.scheduler.dispatch", "repro.kernel.scheduler", ("Scheduler",),
     ("_dispatch",), "call", None),
    ("vm", "repro.vm.pager", ("Pager",),
     ("service_faults", "service_faults_span", "flush_dirty_resident",
      "flush_all_dirty"), "call", None),
    ("placement", "repro.cluster.placement",
     ("PlacementPolicy", "FirstResponder", "RandomK", "CachedBestFit"),
     ("select",), "gen", None),
    ("services.pm", "repro.services.program_manager", ("ProgramManager",),
     ("body",), "gen", _is_receive),
)

#: Point the workload wraps migration generators with (call-site wrap).
MIGRATION_POINT = "migration"


def layer_of(point: str) -> str:
    best = ""
    for layer in LAYERS:
        if (point == layer or point.startswith(layer + ".")) and \
                len(layer) > len(best):
            best = layer
    return best


class Tracer:
    """Span recorder with online self-time accounting."""

    def __init__(self):
        self.points: List[str] = []
        self._point_ids: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self.counts: List[int] = []
        #: Submitter pid -> exec id, filled by the workload so placement
        #: spans can name their exec.
        self.op_of_pid: Dict[Any, int] = {}
        self.n_spans = 0
        self.s_point = array("H")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_op = array("i")
        # Open spans: [point, start, child time, span index].
        self._stack: List[list] = []
        self._undo: List[Tuple[type, str, Any]] = []
        self.missing: List[str] = []
        self.point(MIGRATION_POINT)

    # ------------------------------------------------------------ recording

    def reset(self) -> None:
        """Forget everything recorded so far (keeps the wraps), so a run
        can be traced from after its set-up."""
        n = len(self.points)
        # In place: the installed wrappers hold these lists.
        self.self_s[:] = [0.0] * n
        self.calls[:] = [0] * n
        self.counts[:] = [0] * n
        self.n_spans = 0
        for arr in (self.s_point, self.s_start, self.s_end, self.s_parent,
                    self.s_op):
            del arr[:]

    def point(self, name: str) -> int:
        pid = self._point_ids.get(name)
        if pid is None:
            pid = self._point_ids[name] = len(self.points)
            self.points.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
            self.counts.append(0)
        return pid

    def enter(self, point: int, op: int = -1) -> None:
        stack = self._stack
        idx = self.n_spans
        self.n_spans = idx + 1
        now = perf_counter()
        if idx < SPAN_CAP:
            self.s_point.append(point)
            self.s_start.append(now)
            self.s_end.append(now)
            self.s_parent.append(stack[-1][3] if stack else -1)
            self.s_op.append(op)
        stack.append([point, now, 0.0, idx])

    def exit(self) -> None:
        now = perf_counter()
        stack = self._stack
        point, start, child, idx = stack.pop()
        duration = now - start
        self.self_s[point] += duration - child
        self.calls[point] += 1
        if stack:
            stack[-1][2] += duration
        if idx < SPAN_CAP:
            self.s_end[idx] = now

    # ------------------------------------------------------------- wrapping

    def wrap_call(self, point: int, fn: Callable,
                  count: Optional[Callable]) -> Callable:
        enter, exit_, counts = self.enter, self.exit, self.counts

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if count is not None:
                counts[point] += count(args)
            enter(point)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return timed

    def wrap_gen(self, gen, point: int, op: int,
                 count: Optional[Callable] = None):
        """Drive ``gen`` and time each resumption; behaves like ``gen``
        under ``yield from`` (send, throw and close are forwarded)."""
        enter, exit_, counts = self.enter, self.exit, self.counts
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            enter(point, op)
            try:
                if error is None:
                    out = gen.send(value)
                else:
                    pending, error = error, None
                    out = gen.throw(pending)
            except StopIteration as stop:
                exit_()
                return stop.value
            except BaseException:
                exit_()
                raise
            exit_()
            value = None
            if count is not None:
                counts[point] += count(out)
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded
                error = exc
            out = None

    def _gen_method(self, point: int, fn: Callable,
                    count: Optional[Callable]) -> Callable:
        tracer = self
        op_of_pid = self.op_of_pid

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            # select(self, ctx, ...): the caller's context names the exec.
            op = -1
            if len(args) > 1:
                ctx_pid = getattr(args[1], "self_pid", None)
                if ctx_pid is not None:
                    op = op_of_pid.get(ctx_pid, -1)
            return tracer.wrap_gen(fn(*args, **kwargs), point, op, count)

        return timed

    def install(self) -> "Tracer":
        """Wrap every target found; note the ones that are gone."""
        for point_name, module_name, classes, attrs, kind, count in TARGETS:
            point = self.point(point_name)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name} (module)")
                continue
            for class_name in classes:
                cls = getattr(module, class_name, None)
                if not isinstance(cls, type):
                    self.missing.append(f"{module_name}.{class_name}")
                    continue
                for attr in attrs:
                    names = _expand(cls, attr)
                    if not names:
                        self.missing.append(
                            f"{module_name}.{class_name}.{attr}")
                        continue
                    for name in names:
                        fn = cls.__dict__[name]
                        if kind == "gen":
                            wrapped = self._gen_method(point, fn, count)
                        else:
                            wrapped = self.wrap_call(point, fn, count)
                        self._undo.append((cls, name, fn))
                        setattr(cls, name, wrapped)
        return self

    def uninstall(self) -> None:
        while self._undo:
            cls, name, fn = self._undo.pop()
            setattr(cls, name, fn)

    # -------------------------------------------------------------- results

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in zip(self.points, self.self_s):
            out[layer_of(name)] += seconds
        return out

    def point_self_s(self) -> Dict[str, float]:
        return dict(zip(self.points, self.self_s))

    def point_calls(self) -> Dict[str, int]:
        return dict(zip(self.points, self.calls))

    def point_counts(self) -> Dict[str, int]:
        return dict(zip(self.points, self.counts))

    def write(self, prefix: str, meta: Dict[str, Any]) -> None:
        """Write the kept spans: ``prefix.spans.bin`` holds the arrays
        back to back in header order, ``prefix.spans.json`` the header."""
        os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
        fields = [("point", self.s_point), ("start", self.s_start),
                  ("end", self.s_end), ("parent", self.s_parent),
                  ("op", self.s_op)]
        with open(prefix + ".spans.bin", "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        header = dict(meta)
        header.update({
            "points": self.points,
            "fields": [[name, arr.typecode, arr.itemsize]
                       for name, arr in fields],
            "kept": len(self.s_point),
            "dropped": max(0, self.n_spans - len(self.s_point)),
            "clock": "time.perf_counter seconds",
        })
        with open(prefix + ".spans.json", "w") as fh:
            json.dump(header, fh, indent=1)


def _expand(cls: type, attr: str) -> List[str]:
    """Names in ``cls``'s own dict matching ``attr`` (``prefix*`` globs
    match plain functions only)."""
    if attr.endswith("*"):
        prefix = attr[:-1]
        return sorted(name for name, value in vars(cls).items()
                      if name.startswith(prefix) and callable(value)
                      and not isinstance(value, (staticmethod, classmethod,
                                                 property, type)))
    value = vars(cls).get(attr)
    return [attr] if callable(value) and not isinstance(
        value, (staticmethod, classmethod, property, type)) else []


def read_spans(prefix: str) -> Tuple[dict, Dict[str, array]]:
    """Load a span file written by :meth:`Tracer.write`."""
    with open(prefix + ".spans.json") as fh:
        header = json.load(fh)
    arrays: Dict[str, array] = {}
    n = header["kept"]
    with open(prefix + ".spans.bin", "rb") as fh:
        for name, typecode, _ in header["fields"]:
            arr = array(typecode)
            arr.fromfile(fh, n)
            arrays[name] = arr
    return header, arrays


def self_times_from_spans(header: dict,
                          arrays: Dict[str, array]) -> Dict[str, float]:
    """Per-point self time recomputed from kept spans (end - start minus
    the children's end - start)."""
    n = header["kept"]
    child = [0.0] * n
    start, end, parent = arrays["start"], arrays["end"], arrays["parent"]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out: Dict[str, float] = {}
    points = header["points"]
    for i in range(n):
        name = points[arrays["point"][i]]
        out[name] = out.get(name, 0.0) + (end[i] - start[i] - child[i])
    return out


def flag_layers(base: List[Dict[str, float]],
                new: List[Dict[str, float]]) -> List[str]:
    """Layers whose self time got worse from ``base`` to ``new``.

    ``base[i]`` and ``new[i]`` are a pair of runs made back to back,
    alternating, so drift on a shared host hits both sides.  A layer is
    flagged when ``new`` reads higher in at least nine pairs in ten and
    the medians differ by more than both the spread between the base
    runs (their interquartile distance) and :data:`MIN_SHARE` of the
    median total traced time."""
    from statistics import median, quantiles

    def spread(values):
        if len(values) < 2:
            return 0.0
        q = quantiles(values, n=4)
        return q[2] - q[0]

    total = median(sum(run.values()) for run in base)
    flagged = []
    for layer in base[0]:
        b = [run[layer] for run in base]
        w = [run[layer] for run in new]
        wins = sum(1 for x, y in zip(b, w) if y > x)
        delta = median(w) - median(b)
        if (wins >= 0.9 * len(b) and delta > spread(b)
                and delta > MIN_SHARE * total):
            flagged.append(layer)
    return flagged
