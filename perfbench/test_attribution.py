"""Self-tests of the per-layer tracer.

The attribution test plants busy work in one layer's public function,
``Kernel.load_summary``, from outside the program, and requires the
per-layer report to blame that layer and only that layer; a wrapper
that adds nothing must be blamed on no layer.  Base, slowed and no-op
runs alternate so that drift on a shared host hits all three alike.

Run from the repository root::

    python3 -m pytest -q perfbench/test_attribution.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
for _path in (str(HERE.parent / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
import workloads as wl  # noqa: E402
from layers import (  # noqa: E402
    Tracer,
    flag_layers,
    read_spans,
    self_times_from_spans,
)
from repro.kernel.kernel import Kernel  # noqa: E402

SEED = 3
#: A short multicast exec storm: 128 hosts, so every exec still calls
#: ``load_summary`` on every program manager.
JOBS = 48
ROUNDS = 7
#: The planted slowdown, as a share of the base run's traced time.
PLANTED_SHARE = 0.10
SHORT_STORM = run.Workload(
    "short_exec_storm",
    lambda seed: wl.ExecState(seed, "first_responder", jobs=JOBS),
    wl.exec_run, True, 256, 0)


def _traced(wrapper=None):
    """One traced short storm through the benchmark's own traced-run
    path; ``wrapper(fn)`` replaces ``Kernel.load_summary`` underneath
    the tracer's wrap."""
    original = Kernel.__dict__["load_summary"]
    if wrapper is not None:
        Kernel.load_summary = wrapper(original)
    try:
        return run.traced_run(SHORT_STORM, SEED)
    finally:
        Kernel.load_summary = original


def _slowed(extra_s):
    def wrapper(fn):
        def load_summary(*args, **kwargs):
            end = perf_counter() + extra_s
            while perf_counter() < end:
                pass
            return fn(*args, **kwargs)
        return load_summary
    return wrapper


def _noop(fn):
    def load_summary(*args, **kwargs):
        return fn(*args, **kwargs)
    return load_summary


def test_planted_slowdown_blames_only_its_layer():
    tracer, _, probe, reference = _traced()
    calls = probe["calls"]["kernel.load_summary"]
    assert calls > 0
    # Busy-wait in raw seconds, sized from the probe's raw self times.
    extra_s = PLANTED_SHARE * sum(tracer.layer_self_s().values()) / calls

    base, slowed, noop = [], [], []
    for _ in range(ROUNDS):
        for runs, wrapper in ((base, None), (slowed, _slowed(extra_s)),
                              (noop, _noop)):
            _, _, record, outcome = _traced(wrapper)
            assert outcome.trajectory == reference.trajectory
            runs.append(record["layers"])

    kernel = [median(r["kernel"] for r in side)
              for side in (base, slowed, noop)]
    assert flag_layers(base, slowed) == ["kernel"], kernel
    assert flag_layers(base, noop) == [], kernel


def test_spans_written_out_reproduce_self_times(tmp_path):
    tracer, _, _, _ = _traced()
    prefix = str(tmp_path / "storm")
    tracer.write(prefix, {"workload": "test"})
    header, arrays = read_spans(prefix)
    assert header["dropped"] == 0 and header["kept"] == tracer.n_spans
    from_spans = self_times_from_spans(header, arrays)
    for point, seconds in tracer.point_self_s().items():
        assert abs(from_spans.get(point, 0.0) - seconds) < 1e-6, point


def test_generator_wrap_forwards_send_throw_and_return():
    tracer = Tracer()
    point = tracer.point("migration")
    log = []

    def inner():
        try:
            got = yield "a"
            log.append(got)
            yield "b"
        except KeyError as exc:
            log.append(repr(exc))
            return "handled"
        return "done"

    gen = tracer.wrap_gen(inner(), point, op=7)
    assert next(gen) == "a"
    assert gen.send(1) == "b"
    try:
        gen.throw(KeyError("k"))
    except StopIteration as stop:
        assert stop.value == "handled"
    assert log == [1, "KeyError('k')"]
    assert tracer.point_calls()["migration"] == 3
    assert list(tracer.s_op) == [7, 7, 7]


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", __file__]))
