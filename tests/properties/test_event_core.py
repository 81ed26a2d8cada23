"""Event-core invariants on randomized programs.

One randomized op program -- schedules (delay 0, near and far),
cancellations, partial runs, task sleeps, interrupts and AnyOf
combinators -- is interpreted on the simulator, and after every single
op the heap's bookkeeping must agree with the heap itself:
``alive_event_count`` is the number of live entries, ``peek()`` is the
earliest live entry's time, ``now`` never moves backwards, and the
scheduled callbacks fire in non-decreasing ``(time, seq)`` order.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AnyOf, Simulator

_DELAY = st.integers(min_value=0, max_value=50_000)

_OP = st.one_of(
    st.tuples(st.just("schedule"), _DELAY),
    st.tuples(st.just("zero"), st.just(0)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=255)),
    st.tuples(st.just("run_events"), st.integers(min_value=0, max_value=8)),
    st.tuples(st.just("run_until"), st.integers(min_value=0, max_value=50_000)),
    st.tuples(st.just("sleeper"), _DELAY),
    st.tuples(st.just("interrupt"), st.integers(min_value=0, max_value=300)),
    st.tuples(st.just("anyof"), st.integers(min_value=0, max_value=120)),
)

_PROGRAM = st.lists(_OP, min_size=1, max_size=40)


def _check_heap(sim):
    live = [entry for entry in sim._heap if not entry[2].cancelled]
    assert sim.alive_event_count == len(live)
    assert sim.peek() == (min(entry[0] for entry in live) if live else None)
    # peek() may drop dead heads or compact; the count must follow.
    assert sim.alive_event_count == len(live)


@given(ops=_PROGRAM)
@settings(max_examples=60, deadline=None)
def test_heap_bookkeeping_holds_after_every_op(ops):
    sim = Simulator(seed=11)
    fired = []
    handles = []
    tasks = []
    tags = itertools.count()

    def fire(key):
        assert sim.now == key[0]
        fired.append(key)

    def sleeper(delay):
        yield delay

    def racer(delay):
        yield AnyOf([delay, delay + 37, 50_000])

    last_now = sim.now
    for op, arg in ops:
        if op == "schedule" or op == "zero":
            # The seq the heap will file this entry under.
            key = (sim.now + arg, sim._seq + 1, next(tags))
            handles.append(sim.schedule(arg, fire, key))
            assert sim._seq == key[1]
        elif op == "cancel":
            if handles:
                handles[arg % len(handles)].cancel()
        elif op == "run_events":
            before = sim.event_count
            sim.run(max_events=arg)
            assert sim.event_count - before <= arg
        elif op == "run_until":
            sim.run(until_us=sim.now + arg)
        elif op == "sleeper":
            tasks.append(sim.spawn(sleeper(arg)))
        elif op == "interrupt":
            if tasks:
                sim.schedule(arg, tasks[arg % len(tasks)].interrupt)
        elif op == "anyof":
            tasks.append(sim.spawn(racer(arg)))
        assert sim.now >= last_now
        last_now = sim.now
        _check_heap(sim)
        assert fired == sorted(fired)
    sim.run()
    assert sim.alive_event_count == 0 and sim.peek() is None
    assert fired == sorted(fired)


@given(
    delays=st.lists(_DELAY, min_size=1, max_size=300),
    keep_every=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=40, deadline=None)
def test_fire_order_identical_under_cancellation_pressure(delays, keep_every):
    """Fire order under mass cancellation (enough to trigger one-pass
    heap compaction) is identical to sorting the surviving entries by
    ``(time, seq)``."""
    sim = Simulator()
    fired = []
    handles = [
        sim.schedule(d, fired.append, i) for i, d in enumerate(delays)
    ]
    for i, handle in enumerate(handles):
        if i % keep_every:
            handle.cancel()
    survivors = sorted(
        (d, i) for i, d in enumerate(delays) if i % keep_every == 0
    )
    assert sim.alive_event_count == len(survivors)
    sim.run()
    assert fired == [i for _, i in survivors]
    assert sim.now == survivors[-1][0]
    assert sim.event_count == len(survivors)
    assert sim.alive_event_count == 0
