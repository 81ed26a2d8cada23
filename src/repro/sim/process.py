"""Generator-coroutine tasks driven by the simulation engine.

A :class:`Task` wraps a generator and advances it each time the thing it
yielded fires.  The yield protocol is documented in
:mod:`repro.sim.__init__`.

Hot-path notes.  Arming a wait used to build a fresh ``resume`` closure
(plus per-member lambdas for combinators) on every yield; stepping a
task is the single hottest callback in every workload, so the
continuations are now preallocated bound methods created once per task.
The wait token that made stale callbacks inert travels *with* the
continuation as a schedule/trigger argument instead of living in a
closure cell.  Combinator bookkeeping (values, remaining count, the
int-member timers) moved onto the task for the same reason -- and
keeping the :class:`AnyOf` timers around lets the losing int-delay
branches be *cancelled* on first fire instead of rotting in the event
queue until their deadline.
"""

from __future__ import annotations

import types
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Interrupted


class TaskFailed(SimulationError):
    """Raised by :meth:`Simulator.run` when a task died of an unhandled
    exception; chains the original via ``__cause__``."""

    def __init__(self, task: "Task", exc: BaseException):
        super().__init__(f"task {task.name!r} failed: {exc!r}")
        self.task = task
        self.exc = exc


class Task:
    """A running simulated activity.

    Do not instantiate directly; use :meth:`Simulator.spawn`.
    """

    def __init__(self, sim, gen, name: str = "task"):
        if not isinstance(gen, types.GeneratorType):
            raise SimulationError(
                f"spawn() needs a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?"
            )
        self._sim = sim
        self._gen = gen
        self.name = name
        self.finished = False
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.interrupted = False
        #: Pending ``(callback, extra_args)`` completion registrations.
        self._done_callbacks: List[tuple] = []
        #: Monotonic token identifying the current wait; stale resume
        #: callbacks (e.g. the losing branches of an AnyOf) compare the
        #: token they were armed with and do nothing if it moved on.
        self._wait_token = 0
        #: The timer behind a plain int yield (cancelled if the wait is
        #: abandoned by an interrupt).
        self._pending_timer = None
        #: Timers behind the int members of the current combinator wait,
        #: indexed like its waitables (None for non-int members); every
        #: still-pending one is cancelled when the wait ends.
        self._combo_timers: Optional[list] = None
        self._combo_values: Optional[list] = None
        self._combo_seen: Optional[list] = None
        self._combo_remaining = 0
        # Preallocated bound-method continuations: one attribute load
        # per arm instead of a closure allocation per yield.
        self._resume_cb = self._resume
        self._resume_event_cb = self._resume_event
        self._resume_task_cb = self._resume_task
        self._throw_cb = self._throw
        self._any_timer_cb = self._any_fire
        self._any_event_cb = self._any_fire_event
        self._any_task_cb = self._any_fire_task
        self._all_timer_cb = self._all_fire
        self._all_event_cb = self._all_fire_event
        self._all_task_cb = self._all_fire_task

    # ------------------------------------------------------------- waiting

    def on_done(self, callback: Callable[..., None], *args: Any) -> None:
        """Register ``callback(*args, task)`` for when this task completes.

        Runs at the current instant (via the event queue) if already done.
        """
        if self.finished:
            self._sim.schedule(0, callback, *args, self)
        else:
            self._done_callbacks.append((callback, args))

    # ------------------------------------------------------------ stepping

    def _start(self) -> None:
        self._sim.schedule(0, self._step, False, None)

    def _step(self, throw: bool, value: Any) -> None:
        """Advance the generator one yield, then arm the next wait."""
        if self.finished:
            return
        self._wait_token += 1
        # The previous wait is over: reap its timers so abandoned int
        # delays (interrupts, the losing AnyOf branches) are cancelled
        # instead of firing as stale no-ops.  The continuation that got
        # us here cleared its own already-fired timer beforehand, so
        # these cancels never touch a live heap entry needlessly.
        pending = self._pending_timer
        if pending is not None:
            self._pending_timer = None
            pending.cancel()
        timers = self._combo_timers
        if timers is not None:
            self._combo_timers = None
            for timer in timers:
                if timer is not None:
                    timer.cancel()
        try:
            if throw:
                yielded = self._gen.throw(value)
            else:
                yielded = self._gen.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except Interrupted:
            # An Interrupted escaping the generator is normal cancellation.
            self.interrupted = True
            self._finish(result=None)
            return
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised by run()
            self._finish(exception=exc)
            return
        try:
            self._arm(yielded)
        except SimulationError as exc:
            self._gen.close()
            self._finish(exception=exc)

    def _finish(self, result: Any = None, exception: Optional[BaseException] = None) -> None:
        self.finished = True
        self.result = result
        self.exception = exception
        self._gen.close()
        if exception is not None:
            self._sim._record_failure(self, exception)
        callbacks, self._done_callbacks = self._done_callbacks, []
        for cb, args in callbacks:
            self._sim.schedule(0, cb, *args, self)

    # ------------------------------------------------------ wait conversion

    def _arm(self, yielded: Any) -> None:
        """Register a continuation for whatever the generator yielded."""
        sim = self._sim
        token = self._wait_token
        if yielded is None:
            sim.schedule(0, self._resume_cb, token, None)
        elif isinstance(yielded, int):
            if yielded < 0:
                raise SimulationError(f"task {self.name!r} yielded negative delay {yielded}")
            self._pending_timer = sim.schedule(yielded, self._resume_cb, token, None)
        elif isinstance(yielded, float):
            raise SimulationError(
                f"task {self.name!r} yielded float delay {yielded}; simulated "
                "time is integer microseconds -- yield an int"
            )
        elif isinstance(yielded, Event):
            yielded.on_trigger(self._resume_event_cb, token)
        elif isinstance(yielded, Task):
            yielded.on_done(self._resume_task_cb, token)
        elif isinstance(yielded, AnyOf):
            self._arm_combo(yielded, token, self._any_timer_cb,
                            self._any_event_cb, self._any_task_cb)
        elif isinstance(yielded, AllOf):
            waitables = yielded.waitables
            self._combo_values = [None] * len(waitables)
            self._combo_seen = [False] * len(waitables)
            self._combo_remaining = len(waitables)
            self._arm_combo(yielded, token, self._all_timer_cb,
                            self._all_event_cb, self._all_task_cb)
        else:
            raise SimulationError(
                f"task {self.name!r} yielded unsupported waitable "
                f"{type(yielded).__name__}: {yielded!r}"
            )

    def _arm_combo(self, combo, token: int, timer_cb, event_cb, task_cb) -> None:
        """Attach the per-kind continuations to each combinator member."""
        sim = self._sim
        waitables = combo.waitables
        timers = None
        for index, member in enumerate(waitables):
            if isinstance(member, int):
                if member < 0:
                    raise SimulationError("negative delay inside combinator")
                timer = sim.schedule(member, timer_cb, token, index)
                if timers is None:
                    timers = [None] * len(waitables)
                timers[index] = timer
            elif isinstance(member, Event):
                member.on_trigger(event_cb, token, index)
            elif isinstance(member, Task):
                member.on_done(task_cb, token, index)
            else:
                raise SimulationError(
                    f"unsupported combinator member {type(member).__name__}"
                )
        self._combo_timers = timers

    # -------------------------------------------------------- continuations

    def _resume(self, token: int, value: Any) -> None:
        if self._wait_token == token and not self.finished:
            # The int-delay timer (if any) is the one that just fired;
            # drop the handle so _step doesn't cancel a dead entry.
            self._pending_timer = None
            self._step(False, value)

    def _resume_event(self, token: int, ev) -> None:
        if self._wait_token == token and not self.finished:
            self._step(False, ev.value)

    def _resume_task(self, token: int, task: "Task") -> None:
        if self._wait_token == token and not self.finished:
            if task.exception is not None:
                self._step(True, task.exception)
            else:
                self._step(False, task.result)

    def _throw(self, token: int, exc: BaseException) -> None:
        if self._wait_token == token and not self.finished:
            self._step(True, exc)

    def _any_fire(self, token: int, index: int) -> None:
        if self._wait_token == token and not self.finished:
            # First branch wins; _step reaps the losing int-delay timers
            # from _combo_timers (this one already fired -- cancelling a
            # detached timer is a flag flip, not queue traffic).
            self._step(False, (index, None))

    def _any_fire_event(self, token: int, index: int, ev) -> None:
        if self._wait_token == token and not self.finished:
            self._step(False, (index, ev.value))

    def _any_fire_task(self, token: int, index: int, task: "Task") -> None:
        if self._wait_token == token and not self.finished:
            self._step(False, (index, task.result))

    def _all_fire(self, token: int, index: int, value: Any = None) -> None:
        if self._wait_token != token or self.finished:
            return
        if self._combo_seen[index]:
            return
        self._combo_seen[index] = True
        self._combo_values[index] = value
        self._combo_remaining -= 1
        if self._combo_remaining == 0:
            values = self._combo_values
            self._combo_values = None
            self._combo_seen = None
            self._step(False, list(values))

    def _all_fire_event(self, token: int, index: int, ev) -> None:
        self._all_fire(token, index, ev.value)

    def _all_fire_task(self, token: int, index: int, task: "Task") -> None:
        self._all_fire(token, index, task.result)

    # ----------------------------------------------------------- interrupts

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the task at the current instant.

        Whatever the task was waiting for is abandoned (its callback goes
        stale and any pending int-delay timers are cancelled when the
        throw lands).  Interrupting a finished task is a no-op.
        """
        if self.finished:
            return
        self._sim.schedule(0, self._throw_cb, self._wait_token, Interrupted(cause))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Task {self.name!r} {state}>"
