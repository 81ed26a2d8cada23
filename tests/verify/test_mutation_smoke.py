"""Mutation smoke: the harness must catch the planted ordering bug.

``skip-same-instant-cancel`` makes the hybrid event core "forget" to
cancel timers due at the current instant, so stale continuations fire
as counted events and the wheel core's trajectory diverges from the
reference heap.  The explorer must flag exactly the ``event_wheel``
cells, and the minimizer must shrink the widest failing cell to the
single-knob delta ``{event_wheel: True}`` with an empty (<= 5 swap)
perturbation trace -- the acceptance criterion of the harness.
"""

import pytest

from repro.errors import SimulationError
from repro.obs.flight_recorder import load_postmortem
from repro.verify import (
    build_matrix,
    dump_repro,
    minimize_failure,
    planted_mutation,
    replay_bundle,
    run_matrix,
)
from repro.verify.minimize import _shrink_trace
from repro.verify.scenario import verify_cell

SMALL = {"messages": 4, "storm_rounds": 12, "migrate_at_ms": 200}
MUT = "skip-same-instant-cancel"

BASE_CONFIG = {
    "base_seed": 11,
    "scenario": "ordering",
    "scenario_config": SMALL,
    "mutation": MUT,
    "toggles": {},
    "perturb": None,
}


def _mutated_matrix():
    cells = build_matrix("sample:8", seed=11)
    return cells, run_matrix(cells, base_seed=11, scenario_config=SMALL,
                             mutation=MUT)


def test_mutation_diverges_only_on_the_wheel_core():
    clean = verify_cell({"base_seed": 11, "scenario_config": SMALL}, 0)
    heap = verify_cell({"base_seed": 11, "scenario_config": SMALL,
                        "mutation": MUT}, 0)
    wheel = verify_cell({"base_seed": 11, "scenario_config": SMALL,
                         "mutation": MUT,
                         "toggles": {"event_wheel": True}}, 0)
    # The bug is wheel-specific: the heap core is the unharmed reference.
    assert heap["payload_sha256"] == clean["payload_sha256"]
    assert wheel["payload_sha256"] != clean["payload_sha256"]
    # Stale fires are inert no-ops, so only the event count moves.
    assert wheel["kpis"]["events"] > clean["kpis"]["events"]
    assert wheel["stable"] == clean["stable"]


def test_explorer_flags_exactly_the_event_wheel_cells():
    cells, result = _mutated_matrix()
    assert not result.ok
    flagged = {f["index"] for f in result.failures}
    wheel = {i for i, c in enumerate(cells)
             if c["toggles"].get("event_wheel")}
    assert flagged == wheel and wheel
    for failure in result.failures:
        assert failure["expect"] == "byte"
        assert any("digest differs" in r for r in failure["reasons"])


def test_minimizer_shrinks_to_a_single_knob():
    cells, result = _mutated_matrix()
    widest = max(result.failures,
                 key=lambda f: len(cells[f["index"]]["toggles"]))
    cell = cells[widest["index"]]
    minimal = minimize_failure(cell, dict(BASE_CONFIG), result.results[0])
    assert minimal.cell["toggles"] == {"event_wheel": True}
    trace = (minimal.cell["perturb"] or {}).get("replay") or []
    assert len(trace) <= 5


def test_greedy_reversion_drops_every_innocent_toggle():
    """The toggle reducer on a synthetic failure predicate: the cell
    fails iff ``event_wheel`` is on, so every other delta must go."""

    class FakeProber:
        def failure(self, cell):
            return ["boom"] if cell["toggles"].get("event_wheel") else []

    from repro.verify.matrix import make_cell
    from repro.verify.minimize import _shrink_toggles

    cell = make_cell({"burst_pacing": True, "event_wheel": True,
                      "load_cache": True})
    dropped = []
    shrunk = _shrink_toggles(cell, FakeProber(), dropped)
    assert shrunk["toggles"] == {"event_wheel": True}
    assert sorted(dropped) == ["burst_pacing", "load_cache"]


def test_minimal_repro_round_trips_through_a_bundle(tmp_path):
    cells, result = _mutated_matrix()
    cell = cells[result.failures[0]["index"]]
    minimal = minimize_failure(cell, dict(BASE_CONFIG), result.results[0])
    bundle = dump_repro(minimal, str(tmp_path / "repro"))

    manifest = load_postmortem(bundle)["manifest"]
    assert manifest["mutations"] == [MUT]
    repro = manifest["context"]["verify_repro"]
    assert repro["toggles"] == {"event_wheel": True}
    assert repro["mutation"] == MUT

    verdict = replay_bundle(bundle)
    assert verdict["still_fails"]
    assert any("digest differs" in r for r in verdict["reasons"])


def test_minimizer_refuses_a_passing_cell():
    cells = build_matrix("sample:8", seed=11)
    result = run_matrix(cells, base_seed=11, scenario_config=SMALL)
    assert result.ok
    config = dict(BASE_CONFIG, mutation=None)
    with pytest.raises(SimulationError):
        minimize_failure(cells[1], config, result.results[0])


def test_planted_mutation_context_manager_clears_on_exit():
    from repro.sim.engine import _PLANTED
    from repro.verify import planted

    with planted_mutation(MUT):
        assert planted() == [MUT]
        assert _PLANTED.skip_same_instant_cancel
    assert planted() == []


def test_ddmin_finds_the_minimal_swap_set():
    """The trace reducer on a synthetic failure predicate: the cell
    fails iff swaps {21, 34} are both replayed.  ddmin must land on
    exactly that pair regardless of the other 18 recorded swaps."""

    class FakeProber:
        probes = 0

        def failure(self, cell):
            self.probes += 1
            replay = set((cell["perturb"] or {}).get("replay") or [])
            return ["boom"] if {21, 34} <= replay else []

    from repro.verify.matrix import make_cell

    full_trace = list(range(1, 41, 2))  # odd ordinals 1..39, incl. 21
    full_trace.append(34)
    cell = make_cell(perturb={"seed": 0, "rate": 0.0,
                              "replay": sorted(full_trace)})
    shrunk, dropped = _shrink_trace(cell, FakeProber())
    assert sorted(shrunk["perturb"]["replay"]) == [21, 34]
    assert dropped == len(full_trace) - 2
