"""Mutation smoke: the harness must catch the planted at-most-once bug.

``redeliver-replied-duplicate`` makes the transport hand a
retransmission of an already-replied request to its recipient again
instead of re-sending the retained reply.  Only a lost reply makes a
sender retransmit an answered request, so at the default scenario config
and seed 7 the bug shows only in the ``drop`` fault cell, as an
``at-most-once`` invariant violation.  The explorer must flag exactly
that cell, and the minimizer must shrink a failing cell to the bare
schedule ``{toggles: {}, schedule: "drop"}`` with no perturbation --
the acceptance criterion of the harness.
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
MUT = "redeliver-replied-duplicate"
#: The default scenario config at this seed loses exactly one reply in
#: the ``drop`` cell, so exactly one answered request is retransmitted.
SEED = 7

BASE_CONFIG = {
    "base_seed": SEED,
    "scenario": "ordering",
    "scenario_config": {},
    "mutation": MUT,
    "toggles": {},
    "perturb": None,
}


def _mutated_matrix():
    cells = build_matrix("sample:10", seed=SEED)
    return cells, run_matrix(cells, base_seed=SEED, mutation=MUT)


def test_mutation_breaks_at_most_once_only_under_loss():
    clean = verify_cell({"base_seed": SEED}, 0)
    planted_run = verify_cell({"base_seed": SEED, "mutation": MUT}, 0)
    # Without loss no answered request is retransmitted: the bug is
    # dormant and the trajectory is the clean one, byte for byte.
    assert planted_run["payload_sha256"] == clean["payload_sha256"]
    drop = {"schedule": "drop"}
    clean_drop = verify_cell({"base_seed": SEED,
                              "scenario_config": drop}, 0)
    planted_drop = verify_cell({"base_seed": SEED, "scenario_config": drop,
                                "mutation": MUT}, 0)
    assert clean_drop["invariants_ok"]
    assert planted_drop["crash"] is None
    assert planted_drop["invariants"]["at-most-once"] == 1


def test_explorer_flags_exactly_the_drop_cell():
    cells, result = _mutated_matrix()
    assert not result.ok
    assert [cells[f["index"]]["label"] for f in result.failures] \
        == ["faults:drop"]
    (failure,) = result.failures
    assert failure["expect"] == "fault"
    assert any("at-most-once" in r for r in failure["reasons"])


def test_minimizer_shrinks_to_the_bare_schedule():
    from repro.verify.matrix import make_cell

    cell = make_cell({"burst_pacing": True, "load_cache": True},
                     schedule="drop")
    baseline = verify_cell(dict(BASE_CONFIG, mutation=None), 0)
    minimal = minimize_failure(cell, dict(BASE_CONFIG), baseline)
    assert minimal.cell["toggles"] == {}
    assert minimal.cell["schedule"] == "drop"
    assert minimal.cell["perturb"] is None
    assert sorted(minimal.dropped_toggles) == ["burst_pacing", "load_cache"]


def test_greedy_reversion_drops_every_innocent_toggle():
    """The toggle reducer on a synthetic failure predicate: the cell
    fails iff ``adaptive_precopy`` is on, so every other delta must go."""

    class FakeProber:
        def failure(self, cell):
            return ["boom"] if cell["toggles"].get("adaptive_precopy") else []

    from repro.verify.matrix import make_cell
    from repro.verify.minimize import _shrink_toggles

    cell = make_cell({"burst_pacing": True, "adaptive_precopy": True,
                      "load_cache": True})
    dropped = []
    shrunk = _shrink_toggles(cell, FakeProber(), dropped)
    assert shrunk["toggles"] == {"adaptive_precopy": True}
    assert sorted(dropped) == ["burst_pacing", "load_cache"]


def test_minimal_repro_round_trips_through_a_bundle(tmp_path):
    cells, result = _mutated_matrix()
    cell = cells[result.failures[0]["index"]]
    minimal = minimize_failure(cell, dict(BASE_CONFIG), result.results[0])
    bundle = dump_repro(minimal, str(tmp_path / "repro"))

    manifest = load_postmortem(bundle)["manifest"]
    assert manifest["mutations"] == [MUT]
    repro = manifest["context"]["verify_repro"]
    assert repro["toggles"] == {}
    assert repro["schedule"] == "drop"
    assert repro["mutation"] == MUT

    verdict = replay_bundle(bundle)
    assert verdict["still_fails"]
    assert any("at-most-once" in r for r in verdict["reasons"])


def test_minimizer_refuses_a_passing_cell():
    cells = build_matrix("sample:8", seed=11)
    result = run_matrix(cells, base_seed=11, scenario_config=SMALL)
    assert result.ok
    config = dict(BASE_CONFIG, base_seed=11, scenario_config=SMALL,
                  mutation=None)
    with pytest.raises(SimulationError):
        minimize_failure(cells[1], config, result.results[0])


def test_planted_mutation_context_manager_clears_on_exit():
    from repro.ipc.transport import _PLANTED
    from repro.verify import planted

    with planted_mutation(MUT):
        assert planted() == [MUT]
        assert _PLANTED.redeliver_replied_duplicate
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
