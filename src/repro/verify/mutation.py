"""Planted bugs for mutation smoke: prove the harness can catch one.

A verification harness that has never seen a failure proves nothing.
Each entry in :data:`MUTATIONS` names a deliberate, realistic bug wired
(dormant) into the transport behind
:data:`repro.ipc.transport._PLANTED`; the mutation-smoke test plants
one, asserts the toggle-matrix explorer flags exactly the cells it
should, and asserts the minimizer shrinks the failure to its minimal
triple.

``redeliver-replied-duplicate``
    :meth:`Transport._handle_duplicate` hands a retransmission of an
    *already-replied* request to the recipient again instead of
    re-sending the retained reply, breaking the V IPC's at-most-once
    guarantee.  Only a lost reply makes a sender retransmit an answered
    request, so the bug shows only under packet loss: the ``drop``
    fault cell reports an ``at-most-once`` invariant violation, and the
    minimal repro is the schedule alone with no toggle delta.

Plant/clear are process-global (like the toggles themselves); the
``tests/conftest.py`` hygiene fixture clears them around every test.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List

from repro.errors import SimulationError
from repro.ipc.transport import _PLANTED

#: Mutation name -> the ``_PLANTED`` flag it sets.
MUTATIONS: Dict[str, str] = {
    "redeliver-replied-duplicate": "redeliver_replied_duplicate",
}


def mutation_names() -> List[str]:
    return sorted(MUTATIONS)


def plant(name: str) -> None:
    """Plant the named bug (raises for unknown names)."""
    flag = MUTATIONS.get(name)
    if flag is None:
        raise SimulationError(
            f"unknown mutation {name!r}; known: {', '.join(mutation_names())}"
        )
    setattr(_PLANTED, flag, True)


def clear(name: str) -> None:
    """Clear the named bug (raises for unknown names)."""
    flag = MUTATIONS.get(name)
    if flag is None:
        raise SimulationError(
            f"unknown mutation {name!r}; known: {', '.join(mutation_names())}"
        )
    setattr(_PLANTED, flag, False)


def clear_all() -> None:
    """Clear every planted bug (test hygiene)."""
    for flag in MUTATIONS.values():
        setattr(_PLANTED, flag, False)


def planted() -> List[str]:
    """Names of currently planted bugs (flight-recorder manifests)."""
    return [
        name for name, flag in sorted(MUTATIONS.items())
        if getattr(_PLANTED, flag)
    ]


@contextmanager
def planted_mutation(name: str):
    """Context manager: plant ``name`` for the duration of the block."""
    plant(name)
    try:
        yield
    finally:
        clear(name)
