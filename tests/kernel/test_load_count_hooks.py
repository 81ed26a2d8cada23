"""The per-logical-host load counts, one hook at a time.

Each :class:`~repro.kernel.logical_host.LogicalHost` keeps ``programs``
(PCBs at ``LOCAL`` priority or worse) and ``remote`` (PCBs at
``REMOTE``) current as its process table and its processes' priorities
change; ``Kernel.load_summary`` only sums them.  These tests drive each
hook on its own; ``tests/properties/test_load_counts.py`` checks random
mixtures against a process scan.
"""

from repro.ipc.messages import Message
from repro.kernel import Delay, Priority
from repro.kernel.kernel_server import _h_create_shell, _h_install_state
from repro.migration.transfer import (
    extract_bundle,
    process_descriptors,
    space_descriptors,
)

from tests.helpers import BareCluster


def _parked():
    yield Delay(10**9)


def _counts(lh):
    return lh.programs, lh.remote


def test_priority_change_into_and_out_of_the_program_band():
    cluster = BareCluster(n=1)
    ws = cluster.stations[0]
    lh, pcb = cluster.spawn_program(ws, _parked(), priority=Priority.SERVER)
    cluster.run(until_us=1_000)
    base = ws.kernel.load_summary()
    assert _counts(lh) == (0, 0)

    ws.kernel.set_priority(pcb, Priority.REMOTE)
    assert _counts(lh) == (1, 1)
    summary = ws.kernel.load_summary()
    assert (summary["programs"], summary["remote"]) == (
        base["programs"] + 1, base["remote"] + 1)

    ws.kernel.set_priority(pcb, Priority.BACKGROUND)
    assert _counts(lh) == (1, 0)

    ws.kernel.set_priority(pcb, Priority.SERVER)
    assert _counts(lh) == (0, 0)
    assert ws.kernel.load_summary() == base


def _build_shell(cluster):
    """Freeze a two-process (LOCAL + SERVER) logical host on station 0
    and build its migration shell on station 1, as the migration manager
    does.  Returns (source kernel, destination kernel, source lh, shell)."""
    src, dst = cluster.stations[0].kernel, cluster.stations[1].kernel
    lh, _ = cluster.spawn_program(cluster.stations[0], _parked(),
                                  priority=Priority.LOCAL, name="prog")
    cluster.spawn_program(cluster.stations[0], _parked(),
                          priority=Priority.SERVER, name="helper", lh=lh)
    cluster.run(until_us=1_000)
    src.freeze_logical_host(lh)
    reply = _h_create_shell(dst, None, Message(
        "create-shell", spaces=space_descriptors(lh),
        processes=process_descriptors(lh)))
    shell = dst.logical_hosts[reply["temp_lhid"]]
    return src, dst, lh, shell


def test_shell_stubs_count_as_remote_until_install():
    cluster = BareCluster(n=2)
    src, dst, lh, shell = _build_shell(cluster)
    assert _counts(lh) == (1, 0)
    assert _counts(shell) == (2, 2)
    summary = dst.load_summary()
    assert (summary["programs"], summary["remote"]) == (2, 2)

    reply = _h_install_state(dst, None, Message(
        "install-state", temp_lhid=shell.lhid, bundle=extract_bundle(src, lh)))
    assert reply.kind == "installed"
    # The stubs took the bundle's priorities: one LOCAL, one SERVER.
    assert _counts(shell) == (1, 0)
    summary = dst.load_summary()
    assert (summary["programs"], summary["remote"]) == (1, 0)


def test_migrated_destroy_zeroes_the_source_counts():
    cluster = BareCluster(n=2)
    src, dst, lh, shell = _build_shell(cluster)
    _h_install_state(dst, None, Message(
        "install-state", temp_lhid=shell.lhid, bundle=extract_bundle(src, lh)))
    assert src.load_summary()["programs"] == 1

    src.destroy_logical_host(lh, migrated=True)
    assert _counts(lh) == (0, 0)
    assert lh.processes == {}
    assert src.load_summary()["programs"] == 0
    assert _counts(shell) == (1, 0)
