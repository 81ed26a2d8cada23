"""Edge-case tests for transport misuse and rarely-hit paths."""

import pytest

from repro.errors import IpcError, KernelError
from repro.ipc import Message
from repro.kernel import Compute, Receive, Reply, Send
from repro.kernel.ids import PROGRAM_MANAGER_GROUP, Pid
from repro.kernel.process import Decline, Forward

from tests.helpers import BareCluster


class TestMisuse:
    def test_reply_without_pending_message_faults_program(self):
        cluster = BareCluster(n=1)
        cluster.sim.strict = False
        ws = cluster.stations[0]

        def bad_server():
            yield Reply(Pid(0x10, 0x42), Message("oops"))

        _, pcb = cluster.spawn_program(ws, bad_server(), name="bad")
        cluster.run()
        assert pcb in ws.kernel.faulted

    def test_decline_without_pending_message_faults_program(self):
        cluster = BareCluster(n=1)
        cluster.sim.strict = False
        ws = cluster.stations[0]

        def bad_server():
            yield Decline(Pid(0x10, 0x42))

        _, pcb = cluster.spawn_program(ws, bad_server(), name="bad")
        cluster.run()
        assert pcb in ws.kernel.faulted

    def test_forward_without_pending_message_faults_program(self):
        cluster = BareCluster(n=1)
        cluster.sim.strict = False
        ws = cluster.stations[0]

        def bad_server():
            yield Forward(Pid(0x10, 0x42), Message("x"), Pid(0x10, 0x43))

        _, pcb = cluster.spawn_program(ws, bad_server(), name="bad")
        cluster.run()
        assert pcb in ws.kernel.faulted

    def test_copy_to_global_group_rejected(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        lh = ws.kernel.create_logical_host()
        space = ws.kernel.allocate_space(lh, 4096)

        def idle():
            yield Compute(10)

        pcb = ws.kernel.create_process(lh, idle(), name="p")
        with pytest.raises(IpcError):
            ws.kernel.ipc.copy_to(pcb, PROGRAM_MANAGER_GROUP, space.pages)
        with pytest.raises(IpcError):
            ws.kernel.ipc.copy_from(pcb, PROGRAM_MANAGER_GROUP, [0])

    def test_double_reply_faults_program(self):
        cluster = BareCluster(n=1)
        cluster.sim.strict = False
        ws = cluster.stations[0]

        def double_replier():
            sender, msg = yield Receive()
            yield Reply(sender, msg.replying(ok=1))
            yield Reply(sender, msg.replying(ok=2))

        lh, server = cluster.spawn_program(ws, double_replier(), name="srv")
        got = []

        def client():
            reply = yield Send(server.pid, Message("ping"))
            got.append(reply["ok"])

        cluster.spawn_program(ws, client(), lh=lh, name="client")
        cluster.run(until_us=10_000_000)
        assert got == [1]
        assert server in ws.kernel.faulted

    def test_unknown_instruction_faults_program(self):
        cluster = BareCluster(n=1)
        cluster.sim.strict = False
        ws = cluster.stations[0]

        def weird():
            yield object()

        _, pcb = cluster.spawn_program(ws, weird(), name="weird")
        cluster.run()
        # The scheduler records the fault rather than wedging the CPU.
        assert not pcb.alive

    def test_unknown_packet_kind_is_a_protocol_error(self):
        cluster = BareCluster(n=2)
        a, b = cluster.stations
        a.nic.emit(b.nic.address, "no-such-kind", None)
        with pytest.raises(IpcError, match="unknown packet kind 'no-such-kind'"):
            cluster.run()
        # Known kinds map to the transport's _on_* handlers.
        handlers = b.nic.handlers
        assert handlers["ghq-reply"] == b.kernel.ipc._on_ghq_reply
        assert handlers["copyfrom-data"] == b.kernel.ipc._on_copyfrom_data


class TestGroupReplies:
    def test_group_replies_empty_without_group_send(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]

        def idle():
            yield Compute(10)

        _, pcb = cluster.spawn_program(ws, idle(), name="p")
        assert ws.kernel.ipc.group_replies(pcb) == []


class TestCounters:
    def test_transport_counters_accumulate(self):
        cluster = BareCluster(n=2)
        a, b = cluster.stations

        def echo():
            while True:
                sender, msg = yield Receive()
                yield Reply(sender, msg.replying(ok=True))

        _, server = cluster.spawn_program(b, echo(), name="srv")

        def client():
            for _ in range(3):
                yield Send(server.pid, Message("ping"))

        cluster.spawn_program(a, client(), name="client")
        cluster.run(until_us=10_000_000)
        assert a.kernel.ipc.sends == 3
        assert a.kernel.ipc.remote_requests >= 3
        assert b.kernel.ipc.frozen_checks >= 3

    def test_local_requests_counted_separately(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]

        def echo():
            sender, msg = yield Receive()
            yield Reply(sender, msg.replying(ok=True))

        lh, server = cluster.spawn_program(ws, echo(), name="srv")

        def client():
            yield Send(server.pid, Message("ping"))

        cluster.spawn_program(ws, client(), lh=lh, name="client")
        cluster.run(until_us=5_000_000)
        assert ws.kernel.ipc.local_requests >= 1
        assert ws.kernel.ipc.remote_requests == 0


class TestContactTracking:
    def test_contacted_pids_accumulate_per_logical_host(self):
        cluster = BareCluster(n=2)
        a, b = cluster.stations

        def echo():
            while True:
                sender, msg = yield Receive()
                yield Reply(sender, msg.replying(ok=True))

        _, server = cluster.spawn_program(b, echo(), name="srv")
        lh = None

        def client():
            yield Send(server.pid, Message("ping"))

        lh, _ = cluster.spawn_program(a, client(), name="client")
        cluster.run(until_us=5_000_000)
        assert server.pid in lh.contacted_pids


class TestFrozenCopyTarget:
    def test_copyto_into_frozen_host_defers_until_unfreeze(self):
        """Paper footnote 5: a CopyTo to a process is a request message,
        so a frozen target defers it; the sender neither fails nor
        corrupts the frozen copy mid-migration."""
        from repro.config import PAGE_SIZE
        from repro.kernel import CopyToInstr, Delay

        cluster = BareCluster(n=2)
        a, b = cluster.stations

        def idle():
            yield Delay(3_600_000_000)

        dst_lh, dst_pcb = cluster.spawn_program(
            b, idle(), space_bytes=PAGE_SIZE * 8, name="dst"
        )
        src_lh = a.kernel.create_logical_host()
        src_space = a.kernel.allocate_space(src_lh, PAGE_SIZE * 8, name="src")
        src_space.load_image()
        done = []

        def copier():
            n = yield CopyToInstr(dst_pcb.pid, src_space.pages)
            done.append((cluster.sim.now, n))

        b.kernel.freeze_logical_host(dst_lh)
        cluster.spawn_program(a, copier(), name="copier")
        cluster.run(until_us=2_000_000)
        assert done == []  # frozen: the copy is pending, not applied
        frozen_versions = [p.version for p in dst_pcb.space.pages]
        assert all(v == 0 for v in frozen_versions)  # untouched while frozen
        unfroze_at = cluster.sim.now
        b.kernel.unfreeze_logical_host(dst_lh)
        cluster.run(until_us=60_000_000)
        assert done and done[0][0] > unfroze_at
        assert dst_pcb.space.identical_to(src_space)
