"""Packet delivery through ``Nic.emit`` and coalesced receive processing."""

from repro.config import DEFAULT_MODEL
from repro.net import BROADCAST, Ethernet, Nic
from repro.net.addresses import workstation_address
from repro.sim import Simulator
from repro.sim.engine import arm_perturber
from repro.verify import TiePerturber


def make_net(n_hosts=2, seed=0, perturber=None):
    sim = Simulator(seed=seed)
    if perturber is not None:
        sim.install_perturber(perturber)
    net = Ethernet(sim, DEFAULT_MODEL)
    nics = []
    for i in range(n_hosts):
        nic = Nic(sim, workstation_address(i))
        net.attach(nic)
        nics.append(nic)
    return sim, net, nics


class TestPooledDelivery:
    def test_emit_delivers_like_send(self):
        sim, net, nics = make_net(2)
        got = []
        nics[1].install_handler(lambda p: got.append((p.kind, p.payload)))
        nics[0].emit(nics[1].address, "hello", {"n": 1})
        sim.run()
        assert got == [("hello", {"n": 1})]

    def test_handler_keeping_packet_blocks_recycling(self):
        # A frame a receiver keeps is never reused for later traffic.
        sim, net, nics = make_net(2)
        kept = []
        nics[1].install_handler(kept.append)
        nics[0].emit(nics[1].address, "keep", {"v": 7})
        sim.run()
        assert kept[0].payload == {"v": 7}
        nics[0].emit(nics[1].address, "second", None)
        sim.run()
        assert kept[0].kind == "keep"
        assert kept[1] is not kept[0]


class TestBatchedRx:
    """Coalescing happens on the receive-*processing* hop: handlers that
    charge a per-packet protocol delay via ``nic.schedule_rx`` (as the
    IPC transport does), not raw same-event delivery callbacks."""

    @staticmethod
    def _processing_handlers(sim, nics, got, delay_us=25):
        for i, nic in enumerate(nics[1:], start=1):
            def handler(p, nic=nic, i=i):
                nic.schedule_rx(delay_us, lambda pp, i=i: got.append(
                    (i, sim.now)), p)
            nic.install_handler(handler)

    def test_broadcast_processing_coalesces_and_preserves_order(self):
        sim, net, nics = make_net(4)
        got = []
        self._processing_handlers(sim, nics, got)
        nics[0].emit(BROADCAST, "q", None)
        sim.run()
        # All three process at the same simulated instant, in attach
        # order -- exactly as three separate events would have.
        assert [i for i, _ in got] == [1, 2, 3]
        assert len({t for _, t in got}) == 1
        assert net.rx_coalesced == 2  # 3 handler timers in 1 event

    def test_event_count_matches_unbatched_world(self):
        # A perturber switches coalescing off; at rate 0 it takes no
        # swap, so the run is the unbatched execution of the same world.
        def run(perturber):
            sim, net, nics = make_net(4, seed=3, perturber=perturber)
            got = []
            self._processing_handlers(sim, nics, got)
            for _ in range(5):
                nics[0].emit(BROADCAST, "q", None)
            sim.run()
            return (sim.now, sim.event_count, got), net.rx_coalesced

        batched, coalesced = run(None)
        unbatched, none_coalesced = run(TiePerturber(seed=1, rate=0.0))
        assert coalesced > 0
        assert none_coalesced == 0
        assert batched == unbatched

    def test_perturber_can_reorder_broadcast_receive_handlers(self):
        # V kernels give a broadcast's receive handlers no defined
        # order, so each one must be a swap opportunity of its own.
        sim, net, nics = make_net(4, perturber=TiePerturber(rate=0.0))
        got = []
        self._processing_handlers(sim, nics, got)
        nics[0].emit(BROADCAST, "q", None)
        sim.run()
        assert sim._perturber.opportunities == 2
        assert [i for i, _ in got] == [1, 2, 3]

        sim, net, nics = make_net(4, perturber=TiePerturber(replay=[2]))
        got = []
        self._processing_handlers(sim, nics, got)
        nics[0].emit(BROADCAST, "q", None)
        sim.run()
        assert [i for i, _ in got] == [1, 3, 2]


def _exec_storm(perturber=None, n_ws=5, jobs=4):
    """``jobs`` back-to-back ``@ *`` execs (each one a multicast host
    query answered by every program manager); returns the trajectory,
    the coalesced-handler count and the perturber."""
    from repro.cluster import build_cluster
    from repro.execution import ExecSpec, run_program
    from repro.workloads import standard_registry

    arm_perturber(perturber)
    try:
        cluster = build_cluster(n_workstations=n_ws, seed=5,
                                registry=standard_registry(scale=0.2))
    finally:
        arm_perturber(None)
    codes = []

    def session(ctx):
        for i in range(jobs):
            codes.append((yield from run_program(
                ctx, ExecSpec("cc68", args=(f"f{i}.c",), where="*"))))

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=600_000_000)
    sim = cluster.sim
    trajectory = (sim.now, sim.event_count, cluster.net.packets_sent,
                  tuple(codes))
    return trajectory, cluster.net.rx_coalesced, sim._perturber


def test_zero_rate_perturber_leaves_exec_storm_trajectory_unchanged():
    batched, coalesced, _ = _exec_storm()
    unbatched, none_coalesced, perturber = _exec_storm(
        TiePerturber(seed=2, rate=0.0))
    assert batched[3] == (0,) * 4
    assert coalesced > 0
    assert none_coalesced == 0
    assert perturber.swaps == [] and perturber.opportunities > 0
    assert unbatched == batched
