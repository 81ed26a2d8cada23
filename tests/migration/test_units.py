"""Unit tests for migration internals: stats, policy, descriptors."""

import pytest

from repro.config import PAGE_SIZE
from repro.errors import NotMigratableError
from repro.kernel import AddressSpace, LogicalHost, Pcb
from repro.kernel.ids import Pid
from repro.migration.precopy import PrecopyPolicy
from repro.migration.stats import MigrationStats, RoundStats
from repro.migration.transfer import (
    process_descriptors,
    space_descriptors,
    space_representatives,
)


class TestPrecopyPolicy:
    def test_stops_at_small_residual(self):
        policy = PrecopyPolicy(residual_threshold_bytes=8 * PAGE_SIZE,
                               min_reduction=0.5, max_rounds=10)
        assert policy.should_stop(dirty_pages=8, previous_pages=100, rounds_done=1)
        assert not policy.should_stop(dirty_pages=9, previous_pages=100, rounds_done=1)

    def test_stops_when_no_significant_reduction(self):
        policy = PrecopyPolicy(residual_threshold_bytes=0, min_reduction=0.5,
                               max_rounds=10)
        # 60 dirty after a 100-page round: shrunk to 60% > 50% -> stop.
        assert policy.should_stop(dirty_pages=60, previous_pages=100, rounds_done=2)
        # 40 dirty after 100: good reduction -> continue.
        assert not policy.should_stop(dirty_pages=40, previous_pages=100,
                                      rounds_done=2)

    def test_stops_at_max_rounds(self):
        policy = PrecopyPolicy(residual_threshold_bytes=0, min_reduction=0.0,
                               max_rounds=3)
        assert policy.should_stop(dirty_pages=1000, previous_pages=10000,
                                  rounds_done=3)

    def test_from_model_reads_calibration(self):
        from repro.config import DEFAULT_MODEL

        policy = PrecopyPolicy.from_model(DEFAULT_MODEL)
        assert policy.residual_threshold_bytes == DEFAULT_MODEL.precopy_residual_threshold_bytes
        assert policy.max_rounds == DEFAULT_MODEL.precopy_max_rounds


class TestMigrationStats:
    def test_round_accumulation(self):
        stats = MigrationStats(lhid=5)
        stats.add_round(100, 300_000)
        stats.add_round(10, 30_000)
        assert stats.precopy_rounds == 2
        assert stats.rounds[0].bytes == 100 * PAGE_SIZE
        assert stats.total_copied_bytes == 110 * PAGE_SIZE

    def test_residual_included_in_total(self):
        stats = MigrationStats(lhid=5)
        stats.add_round(100, 300_000)
        stats.residual_pages = 7
        assert stats.total_copied_bytes == 107 * PAGE_SIZE
        assert stats.residual_bytes == 7 * PAGE_SIZE

    def test_summary_strings(self):
        stats = MigrationStats(lhid=0x42)
        stats.error = "no candidate host"
        assert "FAILED" in stats.summary()
        stats.success = True
        stats.dest_host = "ws3"
        stats.freeze_us = 50_000
        assert "ws3" in stats.summary()
        assert "50.0 ms" in stats.summary()

    def test_round_stats_bytes(self):
        assert RoundStats(0, 3, 1000).bytes == 3 * PAGE_SIZE


def _parked():
    from repro.kernel.process import Delay

    yield Delay(10**9)


def make_lh(n_spaces=1, procs_per_space=1):
    lh = LogicalHost(0x99)
    for s in range(n_spaces):
        space = AddressSpace(PAGE_SIZE * 4, name=f"s{s}")
        lh.add_space(space)
        for p in range(procs_per_space):
            index = lh.allocate_index()
            pcb = Pcb(Pid(0x99, index), lh, space, _parked(), name=f"p{s}.{p}")
            lh.add_process(pcb)
    return lh


class TestDescriptors:
    def test_space_descriptors_shape(self):
        lh = make_lh(n_spaces=2)
        descs = space_descriptors(lh)
        assert len(descs) == 2
        assert descs[0] == (PAGE_SIZE * 4, 0, 0, "s0")

    def test_process_descriptors_reference_space_ordinals(self):
        lh = make_lh(n_spaces=2, procs_per_space=2)
        descs = process_descriptors(lh)
        assert len(descs) == 4
        ordinals = {d[1] for d in descs}
        assert ordinals == {0, 1}

    def test_representatives_cover_every_space(self):
        lh = make_lh(n_spaces=3, procs_per_space=1)
        reps = space_representatives(lh)
        assert set(reps) == {0, 1, 2}

    def test_space_without_process_is_not_migratable(self):
        lh = make_lh(n_spaces=1, procs_per_space=1)
        lh.add_space(AddressSpace(PAGE_SIZE, name="orphan"))
        with pytest.raises(NotMigratableError):
            space_representatives(lh)

    def test_foreign_space_process_is_not_migratable(self):
        lh = make_lh()
        foreign = AddressSpace(PAGE_SIZE, name="foreign")
        index = lh.allocate_index()
        pcb = Pcb(Pid(0x99, index), lh, foreign, _parked(), name="alien")
        lh.add_process(pcb)
        with pytest.raises(NotMigratableError):
            process_descriptors(lh)


class TestResidualDependencies:
    def test_global_server_use_is_not_a_dependency(self):
        from repro.execution import ProgramRegistry
        from repro.migration.residual import residual_dependencies

        from tests.helpers import make_cluster

        cluster = make_cluster(2, full=True, registry=ProgramRegistry())
        ws0 = cluster.workstations[0]
        lh = ws0.kernel.create_logical_host()
        ws0.kernel.allocate_space(lh, 8192)
        # The program contacted only the (remote) file server and its own
        # kernel server via the local group.
        lh.contacted_pids.add(cluster.file_servers[0].pcb.pid)
        from repro.kernel.ids import local_kernel_server_group

        lh.contacted_pids.add(local_kernel_server_group(lh.lhid))
        assert residual_dependencies(lh, ws0) == []

    def test_local_server_use_is_flagged(self):
        from repro.execution import ProgramRegistry
        from repro.migration.residual import residual_dependencies
        from repro.services.file_server import FileServer, install_file_server

        from tests.helpers import make_cluster

        cluster = make_cluster(2, full=True, registry=ProgramRegistry())
        ws0 = cluster.workstations[0]
        # A file server running ON the workstation (the paper's warning
        # case: local servers create residual dependencies).
        local_fs = install_file_server(ws0, cluster.registry, name="local-fs")
        lh = ws0.kernel.create_logical_host()
        ws0.kernel.allocate_space(lh, 8192)
        lh.contacted_pids.add(local_fs.pcb.pid)
        deps = residual_dependencies(lh, ws0)
        assert len(deps) == 1
        assert deps[0].pid == local_fs.pcb.pid
        assert deps[0].co_resident
