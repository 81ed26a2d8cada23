"""Binding-cache hit/miss counters in the obs registry."""

from repro.ipc.binding_cache import BindingCache
from repro.net.addresses import workstation_address
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator


class TestCounters:
    def test_metrics_surface_in_registry(self):
        registry = MetricsRegistry()
        registry.enable()
        cache = BindingCache(Simulator(seed=0))
        cache.bind_metrics(registry, "ws9")
        cache.learn(1, workstation_address(1))
        cache.lookup(1)
        cache.lookup(2)
        per_host = registry.snapshot()["per_host"]["ws9"]
        assert per_host["ipc.binding_hits"] == 1
        assert per_host["ipc.binding_misses"] == 1
        assert (cache.hits, cache.misses) == (1, 1)
