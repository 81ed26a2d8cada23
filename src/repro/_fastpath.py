"""Global switches for the simulator's optional protocol modes.

Two switch blocks, each read once at component construction time (a
per-packet global load would itself be hot-path overhead), so toggling
only affects components built afterwards:

* :data:`COPY_PLANE` governs the bulk-transfer data-plane *modes* (burst
  pacing, adaptive pre-copy).
* :data:`PLACEMENT` installs the placement plane (host-state caches,
  probing placement).

Every knob changes the modelled trajectory -- which packets exist -- so
each defaults **off** and is opted into per run (benchmarks,
``--copy-plane`` chaos campaigns, verify-matrix cells).  The event core
and the IPC/network data path have no switches: the binary event heap,
one receive-processing event per frame
(:meth:`repro.net.ethernet.Ethernet._deliver`), the per-transport
packet-kind handler table and the memoized wire-cost figures are simply
how the code runs.
"""

from __future__ import annotations


class PlacementFlags:
    """Switches for the placement plane (default OFF; see
    :mod:`repro.cluster.placement`).

    ``load_cache`` installs a per-host :class:`HostStateCache` daemon in
    ``build_cluster`` -- a TTL'd view of cluster load fed by piggy-backed
    digests on program-manager replies plus periodic anti-entropy
    probes.  The probes are real messages, so the knob changes the
    modelled trajectory (tolerance-diffed class, like COPY_PLANE).

    ``probe_placement`` makes ``@ *`` executions default to the
    :class:`RandomK` probing policy instead of the paper's multicast
    first-responder selection (it implies a usable cache: policies fall
    back to FirstResponder when no fresh view exists).  An explicit
    ``ExecSpec(policy=...)`` always wins over this knob.
    """

    __slots__ = (
        "load_cache",
        "probe_placement",
    )

    def __init__(self) -> None:
        self.set_all(False)

    def set_all(self, enabled: bool) -> None:
        """Switch every placement mode on or off at once."""
        for name in self.__slots__:
            setattr(self, name, enabled)

    def snapshot(self) -> dict:
        """Current switch positions (for benchmark payloads)."""
        return {name: getattr(self, name) for name in self.__slots__}


class CopyPlaneFlags:
    """Switches for the bulk-transfer data plane overhaul (default OFF).

    These change the *modelled* protocol, not just its wall-clock cost:
    ``burst_pacing`` streams K-page packet blasts (one frame and one
    pacing timer per burst instead of per page, V's 32 KB runs), and
    ``adaptive_precopy`` terminates pre-copy rounds on the observed
    dirty rate instead of static thresholds.
    Both therefore produce a *different* (still deterministic) simulated
    trajectory, so they default off; with every switch off the data
    plane is byte-identical to the per-page implementation.  Delivered
    page versions, invariant cleanliness and ``freeze_us`` accounting
    are preserved either way -- ``benchmarks/bench_simcore.py`` and the
    chaos campaign gate both positions.
    """

    __slots__ = (
        "burst_pacing",
        "adaptive_precopy",
    )

    def __init__(self) -> None:
        self.set_all(False)

    def set_all(self, enabled: bool) -> None:
        """Switch every copy-plane mode on or off at once."""
        for name in self.__slots__:
            setattr(self, name, enabled)

    def snapshot(self) -> dict:
        """Current switch positions (for benchmark payloads)."""
        return {name: getattr(self, name) for name in self.__slots__}


#: The copy data-plane switch block (default off; see CopyPlaneFlags).
COPY_PLANE = CopyPlaneFlags()

#: The placement-plane switch block (default off; see PlacementFlags).
PLACEMENT = PlacementFlags()


def knob_domains() -> dict:
    """Every toggleable knob name -> its switch block ("copy_plane" or
    "placement"), the single source of truth the differential
    verification matrix (:mod:`repro.verify`) builds toggle vectors
    from.  Every knob's canonical default is off, and every knob changes
    the modelled trajectory (tolerance-diffed class)."""
    domains = {name: "copy_plane" for name in CopyPlaneFlags.__slots__}
    domains.update({name: "placement" for name in PlacementFlags.__slots__})
    return domains


def knob_block(domain: str):
    """The switch-block singleton for a knob domain name."""
    return {"copy_plane": COPY_PLANE, "placement": PLACEMENT}[domain]
