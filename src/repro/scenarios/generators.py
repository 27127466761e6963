"""Seeded generators for every scenario family.

Each generator returns a :class:`~repro.scenarios.scenario.ScenarioSet`
whose enumeration order, labels and digests are a pure function of its
arguments — large spaces are sampled through explicitly seeded
generators, so two processes (or a test and its subprocess) produce
identical sets.  Families:

* ``link`` / ``arc`` — the paper's single-failure enumerations.
* ``node`` — single node failures (Section V-F).
* ``srlg`` — shared-risk link groups: fibers sharing a conduit fail
  together; groups are seeded samples, geographically clustered when the
  topology carries coordinates (cf. correlated/cascaded failures in
  Como et al., *Robust Distributed Routing – Part II*).
* ``multi<k>`` — k simultaneous link failures (footnote 16).
* ``regional`` — geometry-based regional failures: every link with an
  endpoint inside a disk goes down (fiber cut / power event; routers
  stay up, so traffic is *not* removed — see docs/DESIGN.md).
* ``surge`` / ``hotspot`` / ``rescale`` — traffic-side scenarios
  (Gaussian fluctuation, hot-spot incidents, uniform growth), failures
  left at ``NORMAL``.
* cross products — :func:`cross` composes a failure family with a
  variant family (e.g. every SRLG under every surge).

:func:`build_scenarios` parses the ``repro-exp --scenarios`` syntax:
comma-separated families, ``x`` for cross products
(``"srlg,multi2,linkxsurge"``).
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.routing.failures import FailureModel, FailureScenario
from repro.routing.network import Network
from repro.scenarios.scenario import Scenario, ScenarioSet
from repro.scenarios.variants import (
    GaussianSurge,
    GravityRescale,
    HotspotSurge,
    TrafficVariant,
)

#: Seed streams separating the sampling randomness of each family.
_SRLG_STREAM = 110
_KLINK_STREAM = 111
_REGIONAL_STREAM = 112


def _family_rng(seed: int, stream: int) -> np.random.Generator:
    """The deterministic generator of one family's sampling."""
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


# ----------------------------------------------------------------------
# failure-side families
# ----------------------------------------------------------------------
def legacy_failures(
    network: Network, model: FailureModel = FailureModel.LINK
) -> ScenarioSet:
    """The paper's single-failure enumeration (Section III).

    ``FailureModel.LINK`` gives one scenario per physical link: a
    bidirectional pair fails together, a one-way arc fails alone.
    ``FailureModel.ARC`` gives one scenario per directed arc.  Scenarios
    are tagged with the model's value as their kind (order, labels and
    digests pinned by tests).
    """
    if model is FailureModel.ARC:
        failures = (
            FailureScenario(failed_arcs=(a,), label=f"arc:{a}")
            for a in range(network.num_arcs)
        )
    else:
        failures = (
            FailureScenario(failed_arcs=group, label=f"link:{group[0]}")
            for group in network.link_groups
        )
    return ScenarioSet.from_failures(failures, kind=model.value)


def node_failures(
    network: Network, nodes: Sequence[int] | None = None
) -> ScenarioSet:
    """Single node failures (Section V-F), one scenario per node.

    Every incident arc dies, and the node's originated and destined
    traffic is removed.

    Args:
        network: the topology.
        nodes: nodes to fail (default: every node).
    """
    if nodes is None:
        nodes = range(network.num_nodes)
    failures = (
        FailureScenario(
            failed_arcs=tuple(int(a) for a in network.arcs_of_node(v)),
            removed_nodes=(v,),
            label=f"node:{v}",
        )
        for v in nodes
    )
    return ScenarioSet.from_failures(failures, kind="node")


def _link_endpoints(network: Network) -> np.ndarray:
    """``(num_links, 2)`` node-id endpoints of each physical link."""
    ends = np.empty((len(network.link_groups), 2), dtype=np.intp)
    for i, group in enumerate(network.link_groups):
        arc = network.arcs[group[0]]
        ends[i] = (arc.src, arc.dst)
    return ends


def srlg_failures(
    network: Network,
    num_groups: int | None = None,
    group_size: int = 3,
    seed: int = 0,
    groups: Sequence[Sequence[int]] | None = None,
) -> ScenarioSet:
    """Shared-risk link groups: each group's links fail simultaneously.

    Groups are either given explicitly (link-group indices into
    ``network.link_groups``) or sampled deterministically from ``seed``:
    each sampled group is a seed link plus its ``group_size - 1``
    geographically nearest links (by midpoint distance) when the
    topology carries node positions — conduit-sharing fibers are
    spatially close — and a uniform random draw otherwise.  Duplicate
    groups are dropped, first occurrence wins.

    Args:
        network: the topology.
        num_groups: SRLGs to sample (default: ``max(4, num_links // 4)``).
        group_size: links per SRLG (clamped to the link count).
        seed: sampling seed.
        groups: explicit groups (skips sampling entirely).
    """
    link_groups = network.link_groups
    num_links = len(link_groups)
    size = max(2, min(group_size, num_links))
    if groups is None:
        if num_groups is None:
            num_groups = max(4, num_links // 4)
        num_groups = min(num_groups, num_links)
        rng = _family_rng(seed, _SRLG_STREAM)
        seeds = rng.choice(num_links, size=num_groups, replace=False)
        if network.positions is not None:
            ends = _link_endpoints(network)
            midpoints = (
                network.positions[ends[:, 0]] + network.positions[ends[:, 1]]
            ) / 2.0
            groups = []
            for s in seeds:
                dists = np.linalg.norm(midpoints - midpoints[int(s)], axis=1)
                order = np.argsort(dists, kind="stable")
                groups.append(tuple(int(i) for i in order[:size]))
        else:
            groups = []
            for s in seeds:
                # Draw the extra members from the other links only, so
                # a group never silently shrinks below ``size``.
                others = rng.choice(
                    num_links - 1, size=size - 1, replace=False
                )
                members = {int(s)}
                for i in others:
                    i = int(i)
                    members.add(i + 1 if i >= int(s) else i)
                groups.append(tuple(sorted(members)))
    scenarios = []
    seen: set[frozenset[int]] = set()
    for group in groups:
        members = tuple(sorted(int(g) for g in group))
        key = frozenset(members)
        if key in seen:
            continue
        seen.add(key)
        arcs: tuple[int, ...] = ()
        for g in members:
            arcs += link_groups[g]
        label = "srlg:" + "+".join(
            str(link_groups[g][0]) for g in members
        )
        scenarios.append(
            Scenario(
                failure=FailureScenario(failed_arcs=arcs, label=label),
                kind="srlg",
            )
        )
    return ScenarioSet(tuple(scenarios), name="srlg")


def k_link_failures(
    network: Network,
    k: int = 2,
    max_scenarios: int | None = None,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> ScenarioSet:
    """All (or a seeded sample of) k simultaneous link failures.

    Footnote 16's multi-failure stressor.  Combinations enumerate in
    ``itertools.combinations`` order over ``network.link_groups``; a
    sample keeps the order of the generator's draws (digests pinned by
    tests).

    Args:
        network: the topology.
        k: simultaneous link count (>= 2).
        max_scenarios: sample size when the combination space is larger.
        seed: sampling seed (builds an rng when ``rng`` is not given).
        rng: explicit generator (takes precedence over ``seed``).
    """
    if k < 2:
        raise ValueError("k must be >= 2 (use single-failure families)")
    groups = network.link_groups
    combos = list(itertools.combinations(range(len(groups)), k))
    if max_scenarios is not None and len(combos) > max_scenarios:
        if rng is None:
            if seed is None:
                raise ValueError(
                    "sampling k-link failures needs seed or rng"
                )
            rng = _family_rng(seed, _KLINK_STREAM)
        chosen = rng.choice(len(combos), size=max_scenarios, replace=False)
        combos = [combos[int(i)] for i in chosen]
    scenarios = []
    for combo in combos:
        arcs: tuple[int, ...] = ()
        for g in combo:
            arcs += groups[g]
        label = f"link{k}:" + "+".join(str(groups[g][0]) for g in combo)
        scenarios.append(
            Scenario(
                failure=FailureScenario(failed_arcs=arcs, label=label),
                kind=f"multi{k}",
            )
        )
    return ScenarioSet(tuple(scenarios), name=f"multi{k}")


def regional_failures(
    network: Network,
    num_regions: int = 4,
    radius_fraction: float = 0.25,
    seed: int = 0,
) -> ScenarioSet:
    """Geometry-based regional failures: disks of dead links.

    Region centers are sampled uniformly inside the bounding box of the
    node positions; every link with at least one endpoint within
    ``radius_fraction`` of the bounding-box diagonal goes down.  Nodes
    stay up (traffic is *not* removed): this models a regional fiber
    cut or power event where end hosts elsewhere still source traffic —
    unreachable pairs are charged the disconnection penalty
    (docs/DESIGN.md).  Empty regions (no link hit) are skipped, so the
    returned set may be smaller than ``num_regions``.

    Requires node positions (synthetic topologies: unit-square
    coordinates; the ISP backbone: lon/lat).
    """
    if network.positions is None:
        raise ValueError(
            "regional failures need node positions; this topology has none"
        )
    if num_regions < 1:
        raise ValueError("num_regions must be >= 1")
    if not 0 < radius_fraction <= 1:
        raise ValueError("radius_fraction must lie in (0, 1]")
    positions = network.positions
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    radius = radius_fraction * float(np.linalg.norm(hi - lo))
    rng = _family_rng(seed, _REGIONAL_STREAM)
    centers = rng.uniform(lo, hi, size=(num_regions, 2))
    ends = _link_endpoints(network)
    scenarios = []
    for i, center in enumerate(centers):
        in_region = np.linalg.norm(positions - center, axis=1) <= radius
        hit = in_region[ends[:, 0]] | in_region[ends[:, 1]]
        if not hit.any():
            continue
        arcs: tuple[int, ...] = ()
        for g in np.flatnonzero(hit):
            arcs += network.link_groups[int(g)]
        scenarios.append(
            Scenario(
                failure=FailureScenario(
                    failed_arcs=arcs, label=f"region:{i}"
                ),
                kind="regional",
            )
        )
    return ScenarioSet(tuple(scenarios), name="regional")


# ----------------------------------------------------------------------
# traffic-side families
# ----------------------------------------------------------------------
def gaussian_surges(
    count: int = 5, eps: float = 0.2, seed: int = 0
) -> ScenarioSet:
    """``count`` independent Gaussian fluctuation instances (no failure)."""
    scenarios = tuple(
        Scenario(variant=GaussianSurge(eps=eps, seed=seed + i), kind="surge")
        for i in range(count)
    )
    return ScenarioSet(scenarios, name="surge")


def hotspot_surges(
    count: int = 5, seed: int = 0, mode: str = "download"
) -> ScenarioSet:
    """``count`` independent hot-spot incidents (no failure)."""
    scenarios = tuple(
        Scenario(
            variant=HotspotSurge(seed=seed + i, mode=mode), kind="hotspot"
        )
        for i in range(count)
    )
    return ScenarioSet(scenarios, name="hotspot")


def gravity_rescales(
    factors: Sequence[float] = (1.1, 1.25, 1.5),
) -> ScenarioSet:
    """Uniform demand-growth scenarios, one per factor (no failure)."""
    scenarios = tuple(
        Scenario(variant=GravityRescale(factor=float(f)), kind="rescale")
        for f in factors
    )
    return ScenarioSet(scenarios, name="rescale")


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------
def cross(
    failures: ScenarioSet,
    variants: "ScenarioSet | Sequence[TrafficVariant]",
    kind: str | None = None,
) -> ScenarioSet:
    """The failure × variant cross product, failures-major order.

    Args:
        failures: the failure-side set (variants must be unset).
        variants: traffic variants, or a traffic-only ScenarioSet (each
            member must carry a variant and no failure).
        kind: family tag; defaults to ``"<failkind>x<variantkind>"`` per
            pair.
    """
    if isinstance(variants, ScenarioSet):
        pairs = []
        for s in variants:
            if s.variant is None or not s.failure.is_normal:
                raise ValueError(
                    "the variant side of a cross product must be "
                    "traffic-only scenarios"
                )
            pairs.append((s.variant, s.kind))
    else:
        pairs = [(v, v.family) for v in variants]
    scenarios = []
    for f in failures:
        if f.variant is not None:
            raise ValueError(
                "the failure side of a cross product already carries "
                "traffic variants"
            )
        for variant, vkind in pairs:
            scenarios.append(
                Scenario(
                    failure=f.failure,
                    variant=variant,
                    kind=kind or f"{f.kind}x{vkind}",
                )
            )
    if isinstance(variants, ScenarioSet):
        variants_name = variants.name
    else:
        variants_name = "+".join(
            dict.fromkeys(v.family for v in variants)
        )
    name = f"{failures.name}x{variants_name}"
    return ScenarioSet(tuple(scenarios), name=name)


# ----------------------------------------------------------------------
# the CLI family registry
# ----------------------------------------------------------------------
#: Families accepted by ``repro-exp --scenarios`` (and their meaning).
FAMILIES: tuple[str, ...] = (
    "link",
    "arc",
    "node",
    "srlg",
    "multi2",
    "multi3",
    "regional",
    "surge",
    "hotspot",
    "rescale",
)

#: Default sample cap for combinatorial families built via the registry.
DEFAULT_MAX_SCENARIOS = 60

#: Default traffic-variant draws for surge-type families.
DEFAULT_SURGE_COUNT = 5


def scenario_family(
    name: str, network: Network, seed: int = 0
) -> ScenarioSet:
    """Build one named family with registry defaults.

    Args:
        name: one of :data:`FAMILIES` (``multi<k>`` accepts any k >= 2).
        network: the topology.
        seed: sampling seed for the seeded families.
    """
    if name == "link":
        return legacy_failures(network, FailureModel.LINK)
    if name == "arc":
        return legacy_failures(network, FailureModel.ARC)
    if name == "node":
        return node_failures(network)
    if name == "srlg":
        return srlg_failures(network, seed=seed)
    if name.startswith("multi"):
        try:
            k = int(name[len("multi"):])
        except ValueError:
            raise ValueError(f"unknown scenario family {name!r}") from None
        return k_link_failures(
            network, k=k, max_scenarios=DEFAULT_MAX_SCENARIOS, seed=seed
        )
    if name == "regional":
        return regional_failures(network, seed=seed)
    if name == "surge":
        return gaussian_surges(count=DEFAULT_SURGE_COUNT, seed=seed)
    if name == "hotspot":
        return hotspot_surges(count=DEFAULT_SURGE_COUNT, seed=seed)
    if name == "rescale":
        return gravity_rescales()
    raise ValueError(
        f"unknown scenario family {name!r}; choose from "
        f"{', '.join(FAMILIES)} or a '<failure>x<traffic>' cross"
    )


def build_scenarios(
    spec: str, network: Network, seed: int = 0
) -> ScenarioSet:
    """Parse a ``--scenarios`` spec into one concatenated ScenarioSet.

    Grammar: comma-separated family names; a token ``AxB`` is the cross
    product of failure family ``A`` with traffic family ``B`` (e.g.
    ``"srlg,multi2,linkxsurge"``).  Enumeration order follows the spec.
    """
    parts = [token.strip() for token in spec.split(",") if token.strip()]
    if not parts:
        raise ValueError("empty --scenarios spec")
    built: ScenarioSet | None = None
    for token in parts:
        if "x" in token and token not in FAMILIES:
            fail_name, _, variant_name = token.partition("x")
            family = cross(
                scenario_family(fail_name, network, seed),
                scenario_family(variant_name, network, seed),
            )
        else:
            family = scenario_family(token, network, seed)
        built = family if built is None else built + family
    assert built is not None
    return ScenarioSet(built.scenarios, name=spec)
