"""The unified scenario model: topology failure × traffic variant.

A :class:`Scenario` composes a topology perturbation (a
:class:`~repro.routing.failures.FailureScenario`: failed arcs, removed
nodes) with an optional :class:`~repro.scenarios.variants.TrafficVariant`
(gravity rescale, Gaussian fluctuation, hot-spot surge).  A
:class:`ScenarioSet` is an ordered, immutable collection of scenarios —
the single currency every evaluation layer speaks
(:meth:`repro.core.evaluation.DtrEvaluator.evaluate_scenarios`).

Enumeration order is part of a set's identity: failure-cost sums fold in
scenario order, so two sets with equal :attr:`ScenarioSet.digest` produce
bit-identical sweep costs.  Digests are content hashes (never Python
``hash()``), so they are stable across processes and interpreter runs —
the seeded generators in :mod:`repro.scenarios.generators` are pinned by
tests to reproduce identical digests in a fresh subprocess.

:meth:`ScenarioSet.from_failures` wraps plain
:class:`~repro.routing.failures.FailureScenario` items without altering
order or labels; the generators use it for the paper's single-failure
families.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from repro.routing.failures import NORMAL, FailureScenario
from repro.scenarios.variants import TrafficVariant


@dataclass(frozen=True)
class Scenario:
    """One composed scenario: a failure, an optional traffic variant.

    Attributes:
        failure: the topology perturbation (``NORMAL`` for traffic-only
            scenarios).
        variant: the traffic perturbation (None keeps base traffic).
        kind: family tag used for reporting breakdowns, e.g. ``"link"``,
            ``"srlg"``, ``"regional"``, ``"surge"``, ``"linkxsurge"``.
    """

    failure: FailureScenario = NORMAL
    variant: TrafficVariant | None = None
    kind: str = "failure"

    # -- FailureScenario-compatible surface --------------------------------
    @property
    def failed_arcs(self) -> tuple[int, ...]:
        """Arc ids removed from the topology."""
        return self.failure.failed_arcs

    @property
    def removed_nodes(self) -> tuple[int, ...]:
        """Nodes whose originated/destined traffic is dropped."""
        return self.failure.removed_nodes

    @property
    def is_normal(self) -> bool:
        """True only for the unperturbed (no failure, base traffic) case."""
        return self.failure.is_normal and self.variant is None

    # -- identity ----------------------------------------------------------
    @property
    def label(self) -> str:
        """Stable identifier, e.g. ``"srlg:4+9"`` or ``"link:2|gauss0.2#1"``."""
        base = self.failure.label or "normal"
        if self.variant is None:
            return base
        return f"{base}|{self.variant.label}"

    def canonical(self) -> str:
        """Canonical string identity (feeds :attr:`digest`)."""
        variant = self.variant.canonical() if self.variant else "-"
        return (
            f"{self.kind}|{self.failure.label}"
            f"|arcs={self.failure.failed_arcs}"
            f"|nodes={self.failure.removed_nodes}|{variant}"
        )

    @property
    def digest(self) -> str:
        """Stable 16-hex-digit content digest (process-independent)."""
        return hashlib.sha1(self.canonical().encode()).hexdigest()[:16]


NORMAL_SCENARIO = Scenario()
"""The unperturbed scenario (no failure, base traffic)."""


@dataclass(frozen=True)
class ScenarioSet:
    """An ordered, immutable collection of composed scenarios.

    Attributes:
        scenarios: the scenarios, in enumeration (= evaluation) order.
        name: set label for reports (e.g. the generator family).
    """

    scenarios: tuple[Scenario, ...]
    name: str = ""

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __getitem__(self, index: int) -> Scenario:
        return self.scenarios[index]

    def __add__(self, other: "ScenarioSet") -> "ScenarioSet":
        name = "+".join(n for n in (self.name, other.name) if n)
        return ScenarioSet(self.scenarios + other.scenarios, name=name)

    # -- identity ----------------------------------------------------------
    @property
    def labels(self) -> tuple[str, ...]:
        """Per-scenario labels, in enumeration order."""
        return tuple(s.label for s in self.scenarios)

    @property
    def digest(self) -> str:
        """Content digest covering order, members and variants."""
        h = hashlib.sha1()
        for scenario in self.scenarios:
            h.update(scenario.canonical().encode())
            h.update(b"\n")
        return h.hexdigest()[:16]

    def kinds(self) -> tuple[str, ...]:
        """Distinct scenario kinds, in first-appearance order."""
        seen: dict[str, None] = {}
        for scenario in self.scenarios:
            seen.setdefault(scenario.kind)
        return tuple(seen)

    def by_kind(self) -> "dict[str, ScenarioSet]":
        """Sub-sets per kind, preserving enumeration order within each."""
        return {
            kind: ScenarioSet(
                tuple(s for s in self.scenarios if s.kind == kind),
                name=kind,
            )
            for kind in self.kinds()
        }

    # -- restriction -------------------------------------------------------
    def restricted_to_arcs(self, arc_ids: Sequence[int]) -> "ScenarioSet":
        """Scenarios whose failed arcs intersect ``arc_ids``.

        This is how a critical set ``Ec`` restricts the robust objective
        (Eq. 7): only failures touching a critical arc are evaluated.
        Traffic-only scenarios (a variant with no failed arcs)
        are always kept — a surge stresses every link, so no critical
        subset excludes it.
        """
        wanted = set(int(a) for a in arc_ids)
        kept = tuple(
            s
            for s in self.scenarios
            if wanted.intersection(s.failed_arcs)
            or (s.variant is not None and not s.failed_arcs)
        )
        return ScenarioSet(kept, name=self.name)

    @classmethod
    def from_failures(
        cls,
        failures: Iterable[FailureScenario],
        kind: str = "failure",
        name: str = "",
    ) -> "ScenarioSet":
        """Wrap plain failure scenarios, preserving order and labels.

        Args:
            failures: the :class:`FailureScenario` items, in order.
            kind: family tag of every wrapped scenario.
            name: set label for reports (defaults to ``kind``).
        """
        scenarios = tuple(Scenario(failure=f, kind=kind) for f in failures)
        return cls(scenarios, name=name or kind)

    def with_variant(
        self, variant: TrafficVariant, kind: str | None = None
    ) -> "ScenarioSet":
        """Every scenario re-composed with ``variant`` (replacing any)."""
        scenarios = tuple(
            replace(s, variant=variant, kind=kind or s.kind)
            for s in self.scenarios
        )
        return ScenarioSet(scenarios, name=self.name)


def as_scenario(item: "Scenario | FailureScenario") -> Scenario:
    """Coerce a plain :class:`FailureScenario` into a :class:`Scenario`."""
    if isinstance(item, Scenario):
        return item
    return Scenario(failure=item)

