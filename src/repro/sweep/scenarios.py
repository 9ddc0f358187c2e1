"""Failure-scenario enumeration for the what-if sweep engine.

§8.1 of the paper frames robustness evaluation as the payoff of routing
design analysis: "scenarios where a single link or session failure would
disconnect part of the network".  This module turns one parsed network
into the concrete scenario list the sweep runner simulates:

* one scenario per inferred link (its subnet goes down),
* one scenario per router (all its adjacencies go down),
* router scenarios are *tagged* with the static survivability hints —
  articulation point, redistribution point, sole router of a fragile
  instance coupling — so the fragility report can compare what the
  static graph heuristics predicted against what the dynamic simulation
  measured,
* opt-in double failures (``depth=2``): unordered pairs of the single
  scenarios, sampled under a budget with a seeded RNG so the same
  network, seed, and budget always yield the same pairs.

Scenario identifiers are stable, filesystem-safe strings (no ``/`` or
``:``), because they become checkpoint-store stage keys and
``REPRO_CHAOS`` targeting patterns: ``link-10.0.0.0-30``,
``router-core1``, ``double-link-10.0.0.0-30+router-core1``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.core.survivability import SurvivabilityReport, analyze_survivability
from repro.diag import PHASE_ANALYSIS
from repro.model.network import Network

#: Default budget for sampled double-failure scenarios.
DEFAULT_DOUBLE_BUDGET = 200

#: Scenario kinds.
KIND_LINK = "link"
KIND_ROUTER = "router"
KIND_DOUBLE = "double"

#: Static-survivability tags a scenario can carry.
TAG_ARTICULATION = "articulation"
TAG_BRIDGE = "bridge"
TAG_REDISTRIBUTION = "redistribution-point"
TAG_FRAGILE_COUPLING = "fragile-coupling"

_UNSAFE = re.compile(r"[^A-Za-z0-9_.+-]")


def _safe(text: str) -> str:
    """A checkpoint-key- and chaos-pattern-safe token."""
    return _UNSAFE.sub("_", text)


@dataclass(frozen=True)
class Scenario:
    """One failure scenario: which routers and link subnets go down.

    ``scenario_id`` doubles as the chaos stage name and (prefixed) the
    checkpoint key; ``tags`` carry the static survivability predictions
    for the cross-validation report.
    """

    scenario_id: str
    kind: str
    failed_routers: Tuple[str, ...] = ()
    failed_subnets: Tuple[str, ...] = ()
    tags: Tuple[str, ...] = ()

    @property
    def description(self) -> str:
        parts = []
        if self.failed_routers:
            parts.append(f"router(s) {', '.join(self.failed_routers)}")
        if self.failed_subnets:
            parts.append(f"link(s) {', '.join(self.failed_subnets)}")
        return f"fail {' and '.join(parts)}" if parts else "no failure"


@dataclass
class ScenarioPlan:
    """The enumerated scenario list plus how it was bounded."""

    scenarios: List[Scenario] = field(default_factory=list)
    singles: int = 0
    doubles_possible: int = 0
    doubles_sampled: int = 0
    #: True when ``max_scenarios`` dropped enumerated scenarios.
    truncated: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenarios": len(self.scenarios),
            "singles": self.singles,
            "doubles_possible": self.doubles_possible,
            "doubles_sampled": self.doubles_sampled,
            "truncated": self.truncated,
        }


def link_scenario_id(subnet: str) -> str:
    return _safe(f"link-{str(subnet).replace('/', '-')}")


def router_scenario_id(router: str) -> str:
    return _safe(f"router-{router}")


def _router_tags(report: SurvivabilityReport) -> Dict[str, Set[str]]:
    """``{router: tags}`` from the static §8.1 battery."""
    tags: Dict[str, Set[str]] = {}
    for router in report.articulation_routers:
        tags.setdefault(router, set()).add(TAG_ARTICULATION)
    for coupling in report.couplings:
        for router in coupling.routers:
            tags.setdefault(router, set()).add(TAG_REDISTRIBUTION)
            if coupling.is_single_point_of_failure:
                tags.setdefault(router, set()).add(TAG_FRAGILE_COUPLING)
    return tags


def dedupe_scenario_ids(
    scenarios: List[Scenario], network: Optional[Network] = None
) -> List[Scenario]:
    """Make scenario ids unique, deterministically.

    The ``_safe`` sanitizer is lossy — ``r 1`` and ``r/1`` both map to a
    token colliding with a literal ``r_1`` — and scenario ids key the
    checkpoint store and the result table, where a collision silently
    overwrites one scenario's verdict with another's.  Colliding ids get
    a ``.2``, ``.3``, ... suffix in list order (which is already
    deterministic), and each rename is reported as a diagnostic instead
    of being swallowed.
    """
    counts: Dict[str, int] = {}
    result: List[Scenario] = []
    for scenario in scenarios:
        seen = counts.get(scenario.scenario_id, 0) + 1
        counts[scenario.scenario_id] = seen
        if seen == 1:
            result.append(scenario)
            continue
        unique = f"{scenario.scenario_id}.{seen}"
        while unique in counts:
            seen += 1
            counts[scenario.scenario_id] = seen
            unique = f"{scenario.scenario_id}.{seen}"
        counts[unique] = 1
        if network is not None:
            network.diagnostics.warning(
                PHASE_ANALYSIS,
                "scenario id collision: renamed duplicate "
                f"{scenario.scenario_id!r} to {unique!r} ({scenario.description})",
                router=scenario.failed_routers[0] if scenario.failed_routers else None,
            )
        result.append(replace(scenario, scenario_id=unique))
    return result


def _sample_pair_indices(total: int, budget: int, seed: int) -> List[int]:
    """A deterministic sorted sample of ``budget`` indices in [0, total)."""
    if total <= budget:
        return list(range(total))
    rng = random.Random(f"repro-sweep-doubles:{seed}")
    return sorted(rng.sample(range(total), budget))


def _unrank_pair(rank: int, n: int) -> Tuple[int, int]:
    """The ``rank``-th unordered pair (i < j) of ``n`` items, row-major."""
    i = 0
    remaining = rank
    row = n - 1
    while remaining >= row:
        remaining -= row
        i += 1
        row -= 1
    return i, i + 1 + remaining


def enumerate_scenarios(
    network: Network,
    depth: int = 1,
    double_budget: int = DEFAULT_DOUBLE_BUDGET,
    seed: int = 0,
    survivability: Optional[SurvivabilityReport] = None,
    max_scenarios: Optional[int] = None,
) -> ScenarioPlan:
    """Enumerate the failure scenarios of one network, deterministically.

    Singles come first — links in subnet order, then routers in name
    order — followed by the budget-sampled doubles in pair order.
    ``max_scenarios`` truncates the final list (the plan records that it
    bit), for bounded sweeps over very large networks.
    """
    if depth not in (1, 2):
        raise ValueError(f"sweep depth must be 1 or 2, got {depth}")
    if double_budget < 0:
        raise ValueError(f"double budget must be >= 0, got {double_budget}")
    if max_scenarios is not None and max_scenarios < 0:
        raise ValueError(f"max scenarios must be >= 0, got {max_scenarios}")
    if survivability is None:
        survivability = analyze_survivability(network)
    router_tags = _router_tags(survivability)
    bridge_subnets = {str(subnet) for subnet in survivability.bridge_links}

    singles: List[Scenario] = []
    for subnet in sorted({link.subnet for link in network.links}):
        text = str(subnet)
        tags = (TAG_BRIDGE,) if text in bridge_subnets else ()
        singles.append(
            Scenario(
                scenario_id=link_scenario_id(text),
                kind=KIND_LINK,
                failed_subnets=(text,),
                tags=tags,
            )
        )
    for router in sorted(network.routers):
        singles.append(
            Scenario(
                scenario_id=router_scenario_id(router),
                kind=KIND_ROUTER,
                failed_routers=(router,),
                tags=tuple(sorted(router_tags.get(router, ()))),
            )
        )

    # Dedup before the doubles are derived: double ids concatenate the
    # single ids, so unique singles make unique doubles.
    singles = dedupe_scenario_ids(singles, network)

    plan = ScenarioPlan(scenarios=list(singles), singles=len(singles))

    if depth == 2 and len(singles) >= 2:
        total = len(singles) * (len(singles) - 1) // 2
        plan.doubles_possible = total
        for rank in _sample_pair_indices(total, double_budget, seed):
            i, j = _unrank_pair(rank, len(singles))
            first, second = singles[i], singles[j]
            plan.scenarios.append(
                Scenario(
                    scenario_id=f"double-{first.scenario_id}+{second.scenario_id}",
                    kind=KIND_DOUBLE,
                    failed_routers=tuple(
                        sorted({*first.failed_routers, *second.failed_routers})
                    ),
                    failed_subnets=tuple(
                        sorted({*first.failed_subnets, *second.failed_subnets})
                    ),
                    tags=tuple(sorted({*first.tags, *second.tags})),
                )
            )
            plan.doubles_sampled += 1

    if max_scenarios is not None and len(plan.scenarios) > max_scenarios:
        plan.scenarios = plan.scenarios[:max_scenarios]
        plan.truncated = True
    return plan


__all__ = [
    "DEFAULT_DOUBLE_BUDGET",
    "KIND_DOUBLE",
    "KIND_LINK",
    "KIND_ROUTER",
    "Scenario",
    "ScenarioPlan",
    "TAG_ARTICULATION",
    "TAG_BRIDGE",
    "TAG_FRAGILE_COUPLING",
    "TAG_REDISTRIBUTION",
    "dedupe_scenario_ids",
    "enumerate_scenarios",
    "link_scenario_id",
    "router_scenario_id",
]
