"""The semi-naive fixpoint against the full re-send reference.

:class:`~repro.routing.RoutingSimulation` sends each edge only the routes
stamped since the edge last read its source; the reference
(:mod:`tests.routing_reference`) re-sends every route over every edge
every round.  On every synth template, for the baseline, every single
failure and a seeded sample of double failures, and with the round
budget cut at 1, 2 and 3 as well as left at its default, both must end
with the same process, local and router RIBs — in the same insertion
order — and the same iteration count and convergence verdict.
"""

from __future__ import annotations

import pytest

from repro.model import Network
from repro.routing import RoutingSimulation
from repro.sweep import enumerate_scenarios
from repro.synth.templates.backbone import build_backbone
from repro.synth.templates.enterprise import build_enterprise
from repro.synth.templates.example_fig1 import build_example_networks
from repro.synth.templates.hybrid import build_hybrid
from repro.synth.templates.mixed import build_mixed
from repro.synth.templates.net5 import build_net5
from repro.synth.templates.net15 import build_net15
from repro.synth.templates.pods import build_pods
from repro.synth.templates.tier2 import build_tier2

from tests.routing_reference import FullResendSimulation, state

TEMPLATES = {
    "example_fig1": lambda: build_example_networks()[0],
    "enterprise": lambda: build_enterprise("ent", 1, 10, seed=3, n_borders=2)[0],
    "backbone": lambda: build_backbone("bb", 2, 12, seed=5, pop_size=4)[0],
    "tier2": lambda: build_tier2("t2", 3, 10, seed=7)[0],
    "net5": lambda: build_net5(scale=0.01)[0],
    "net15": lambda: build_net15(scale=0.15)[0],
    "hybrid": lambda: build_hybrid("hy", 4, 12, seed=11)[0],
    "mixed": lambda: build_mixed("mx", 5, 8, seed=13, core_size=4)[0],
    "pods": lambda: build_pods("pod", 6, 9, access_per_pod=2)[0],
}

#: Round budgets: cut before, around and after most networks converge.
ROUND_BUDGETS = (1, 2, 3, 1000)

#: Sampled double failures per template.
DOUBLE_BUDGET = 6


def failure_sets(network):
    plan = enumerate_scenarios(network, depth=2, double_budget=DOUBLE_BUDGET, seed=1)
    yield "baseline", (), ()
    for scenario in plan.scenarios:
        yield scenario.scenario_id, scenario.failed_routers, scenario.failed_subnets


@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_semi_naive_matches_full_resend(template):
    network = Network.from_configs(TEMPLATES[template](), name=template)
    compared = 0
    for scenario_id, routers, subnets in failure_sets(network):
        for budget in ROUND_BUDGETS:
            runs = [
                engine(
                    network,
                    failed_routers=routers,
                    failed_subnets=subnets,
                    validate=False,
                ).run(max_iterations=budget, on_divergence="degrade")
                for engine in (RoutingSimulation, FullResendSimulation)
            ]
            assert state(runs[0]) == state(runs[1]), (scenario_id, budget)
            compared += 1
    assert compared > len(ROUND_BUDGETS)  # the baseline and some failures


@pytest.mark.parametrize("template", ["example_fig1", "tier2", "net15"])
def test_second_run_repeats_the_first(template):
    """Stamps and marks reset with the RIBs: run() is repeatable."""
    network = Network.from_configs(TEMPLATES[template](), name=template)
    simulation = RoutingSimulation(network)
    for budget in ROUND_BUDGETS:
        first = state(simulation.run(max_iterations=budget, on_divergence="degrade"))
        second = state(simulation.run(max_iterations=budget, on_divergence="degrade"))
        assert first == second
        reference = FullResendSimulation(network).run(
            max_iterations=budget, on_divergence="degrade"
        )
        assert second == state(reference)
