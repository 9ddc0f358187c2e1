"""The semi-naive fixpoint against the full re-send reference.

:class:`~repro.routing.RoutingSimulation` sends each edge only the routes
stamped since the edge last read its source, over one
:class:`~repro.routing.TransferTable` per network, and prices each IGP
route before building it; the reference (:mod:`tests.routing_reference`)
re-sends every route over every edge every round, re-derives each edge
from the configuration and decides installs by a key recomputed from the
route's fields.  On every synth template, for the baseline, every single
failure and a seeded sample of double failures, and with the round
budget cut at 1, 2 and 3 as well as left at its default, both must end
with the same process, local and router RIBs — in the same insertion
order — and the same iteration count and convergence verdict.  Every
route a run leaves must store the key its fields give.
"""

from __future__ import annotations

import pytest

from repro.model import Network
from repro.routing import RoutingSimulation, TransferTable, engine, policy
from repro.routing.route import Route
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

from tests.routing_reference import FullResendSimulation, reference_key, state

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


def routes(simulation):
    """Every route in every process, local and router RIB."""
    for ribs in (simulation.process_ribs, simulation.local_ribs, simulation.router_ribs):
        for rib in ribs.values():
            yield from rib.values()


@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_semi_naive_matches_full_resend(template):
    network = Network.from_configs(TEMPLATES[template](), name=template)
    table = TransferTable(network)  # shared, as a sweep shares it
    compared = 0
    for scenario_id, routers, subnets in failure_sets(network):
        for budget in ROUND_BUDGETS:
            kernel = RoutingSimulation(
                network,
                failed_routers=routers,
                failed_subnets=subnets,
                validate=False,
                table=table,
            ).run(max_iterations=budget, on_divergence="degrade")
            reference = FullResendSimulation(
                network, failed_routers=routers, failed_subnets=subnets, validate=False
            ).run(max_iterations=budget, on_divergence="degrade")
            assert state(kernel) == state(reference), (scenario_id, budget)
            compared += 1
    assert compared > len(ROUND_BUDGETS)  # the baseline and some failures


@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_stored_keys_match_the_fields(template):
    """The baseline and every single failure: each route a run leaves in
    a RIB stores the preference key its fields give."""
    network = Network.from_configs(TEMPLATES[template](), name=template)
    table = TransferTable(network)
    plan = enumerate_scenarios(network, depth=1)
    failures = [((), ())] + [(s.failed_routers, s.failed_subnets) for s in plan.scenarios]
    checked = 0
    for routers, subnets in failures:
        simulation = RoutingSimulation(
            network, routers, subnets, validate=False, table=table
        ).run(on_divergence="degrade")
        for route in routes(simulation):
            assert route.preference_key() == reference_key(route), route
            checked += 1
    assert checked


def test_key_check_sees_every_way_a_route_is_built(monkeypatch):
    """On net5, routes built by the constructor (seeds), by the engine's
    ``replace`` (redistribution, BGP), by a route map's ``set`` clause
    and by ``advanced`` all store the key their fields give, and all but
    the set-clause routes (which redistribution rebuilds) reach a RIB."""
    built = {"replace": [], "set clause": [], "advanced": []}

    def recording(kind, make):
        def wrapper(*args, **kwargs):
            route = make(*args, **kwargs)
            built[kind].append(route)
            return route

        return wrapper

    monkeypatch.setattr(engine, "replace", recording("replace", engine.replace))
    monkeypatch.setattr(policy, "replace", recording("set clause", policy.replace))
    monkeypatch.setattr(Route, "advanced", recording("advanced", Route.advanced))
    network = Network.from_configs(TEMPLATES["net5"](), name="net5")
    simulation = RoutingSimulation(network).run()
    in_ribs = {id(route): route for route in routes(simulation)}
    for kind, made in built.items():
        assert made, kind
        for route in made:
            assert route.preference_key() == reference_key(route), (kind, route)
    assert any(id(route) in in_ribs for route in built["replace"])
    assert any(id(route) in in_ribs for route in built["advanced"])
    derived = {id(route) for made in built.values() for route in made}
    assert any(key not in derived for key in in_ribs)  # seeds: the constructor


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
