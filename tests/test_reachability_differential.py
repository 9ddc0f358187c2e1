"""The span algebra against the prefix-atom reference.

:class:`~repro.core.reachability.RouteSet` and
:class:`~repro.core.reachability.PrefixFilter` work on integer address
spans; the reference (:mod:`tests.reachability_reference`) keeps the
prefix atoms, re-summarizes them on every union and splits them against
every filter rule.  On every synth template, plus net15 at full scale,
and with ``max_atoms`` unset, 1, 4 and 16, both must end with the same
route sets, atom for atom, the same ``approximate`` verdict and the same
round counts.  Seeded random prefix sets (duplicates, nesting, adjacent
siblings, /0 and /32) must summarize, unite, intersect and filter alike.

The round bound of ``_propagate`` is checked here too: an exact run stops
within N rounds (N = instances + 1), and a coarsened run's sets contain
the exact run's.
"""

from __future__ import annotations

import random

import pytest

from repro.core.reachability import PrefixFilter, ReachabilityAnalysis, RouteSet
from repro.model import Network
from repro.net import Prefix, summarize_prefixes
from repro.net.prefix import span_difference
from repro.synth.templates.net15 import build_net15

from tests import reachability_reference as reference
from tests.test_routing_differential import TEMPLATES

CASES = dict(TEMPLATES, net15_full=lambda: build_net15(scale=1.0)[0])

MAX_ATOMS = (None, 1, 4, 16)


@pytest.fixture(scope="module", params=sorted(CASES))
def network(request) -> Network:
    return Network.from_configs(CASES[request.param](), name=request.param)


def outcome(analysis) -> dict:
    """Every answer the propagation gives, as prefix atoms, with the
    rounds each of its three propagations ran."""
    routes = analysis.routes
    rounds = [analysis.rounds]
    external = analysis.external_routes
    rounds.append(analysis.rounds)
    announced = analysis.routes_announced_externally()
    rounds.append(analysis.rounds)
    return {
        "routes": [(node, tuple(sets.atoms)) for node, sets in routes.items()],
        "external_routes": [
            (node, tuple(sets.atoms)) for node, sets in external.items()
        ],
        "announced": tuple(announced.atoms),
        "approximate": analysis.approximate,
        "rounds": rounds,
    }


@pytest.mark.parametrize("max_atoms", MAX_ATOMS)
def test_spans_match_prefix_atoms(network, max_atoms):
    spans = ReachabilityAnalysis(network, max_atoms=max_atoms)
    atoms = reference.ReferenceReachability(network, max_atoms=max_atoms)
    assert outcome(spans) == outcome(atoms)


def test_exact_run_stops_within_n_rounds(network):
    analysis = ReachabilityAnalysis(network)
    bound = len(analysis.instances) + 1
    assert analysis.edges  # every case exchanges routes
    assert all(rounds <= bound for rounds in outcome(analysis)["rounds"])
    assert not analysis.approximate


@pytest.mark.parametrize("max_atoms", (1, 4, 16))
def test_coarsened_sets_contain_exact_sets(network, max_atoms):
    exact = ReachabilityAnalysis(network)
    coarse = ReachabilityAnalysis(network, max_atoms=max_atoms)
    for query in ("routes", "external_routes"):
        exact_sets = getattr(exact, query)
        coarse_sets = getattr(coarse, query)
        assert exact_sets.keys() == coarse_sets.keys()
        for node, routes in exact_sets.items():
            assert span_difference(routes.spans, coarse_sets[node].spans) == ()
    announced = coarse.routes_announced_externally()
    assert span_difference(exact.routes_announced_externally().spans, announced.spans) == ()


# -- the algebra on seeded random prefix sets ----------------------------------

#: Prefix lengths drawn, weighted toward the hyper-specific end.
LENGTHS = (0, 1, 7, 8, 15, 16, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 32)


def random_prefixes(rng: random.Random, count: int):
    """Prefixes mostly inside one /16, with duplicates, nested prefixes
    and adjacent siblings mixed in."""
    base = rng.choice((0, 0x0A000000, 0xC0A80000, 0xFFFF0000))
    prefixes = []
    for _ in range(count):
        roll = rng.random()
        if prefixes and roll < 0.15:
            prefixes.append(rng.choice(prefixes))  # duplicate
        elif prefixes and roll < 0.35:
            outer = rng.choice(prefixes)  # nested
            length = min(32, outer.length + rng.randint(0, 4))
            offset = rng.randrange(outer.num_addresses())
            prefixes.append(Prefix(outer.network_int + offset, length))
        elif prefixes and roll < 0.5:
            twin = rng.choice(prefixes)  # adjacent sibling
            if twin.length > 0:
                flip = 1 << (32 - twin.length)
                prefixes.append(Prefix(twin.network_int ^ flip, twin.length))
        else:
            address = base + rng.randrange(1 << 16) if roll < 0.9 else rng.randrange(1 << 32)
            prefixes.append(Prefix(address, rng.choice(LENGTHS)))
    return prefixes


def random_rules(rng: random.Random, count: int):
    return [
        (rng.choice(("permit", "deny")), prefix)
        for prefix in random_prefixes(rng, count)
    ]


@pytest.mark.parametrize("seed", range(4))
def test_summarize_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(2000):
        prefixes = random_prefixes(rng, rng.randint(0, 24))
        assert summarize_prefixes(prefixes) == reference.summarize_prefixes(prefixes)
        assert RouteSet(prefixes).atoms == reference.RouteSet(prefixes).atoms


@pytest.mark.parametrize("seed", range(4))
def test_union_and_intersection_match_reference(seed):
    rng = random.Random(100 + seed)
    for _ in range(1000):
        xs = random_prefixes(rng, rng.randint(0, 12))
        ys = random_prefixes(rng, rng.randint(0, 12))
        a, b = RouteSet(xs), RouteSet(ys)
        ref_a, ref_b = reference.RouteSet(xs), reference.RouteSet(ys)
        assert a.union(b).atoms == ref_a.union(ref_b).atoms
        assert a.intersection(b).atoms == ref_a.intersection(ref_b).atoms
        for max_atoms in (1, 4):
            assert a.coarsened(max_atoms).atoms == ref_a.coarsened(max_atoms).atoms


@pytest.mark.parametrize("seed", range(4))
def test_filter_matches_reference(seed):
    rng = random.Random(200 + seed)
    for _ in range(1000):
        rules = random_rules(rng, rng.randint(0, 8))
        prefixes = random_prefixes(rng, rng.randint(0, 12))
        policy, ref_policy = PrefixFilter(rules), reference.PrefixFilter(rules)
        assert (
            policy.apply(RouteSet(prefixes)).atoms
            == ref_policy.apply(reference.RouteSet(prefixes)).atoms
        )
        assert (
            policy.permitted_set().atoms
            == ref_policy.apply(reference.RouteSet.universe()).atoms
        )
