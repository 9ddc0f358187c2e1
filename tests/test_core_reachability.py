"""Reachability analysis tests (§6.2): RouteSet algebra, PrefixFilter
semantics, and the net15 case study claims."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ReachabilityAnalysis, RouteSet
from repro.core.reachability import PrefixFilter
from repro.ios.config import AccessList, AclRule, RouteMap, RouteMapClause
from repro.net import IPv4Address, Prefix
from repro.net.prefix import span_difference, span_prefixes, span_union

prefixes = st.builds(
    Prefix,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=28),
)


class TestPrefixComplement:
    """A container prefix minus an inner one, as a span difference."""

    def test_simple(self):
        parts = span_prefixes(
            span_difference(
                (Prefix("10.0.0.0/24").span,), (Prefix("10.0.0.0/26").span,)
            )
        )
        assert sorted(map(str, parts)) == [
            "10.0.0.128/25",
            "10.0.0.64/26",
        ]

    def test_complement_plus_inner_covers_container(self):
        container, inner = Prefix("10.0.0.0/8"), Prefix("10.200.4.0/22")
        rest = span_difference((container.span,), (inner.span,))
        parts = span_prefixes(rest) + [inner]
        total = sum(p.num_addresses() for p in parts)
        assert total == container.num_addresses()
        assert span_union(rest, (inner.span,)) == (container.span,)

    def test_disjoint_inner_leaves_container_whole(self):
        container, inner = Prefix("10.0.0.0/24"), Prefix("11.0.0.0/24")
        assert span_difference((container.span,), (inner.span,)) == (container.span,)

    @given(prefixes, st.integers(min_value=0, max_value=8))
    def test_property_partition(self, container, extra_bits):
        inner_len = min(32, container.length + extra_bits)
        inner = Prefix(container.network_int, inner_len)
        parts = span_prefixes(span_difference((container.span,), (inner.span,)))
        assert len(parts) == inner_len - container.length
        for part in parts:
            assert container.contains(part)
            assert not part.overlaps(inner)


class TestRouteSet:
    def test_normalizes(self):
        rs = RouteSet([Prefix("10.0.0.0/25"), Prefix("10.0.0.128/25")])
        assert rs.atoms == (Prefix("10.0.0.0/24"),)

    def test_covers_and_overlaps(self):
        rs = RouteSet([Prefix("10.0.0.0/16")])
        assert rs.covers(Prefix("10.0.5.0/24"))
        assert rs.overlaps(Prefix("10.0.0.0/8"))
        assert not rs.covers(Prefix("10.0.0.0/8"))

    def test_union_merges_siblings(self):
        a = RouteSet([Prefix("10.0.0.0/24")])
        b = RouteSet([Prefix("10.0.1.0/24")])
        assert a.union(b) == RouteSet([Prefix("10.0.0.0/23")])

    def test_union_keeps_disjoint(self):
        a = RouteSet([Prefix("10.0.0.0/24")])
        b = RouteSet([Prefix("10.9.0.0/24")])
        assert len(a.union(b)) == 2

    def test_intersection_nested(self):
        a = RouteSet([Prefix("10.0.0.0/8")])
        b = RouteSet([Prefix("10.5.0.0/16"), Prefix("11.0.0.0/16")])
        assert a.intersection(b) == RouteSet([Prefix("10.5.0.0/16")])

    def test_intersection_disjoint_is_empty(self):
        a = RouteSet([Prefix("10.0.0.0/8")])
        b = RouteSet([Prefix("11.0.0.0/8")])
        assert a.intersection(b).is_empty()

    def test_universe_and_default(self):
        assert RouteSet.universe().has_default()
        assert not RouteSet([Prefix("10.0.0.0/8")]).has_default()

    def test_equality_and_hash(self):
        a = RouteSet([Prefix("10.0.0.0/24")])
        b = RouteSet([Prefix("10.0.0.1/24")])
        assert a == b
        assert hash(a) == hash(b)

    @given(st.lists(prefixes, max_size=12), st.lists(prefixes, max_size=12))
    def test_intersection_commutes(self, xs, ys):
        a, b = RouteSet(xs), RouteSet(ys)
        assert a.intersection(b) == b.intersection(a)

    @given(st.lists(prefixes, max_size=12))
    def test_union_with_self_is_identity(self, xs):
        a = RouteSet(xs)
        assert a.union(a) == a

    @given(st.lists(prefixes, max_size=10), st.lists(prefixes, max_size=10))
    def test_intersection_contained_in_both(self, xs, ys):
        a, b = RouteSet(xs), RouteSet(ys)
        inter = a.intersection(b)
        for atom in inter:
            assert a.covers(atom)
            assert b.covers(atom)


class TestPrefixFilter:
    def test_pass_all(self):
        assert PrefixFilter.pass_all().apply(RouteSet.universe()).has_default()

    def test_deny_all(self):
        assert PrefixFilter.deny_all().apply(RouteSet.universe()).is_empty()

    def test_implicit_deny(self):
        f = PrefixFilter(rules=[("permit", Prefix("10.0.0.0/8"))])
        result = f.apply(RouteSet([Prefix("11.0.0.0/8")]))
        assert result.is_empty()

    def test_deny_shadows_later_permit(self):
        f = PrefixFilter(
            rules=[
                ("deny", Prefix("10.1.0.0/16")),
                ("permit", Prefix("10.0.0.0/8")),
            ]
        )
        result = f.apply(RouteSet([Prefix("10.0.0.0/8")]))
        assert not result.overlaps(Prefix("10.1.0.0/16"))
        assert result.covers(Prefix("10.2.0.0/16"))

    def test_atom_splitting_exact(self):
        f = PrefixFilter(rules=[("permit", Prefix("10.0.0.0/9"))])
        result = f.apply(RouteSet([Prefix("10.0.0.0/8")]))
        assert result == RouteSet([Prefix("10.0.0.0/9")])

    def test_permitted_set(self):
        f = PrefixFilter(
            rules=[("deny", Prefix("10.0.0.0/8")), ("permit", Prefix(0, 0))]
        )
        permitted = f.permitted_set()
        assert permitted.overlaps(Prefix("11.0.0.0/8"))
        assert not permitted.overlaps(Prefix("10.1.0.0/16"))

    def test_from_access_list(self):
        acl = AccessList(
            name="4",
            rules=[
                AclRule(
                    action="deny",
                    source=IPv4Address("10.0.0.0"),
                    source_wildcard=IPv4Address("0.255.255.255"),
                ),
                AclRule(action="permit", source_any=True),
            ],
        )
        f = PrefixFilter.from_access_list(acl)
        assert not f.permitted_set().overlaps(Prefix("10.0.0.0/8"))

    def test_from_route_map_clause_order(self):
        acls = {
            "1": AccessList(
                name="1",
                rules=[
                    AclRule(
                        action="permit",
                        source=IPv4Address("10.1.0.0"),
                        source_wildcard=IPv4Address("0.0.255.255"),
                    )
                ],
            )
        }
        rm = RouteMap(
            name="m",
            clauses=[
                RouteMapClause(action="deny", sequence=10, match_ip_address=["1"]),
                RouteMapClause(action="permit", sequence=20),
            ],
        )
        f = PrefixFilter.from_route_map(rm, acls)
        permitted = f.permitted_set()
        assert not permitted.overlaps(Prefix("10.1.0.0/16"))
        assert permitted.overlaps(Prefix("10.2.0.0/16"))

    @given(st.lists(prefixes, max_size=8))
    def test_filter_output_subset_of_input(self, xs):
        f = PrefixFilter(
            rules=[("deny", Prefix("10.0.0.0/8")), ("permit", Prefix("0.0.0.0/1"))]
        )
        routes = RouteSet(xs)
        for atom in f.apply(routes):
            assert routes.covers(atom)


class TestNet15Claims:
    @pytest.fixture(scope="class")
    def analysis(self, net15_full):
        net, spec = net15_full
        return ReachabilityAnalysis(net), net, spec

    def _ospf_ids(self, analysis):
        ra, _net, spec = analysis
        left_routers = set(spec.notes["left_ospf_routers"])
        ospf = [i for i in ra.instances if i.protocol == "ospf"]
        left = next(i for i in ospf if i.routers & left_routers)
        right = next(i for i in ospf if i is not left)
        return left.instance_id, right.instance_id

    def test_no_default_route_admitted(self, analysis):
        ra, _net, _spec = analysis
        left, right = self._ospf_ids(analysis)
        assert not ra.default_route_admitted(left)
        assert not ra.default_route_admitted(right)

    def test_external_routes_limited_to_policy_blocks(self, analysis):
        ra, _net, spec = analysis
        left, right = self._ospf_ids(analysis)
        a1 = RouteSet([Prefix(p) for p in spec.notes["policies"]["A1"]])
        ext_left = ra.external_routes_into(left)
        assert ext_left == a1
        a3 = RouteSet([Prefix(p) for p in spec.notes["policies"]["A3"]])
        a5 = RouteSet([Prefix(p) for p in spec.notes["policies"]["A5"]])
        ext_right = ra.external_routes_into(right)
        assert ext_right == a3.union(a5)

    def test_total_admitted_is_two_slash16_and_three_slash24(self, analysis):
        ra, _net, _spec = analysis
        left, right = self._ospf_ids(analysis)
        admitted = ra.external_routes_into(left).union(ra.external_routes_into(right))
        total = admitted.total_addresses()
        assert total == 2 * (1 << 16) + 3 * (1 << 8)

    def test_sites_cannot_communicate(self, analysis):
        ra, _net, spec = analysis
        ab2 = Prefix(spec.notes["ab2"][0])
        ab4 = Prefix(spec.notes["ab4"][0])
        assert not ra.can_send(ab2, ab4)
        assert not ra.can_send(ab4, ab2)
        assert not ra.can_communicate(ab2, ab4)

    def test_host_blocks_announced_externally(self, analysis):
        # The security observation: AB2/AB4 are announced out even though
        # replies can never leave.
        ra, _net, spec = analysis
        announced = ra.routes_announced_externally()
        assert announced.overlaps(Prefix(spec.notes["ab2"][0]))
        assert announced.overlaps(Prefix(spec.notes["ab4"][0]))

    def test_policy_disjointness(self, analysis):
        _ra, _net, spec = analysis
        pol = {
            key: RouteSet([Prefix(p) for p in value])
            for key, value in spec.notes["policies"].items()
        }
        assert pol["A2"].intersection(pol["A5"]).is_empty()
        assert pol["A2"].intersection(pol["A3"]).is_empty()
        assert pol["A4"].intersection(pol["A1"]).is_empty()

    def test_hosts_can_reach_permitted_external_blocks(self, analysis):
        ra, _net, spec = analysis
        ab2 = Prefix(spec.notes["ab2"][0])
        ab0 = Prefix(spec.notes["policies"]["A5"][0])
        assert ra.can_send(ab2, ab0)


class TestEnterpriseReachability:
    def test_default_route_propagates_into_igp(self, enterprise_net):
        # Textbook enterprises admit everything (summary route injection).
        net, _spec = enterprise_net
        ra = ReachabilityAnalysis(net)
        ospf = next(i for i in ra.instances if i.protocol == "ospf")
        assert ra.default_route_admitted(ospf.instance_id)


class TestBoundedAtoms:
    """The ``max_atoms`` knob the executor's degradation ladder uses."""

    def test_atom_cap_marks_the_analysis_approximate(self, fig1):
        net, _ = fig1
        analysis = ReachabilityAnalysis(net, max_atoms=1)
        assert len(analysis.routes) == len(net.routers)
        assert analysis.approximate

    def test_full_analysis_is_exact(self, fig1):
        net, _ = fig1
        analysis = ReachabilityAnalysis(net)
        assert len(analysis.routes) == len(net.routers)
        assert not analysis.approximate
