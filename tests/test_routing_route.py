"""Route preference and administrative distance tests."""

import copy
import pickle
from dataclasses import MISSING, fields, replace

from repro.ios import parse_config
from repro.routing import ADMIN_DISTANCE, Route
from repro.routing.policy import apply_route_map
from repro.net import Prefix

from tests.routing_reference import reference_key


class TestAdminDistance:
    def test_cisco_values(self):
        assert ADMIN_DISTANCE["connected"] == 0
        assert ADMIN_DISTANCE["static"] == 1
        assert ADMIN_DISTANCE["ebgp"] == 20
        assert ADMIN_DISTANCE["eigrp"] == 90
        assert ADMIN_DISTANCE["igrp"] == 100
        assert ADMIN_DISTANCE["ospf"] == 110
        assert ADMIN_DISTANCE["rip"] == 120
        assert ADMIN_DISTANCE["ibgp"] == 200

    def test_bgp_distance_depends_on_session_type(self):
        p = Prefix("10.0.0.0/8")
        ebgp = Route(prefix=p, protocol="bgp", via_ibgp=False)
        ibgp = Route(prefix=p, protocol="bgp", via_ibgp=True)
        assert ebgp.admin_distance == 20
        assert ibgp.admin_distance == 200

    def test_unknown_protocol_is_worst(self):
        route = Route(prefix=Prefix("10.0.0.0/8"), protocol="martian")
        assert route.admin_distance == 255


class TestPreference:
    def test_connected_beats_everything(self):
        p = Prefix("10.0.0.0/24")
        connected = Route(prefix=p, protocol="connected")
        ospf = Route(prefix=p, protocol="ospf")
        assert connected.better_than(ospf)
        assert not ospf.better_than(connected)

    def test_lower_metric_wins_within_protocol(self):
        p = Prefix("10.0.0.0/24")
        near = Route(prefix=p, protocol="ospf", metric=1)
        far = Route(prefix=p, protocol="ospf", metric=5)
        assert near.better_than(far)

    def test_shorter_as_path_wins_for_bgp(self):
        p = Prefix("10.0.0.0/24")
        short = Route(prefix=p, protocol="bgp", as_path=(1,))
        long = Route(prefix=p, protocol="bgp", as_path=(1, 2, 3))
        assert short.better_than(long)

    def test_better_than_none(self):
        route = Route(prefix=Prefix("10.0.0.0/24"), protocol="rip")
        assert route.better_than(None)

    def test_advanced_increments_metric_and_sets_via(self):
        route = Route(prefix=Prefix("10.0.0.0/24"), protocol="ospf", metric=3)
        hop = route.advanced(via_router="r9")
        assert hop.metric == 4
        assert hop.via_router == "r9"
        assert hop.prefix == route.prefix

    def test_advanced_carries_every_other_field(self):
        route = Route(
            prefix=Prefix("10.0.0.0/24"),
            protocol="bgp",
            metric=3,
            tag=7,
            local_pref=200,
            as_path=(65001, 65002),
            communities=("65000:1",),
            via_router="r1",
            via_ibgp=True,
            from_rr_client=True,
            redistributed=True,
            origin_router="r0",
        )
        # A field added later must be set above, and so copied by advanced().
        assert all(
            getattr(route, field.name) != field.default
            for field in fields(Route)
            if field.default is not MISSING
        )
        hop = route.advanced(via_router="r9", metric_increment=5)
        assert hop == replace(route, metric=8, via_router="r9")

    def test_routes_are_immutable(self):
        route = Route(prefix=Prefix("10.0.0.0/24"), protocol="ospf")
        try:
            route.metric = 9
        except AttributeError:
            pass
        else:
            raise AssertionError("Route should be frozen")


class TestStoredKey:
    """``Route.rank`` is computed once, by every path that builds a route."""

    def test_every_construction_path_stores_the_fields_key(self):
        route = Route(
            prefix=Prefix("10.0.0.0/24"),
            protocol="bgp",
            metric=3,
            local_pref=150,
            as_path=(65001, 65002),
        )
        config = parse_config(
            "route-map SET permit 10\n set metric 42\n set local-preference 300\n"
        )
        set_clause = apply_route_map(config.route_maps["SET"], config.access_lists, route)
        built = [
            route,
            replace(route, metric=9),
            replace(route, local_pref=50),
            replace(route, as_path=()),
            replace(route, via_ibgp=True),
            replace(route, protocol="ospf"),
            replace(route, protocol="martian"),
            set_clause,
            route.advanced(via_router="r9", metric_increment=4),
            replace(route, protocol="rip").advanced(via_router="r9"),
            copy.copy(route),
            pickle.loads(pickle.dumps(route)),
        ]
        assert (set_clause.metric, set_clause.local_pref) == (42, 300)
        for made in built:
            assert made.preference_key() == reference_key(made), made

    def test_the_stored_key_is_not_a_field(self):
        route = Route(prefix=Prefix("10.0.0.0/24"), protocol="ospf", metric=2)
        assert "rank" not in {field.name for field in fields(Route)}
        assert "rank" not in repr(route)
        hop = route.advanced(via_router="r9")
        rebuilt = Route(
            prefix=Prefix("10.0.0.0/24"), protocol="ospf", metric=3, via_router="r9"
        )
        assert hop == rebuilt and hash(hop) == hash(rebuilt) and repr(hop) == repr(rebuilt)
