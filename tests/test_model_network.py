"""Network model tests: indexes, external classification, adjacencies."""

import random

import pytest

from repro.ios.config import (
    EigrpProcess,
    InterfaceConfig,
    NetworkStatement,
    OspfProcess,
    RipProcess,
)
from repro.model import Network
from repro.model.processes import covered_interface_names
from repro.net import IPv4Address, Prefix, classful_prefix
from repro.net.ipv4 import prefix_len_to_mask

from tests.test_routing_differential import TEMPLATES


def make_network(configs, name="test"):
    return Network.from_configs(configs, name=name)


P2P = "interface Serial0\n ip address {a} 255.255.255.252\n"


class TestIndexes:
    def test_address_map(self):
        net = make_network(
            {
                "r1": P2P.format(a="10.0.0.1"),
                "r2": P2P.format(a="10.0.0.2"),
            }
        )
        assert net.address_map[Prefix("10.0.0.1/32").network_int] == ("r1", "Serial0")
        assert net.owns_address("10.0.0.2")
        assert not net.owns_address("10.0.0.5")

    def test_duplicate_router_names_rejected(self):
        from repro.model.network import Router
        from repro.ios import parse_config

        router = Router("dup", parse_config(""))
        with pytest.raises(ValueError):
            Network([router, Router("dup", parse_config(""))])

    def test_internal_address_space(self):
        net = make_network(
            {
                "r1": "interface Ethernet0\n ip address 10.0.0.1 255.255.255.128\n",
                "r2": "interface Ethernet0\n ip address 10.0.0.129 255.255.255.128\n",
            }
        )
        assert net.internal_address_space == [Prefix("10.0.0.0/24")]


class TestExternalClassification:
    def test_unmatched_p2p_is_external(self):
        net = make_network({"r1": P2P.format(a="10.0.0.1")})
        assert net.is_external_interface("r1", "Serial0")

    def test_matched_p2p_is_internal(self):
        net = make_network(
            {"r1": P2P.format(a="10.0.0.1"), "r2": P2P.format(a="10.0.0.2")}
        )
        assert not net.external_interfaces

    def test_unmatched_lan_is_internal_by_default(self):
        # Multipoint subnets connect hosts; no evidence of an external router.
        net = make_network(
            {"r1": "interface Ethernet0\n ip address 10.1.0.1 255.255.255.0\n"}
        )
        assert not net.is_external_interface("r1", "Ethernet0")

    def test_unmatched_lan_with_external_next_hop_is_external(self):
        config = (
            "interface Ethernet0\n ip address 10.1.0.1 255.255.255.0\n"
            "!\n"
            "ip route 99.0.0.0 255.0.0.0 10.1.0.254\n"
        )
        net = make_network({"r1": config})
        assert net.is_external_interface("r1", "Ethernet0")

    def test_lan_next_hop_to_internal_destination_stays_internal(self):
        config = (
            "interface Ethernet0\n ip address 10.1.0.1 255.255.255.0\n"
            "!\n"
            "ip route 10.1.0.0 255.255.255.0 10.1.0.254\n"
        )
        net = make_network({"r1": config})
        assert not net.is_external_interface("r1", "Ethernet0")

    def test_matched_multipoint_with_external_bgp_neighbor(self):
        shared = "interface Ethernet0\n ip address 10.1.0.{host} 255.255.255.0\n"
        r1 = shared.format(host=1) + (
            "!\nrouter bgp 65000\n neighbor 10.1.0.200 remote-as 7018\n"
        )
        net = make_network({"r1": r1, "r2": shared.format(host=2)})
        assert net.is_external_interface("r1", "Ethernet0")
        assert net.is_external_interface("r2", "Ethernet0")


def per_hop_external_interfaces(network):
    """§5.2's classification with the next-hop rule as a scan of every
    external next hop against every subnet, as it was written first."""
    external = set()
    multipoint_unmatched = []
    for router, name in network.unmatched_interfaces:
        iface = network.interface_index[(router, name)]
        prefix = iface.prefix
        if prefix is not None and (prefix.length >= 30 or iface.point_to_point):
            external.add((router, name))
        else:
            multipoint_unmatched.append((router, name))
    hops = []
    for router in network.routers.values():
        for route in router.config.static_routes:
            if route.next_hop is not None and not network.is_internal_destination(route.prefix):
                hops.append(route.next_hop.value)
        bgp = router.config.bgp_process
        if bgp is not None:
            hops.extend(
                nbr.address.value
                for nbr in bgp.neighbors
                if nbr.address.value not in network.address_map
            )

    def fires(subnet):
        return any(
            subnet.contains_address(hop) and hop not in network.address_map for hop in hops
        )

    for link in network.links:
        if link.may_have_external and fires(link.subnet):
            external.update((end.router, end.interface) for end in link.ends)
    for router, name in multipoint_unmatched:
        iface = network.interface_index[(router, name)]
        if iface.prefix is not None and fires(iface.prefix):
            external.add((router, name))
    return external


def random_lan_network(seed):
    """Routers on shared and lone subnets of /24 to /30, with static routes
    and BGP neighbors whose next hops sit inside, on the edges of, just
    outside or far from each subnet, or on an in-network interface."""
    rng = random.Random(seed)
    routers = [f"r{i}" for i in range(rng.randint(2, 6))]
    lines = {router: [f"hostname {router}"] for router in routers}
    neighbors = {router: [] for router in routers}
    owned, subnets = [], []
    for index in range(rng.randint(2, 8)):
        length = rng.choice([24, 25, 26, 28, 29, 30])
        subnet = Prefix(IPv4Address(f"10.{index}.0.0").value, length)
        low, high = subnet.span
        mask = IPv4Address(prefix_len_to_mask(length))
        hosts = range(low + 1, high - 1)
        attached = rng.sample(routers, rng.randint(1, min(3, len(routers), len(hosts))))
        for router, host in zip(attached, rng.sample(hosts, len(attached))):
            lines[router] += [
                f"interface Ethernet{index}",
                f" ip address {IPv4Address(host)} {mask}",
                "!",
            ]
            owned.append(host)
        subnets.append(subnet)
    candidates = list(owned)
    for subnet in subnets:
        low, high = subnet.span
        candidates += [low, high - 1, low - 1, high, rng.randrange(low, high)]
    candidates += [rng.randrange(1 << 32) for _ in range(4)]
    for k, hop in enumerate(rng.sample(candidates, rng.randint(1, len(candidates)))):
        router = rng.choice(routers)
        if rng.random() < 0.3:
            neighbors[router].append(f" neighbor {IPv4Address(hop)} remote-as 7018")
            continue
        # External and internal destinations; only the former count.
        destination = f"192.0.2.{k}" if rng.random() < 0.5 else f"10.{k % 8}.0.{k}"
        lines[router].append(f"ip route {destination} 255.255.255.255 {IPv4Address(hop)}")
    for router, statements in neighbors.items():
        if statements:
            lines[router] += ["router bgp 65000", *statements, "!"]
    return make_network({r: "\n".join(text) + "\n" for r, text in lines.items()})


class TestExternalNextHopRule:
    """The sorted-hop bisect answers each subnet as the per-hop scan did."""

    @pytest.mark.parametrize("template", sorted(TEMPLATES))
    def test_templates(self, template):
        network = make_network(TEMPLATES[template](), name=template)
        assert network.external_interfaces == per_hop_external_interfaces(network)

    def test_seeded_hop_sets(self):
        fired = quiet = 0
        for seed in range(60):
            network = random_lan_network(seed)
            expected = per_hop_external_interfaces(network)
            assert network.external_interfaces == expected, seed
            multipoint = {
                (end.router, end.interface)
                for link in network.links
                if link.may_have_external
                for end in link.ends
            } | {
                key
                for key in network.unmatched_interfaces
                if network.interface_index[key].prefix.length < 30
            }
            fired += bool(expected & multipoint)
            quiet += bool(multipoint - expected)
        # Both outcomes of the rule occur among the seeds.
        assert fired and quiet


class TestIgpAdjacency:
    def test_ospf_adjacency_requires_coverage(self):
        covered = (
            "interface Serial0\n ip address 10.0.0.{host} 255.255.255.252\n"
            "!\nrouter ospf {pid}\n network 10.0.0.0 0.0.0.3 area 0\n"
        )
        net = make_network(
            {"r1": covered.format(host=1, pid=1), "r2": covered.format(host=2, pid=2)}
        )
        # OSPF process ids are router-local; different pids still adjacent.
        assert len(net.igp_adjacencies) == 1

    def test_no_adjacency_when_one_side_uncovered(self):
        covered = (
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
            "!\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
        )
        uncovered = "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
        net = make_network({"r1": covered, "r2": uncovered})
        assert not net.igp_adjacencies

    def test_eigrp_requires_matching_asn(self):
        config = (
            "interface Serial0\n ip address 10.0.0.{host} 255.255.255.252\n"
            "!\nrouter eigrp {asn}\n network 10.0.0.0 0.0.0.3\n"
        )
        net = make_network(
            {"r1": config.format(host=1, asn=100), "r2": config.format(host=2, asn=200)}
        )
        assert not net.igp_adjacencies
        net2 = make_network(
            {"r1": config.format(host=1, asn=100), "r2": config.format(host=2, asn=100)}
        )
        assert len(net2.igp_adjacencies) == 1

    def test_passive_interface_blocks_adjacency(self):
        active = (
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
            "!\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
        )
        passive = (
            "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
            "!\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
            " passive-interface Serial0\n"
        )
        net = make_network({"r1": active, "r2": passive})
        assert not net.igp_adjacencies

    def test_different_protocols_never_adjacent(self):
        ospf = (
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
            "!\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
        )
        eigrp = (
            "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
            "!\nrouter eigrp 1\n network 10.0.0.0 0.0.0.3\n"
        )
        net = make_network({"r1": ospf, "r2": eigrp})
        assert not net.igp_adjacencies


class TestBgpSessions:
    BASE = (
        "interface Serial0\n ip address 10.0.0.{host} 255.255.255.252\n"
        "!\nrouter bgp {asn}\n neighbor 10.0.0.{peer} remote-as {remote}\n"
    )

    def test_resolved_ibgp(self):
        net = make_network(
            {
                "r1": self.BASE.format(host=1, peer=2, asn=65000, remote=65000),
                "r2": self.BASE.format(host=2, peer=1, asn=65000, remote=65000),
            }
        )
        sessions = net.bgp_sessions
        assert len(sessions) == 2  # one configured statement per side
        assert all(s.is_resolved and not s.is_ebgp for s in sessions)

    def test_resolved_ebgp(self):
        net = make_network(
            {
                "r1": self.BASE.format(host=1, peer=2, asn=65000, remote=65010),
                "r2": self.BASE.format(host=2, peer=1, asn=65010, remote=65000),
            }
        )
        assert all(s.is_ebgp and s.is_resolved for s in net.bgp_sessions)

    def test_unresolved_external_session(self):
        net = make_network(
            {"r1": self.BASE.format(host=1, peer=2, asn=65000, remote=7018)}
        )
        (session,) = net.bgp_sessions
        assert session.crosses_network_boundary
        assert session.is_ebgp
        assert session.remote_key is None

    def test_asn_mismatch_does_not_resolve(self):
        # r1 thinks the peer is AS 65010 but r2 actually runs 65020.
        net = make_network(
            {
                "r1": self.BASE.format(host=1, peer=2, asn=65000, remote=65010),
                "r2": self.BASE.format(host=2, peer=1, asn=65020, remote=65000),
            }
        )
        r1_session = next(s for s in net.bgp_sessions if s.local[0] == "r1")
        assert not r1_session.is_resolved


class TestStatistics:
    def test_interface_type_census(self, fig1):
        net, _meta = fig1
        census = net.interface_type_census()
        assert census["Serial"] >= 2
        assert census["Hssi"] >= 3

    def test_config_sizes_positive(self, fig1):
        net, _meta = fig1
        assert all(size > 0 for size in net.config_sizes())

    def test_len_and_repr(self, fig1):
        net, _meta = fig1
        assert len(net) == 6
        assert "fig1" in repr(net)


def statement_covers(statement, address):
    """The ``network`` coverage rule, statement by statement."""
    if statement.wildcard is not None:
        fixed = ~statement.wildcard.value & 0xFFFFFFFF
        return statement.address.value & fixed == address.value & fixed
    if statement.mask is not None:
        prefix = Prefix.from_netmask(statement.address.value, statement.mask.value)
        return prefix.contains_address(address)
    return classful_prefix(statement.address).contains_address(address)


def covered_per_statement(config, interfaces):
    return [
        iface.name
        for iface in interfaces
        if iface.is_numbered
        and any(statement_covers(s, iface.address) for s in config.networks)
    ]


def wildcard(address, mask, area="0"):
    return NetworkStatement(
        address=IPv4Address(address), wildcard=IPv4Address(mask), area=area
    )


class TestNetworkStatementCoverage:
    """``covered_interface_names`` indexes statements by their fixed bits;
    it must cover exactly what the statements cover one by one."""

    def test_match_bits_of_each_form(self):
        assert wildcard("10.1.2.3", "0.0.0.255").match_bits() == (
            0xFFFFFF00,
            IPv4Address("10.1.2.0").value,
        )
        masked = NetworkStatement(
            address=IPv4Address("10.4.0.0"), mask=IPv4Address("255.252.0.0")
        )
        assert masked.match_bits() == (0xFFFC0000, IPv4Address("10.4.0.0").value)
        classful = NetworkStatement(address=IPv4Address("172.16.9.1"))
        assert classful.match_bits() == (0xFFFF0000, IPv4Address("172.16.0.0").value)

    def test_thousand_by_thousand_core_router(self):
        rng = random.Random(7)
        interfaces = []
        for index in range(1000):
            base = 0x0A000000 + index * 4
            interfaces.append(
                InterfaceConfig(
                    name=f"Ethernet{index}",
                    address=IPv4Address(base + 1),
                    netmask=IPv4Address("255.255.255.252"),
                )
            )
        interfaces.append(InterfaceConfig(name="Null0"))  # unnumbered
        rng.shuffle(interfaces)
        statements = [
            wildcard(0x0A000000 + index * 4 + rng.randrange(4), "0.0.0.3")
            for index in rng.sample(range(1200), 970)
        ]
        statements += [
            wildcard(0x0A000000 + index * 4 + 1, "0.0.0.0")
            for index in rng.sample(range(1000), 25)
        ]
        statements += [wildcard("10.0.15.0", "0.0.0.255"), wildcard("11.0.0.0", "0.255.255.255")]
        statements += [wildcard("10.0.3.1", "0.0.0.248"), wildcard("10.0.0.0", "0.0.0.127")]
        statements.append(NetworkStatement(address=IPv4Address("12.0.0.0")))
        rng.shuffle(statements)
        assert len(statements) == 1000
        config = OspfProcess(process_id=1, networks=statements)
        covered = covered_interface_names(config, interfaces)
        assert covered == covered_per_statement(config, interfaces)
        assert 0 < len(covered) < 1000

    def test_discontiguous_wildcard(self):
        interfaces = [
            InterfaceConfig(
                name=f"Serial{index}",
                address=IPv4Address(address),
                netmask=IPv4Address("255.255.255.0"),
            )
            for index, address in enumerate(
                ["10.0.7.5", "10.0.7.6", "10.1.7.5", "10.0.200.5", "192.168.1.5"]
            )
        ]
        config = EigrpProcess(asn=10, networks=[wildcard("10.0.0.5", "0.0.255.0")])
        covered = covered_interface_names(config, interfaces)
        assert covered == ["Serial0", "Serial3"]
        assert covered == covered_per_statement(config, interfaces)
        rip = RipProcess(
            networks=[
                NetworkStatement(address=IPv4Address("192.168.1.0")),
                wildcard("10.0.0.5", "0.0.255.0"),
            ]
        )
        covered = covered_interface_names(rip, interfaces)
        assert covered == ["Serial0", "Serial3", "Serial4"]
        assert covered == covered_per_statement(rip, interfaces)
