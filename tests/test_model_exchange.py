"""The route-exchange table: its records, their order, the source rule."""

import pytest

from repro.ios.config import RedistributeConfig
from repro.model import Network
from repro.model.exchange import ExternalExchange, Peering, Redistribution
from repro.model.processes import redistribute_source
from repro.synth.templates.example_fig1 import build_example_networks
from repro.synth.templates.net5 import build_net5


def _group(record):
    if isinstance(record, Redistribution):
        return 0
    if isinstance(record, Peering) or record.session is not None:
        return 1
    return 2


def _router(record):
    if isinstance(record, Redistribution):
        return record.router
    if isinstance(record, Peering):
        return record.local[0]
    return record.process[0]


@pytest.mark.parametrize(
    "configs",
    [build_example_networks()[0], build_net5(scale=0.04, name="ex")[0]],
    ids=["fig1", "net5"],
)
def test_records_are_grouped_then_in_router_name_order(configs):
    # Feed the configs in reverse name order: the table must not care.
    network = Network.from_configs(dict(sorted(configs.items(), reverse=True)))
    keys = [(_group(record), _router(record)) for record in network.route_exchange]
    assert keys == sorted(keys)
    assert {group for group, _router in keys} >= {0, 1}


def test_peering_carries_both_ends_and_one_sided_has_no_reverse():
    configs = {
        "A": "hostname A\ninterface Serial0/0\n ip address 10.0.0.1 255.255.255.252\n"
        "interface Serial0/1\n ip address 10.0.1.1 255.255.255.252\n"
        "router bgp 1\n neighbor 10.0.0.2 remote-as 2\n neighbor 10.0.1.2 remote-as 3\n",
        "B": "hostname B\ninterface Serial0/0\n ip address 10.0.0.2 255.255.255.252\n"
        "router bgp 2\n neighbor 10.0.0.1 remote-as 1\n",
        "C": "hostname C\ninterface Serial0/0\n ip address 10.0.1.2 255.255.255.252\n"
        "router bgp 3\n",
    }
    network = Network.from_configs(configs)
    peerings = [r for r in network.route_exchange if isinstance(r, Peering)]
    assert [(p.local, p.remote) for p in peerings] == [
        (("A", "bgp", 1), ("B", "bgp", 2)),
        (("A", "bgp", 1), ("C", "bgp", 3)),
    ]
    assert peerings[0].reverse.local == ("B", "bgp", 2)
    assert peerings[1].reverse is None
    assert not any(isinstance(r, ExternalExchange) for r in network.route_exchange)


def test_redistribute_source_rule():
    keys = [("R", "eigrp", 20), ("R", "eigrp", 10), ("R", "ospf", 1)]

    def source(*statement):
        return redistribute_source("R", RedistributeConfig(*statement), keys)

    assert source("eigrp") == ("R", "eigrp", 10)  # id-less: lowest id
    assert source("eigrp", 20) == ("R", "eigrp", 20)
    assert source("eigrp", 30) is None
    assert source("static") == ("R", "local", None)
    assert source("rip") is None
    assert source("bgp") is None
