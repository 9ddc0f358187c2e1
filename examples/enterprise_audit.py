#!/usr/bin/env python3
"""Audit a large compartmentalized enterprise network (the net5 study).

Replays §5.1 and §6.1 of the paper on a generated net5-style network:
extract the routing instances, identify the glue routers that redistribute
between compartments, answer the redundancy question ("how many routers
must fail before instance 1 is partitioned from instance 4?"), and show
how external routes layer through the design.

Run:  python examples/enterprise_audit.py [scale]
"""

import sys

import networkx as nx

from repro import Network, classify_design, route_pathway
from repro.core.instances import build_instance_graph
from repro.core.process_graph import EXTERNAL_NODE
from repro.synth.templates.net5 import build_net5


def main(scale: float = 0.25) -> None:
    configs, spec = build_net5(scale=scale)
    network = Network.from_configs(configs, name="net5")
    print(f"net5 at scale {scale}: {len(network)} routers\n")

    # --- instance structure (Figure 9) ------------------------------------
    instances = network.instances
    print(f"{len(instances)} routing instances:")
    for instance in sorted(instances, key=lambda i: -i.size):
        print(f"  {instance.label}: {instance.size} routers")
    asns = {i.asn for i in instances if i.protocol == "bgp"}
    print(f"\n{len(asns)} internal BGP ASs — all inside one network")

    # --- the glue routers ----------------------------------------------------
    glue = spec.notes["glue_ab_routers"]
    print(f"\nredundant redistribution routers between compartments: {glue}")

    # Partition analysis: remove the glue routers, recompute, check whether
    # the two compartments can still exchange routes.
    degraded = Network.from_configs(
        {name: text for name, text in configs.items() if name not in set(glue)},
        name="net5-degraded",
    )
    graph = build_instance_graph(degraded).to_undirected()
    graph.remove_node(EXTERNAL_NODE)
    eigrp = sorted(
        (i for i in degraded.instances if i.protocol == "eigrp"), key=lambda i: -i.size
    )
    big = eigrp[0].instance_id
    b_compartment = next(
        i.instance_id
        for i in eigrp
        if any(router.startswith("net5-b") for router in i.routers)
    )
    connected = nx.has_path(graph, big, b_compartment)
    print(
        f"after failing all {len(glue)} glue routers, compartments A and B "
        f"{'can still' if connected else 'can NO LONGER'} exchange routes"
    )

    # --- pathway layering (Figure 10) -----------------------------------------
    middle = spec.notes["middle_router"]
    pathway = route_pathway(network, middle)
    print(
        f"\nroute pathway of {middle} (middle of the big compartment): "
        f"external routes cross {pathway.external_depth()} layers"
    )

    # --- classification ---------------------------------------------------------
    evidence = classify_design(network)
    print(
        f"\ndesign class: {evidence.design.value} "
        f"(IGP-to-IGP redistribution statements: "
        f"{evidence.igp_to_igp_redistribution_count})"
    )
    print(
        "the design avoids an IBGP mesh: external routes are tagged at "
        "injection and each compartment's addresses live in their own block"
    )
    for label, block in spec.notes["compartment_blocks"].items():
        print(f"  compartment {label}: {block}")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.25)
