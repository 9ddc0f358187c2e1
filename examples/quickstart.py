#!/usr/bin/env python3
"""Quickstart: reverse engineer a routing design from configuration files.

Builds the paper's Figure 1 example (a small enterprise connected to a
transit backbone), writes its IOS configuration files to a directory the
way a config archive would look, then runs the whole §3 pipeline on the
files: link inference, routing instances, route pathways, address space
structure, and design classification.

Run:  python examples/quickstart.py
"""

import os
import tempfile

from repro import (
    Network,
    build_instance_graph,
    classify_design,
    compute_instances,
    extract_address_space,
    route_pathway,
)
from repro.synth.templates.example_fig1 import build_example_networks


def main() -> None:
    # --- 1. obtain configuration files -----------------------------------
    configs, meta = build_example_networks()
    with tempfile.TemporaryDirectory(prefix="repro-configs-") as archive:
        for index, (name, text) in enumerate(sorted(configs.items()), start=1):
            with open(os.path.join(archive, f"config{index}"), "w") as handle:
                handle.write(text)
        print(f"wrote {len(configs)} configuration files to {archive}\n")

        # --- 2. parse the archive into a network model --------------------
        network = Network.from_directory(archive)
    print(f"parsed {len(network)} routers; {len(network.links)} links inferred")
    print(f"external-facing interfaces: {sorted(network.external_interfaces)}\n")

    # --- 3. routing instances (§3.2) ---------------------------------------
    instances = compute_instances(network)
    print("routing instances (Figure 6):")
    for instance in instances:
        print(f"  {instance.label}: routers {sorted(instance.routers)}")
    print()

    # --- 4. route pathways (§3.3) ------------------------------------------
    for router in ("R1", "R5"):
        pathway = route_pathway(network, router, instances=instances)
        print(
            f"route pathway of {router}: depth {pathway.depth}, "
            f"external routes arrive after {pathway.external_depth()} hops"
        )
    print()

    # --- 5. address space structure (§3.4) ----------------------------------
    print("recovered address blocks:")
    for block in extract_address_space(network):
        print(f"  {block}")
    print()

    # --- 6. design classification (§7) ---------------------------------------
    evidence = classify_design(network, instances)
    print(f"design class: {evidence.design.value}")
    for note in evidence.notes:
        print(f"  {note}")

    # --- 7. instance graph for further analysis -------------------------------
    graph = build_instance_graph(network, instances)
    print(
        f"\ninstance graph: {graph.number_of_nodes()} nodes, "
        f"{graph.number_of_edges()} edges (including the external world)"
    )


if __name__ == "__main__":
    main()
