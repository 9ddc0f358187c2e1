#!/usr/bin/env python3
"""What-if analysis: failures, maintenance, and route load (§3.1, §8.1).

Uses both substrates on one network: the static survivability analysis
(articulation points, instance-coupling redundancy, static-route
maintenance conflicts) and the control-plane simulator (which destinations
survive a specific link or router failure, per-process route loads).

Run:  python examples/what_if_analysis.py
"""

from repro import Network, RoutingSimulation
from repro.core import analyze_survivability
from repro.synth.templates.enterprise import build_enterprise


def main() -> None:
    configs, _spec = build_enterprise(
        "whatif", 8, 14, seed=99, igp="ospf", n_borders=2
    )
    network = Network.from_configs(configs, name="whatif")
    print(f"network: {len(network)} routers, {len(network.links)} links\n")

    # --- static survivability (§8.1) ---------------------------------------
    report = analyze_survivability(network)
    print(f"articulation routers (single-failure partitions): "
          f"{report.articulation_routers}")
    print(f"bridge links: {[str(p) for p in report.bridge_links]}")
    for coupling in report.couplings:
        flag = "  <- single point of failure" if coupling.is_single_point_of_failure else ""
        print(
            f"instances {coupling.instance_a}<->{coupling.instance_b} "
            f"coupled by {sorted(coupling.routers)}{flag}"
        )
    print()

    # --- route loads (§3.1: "how many routes will a process handle?") -------
    baseline = RoutingSimulation(network).run()
    print("per-process route loads (simulated):")
    for instance in network.instances:
        loads = [baseline.process_route_count(key) for key in instance.processes]
        print(f"  {instance.label}: max {max(loads)}, min {min(loads)} routes")
    print()

    # --- failure sweep ---------------------------------------------------------
    # Pick a destination LAN and see which single-router failures cut it off.
    spokes = [name for name in network.routers if "-r" in name]
    target_router = spokes[-1]
    target = (
        network.routers[target_router].config.interfaces["FastEthernet0/0"].prefix
    )
    destination = target.network + 1
    source = spokes[1]  # spokes[0] is the hub itself
    print(
        f"failure sweep: which single router failures cut {source} off from "
        f"{target} (on {target_router})?"
    )
    cut_by = []
    for victim in network.routers:
        if victim in (source, target_router):
            continue
        degraded = RoutingSimulation(network, failed_routers=[victim]).run()
        if not degraded.can_reach(source, destination):
            cut_by.append(victim)
    print(f"  disconnecting failures: {cut_by or 'none'}")
    print(
        "  (matches the articulation analysis: "
        f"{sorted(set(cut_by) & set(report.articulation_routers))} are "
        "articulation routers)"
    )

    if report.static_route_conflicts:
        print("\nstatic-route maintenance conflicts:")
        for prefix, routers in report.static_route_conflicts.items():
            print(f"  {prefix} is statically routed on {routers}")


if __name__ == "__main__":
    main()
