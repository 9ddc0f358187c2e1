#!/usr/bin/env python3
"""Verify a vendor migration preserves the routing design.

A realistic operator task the paper's framework enables: the core of a
network is being migrated from Cisco IOS to JunOS.  Because both dialects
parse into the same design model, the §8.2 longitudinal diff can certify
that the *routing design* — instances, links, classification — is
untouched even though every migrated config file is rewritten top to
bottom.

Run:  python examples/vendor_migration.py
"""

from repro import Network, classify_design
from repro.core import diff_designs
from repro.synth.templates.mixed import build_mixed


def main() -> None:
    # t0: the network as originally built (the mixed template emits a
    # JunOS core already; rebuild everything as IOS first for "before").
    configs_mixed, spec = build_mixed("migrate", 40, n_routers=12, seed=11)

    # "Before": every router in IOS.  Reconstruct by re-serializing the
    # JunOS cores from their parsed models through the IOS serializer.
    from repro.ios.serializer import serialize_config
    from repro.model.dialect import parse_any_config

    before_configs = {}
    for name, text in configs_mixed.items():
        model = parse_any_config(text)
        before_configs[name] = serialize_config(model)

    # "After": the core routers have been migrated to JunOS (the mixed
    # template's native output).
    after_configs = configs_mixed

    before = Network.from_configs(before_configs, name="t0-all-ios")
    after = Network.from_configs(after_configs, name="t1-junos-core")

    print("before: all-IOS network")
    print(f"  routers {len(before)}, links {len(before.links)}")
    print("after: JunOS core ({} routers migrated)".format(len(spec.notes["junos_routers"])))
    print(f"  routers {len(after)}, links {len(after.links)}\n")

    # --- the certification -------------------------------------------------
    diff = diff_designs(before, after)
    print("design-level diff after migration:")
    for line in diff.summary_lines():
        print(f"  {line}")

    before_instances = sorted(
        (i.protocol, i.size) for i in before.instances
    )
    after_instances = sorted((i.protocol, i.size) for i in after.instances)
    print(f"\ninstance structure identical: {before_instances == after_instances}")
    print(
        "design class: "
        f"{classify_design(before).design.value} -> "
        f"{classify_design(after).design.value}"
    )

    if (
        before_instances == after_instances
        and not diff.routers_added
        and not diff.routers_removed
    ):
        print("\nmigration certified: the routing design is unchanged.")
    else:
        print("\nWARNING: the migration altered the routing design!")


if __name__ == "__main__":
    main()
