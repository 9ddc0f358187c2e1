"""OSPF area structure analysis.

OSPF instances are internally hierarchical: interfaces are assigned to
areas, area border routers (ABRs) join areas to the backbone (area 0), and
the design is sound only when every non-backbone area attaches to the
backbone through at least one ABR.  §8.2 observes that hierarchical
routing designs may reflect administrative partitioning or control-plane
load limits; either way, the area structure is part of the design and is
recoverable from the same configuration state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.model.network import Network


def _normalize_area(area: Optional[str]) -> str:
    """Areas may be written ``0`` or ``0.0.0.0``; normalize to the int form."""
    if area is None:
        return "0"
    if "." in area:
        parts = area.split(".")
        if len(parts) == 4 and all(part.isdigit() for part in parts):
            value = 0
            for part in parts:
                value = (value << 8) | int(part)
            return str(value)
    return area


@dataclass
class OspfAreaStructure:
    """The area decomposition of one OSPF instance."""

    instance_id: int
    #: area id -> routers with interfaces in it
    areas: Dict[str, Set[str]] = field(default_factory=dict)
    #: routers participating in more than one area
    border_routers: Set[str] = field(default_factory=set)

    @property
    def area_ids(self) -> List[str]:
        return sorted(self.areas, key=lambda a: (len(a), a))

    @property
    def has_backbone(self) -> bool:
        return "0" in self.areas

    @property
    def is_single_area(self) -> bool:
        return len(self.areas) <= 1

    def detached_areas(self) -> List[str]:
        """Non-backbone areas with no ABR into area 0 — a design error
        (inter-area routes cannot flow)."""
        if self.is_single_area:
            return []
        backbone = self.areas.get("0", set())
        detached = []
        for area_id, routers in self.areas.items():
            if area_id == "0":
                continue
            if not (routers & backbone & self.border_routers):
                detached.append(area_id)
        return sorted(detached)

    def abr_count(self) -> int:
        return len(self.border_routers)


def analyze_ospf_areas(network: Network) -> List[OspfAreaStructure]:
    """Recover the area structure of every OSPF instance in a network."""
    structures = []
    for instance in network.instances:
        if instance.protocol != "ospf":
            continue
        structure = OspfAreaStructure(instance_id=instance.instance_id)
        router_areas: Dict[str, Set[str]] = {}
        for key in instance.processes:
            proc = network.processes[key]
            config = proc.config
            iface_table = network.routers[key[0]].config.interfaces
            for statement in config.networks:
                area = _normalize_area(statement.area)
                covered_any = False
                for name in proc.covered_interfaces:
                    iface = iface_table.get(name)
                    if iface is None or not iface.is_numbered:
                        continue
                    if statement.matches_interface(iface.address):
                        covered_any = True
                        break
                if not covered_any:
                    continue
                structure.areas.setdefault(area, set()).add(key[0])
                router_areas.setdefault(key[0], set()).add(area)
        structure.border_routers = {
            router for router, areas in router_areas.items() if len(areas) > 1
        }
        structures.append(structure)
    return structures
