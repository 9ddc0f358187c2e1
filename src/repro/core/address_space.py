"""Address space structure recovery (§3.4).

Networks rarely list their address plan anywhere; configurations mention
only small, fragmented subnets.  §3.4 recovers the plan by repeatedly
joining any two subnets whose network numbers differ in no more than the
least two bits — i.e. expanding blocks so long as at least half the
addresses in the enlarged block are "used" — until no more joins are
possible.  The result is a hierarchical tree of address blocks.

Both thresholds (2 bits per join, ½ utilization) are parameters here so the
ablation benchmark can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.model.network import Network
from repro.net import Prefix, summarize_prefixes
from repro.net.prefix import prefix_spans
from repro.obs.trace import traced


@dataclass
class AddressBlock:
    """A recovered address block: a prefix plus the original subnets under it."""

    prefix: Prefix
    subnets: List[Prefix] = field(default_factory=list)

    @property
    def used_addresses(self) -> int:
        """Distinct used addresses: duplicates and nested subnets collapse
        before counting, so utilization can never exceed 1.0."""
        return sum(hi - lo for lo, hi in prefix_spans(self.subnets))

    @property
    def utilization(self) -> float:
        """Fraction of the block's address space covered by original subnets."""
        return self.used_addresses / self.prefix.num_addresses()

    def __str__(self) -> str:
        return f"{self.prefix} ({len(self.subnets)} subnets, {self.utilization:.0%} used)"


def mentioned_subnets(network: Network) -> List[Prefix]:
    """All subnets mentioned in a network's configuration files.

    Sources: interface addresses (primary and secondary), routing-process
    ``network`` statements, and static route destinations.  Duplicates are
    removed and nested subnets collapsed so the utilization arithmetic of
    the join never double-counts an address.
    """
    subnets: Set[Prefix] = set()
    for router in network.routers.values():
        for iface in router.config.interfaces.values():
            if iface.prefix is not None:
                subnets.add(iface.prefix)
            for address, netmask in iface.secondary_addresses:
                subnets.add(Prefix.from_netmask(address.value, netmask.value))
        for process in router.config.routing_processes():
            for statement in getattr(process, "networks", []):
                subnets.add(statement.prefix())
        for route in router.config.static_routes:
            if route.prefix.length > 0:  # skip default routes
                subnets.add(route.prefix)
    return summarize_prefixes(subnets)


def join_blocks(
    subnets: Iterable[Prefix],
    max_join_bits: int = 2,
    min_utilization: float = 0.5,
) -> List[AddressBlock]:
    """The iterative join of §3.4.

    Starting from disjoint subnets, repeatedly join any two blocks whose
    common supernet is at most *max_join_bits* shorter than the longer of
    the two, provided at least *min_utilization* of the supernet's addresses
    are used.  Runs to fixpoint and returns the surviving top-level blocks
    sorted by prefix.
    """
    blocks: Dict[Prefix, AddressBlock] = {}
    for subnet in summarize_prefixes(subnets):
        blocks[subnet] = AddressBlock(prefix=subnet, subnets=[subnet])

    # The paper joins "any two" subnets, not just sort-order neighbors, so
    # every pair must be considered.  Blocks stay pairwise disjoint
    # throughout (a successful join absorbs every block its supernet
    # contains), which gives the sweep its structure: for a fixed block
    # ``a``, the common supernet of ``a`` and later blocks only grows as
    # the candidates get further away, so once it exceeds the bit bound
    # relative to ``a`` no later candidate can satisfy it either.
    changed = True
    while changed:
        changed = False
        ordered = sorted(blocks)
        for i in range(len(ordered)):
            a = ordered[i]
            if a not in blocks:
                continue  # absorbed earlier in this sweep
            for j in range(i + 1, len(ordered)):
                b = ordered[j]
                if b not in blocks:
                    continue
                supernet = _common_supernet(a, b)
                if supernet is None or supernet.length < a.length - max_join_bits:
                    break  # supernets only get shorter for later candidates
                if supernet.length < max(a.length, b.length) - max_join_bits:
                    continue  # b is longer than a; a later, shorter b may fit
                # Utilization is judged over everything the supernet would
                # swallow — disjoint blocks sorted between a and b are all
                # contained in their common supernet.
                members = [p for p in blocks if supernet.contains(p)]
                merged_subnets = summarize_prefixes(
                    subnet for p in members for subnet in blocks[p].subnets
                )
                used = sum(s.num_addresses() for s in merged_subnets)
                if used < supernet.num_addresses() * min_utilization:
                    continue
                for p in members:
                    del blocks[p]
                blocks[supernet] = AddressBlock(
                    prefix=supernet, subnets=merged_subnets
                )
                changed = True
                # Keep sweeping from the merged block: it may now join
                # with candidates the original ``a`` could not reach.
                a = supernet
    return [blocks[prefix] for prefix in sorted(blocks)]


def _common_supernet(a: Prefix, b: Prefix) -> Optional[Prefix]:
    """The longest prefix containing both *a* and *b* (None only at /0)."""
    length = min(a.length, b.length)
    while length > 0:
        candidate = Prefix(a.network_int, length)
        if candidate.contains(b):
            return candidate
        length -= 1
    candidate = Prefix(0, 0)
    return candidate if candidate.contains(a) and candidate.contains(b) else None


@traced("address_space")
def extract_address_space(
    network: Network,
    max_join_bits: int = 2,
    min_utilization: float = 0.5,
    max_subnets: Optional[int] = None,
) -> List[AddressBlock]:
    """Recover the address space structure of *network* (§3.4).

    ``max_subnets`` is the degraded-mode bound: only the first N mentioned
    subnets (in prefix-sorted order — deterministic) enter the join, so a
    pathological subnet spray cannot make the quadratic sweep explode.
    """
    subnets = mentioned_subnets(network)
    if max_subnets is not None and len(subnets) > max_subnets:
        subnets = subnets[:max_subnets]
    return join_blocks(
        subnets,
        max_join_bits=max_join_bits,
        min_utilization=min_utilization,
    )
