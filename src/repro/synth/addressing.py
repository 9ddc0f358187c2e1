"""Sequential, aligned address allocation for synthetic networks.

Network designers "often have a structured plan for assigning addresses
inside the network" (§3.4); the generator mimics that by carving each
network's address space out of dedicated pools — which is exactly the
structure the address-space-recovery algorithm is later asked to rediscover.
"""

from __future__ import annotations

from repro.net import Prefix


class PoolExhausted(RuntimeError):
    """Raised when an :class:`AddressPool` runs out of space."""


class AddressPool:
    """Allocate aligned subnets sequentially from a parent prefix."""

    def __init__(self, prefix: Prefix):
        if isinstance(prefix, str):
            prefix = Prefix(prefix)
        self.prefix = prefix
        self._cursor = prefix.network_int

    def allocate(self, length: int) -> Prefix:
        """Allocate the next aligned subnet of the given prefix length."""
        if length < self.prefix.length:
            raise ValueError(f"cannot allocate /{length} from {self.prefix}")
        size = 1 << (32 - length)
        # Align the cursor up to the allocation size.
        aligned = (self._cursor + size - 1) & ~(size - 1)
        if aligned + size - 1 > self.prefix.broadcast_int:
            raise PoolExhausted(f"{self.prefix} exhausted allocating /{length}")
        self._cursor = aligned + size
        return Prefix(aligned, length)

    def subpool(self, length: int) -> "AddressPool":
        """Carve a sub-block and return a pool over it (compartment plans)."""
        return AddressPool(self.allocate(length))

    def remaining(self) -> int:
        return self.prefix.broadcast_int - self._cursor + 1


class NetworkAddressPlan:
    """The standard address plan used by the design templates.

    * loopbacks from a dedicated /24-per-64-routers region,
    * point-to-point /30s from one region,
    * LAN /24s from another,
    * external peering /30s from a block **disjoint** from the internal
      space (the property §3.4's missing-router heuristic relies on).
    """

    def __init__(self, internal: Prefix, external: Prefix):
        if isinstance(internal, str):
            internal = Prefix(internal)
        if isinstance(external, str):
            external = Prefix(external)
        self.internal = internal
        root = AddressPool(internal)
        # Half of the space for LANs, a quarter for point-to-point links,
        # an eighth each for loopbacks and spares.
        self.lans = root.subpool(internal.length + 1)
        self.p2p = root.subpool(internal.length + 2)
        self.loopbacks = root.subpool(internal.length + 3)
        self.spare = root.subpool(internal.length + 3)
        self.external = AddressPool(external)
        self._remote_host_cursor = 0

    @classmethod
    def standard(cls, index: int) -> "NetworkAddressPlan":
        """The plan for the *index*-th network of a corpus.

        Each network gets its own 10.x/14 internal block and its own /14
        external block under 192/8, so independently generated networks
        never collide and internal vs. external space stays disjoint.
        """
        internal = Prefix((10 << 24) | ((index % 64) << 18), 14)
        external = Prefix((192 << 24) | ((index % 64) << 18), 14)
        return cls(internal=internal, external=external)

    def loopback(self) -> Prefix:
        return self.loopbacks.allocate(32)

    def p2p_subnet(self) -> Prefix:
        return self.p2p.allocate(30)

    def lan_subnet(self, length: int = 24) -> Prefix:
        return self.lans.allocate(length)

    def external_subnet(self) -> Prefix:
        return self.external.allocate(30)
