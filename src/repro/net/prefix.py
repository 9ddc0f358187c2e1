"""IPv4 prefixes (subnets) and the span kernel for sets of addresses.

A set of addresses is held as integer spans (:data:`Spans`): union,
intersection and difference cost per contiguous range, not per prefix,
and :func:`span_prefixes` reads a set back out as its maximal aligned
prefixes.  Route sets, route filters and prefix summarization all use it.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, List, Tuple, Union

from repro.net.ipv4 import (
    AddressError,
    IPv4Address,
    format_ipv4,
    mask_to_prefix_len,
    parse_ipv4,
    prefix_len_to_mask,
    wildcard_to_prefix_len,
)

_MAX_IPV4 = 0xFFFFFFFF


@functools.total_ordering
class Prefix:
    """An IPv4 prefix: a network address plus a prefix length.

    The network address is canonicalized (host bits are cleared), so
    ``Prefix("10.0.0.1/24")`` equals ``Prefix("10.0.0.0/24")``.

    The hash is computed once, at construction: prefixes key the routing
    simulator's RIBs and the sweep's deltas, where hashing was a large
    share of the cost.  It is still ``hash((network, length))``, so sets
    of prefixes iterate in the same order.  (The slot changed the pickled
    layout; ``repro.ingest.cache.CACHE_FORMAT`` moved with it.)
    """

    __slots__ = ("_network", "_length", "_hash")

    def __init__(self, network: Union[str, int, IPv4Address], length: int = None):
        if isinstance(network, str) and length is None:
            if "/" not in network:
                raise AddressError(f"prefix needs a length: {network!r}")
            addr_text, len_text = network.split("/", 1)
            network = parse_ipv4(addr_text)
            length = int(len_text)
        elif isinstance(network, str):
            network = parse_ipv4(network)
        elif isinstance(network, IPv4Address):
            network = network.value
        if length is None:
            raise AddressError("prefix length is required")
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        self._length = length
        self._network = network & prefix_len_to_mask(length)
        self._hash = hash((self._network, length))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_netmask(cls, address: Union[str, int], netmask: Union[str, int]) -> "Prefix":
        """Build a prefix from ``ip address 10.0.0.1 255.255.255.0`` form."""
        if isinstance(address, str):
            address = parse_ipv4(address)
        if isinstance(netmask, str):
            netmask = parse_ipv4(netmask)
        return cls(address, mask_to_prefix_len(netmask))

    @classmethod
    def from_wildcard(cls, address: Union[str, int], wildcard: Union[str, int]) -> "Prefix":
        """Build a prefix from ``network 10.0.0.0 0.0.0.255`` form."""
        if isinstance(address, str):
            address = parse_ipv4(address)
        if isinstance(wildcard, str):
            wildcard = parse_ipv4(wildcard)
        return cls(address, wildcard_to_prefix_len(wildcard))

    # -- accessors ---------------------------------------------------------

    @property
    def network(self) -> IPv4Address:
        """The (canonicalized) network address."""
        return IPv4Address(self._network)

    @property
    def network_int(self) -> int:
        return self._network

    @property
    def length(self) -> int:
        return self._length

    @property
    def netmask(self) -> IPv4Address:
        return IPv4Address(prefix_len_to_mask(self._length))

    @property
    def wildcard(self) -> IPv4Address:
        return IPv4Address((~prefix_len_to_mask(self._length)) & _MAX_IPV4)

    @property
    def broadcast_int(self) -> int:
        return self._network | ((~prefix_len_to_mask(self._length)) & _MAX_IPV4)

    @property
    def span(self) -> Tuple[int, int]:
        """The half-open address range ``(network, broadcast + 1)``."""
        return (self._network, self._network + (1 << (32 - self._length)))

    def num_addresses(self) -> int:
        return 1 << (32 - self._length)

    def host_addresses(self) -> Iterator[IPv4Address]:
        """Iterate over usable host addresses.

        For /31 and /32 every address is usable (RFC 3021 semantics for
        point-to-point /31s); otherwise the network and broadcast addresses
        are excluded.
        """
        if self._length >= 31:
            start, stop = self._network, self.broadcast_int + 1
        else:
            start, stop = self._network + 1, self.broadcast_int
        for value in range(start, stop):
            yield IPv4Address(value)

    # -- set relations -----------------------------------------------------

    def contains_address(self, address: Union[str, int, IPv4Address]) -> bool:
        if isinstance(address, str):
            address = parse_ipv4(address)
        elif isinstance(address, IPv4Address):
            address = address.value
        return (address & prefix_len_to_mask(self._length)) == self._network

    def contains(self, other: "Prefix") -> bool:
        """True if *other* is a subnet of (or equal to) this prefix."""
        return (
            other._length >= self._length
            and (other._network & prefix_len_to_mask(self._length)) == self._network
        )

    def overlaps(self, other: "Prefix") -> bool:
        return self.contains(other) or other.contains(self)

    # -- derivation --------------------------------------------------------

    def supernet(self, new_length: int = None) -> "Prefix":
        """The enclosing prefix at *new_length* (default: one bit shorter)."""
        if new_length is None:
            new_length = self._length - 1
        if not 0 <= new_length <= self._length:
            raise AddressError(f"cannot supernet /{self._length} to /{new_length}")
        return Prefix(self._network, new_length)

    def subnets(self, new_length: int = None) -> Iterator["Prefix"]:
        """Iterate the subnets of this prefix at *new_length* (default +1)."""
        if new_length is None:
            new_length = self._length + 1
        if not self._length <= new_length <= 32:
            raise AddressError(f"cannot subnet /{self._length} to /{new_length}")
        step = 1 << (32 - new_length)
        for network in range(self._network, self.broadcast_int + 1, step):
            yield Prefix(network, new_length)

    def nth_subnet(self, new_length: int, index: int) -> "Prefix":
        """The *index*-th subnet of this prefix at *new_length*."""
        if not self._length <= new_length <= 32:
            raise AddressError(f"cannot subnet /{self._length} to /{new_length}")
        count = 1 << (new_length - self._length)
        if not 0 <= index < count:
            raise AddressError(f"subnet index {index} out of range for {count} subnets")
        return Prefix(self._network + index * (1 << (32 - new_length)), new_length)

    # -- dunder ------------------------------------------------------------

    def __str__(self) -> str:
        return f"{format_ipv4(self._network)}/{self._length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Prefix):
            return self._network == other._network and self._length == other._length
        if isinstance(other, str):
            try:
                return self == Prefix(other)
            except (AddressError, ValueError):
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self._network, self._length) < (other._network, other._length)

    def __hash__(self) -> int:
        return self._hash


def classful_prefix(address: Union[str, int, IPv4Address]) -> Prefix:
    """The classful network containing *address* (class A /8, B /16, C /24).

    Classful semantics still matter for RIPv1 ``network`` statements and for
    IOS's interpretation of bare network numbers.
    """
    if isinstance(address, str):
        address = parse_ipv4(address)
    elif isinstance(address, IPv4Address):
        address = address.value
    first_octet = address >> 24
    if first_octet < 128:
        length = 8
    elif first_octet < 192:
        length = 16
    else:
        length = 24
    return Prefix(address, length)


#: An address set: a tuple of sorted, disjoint, non-adjacent, non-empty
#: half-open ``(lo, hi)`` integer spans.  Every operation below takes and
#: returns this form, so one set has one spelling and compares by ``==``.
Spans = Tuple[Tuple[int, int], ...]


def merge_spans(spans: Iterable[Tuple[int, int]]) -> Spans:
    """The spans of the union of any non-empty half-open *spans*: sorted,
    with overlapping and adjacent ones merged."""
    merged: List[Tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


def prefix_spans(prefixes: Iterable[Prefix]) -> Spans:
    """The spans of the addresses that any of *prefixes* covers."""
    return merge_spans(prefix.span for prefix in prefixes)


def span_union(a: Spans, b: Spans) -> Spans:
    """The addresses in *a* or *b*."""
    if not b:
        return a
    if not a:
        return b
    return merge_spans(a + b)


def span_intersection(a: Spans, b: Spans) -> Spans:
    """The addresses in both *a* and *b*."""
    result: List[Tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        a_lo, a_hi = a[i]
        b_lo, b_hi = b[j]
        lo = a_lo if a_lo > b_lo else b_lo
        hi = a_hi if a_hi < b_hi else b_hi
        if lo < hi:
            result.append((lo, hi))
        if a_hi < b_hi:
            i += 1
        else:
            j += 1
    return tuple(result)


def span_difference(a: Spans, b: Spans) -> Spans:
    """The addresses of *a* that are not in *b*."""
    result: List[Tuple[int, int]] = []
    j = 0
    for lo, hi in a:
        while j < len(b) and b[j][1] <= lo:
            j += 1
        k = j
        while k < len(b) and b[k][0] < hi:
            b_lo, b_hi = b[k]
            if b_lo > lo:
                result.append((lo, b_lo))
            lo = b_hi
            if lo >= hi:
                break
            k += 1
        if lo < hi:
            result.append((lo, hi))
    return tuple(result)


def span_prefixes(spans: Spans) -> List[Prefix]:
    """The maximal aligned prefixes that tile *spans*, sorted by address.

    Each step takes the largest block that starts aligned at the span's
    low end and fits inside it.  No two results are siblings and none
    contains another, so this is the one cover :func:`summarize_prefixes`
    promises: every prefix inside the set lies in exactly one result.
    """
    result: List[Prefix] = []
    for lo, hi in spans:
        while lo < hi:
            size = lo & -lo or 1 << 32  # the alignment of lo (all of it at 0)
            while size > hi - lo:
                size >>= 1
            result.append(Prefix(lo, 33 - size.bit_length()))
            lo += size
    return result


def summarize_prefixes(prefixes: Iterable[Prefix]) -> List[Prefix]:
    """Collapse a set of prefixes into a minimal covering list.

    Contained prefixes disappear and adjacent siblings merge into their
    common supernet, recursively.  The result is sorted and covers exactly
    the union of the inputs.
    """
    return span_prefixes(prefix_spans(prefixes))
