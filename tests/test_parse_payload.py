"""The canonical policy encodings that compression signatures digest.

:func:`repro.compress.signature._policy_digest` hashes these tuples to
decide which routers are interchangeable, so their bytes are part of the
compression contract: a changed encoding moves routers between classes.
The digests below are pinned to the values the encoders have always
produced.
"""

import hashlib

from repro.compress.signature import _policy_digest
from repro.ios.parser import parse_config
from repro.ios.payload import (
    encode_acl,
    encode_community_list,
    encode_prefix_list,
    encode_route_map,
)
from repro.model import Network
from repro.synth.templates.net5 import build_net5

# A fixture exercising every stanza family, policy objects included
# (numbered and named ACLs, prefix lists, community lists, route maps).
KITCHEN_SINK = """\
hostname sink
interface Serial0/0
 description uplink
 ip address 10.1.0.1 255.255.255.252
 ip access-group 101 in
 bandwidth 1544
 ip ospf cost 10
router ospf 10
 router-id 10.1.0.1
 network 10.1.0.0 0.0.0.3 area 0
 passive-interface Serial0/0
 redistribute static metric 20 subnets tag 7
 distribute-list 5 in Serial0/0
 default-information originate
router eigrp 100
 network 10.2.0.0
 no auto-summary
router rip
 version 2
 network 10.3.0.0
router bgp 65000
 neighbor 10.9.0.2 remote-as 65001
 neighbor 10.9.0.2 route-map RM-OUT out
 neighbor 10.9.0.2 next-hop-self
 network 10.1.0.0 mask 255.255.0.0
access-list 5 permit 10.1.0.0 0.0.255.255
access-list 101 permit tcp any host 10.1.0.1 eq 179
ip access-list extended NAMED
 permit ip 10.0.0.0 0.0.0.255 any
 deny ip any any
ip prefix-list PL seq 5 permit 10.0.0.0/8 le 24
ip community-list 7 permit 65000:100
route-map RM-OUT permit 10
 match ip address 101
 set local-preference 200
 set community 65000:100 additive
ip route 0.0.0.0 0.0.0.0 10.1.0.2 tag 42
banner motd ^C unmodeled ^C
"""


def _flatten(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _flatten(item)
    else:
        yield value


class TestPolicyEncoding:
    def test_encodings_are_primitives_only(self):
        config = parse_config(KITCHEN_SINK)
        encoded = (
            [encode_acl(acl) for acl in config.access_lists.values()]
            + [encode_prefix_list(p) for p in config.prefix_lists.values()]
            + [encode_community_list(c) for c in config.community_lists.values()]
            + [encode_route_map(r) for r in config.route_maps.values()]
        )
        assert len(encoded) == 6  # 5, 101, NAMED, PL, 7, RM-OUT
        for leaf in _flatten(encoded):
            assert leaf is None or isinstance(leaf, (int, str, bool)), leaf

    def test_kitchen_sink_policy_digest_is_pinned(self):
        network = Network.from_configs({"sink": KITCHEN_SINK})
        assert _policy_digest(network, "sink") == "202f3c557c1a4ad5"

    def test_template_policy_digests_are_pinned(self):
        configs, _spec = build_net5(scale=0.05, seed=3)
        network = Network.from_configs(configs)
        chained = hashlib.sha256()
        for router in sorted(network.routers):
            chained.update((router + _policy_digest(network, router)).encode())
        assert len(network.routers) == 68
        assert chained.hexdigest() == (
            "a05209a1b0c4173cad69192ce0441ddc6e8955f88f2b47d816d4e01b72955b4c"
        )
