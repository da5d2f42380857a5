"""Twin corpus: every command of one dialect has a twin in the other.

Each twin row pairs a vendor-a command block with its vendor-b twin. Both
blocks are applied to twin base devices and must leave the same device
model: equal sections but ``identity`` (which names the vendor), and equal
ASN, multipath and drain state. Each rejected
row must raise :class:`ConfigParseError` in both dialects. The coverage
guard fails when a handler of either dialect's keyword table is reached by
no row, so a command added to one dialect needs its twin. Two generated
laws draw the rows' add lines: entering a line twice equals entering it
once, and the mechanical negations (``no``/``undo`` + the line) of lines
that each add something new, in reverse order, leave their headers' model.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.incremental.diff import changed_sections
from repro.net.addr import Prefix
from repro.net.config import ConfigParseError, apply_commands, parse_config
from repro.net.config.dialects import DIALECTS

BASE_A = """\
router bgp 65001
 neighbor R2 remote-as 65002
 neighbor R2 route-map IMPORT in
 neighbor R2 route-map EXPORT out
 neighbor R2 route-reflector-client
 neighbor R2 next-hop-self
 neighbor R2 additional-paths 2
 neighbor R3 remote-as 65001
 neighbor R4 vrf vrf1 remote-as 65004
 aggregate-address 10.0.0.0/8 as-set summary-only
 aggregate-address 10.8.0.0/16 vrf vrf1
 redistribute static route-map RM
 redistribute direct vrf vrf1
 maximum-paths 4
router isis
isis cost R2 20
isis te
ip prefix-list PL4 seq 10 permit 10.0.0.0/24 ge 25 le 32
ip prefix-list PL4 seq 20 deny 10.1.0.0/16
ipv6 prefix-list PL6 seq 10 permit 2001:db8::/32 le 64
ip community-list CL permit 100:1 200:1
ip as-path access-list AP permit _65002$
route-map IMPORT deny 10
 match community CL
route-map IMPORT permit 20
 match ip prefix-list PL4
 set local-preference 300
 set community 300:1 additive
route-map EXPORT permit 10
 set med 50
route-map RM permit 10
ip route 10.0.0.0/24 192.0.2.1
ip route vrf vrf1 10.9.0.0/24 192.0.2.2 5
vrf definition vrf1
 rd 65001:1
 route-target import 100:1
 route-target export 100:2
 export-policy EXPORT
segment-routing policy SRP endpoint R5 color 100 segments R3,R4
pbr rule 10 src 10.2.0.0/16 dst 10.1.0.0/16 proto 6 nexthop R3
access-list ACL1 10 permit src 10.3.0.0/16 dst 10.0.0.0/24 proto 6 port 443
access-list ACL1 20 deny
interface eth1
 ip access-group ACL1
"""

BASE_B = """\
bgp 65001
 peer R2 as-number 65002
 peer R2 route-policy IMPORT import
 peer R2 route-policy EXPORT export
 peer R2 reflect-client
 peer R2 next-hop-local
 peer R2 additional-paths 2
 peer R3 as-number 65001
 peer R4 vpn-instance vrf1 as-number 65004
 aggregate 10.0.0.0 8 as-set detail-suppressed
 aggregate 10.8.0.0 16 vpn-instance vrf1
 import-route static route-policy RM
 import-route direct vpn-instance vrf1
 maximum load-balancing 4
isis
isis cost R2 20
isis te
ip ip-prefix PL4 index 10 permit 10.0.0.0 24 greater-equal 25 less-equal 32
ip ip-prefix PL4 index 20 deny 10.1.0.0 16
ip ipv6-prefix PL6 index 10 permit 2001:db8:: 32 less-equal 64
ip community-filter CL permit 100:1 200:1
ip as-path-filter AP permit _65002$
route-policy IMPORT deny node 10
 if-match community-filter CL
route-policy IMPORT permit node 20
 if-match ip-prefix PL4
 apply local-preference 300
 apply community 300:1 additive
route-policy EXPORT permit node 10
 apply cost 50
route-policy RM permit node 10
ip route-static 10.0.0.0 24 192.0.2.1
ip route-static vpn-instance vrf1 10.9.0.0 24 192.0.2.2 preference 5
ip vpn-instance vrf1
 route-distinguisher 65001:1
 vpn-target 100:1 import-extcommunity
 vpn-target 100:2 export-extcommunity
 export route-policy EXPORT
segment-routing policy SRP endpoint R5 color 100 segments R3,R4
pbr rule 10 src 10.2.0.0/16 dst 10.1.0.0/16 proto 6 nexthop R3
acl ACL1 10 permit src 10.3.0.0/16 dst 10.0.0.0/24 proto 6 port 443
acl ACL1 20 deny
interface eth1
 traffic-filter inbound acl ACL1
"""

BGP_A, BGP_B = "router bgp 65001\n", "bgp 65001\n"
NODE_A, NODE_B = "route-map P permit 10\n", "route-policy P permit node 10\n"

RM_A, RM_B = "route-map RM permit 10\n", "route-policy RM permit node 10\n"

#: (row id, vendor-a block, vendor-b block) whose last lines undo what the
#: lines before them did (mostly by negation): each block leaves its base
#: device unchanged
HAND_ROUND_TRIPS = [
    # -- entering a clause twice equals entering it once
    (
        "match-twice-undo",
        RM_A + " match ip prefix-list PL4\n match ip prefix-list PL4\n no match ip prefix-list PL4",
        RM_B + " if-match ip-prefix PL4\n if-match ip-prefix PL4\n undo if-match ip-prefix PL4",
    ),
    (
        "set-twice-undo",
        RM_A + " set local-preference 200\n set local-preference 200\n no set local-preference 200",
        RM_B + " apply local-preference 200\n apply local-preference 200\n"
        " undo apply local-preference 200",
    ),
    (
        "set-replaced-then-restored",
        "route-map IMPORT permit 20\n set local-preference 200\n set local-preference 300",
        "route-policy IMPORT permit node 20\n apply local-preference 200\n apply local-preference 300",
    ),
    # the negation names the communities in another order: one normal form
    (
        "set-community-undo",
        RM_A + " set community 2:2 1:1\n no set community 1:1 2:2",
        RM_B + " apply community 2:2 1:1\n undo apply community 1:1 2:2",
    ),
    # -- a negation that leaves out values the entry holds
    ("peer-add-undo", BGP_A + " neighbor R9 remote-as 65009\n no neighbor R9", BGP_B + " peer R9 as-number 65009\n undo peer R9"),
    (
        "peer-add-vrf-undo",
        BGP_A + " neighbor R9 vrf vrf1 remote-as 65009\n no neighbor R9 vrf vrf1",
        BGP_B + " peer R9 vpn-instance vrf1 as-number 65009\n undo peer R9 vpn-instance vrf1",
    ),
    (
        "static-vrf-add-undo",
        "ip route vrf vrf1 10.6.0.0/16 192.0.2.3 7\nno ip route vrf vrf1 10.6.0.0/16 192.0.2.3",
        "ip route-static vpn-instance vrf1 10.6.0.0 16 192.0.2.3 preference 7\n"
        "undo ip route-static vpn-instance vrf1 10.6.0.0 16 192.0.2.3",
    ),
    # the negation writes the next hop in upper case
    (
        "static-v6-add-undo",
        "ip route 2001:db8:9::/48 2001:db8::1\nno ip route 2001:db8:9::/48 2001:DB8::1",
        "ip route-static 2001:db8:9:: 48 2001:db8::1\nundo ip route-static 2001:db8:9:: 48 2001:DB8::1",
    ),
    (
        "prefix-list-entry-add-undo",
        "ip prefix-list PL4 seq 30 permit 10.2.0.0/16 ge 20 le 24\nno ip prefix-list PL4 seq 30 permit 10.2.0.0/16",
        "ip ip-prefix PL4 index 30 permit 10.2.0.0 16 greater-equal 20 less-equal 24\n"
        "undo ip ip-prefix PL4 index 30 permit 10.2.0.0 16",
    ),
    # re-entering a number replaces its entry
    (
        "prefix-list-seq-replaced-then-restored",
        "ip prefix-list PL4 seq 10 deny 10.9.0.0/16\nip prefix-list PL4 seq 10 permit 10.0.0.0/24 ge 25 le 32",
        "ip ip-prefix PL4 index 10 deny 10.9.0.0 16\n"
        "ip ip-prefix PL4 index 10 permit 10.0.0.0 24 greater-equal 25 less-equal 32",
    ),
    # -- a negation of the whole object
    (
        "prefix-list-add-undo",
        "ip prefix-list NEW deny 10.3.0.0/16\nno ip prefix-list NEW",
        "ip ip-prefix NEW deny 10.3.0.0 16\nundo ip ip-prefix NEW",
    ),
    (
        "community-list-add-undo",
        "ip community-list CL2 permit 1:1\nno ip community-list CL2",
        "ip community-filter CL2 permit 1:1\nundo ip community-filter CL2",
    ),
    (
        "as-path-list-add-undo",
        "ip as-path access-list AP2 permit ^65003\nno ip as-path access-list AP2",
        "ip as-path-filter AP2 permit ^65003\nundo ip as-path-filter AP2",
    ),
    ("node-add-undo", "route-map RM permit 20\nno route-map RM 20", "route-policy RM permit node 20\nundo route-policy RM node 20"),
    (
        "policy-add-undo",
        NODE_A + " set med 5\nno route-map P",
        NODE_B + " apply cost 5\nundo route-policy P",
    ),
    (
        "sr-policy-add-undo",
        "segment-routing policy SRP2 endpoint R6\nno segment-routing policy SRP2",
        "segment-routing policy SRP2 endpoint R6\nundo segment-routing policy SRP2",
    ),
    (
        "pbr-rule-add-undo",
        "pbr rule 20 dst 10.4.0.0/16 nexthop R2\nno pbr rule 20",
        "pbr rule 20 dst 10.4.0.0/16 nexthop R2\nundo pbr rule 20",
    ),
    ("acl-add-undo", "access-list ACL2 10 deny\nno access-list ACL2", "acl ACL2 10 deny\nundo acl ACL2"),
    (
        "vrf-add-undo",
        "vrf definition vrf2\n rd 65001:2\nno vrf definition vrf2",
        "ip vpn-instance vrf2\n route-distinguisher 65001:2\nundo ip vpn-instance vrf2",
    ),
    ("isis-cost-add-undo", "isis cost R3 30\nno isis cost R3", "isis cost R3 30\nundo isis cost R3"),
    # -- a flag cleared, then set again
    ("isis-enable", "no router isis\nrouter isis", "undo isis\nisis"),
    ("isis-te", "no isis te\nisis te", "undo isis te\nisis te"),
]

#: (row id, vendor-a block, vendor-b block) whose last line adds something
#: the base lacks; its round trip appends that line's mechanical negation
#: (:func:`_negation`), and :func:`test_negating_each_line_in_reverse_restores_the_headers`
#: draws these lines
NEGATED = [
    ("match-undo", RM_A + " match ip prefix-list PL4", RM_B + " if-match ip-prefix PL4"),
    ("set-undo", RM_A + " set local-preference 200", RM_B + " apply local-preference 200"),
    ("set-med-undo", RM_A + " set med 5", RM_B + " apply cost 5"),
    ("peer-remote-as-add-undo", BGP_A + " neighbor R9 remote-as 65009", BGP_B + " peer R9 as-number 65009"),
    ("peer-policy-in-add-undo", BGP_A + " neighbor R3 route-map RM in", BGP_B + " peer R3 route-policy RM import"),
    ("peer-policy-out-add-undo", BGP_A + " neighbor R3 route-map RM out", BGP_B + " peer R3 route-policy RM export"),
    ("peer-rr-client-add-undo", BGP_A + " neighbor R3 route-reflector-client", BGP_B + " peer R3 reflect-client"),
    ("peer-next-hop-self-add-undo", BGP_A + " neighbor R3 next-hop-self", BGP_B + " peer R3 next-hop-local"),
    ("peer-addpath-add-undo", BGP_A + " neighbor R3 additional-paths 4", BGP_B + " peer R3 additional-paths 4"),
    ("peer-shutdown-undo", BGP_A + " neighbor R2 shutdown", BGP_B + " peer R2 ignore"),
    ("aggregate-add-undo", BGP_A + " aggregate-address 10.4.0.0/16", BGP_B + " aggregate 10.4.0.0 16"),
    (
        "aggregate-vrf-add-undo",
        BGP_A + " aggregate-address 10.4.0.0/16 vrf vrf1",
        BGP_B + " aggregate 10.4.0.0 16 vpn-instance vrf1",
    ),
    # the base redistributes direct routes in vrf1 only
    ("redistribute-add-undo", BGP_A + " redistribute direct", BGP_B + " import-route direct"),
    (
        "redistribute-vrf-add-undo",
        BGP_A + " redistribute static vrf vrf1",
        BGP_B + " import-route static vpn-instance vrf1",
    ),
    ("static-add-undo", "ip route 10.6.0.0/16 192.0.2.3", "ip route-static 10.6.0.0 16 192.0.2.3"),
    ("prefix-list-unnumbered-add-undo", "ip prefix-list PL4 permit 10.2.0.0/16", "ip ip-prefix PL4 permit 10.2.0.0 16"),
    # undoing the only entry of a list undoes the list
    ("prefix-list-new-add-undo", "ip prefix-list NEW deny 10.3.0.0/16", "ip ip-prefix NEW deny 10.3.0.0 16"),
    ("community-list-member-add-undo", "ip community-list CL permit 300:1", "ip community-filter CL permit 300:1"),
    ("as-path-list-member-add-undo", "ip as-path access-list AP permit ^65003", "ip as-path-filter AP permit ^65003"),
    ("acl-rule-add-undo", "access-list ACL1 30 permit", "acl ACL1 30 permit"),
    ("acl-bind-undo", "interface eth2\n ip access-group ACL1", "interface eth2\n traffic-filter inbound acl ACL1"),
    (
        "route-target-add-undo",
        "vrf definition vrf1\n route-target import 300:1",
        "ip vpn-instance vrf1\n vpn-target 300:1 import-extcommunity",
    ),
    ("isolate-undo", "isolate", "device-isolate"),
]


def _negation(line, vendor):
    """``line`` negated by the dialect's negation word, indentation kept."""
    indent = line[: len(line) - len(line.lstrip())]
    return f"{indent}{DIALECTS[vendor].negation} {line.strip()}"


ROUND_TRIPS = HAND_ROUND_TRIPS + [
    (
        row_id,
        f"{a_block}\n{_negation(a_block.splitlines()[-1], 'vendor-a')}",
        f"{b_block}\n{_negation(b_block.splitlines()[-1], 'vendor-b')}",
    )
    for row_id, a_block, b_block in NEGATED
]

#: (row id, vendor-a line, vendor-b line) giving seq 10 of the base's PBR
#: rules or of ACL1 a new body
SEQ_REPLACED = [
    ("pbr-rule-seq-replaced", "pbr rule 10 dst 10.5.0.0/16 nexthop R2", "pbr rule 10 dst 10.5.0.0/16 nexthop R2"),
    ("acl-rule-seq-replaced", "access-list ACL1 10 deny src 10.6.0.0/16", "acl ACL1 10 deny src 10.6.0.0/16"),
]

#: (row id, vendor-a block, vendor-b block) leaving twin device models
TWINS = ROUND_TRIPS + SEQ_REPLACED + [
    # -- the BGP process and its peers
    ("bgp-asn", "router bgp 65009", "bgp 65009"),
    ("bgp-undo", "no router bgp", "undo bgp"),
    ("peer-add", BGP_A + " neighbor R9 remote-as 65009", BGP_B + " peer R9 as-number 65009"),
    (
        "peer-add-vrf",
        BGP_A + " neighbor R9 vrf vrf1 remote-as 65009",
        BGP_B + " peer R9 vpn-instance vrf1 as-number 65009",
    ),
    ("peer-remote-as-update", BGP_A + " neighbor R2 remote-as 65012", BGP_B + " peer R2 as-number 65012"),
    # naming the held remote AS undoes the peer, like ``peer-remove``
    (
        "peer-remote-as-undo",
        BGP_A + " no neighbor R2 remote-as 65002",
        BGP_B + " undo peer R2 as-number 65002",
    ),
    ("peer-remove", BGP_A + " no neighbor R2", BGP_B + " undo peer R2"),
    ("peer-remove-vrf", BGP_A + " no neighbor R4 vrf vrf1", BGP_B + " undo peer R4 vpn-instance vrf1"),
    ("peer-policy-in", BGP_A + " neighbor R3 route-map RM in", BGP_B + " peer R3 route-policy RM import"),
    ("peer-policy-out", BGP_A + " neighbor R3 route-map RM out", BGP_B + " peer R3 route-policy RM export"),
    (
        "peer-policy-vrf",
        BGP_A + " neighbor R4 vrf vrf1 route-map RM in",
        BGP_B + " peer R4 vpn-instance vrf1 route-policy RM import",
    ),
    (
        "peer-policy-in-undo",
        BGP_A + " no neighbor R2 route-map IMPORT in",
        BGP_B + " undo peer R2 route-policy IMPORT import",
    ),
    (
        "peer-policy-out-undo",
        BGP_A + " no neighbor R2 route-map EXPORT out",
        BGP_B + " undo peer R2 route-policy EXPORT export",
    ),
    ("peer-rr-client", BGP_A + " neighbor R3 route-reflector-client", BGP_B + " peer R3 reflect-client"),
    (
        "peer-rr-client-undo",
        BGP_A + " no neighbor R2 route-reflector-client",
        BGP_B + " undo peer R2 reflect-client",
    ),
    ("peer-next-hop-self", BGP_A + " neighbor R3 next-hop-self", BGP_B + " peer R3 next-hop-local"),
    (
        "peer-next-hop-self-undo",
        BGP_A + " no neighbor R2 next-hop-self",
        BGP_B + " undo peer R2 next-hop-local",
    ),
    ("peer-addpath", BGP_A + " neighbor R3 additional-paths 4", BGP_B + " peer R3 additional-paths 4"),
    (
        "peer-addpath-undo",
        BGP_A + " no neighbor R2 additional-paths 2",
        BGP_B + " undo peer R2 additional-paths 2",
    ),
    ("peer-shutdown", BGP_A + " neighbor R2 shutdown", BGP_B + " peer R2 ignore"),
    ("aggregate", BGP_A + " aggregate-address 10.4.0.0/16", BGP_B + " aggregate 10.4.0.0 16"),
    (
        "aggregate-options",
        BGP_A + " aggregate-address 10.4.0.0/16 vrf vrf1 as-set summary-only",
        BGP_B + " aggregate 10.4.0.0 16 vpn-instance vrf1 as-set detail-suppressed",
    ),
    ("aggregate-undo", BGP_A + " no aggregate-address 10.0.0.0/8", BGP_B + " undo aggregate 10.0.0.0 8"),
    (
        "aggregate-undo-vrf",
        BGP_A + " no aggregate-address 10.8.0.0/16 vrf vrf1",
        BGP_B + " undo aggregate 10.8.0.0 16 vpn-instance vrf1",
    ),
    ("redistribute", BGP_A + " redistribute isis", BGP_B + " import-route isis"),
    (
        "redistribute-options",
        BGP_A + " redistribute static route-map RM vrf vrf1",
        BGP_B + " import-route static route-policy RM vpn-instance vrf1",
    ),
    ("redistribute-undo", BGP_A + " no redistribute static", BGP_B + " undo import-route static"),
    ("maximum-paths", BGP_A + " maximum-paths 8", BGP_B + " maximum load-balancing 8"),
    ("maximum-paths-undo", BGP_A + " no maximum-paths 4", BGP_B + " undo maximum load-balancing 4"),
    # -- route-policy nodes
    (
        "node-new",
        NODE_A + " match ip prefix-list PL4\n set med 5",
        NODE_B + " if-match ip-prefix PL4\n apply cost 5",
    ),
    ("node-deny", "route-map P deny 20", "route-policy P deny node 20"),
    ("node-none", "route-map P none 30", "route-policy P none node 30"),
    ("node-action-update", "route-map IMPORT permit 10", "route-policy IMPORT permit node 10"),
    ("node-undo", "no route-map IMPORT deny 10", "undo route-policy IMPORT deny node 10"),
    ("node-undo-short", "no route-map IMPORT 20", "undo route-policy IMPORT node 20"),
    ("policy-undo", "no route-map RM", "undo route-policy RM"),
    ("match-prefix-list-v6", NODE_A + " match ipv6 prefix-list PL6", NODE_B + " if-match ipv6-prefix PL6"),
    ("match-community", NODE_A + " match community CL", NODE_B + " if-match community-filter CL"),
    ("match-as-path", NODE_A + " match as-path AP", NODE_B + " if-match as-path-filter AP"),
    ("match-prefix", NODE_A + " match ip prefix 10.0.0.0/8", NODE_B + " if-match prefix 10.0.0.0/8"),
    ("match-protocol", NODE_A + " match protocol static", NODE_B + " if-match protocol static"),
    ("match-nexthop", NODE_A + " match ip nexthop 192.0.2.1", NODE_B + " if-match nexthop 192.0.2.1"),
    ("set-local-preference", NODE_A + " set local-preference 200", NODE_B + " apply local-preference 200"),
    ("set-weight", NODE_A + " set weight 100", NODE_B + " apply weight 100"),
    ("set-preference", NODE_A + " set preference 150", NODE_B + " apply preference 150"),
    ("set-next-hop", NODE_A + " set next-hop 192.0.2.9", NODE_B + " apply ip-address next-hop 192.0.2.9"),
    ("set-community", NODE_A + " set community 1:1 2:2", NODE_B + " apply community 1:1 2:2"),
    (
        "set-community-additive",
        NODE_A + " set community 1:1 additive",
        NODE_B + " apply community 1:1 additive",
    ),
    ("set-community-delete", NODE_A + " set community-delete 100:1", NODE_B + " apply community-delete 100:1"),
    ("set-as-path-prepend", NODE_A + " set as-path prepend 65001 3", NODE_B + " apply as-path 65001 3"),
    ("set-as-path-prepend-once", NODE_A + " set as-path prepend 65001", NODE_B + " apply as-path 65001"),
    (
        "set-as-path-overwrite",
        NODE_A + " set as-path overwrite 65001 65002",
        NODE_B + " apply as-path 65001 65002 overwrite",
    ),
    # -- prefix, community and as-path lists
    (
        "prefix-list-add",
        "ip prefix-list PL4 seq 30 permit 10.2.0.0/16 ge 20 le 24",
        "ip ip-prefix PL4 index 30 permit 10.2.0.0 16 greater-equal 20 less-equal 24",
    ),
    ("prefix-list-new", "ip prefix-list NEW deny 10.3.0.0/16", "ip ip-prefix NEW deny 10.3.0.0 16"),
    (
        "prefix-list-v6",
        "ipv6 prefix-list PL6 seq 20 deny 2001:db8:1::/48 ge 56",
        "ip ipv6-prefix PL6 index 20 deny 2001:db8:1:: 48 greater-equal 56",
    ),
    # §6.1: the ip-prefix command fixes the IPv4 family whatever address it is given
    (
        "prefix-list-v4-family-with-v6-address",
        "ip prefix-list BAD permit 2001:db8::/32",
        "ip ip-prefix BAD index 10 permit 2001:db8:: 32",
    ),
    (
        "prefix-list-entry-undo",
        "no ip prefix-list PL4 seq 20 deny 10.1.0.0/16",
        "undo ip ip-prefix PL4 index 20 deny 10.1.0.0 16",
    ),
    (
        "prefix-list-v6-entry-undo",
        "no ipv6 prefix-list PL6 seq 10 permit 2001:db8::/32",
        "undo ip ipv6-prefix PL6 index 10 permit 2001:db8:: 32",
    ),
    ("prefix-list-undo", "no ip prefix-list PL4", "undo ip ip-prefix PL4"),
    ("prefix-list-v6-undo", "no ipv6 prefix-list PL6", "undo ip ipv6-prefix PL6"),
    ("community-list-add", "ip community-list CL permit 300:1", "ip community-filter CL permit 300:1"),
    ("community-list-new", "ip community-list CL2 permit 1:1 2:2", "ip community-filter CL2 permit 1:1 2:2"),
    ("community-list-undo", "no ip community-list CL", "undo ip community-filter CL"),
    ("as-path-list-add", "ip as-path access-list AP permit ^65003 .*", "ip as-path-filter AP permit ^65003 .*"),
    ("as-path-list-undo", "no ip as-path access-list AP", "undo ip as-path-filter AP"),
    # -- static routes
    ("static", "ip route 10.6.0.0/16 192.0.2.3", "ip route-static 10.6.0.0 16 192.0.2.3"),
    (
        "static-options",
        "ip route vrf vrf1 10.6.0.0/16 192.0.2.3 7",
        "ip route-static vpn-instance vrf1 10.6.0.0 16 192.0.2.3 preference 7",
    ),
    ("static-undo", "no ip route 10.0.0.0/24 192.0.2.1", "undo ip route-static 10.0.0.0 24 192.0.2.1"),
    (
        "static-undo-vrf",
        "no ip route vrf vrf1 10.9.0.0/24 192.0.2.2",
        "undo ip route-static vpn-instance vrf1 10.9.0.0 24 192.0.2.2",
    ),
    # -- VRFs
    (
        "vrf-new",
        "vrf definition vrf2\n rd 65001:2\n route-target import 200:1\n"
        " route-target export 200:2\n export-policy RM",
        "ip vpn-instance vrf2\n route-distinguisher 65001:2\n vpn-target 200:1 import-extcommunity\n"
        " vpn-target 200:2 export-extcommunity\n export route-policy RM",
    ),
    (
        "vrf-options-undo",
        "vrf definition vrf1\n no rd 65001:1\n no route-target import 100:1\n"
        " no route-target export 100:2\n no export-policy EXPORT",
        "ip vpn-instance vrf1\n undo route-distinguisher 65001:1\n"
        " undo vpn-target 100:1 import-extcommunity\n undo vpn-target 100:2 export-extcommunity\n"
        " undo export route-policy EXPORT",
    ),
    ("vrf-undo", "no vrf definition vrf1", "undo ip vpn-instance vrf1"),
    # -- SR policies, PBR, ACLs and their interface binding
    (
        "sr-policy",
        "segment-routing policy SRP2 endpoint R6 color 200 segments R2",
        "segment-routing policy SRP2 endpoint R6 color 200 segments R2",
    ),
    ("sr-policy-defaults", "segment-routing policy SRP3 endpoint R6", "segment-routing policy SRP3 endpoint R6"),
    ("sr-policy-undo", "no segment-routing policy SRP", "undo segment-routing policy SRP"),
    ("pbr-rule", "pbr rule 20 dst 10.4.0.0/16 nexthop R2", "pbr rule 20 dst 10.4.0.0/16 nexthop R2"),
    ("pbr-rule-undo", "no pbr rule 10", "undo pbr rule 10"),
    (
        "acl",
        "access-list ACL2 10 deny src 10.5.0.0/16 proto 17 port 53",
        "acl ACL2 10 deny src 10.5.0.0/16 proto 17 port 53",
    ),
    ("acl-rule-append", "access-list ACL1 30 permit", "acl ACL1 30 permit"),
    ("acl-undo", "no access-list ACL1", "undo acl ACL1"),
    ("acl-bind", "interface eth2\n ip access-group ACL1", "interface eth2\n traffic-filter inbound acl ACL1"),
    ("acl-bind-in", "interface eth2\n ip access-group ACL1 in", "interface eth2\n traffic-filter inbound acl ACL1"),
    (
        "acl-unbind",
        "interface eth1\n no ip access-group ACL1",
        "interface eth1\n undo traffic-filter inbound acl ACL1",
    ),
    ("interface-undo", "no interface eth1", "undo interface eth1"),
    # -- IS-IS and isolation
    ("isis-undo", "no router isis", "undo isis"),
    ("isis-cost", "isis cost R3 30", "isis cost R3 30"),
    ("isis-cost-undo", "no isis cost R2", "undo isis cost R2"),
    ("isis-te-undo", "no isis te", "undo isis te"),
    ("isolate", "isolate", "device-isolate"),
    # -- context rules: an unindented sub-command keeps its context
    ("context-unindented-sub", "router bgp 65001\nneighbor R3 shutdown", "bgp 65001\npeer R3 ignore"),
    ("comments-and-blanks", "! note\n\n# note\nisolate", "! note\n\n# note\ndevice-isolate"),
]

#: (row id, vendor-a block, vendor-b block) both dialects reject
REJECTED = [
    ("unknown-command", "frobnicate the uplink", "frobnicate the uplink"),
    (
        "wrong-dialect",
        "ip ip-prefix X index 10 permit 10.0.0.0 8",
        "ip prefix-list X permit 10.0.0.0/8",
    ),
    ("wrong-dialect-sub", BGP_A + " peer R2 ignore", BGP_B + " neighbor R2 shutdown"),
    ("missing-bgp-context", " neighbor R2 shutdown", " peer R2 ignore"),
    ("missing-bgp-context-aggregate", " aggregate-address 10.4.0.0/16", " aggregate 10.4.0.0 16"),
    ("missing-bgp-context-redistribute", " redistribute isis", " import-route isis"),
    ("missing-bgp-context-maximum-paths", " maximum-paths 2", " maximum load-balancing 2"),
    (
        "top-level-command-closes-context",
        BGP_A + "isolate\n neighbor R2 shutdown",
        BGP_B + "device-isolate\n peer R2 ignore",
    ),
    ("missing-node-context-match", " match community CL", " if-match community-filter CL"),
    ("missing-node-context-set", " set med 5", " apply cost 5"),
    ("missing-vrf-context-rd", " rd 1:1", " route-distinguisher 1:1"),
    ("missing-vrf-context-rt", " route-target import 1:1", " vpn-target 1:1 import-extcommunity"),
    ("missing-vrf-context-export", " export-policy RM", " export route-policy RM"),
    ("missing-interface-context", " ip access-group ACL1", " traffic-filter inbound acl ACL1"),
    (
        "route-target-bad-direction",
        "vrf definition vrf1\n route-target both 100:3",
        "ip vpn-instance vrf1\n vpn-target 100:3 both",
    ),
    ("prefix-list-bad-action", "ip prefix-list X allow 10.0.0.0/8", "ip ip-prefix X allow 10.0.0.0 8"),
    ("policy-bad-action", "route-map X allow 10", "route-policy X allow node 10"),
    ("community-list-deny", "ip community-list C deny 1:1", "ip community-filter C deny 1:1"),
    ("as-path-list-deny", "ip as-path access-list A deny .*", "ip as-path-filter A deny .*"),
    ("peer-not-declared", BGP_A + " neighbor R9 shutdown", BGP_B + " peer R9 ignore"),
    ("peer-remove-undeclared", BGP_A + " no neighbor R9", BGP_B + " undo peer R9"),
    ("peer-unknown-option", BGP_A + " neighbor R2 frobnicate", BGP_B + " peer R2 frobnicate"),
    ("peer-bad-direction", BGP_A + " neighbor R2 route-map RM both", BGP_B + " peer R2 route-policy RM both"),
    ("match-unknown", NODE_A + " match frobnicate X", NODE_B + " if-match frobnicate X"),
    ("match-undo-absent", NODE_A + " no match community CL", NODE_B + " undo if-match community-filter CL"),
    (
        "set-undo-absent",
        "route-map IMPORT permit 20\n no set local-preference 200",
        "route-policy IMPORT permit node 20\n undo apply local-preference 200",
    ),
    ("set-unknown", NODE_A + " set frobnicate 1", NODE_B + " apply frobnicate 1"),
    # -- malformed values: every clause value is parsed with its line
    ("set-local-preference-not-a-number", NODE_A + " set local-preference abc", NODE_B + " apply local-preference abc"),
    ("set-local-preference-negative", NODE_A + " set local-preference -5", NODE_B + " apply local-preference -5"),
    ("set-as-path-prepend-not-a-number", NODE_A + " set as-path prepend frob", NODE_B + " apply as-path frob"),
    ("set-next-hop-not-an-address", NODE_A + " set next-hop frob", NODE_B + " apply ip-address next-hop frob"),
    ("set-community-malformed", NODE_A + " set community frob", NODE_B + " apply community frob"),
    ("match-prefix-host-bits", NODE_A + " match ip prefix 10.0.0.1/24", NODE_B + " if-match prefix 10.0.0.1/24"),
    ("match-nexthop-not-an-address", NODE_A + " match ip nexthop frob", NODE_B + " if-match nexthop frob"),
    ("match-protocol-unknown", NODE_A + " match protocol bgpp", NODE_B + " if-match protocol bgpp"),
    ("community-list-malformed", "ip community-list CL permit frob", "ip community-filter CL permit frob"),
    # -- negating an entry that is not there
    (
        "prefix-list-entry-undo-absent",
        "no ip prefix-list PL4 seq 30 permit 10.2.0.0/16",
        "undo ip ip-prefix PL4 index 30 permit 10.2.0.0 16",
    ),
    ("redistribute-undo-absent", BGP_A + " no redistribute isis", BGP_B + " undo import-route isis"),
    ("undo-node-of-missing-policy", "no route-map NOPE 10", "undo route-policy NOPE node 10"),
    ("undo-missing-node", "no route-map RM 20", "undo route-policy RM node 20"),
    ("prefix-list-undo-missing", "no ip prefix-list NOPE", "undo ip ip-prefix NOPE"),
    ("prefix-list-v6-undo-missing", "no ipv6 prefix-list NOPE", "undo ip ipv6-prefix NOPE"),
    ("community-list-undo-missing", "no ip community-list NOPE", "undo ip community-filter NOPE"),
    ("as-path-list-undo-missing", "no ip as-path access-list NOPE", "undo ip as-path-filter NOPE"),
    ("policy-undo-missing", "no route-map NOPE", "undo route-policy NOPE"),
    ("vrf-undo-missing", "no vrf definition NOPE", "undo ip vpn-instance NOPE"),
    ("acl-undo-missing", "no access-list NOPE", "undo acl NOPE"),
    ("sr-policy-undo-missing", "no segment-routing policy NOPE", "undo segment-routing policy NOPE"),
    ("pbr-rule-undo-missing", "no pbr rule 99", "undo pbr rule 99"),
    ("isis-cost-undo-missing", "no isis cost R9", "undo isis cost R9"),
    ("static-undo-missing", "no ip route 10.77.0.0/16 192.0.2.1", "undo ip route-static 10.77.0.0 16 192.0.2.1"),
    # the base has this static in the global VRF only
    (
        "static-undo-wrong-vrf",
        "no ip route vrf vrf1 10.0.0.0/24 192.0.2.1",
        "undo ip route-static vpn-instance vrf1 10.0.0.0 24 192.0.2.1",
    ),
    ("aggregate-undo-missing", BGP_A + " no aggregate-address 10.77.0.0/16", BGP_B + " undo aggregate 10.77.0.0 16"),
    ("interface-undo-missing", "no interface eth9", "undo interface eth9"),
    (
        "acl-binding-undo-missing",
        "interface eth2\n no ip access-group ACL1",
        "interface eth2\n undo traffic-filter inbound acl ACL1",
    ),
    (
        "route-target-undo-missing",
        "vrf definition vrf1\n no route-target import 300:1",
        "ip vpn-instance vrf1\n undo vpn-target 300:1 import-extcommunity",
    ),
    # -- negating a value other than the one the device holds
    ("bgp-undo-wrong-asn", "no router bgp 99", "undo bgp 99"),
    (
        "peer-remote-as-undo-wrong-value",
        BGP_A + " no neighbor R2 remote-as 65099",
        BGP_B + " undo peer R2 as-number 65099",
    ),
    ("peer-remote-as-undo-missing", BGP_A + " no neighbor R9 remote-as 65009", BGP_B + " undo peer R9 as-number 65009"),
    (
        "peer-policy-undo-wrong-name",
        BGP_A + " no neighbor R2 route-map NOPE in",
        BGP_B + " undo peer R2 route-policy NOPE import",
    ),
    ("peer-policy-undo-absent", BGP_A + " no neighbor R3 route-map RM in", BGP_B + " undo peer R3 route-policy RM import"),
    (
        "peer-addpath-undo-wrong-value",
        BGP_A + " no neighbor R2 additional-paths 7",
        BGP_B + " undo peer R2 additional-paths 7",
    ),
    ("maximum-paths-undo-wrong-value", BGP_A + " no maximum-paths 9", BGP_B + " undo maximum load-balancing 9"),
    (
        "redistribute-undo-wrong-policy",
        BGP_A + " no redistribute static route-map NOPE",
        BGP_B + " undo import-route static route-policy NOPE",
    ),
    (
        "aggregate-undo-wrong-option",
        BGP_A + " no aggregate-address 10.8.0.0/16 vrf vrf1 as-set",
        BGP_B + " undo aggregate 10.8.0.0 16 vpn-instance vrf1 as-set",
    ),
    (
        "static-undo-wrong-preference",
        "no ip route 10.0.0.0/24 192.0.2.1 7",
        "undo ip route-static 10.0.0.0 24 192.0.2.1 preference 7",
    ),
    ("isis-cost-undo-wrong-value", "no isis cost R2 99", "undo isis cost R2 99"),
    ("node-undo-wrong-action", "no route-map IMPORT permit 10", "undo route-policy IMPORT permit node 10"),
    (
        "prefix-list-entry-undo-wrong-action",
        "no ip prefix-list PL4 seq 20 permit 10.1.0.0/16",
        "undo ip ip-prefix PL4 index 20 permit 10.1.0.0 16",
    ),
    ("community-list-member-undo-missing", "no ip community-list CL permit 300:1", "undo ip community-filter CL permit 300:1"),
    ("as-path-list-member-undo-missing", "no ip as-path access-list AP permit ^65003", "undo ip as-path-filter AP permit ^65003"),
    ("acl-rule-undo-missing", "no access-list ACL1 99 permit", "undo acl ACL1 99 permit"),
    ("acl-rule-undo-absent-seq", "no access-list ACL1 30 permit", "undo acl ACL1 30 permit"),
    ("acl-rule-undo-wrong-action", "no access-list ACL1 10 deny", "undo acl ACL1 10 deny"),
    (
        "acl-unbind-wrong-name",
        "interface eth1\n no ip access-group ACL9",
        "interface eth1\n undo traffic-filter inbound acl ACL9",
    ),
    ("acl-bind-without-name", "interface eth9\n ip access-group", "interface eth9\n traffic-filter inbound acl"),
    ("acl-bind-without-acl", "interface eth9\n ip access-group", "interface eth9\n traffic-filter inbound"),
    (
        "acl-unbind-without-name",
        "interface eth1\n no ip access-group",
        "interface eth1\n undo traffic-filter inbound acl",
    ),
    # only inbound filters are modelled: an outbound binding or a trailing
    # word is not read as an inbound binding of the named ACL
    (
        "acl-bind-outbound",
        "interface eth2\n ip access-group ACL1 out",
        "interface eth2\n traffic-filter outbound acl ACL1",
    ),
    (
        "acl-bind-extra-token",
        "interface eth2\n ip access-group ACL1 in extra",
        "interface eth2\n traffic-filter inbound acl ACL1 extra",
    ),
    (
        "acl-unbind-outbound",
        "interface eth1\n no ip access-group ACL1 out",
        "interface eth1\n undo traffic-filter outbound acl ACL1",
    ),
    (
        "acl-unbind-extra-token",
        "interface eth1\n no ip access-group ACL1 in extra",
        "interface eth1\n undo traffic-filter inbound acl ACL1 extra",
    ),
    ("rd-undo-wrong-value", "vrf definition vrf1\n no rd 9:9", "ip vpn-instance vrf1\n undo route-distinguisher 9:9"),
    (
        "export-policy-undo-wrong-name",
        "vrf definition vrf1\n no export-policy NOPE",
        "ip vpn-instance vrf1\n undo export route-policy NOPE",
    ),
    (
        "sr-policy-undo-wrong-endpoint",
        "no segment-routing policy SRP endpoint R9",
        "undo segment-routing policy SRP endpoint R9",
    ),
    ("pbr-rule-undo-wrong-nexthop", "no pbr rule 10 nexthop R9", "undo pbr rule 10 nexthop R9"),
    ("sr-policy-without-endpoint", "segment-routing policy S color 1", "segment-routing policy S color 1"),
    ("pbr-rule-without-nexthop", "pbr rule 5 dst 10.0.0.0/8", "pbr rule 5 dst 10.0.0.0/8"),
    ("bad-number", "router bgp x", "bgp x"),
    ("truncated", "ip route 10.0.0.0/8", "ip route-static 10.0.0.0 8"),
]


def _base_text(vendor):
    return BASE_A if vendor == "vendor-a" else BASE_B


def _base(vendor):
    return parse_config(_base_text(vendor), "R1", vendor=vendor)


def _differences(a, b):
    """The sections in which two devices differ but for the dialect that
    wrote them: ``identity`` counts only by ASN, multipath and drain state."""
    sections = changed_sections(a, b) - {"identity"}
    if (a.asn, a.max_paths, a.isolated) != (b.asn, b.max_paths, b.isolated):
        sections |= {"identity"}
    return sections


def test_base_devices_are_twins():
    assert not _differences(_base("vendor-a"), _base("vendor-b"))


@pytest.mark.parametrize("a_block, b_block", [row[1:] for row in TWINS], ids=[row[0] for row in TWINS])
def test_twin_blocks_leave_twin_devices(a_block, b_block):
    updated_a = apply_commands(_base("vendor-a"), a_block.splitlines())
    updated_b = apply_commands(_base("vendor-b"), b_block.splitlines())
    assert not _differences(updated_a, updated_b)


@pytest.mark.parametrize(
    "a_block, b_block", [row[1:] for row in ROUND_TRIPS], ids=[row[0] for row in ROUND_TRIPS]
)
def test_negation_restores_the_base(a_block, b_block):
    for vendor, block in (("vendor-a", a_block), ("vendor-b", b_block)):
        base = _base(vendor)
        updated = apply_commands(base, block.splitlines())
        assert not changed_sections(base, updated)


def _base_lines(vendor):
    """Each line of the base, after the context header that a sub-command
    needs."""
    dialect, header = DIALECTS[vendor], []
    for line in _base_text(vendor).splitlines():
        if dialect.command(line)[0].startswith("sub_"):
            yield header + [line]
        else:
            header = [line]
            yield header


@pytest.mark.parametrize("vendor", sorted(DIALECTS))
def test_reentering_a_base_line_changes_nothing(vendor):
    base = _base(vendor)
    blocks = list(_base_lines(vendor))
    assert len(blocks) == len(_base_text(vendor).splitlines())
    changed = [
        block[-1]
        for block in blocks
        if changed_sections(base, apply_commands(_base(vendor), block))
    ]
    assert not changed


@pytest.mark.parametrize("vendor", sorted(DIALECTS))
@pytest.mark.parametrize("row", SEQ_REPLACED, ids=[row[0] for row in SEQ_REPLACED])
def test_a_same_seq_line_replaces_its_rule(vendor, row):
    """Applying the line equals writing the base with the line in place of
    the seq-10 line it names: one seq-10 rule is left, the new one."""
    line = row[1] if vendor == "vendor-a" else row[2]
    named = line.split()[:3]
    text = _base_text(vendor)
    rewritten = "\n".join(
        line if old.split()[:3] == named else old for old in text.splitlines()
    )
    assert rewritten != text
    expected = parse_config(rewritten, "R1", vendor=vendor)
    updated = apply_commands(_base(vendor), [line])
    assert not changed_sections(expected, updated)


@pytest.mark.parametrize("vendor", sorted(DIALECTS))
def test_prefix_list_entries_evaluate_in_sequence_order(vendor):
    lines = {
        "vendor-a": [
            "ip prefix-list PL seq 10 permit 10.0.0.0/8 le 32",
            "ip prefix-list PL seq 5 deny 10.1.0.0/16",
            "ip prefix-list PL permit 10.1.0.0/16",
        ],
        "vendor-b": [
            "ip ip-prefix PL index 10 permit 10.0.0.0 8 less-equal 32",
            "ip ip-prefix PL index 5 deny 10.1.0.0 16",
            "ip ip-prefix PL permit 10.1.0.0 16",
        ],
    }[vendor]
    config = apply_commands(_base(vendor), lines)
    plist = config.policy_ctx.prefix_lists["PL"]
    assert [entry.seq for entry in plist.entries] == [5, 10, 20]
    assert not plist.evaluate(Prefix.parse("10.1.0.0/16"), config.policy_ctx.vendor)
    assert plist.evaluate(Prefix.parse("10.2.0.0/16"), config.policy_ctx.vendor)


@pytest.mark.parametrize(
    "a_block, b_block", [row[1:] for row in REJECTED], ids=[row[0] for row in REJECTED]
)
def test_rejected_in_both_dialects(a_block, b_block):
    for vendor, block in (("vendor-a", a_block), ("vendor-b", b_block)):
        with pytest.raises(ConfigParseError):
            apply_commands(_base(vendor), block.splitlines())


#: row id -> what its rejection says, in both dialects
MESSAGES = {
    "static-undo-missing": "line 1: no static vrf global prefix 10.77.0.0/16 nexthop 192.0.2.1 [",
    "truncated": "line 1: incomplete command [",
    "static-undo-wrong-preference":
        "static vrf global prefix 10.0.0.0/24 nexthop 192.0.2.1 has preference 1, not 7",
    "bgp-undo-wrong-asn": "BGP process has asn 65001, not 99",
    "peer-remote-as-undo-wrong-value": "BGP peer R2 in vrf global has remote_asn 65002, not 65099",
    "peer-remote-as-undo-missing": "no BGP peer R9 in vrf global",
    "peer-policy-undo-wrong-name": "import policy of BGP peer R2 in vrf global is IMPORT, not NOPE",
    "maximum-paths-undo-wrong-value": "maximum-paths is 4, not 9",
    "node-undo-wrong-action": "policy IMPORT node 10 has action deny, not permit",
    "acl-rule-undo-missing": "no acl ACL1 rule 99",
    "acl-unbind-wrong-name": "acl binding of interface eth1 is ACL1, not ACL9",
    "acl-bind-without-name": "line 2: incomplete command [",
    "acl-bind-without-acl": "line 2: incomplete command [",
    "acl-unbind-without-name": "line 2: incomplete command [",
    "acl-bind-outbound": "(inbound filters only), got '",
    "acl-bind-extra-token": "(inbound filters only), got '",
    "acl-unbind-outbound": "(inbound filters only), got '",
    "acl-unbind-extra-token": "(inbound filters only), got '",
    "rd-undo-wrong-value": "rd of vrf vrf1 is 65001:1, not 9:9",
    "community-list-member-undo-missing": "no 300:1 in community list CL",
}


@pytest.mark.parametrize("row_id", sorted(MESSAGES))
def test_a_rejection_names_its_target(row_id):
    row = next(row for row in REJECTED if row[0] == row_id)
    for vendor, block in (("vendor-a", row[1]), ("vendor-b", row[2])):
        with pytest.raises(ConfigParseError) as info:
            apply_commands(_base(vendor), block.splitlines())
        message = str(info.value)
        assert MESSAGES[row_id] in message
        assert "KeyError" not in message and "IndexError" not in message


def _applied(vendor, lines):
    """The base device after ``lines``."""
    return apply_commands(_base(vendor), lines)


@pytest.mark.parametrize("vendor", sorted(DIALECTS))
def test_undoing_the_held_remote_as_removes_the_peer(vendor):
    side = 1 if vendor == "vendor-a" else 2
    undo, remove = (next(row[side] for row in TWINS if row[0] == row_id)
                    for row_id in ("peer-remote-as-undo", "peer-remove"))
    assert not changed_sections(
        _applied(vendor, undo.splitlines()), _applied(vendor, remove.splitlines())
    )


def _add_blocks(vendor, rows):
    """Each line of ``rows`` that adds (is not negated), after the context
    header a sub-command needs, as ``(header..., line)``."""
    dialect, side, blocks = DIALECTS[vendor], 1 if vendor == "vendor-a" else 2, set()
    for row in rows:
        header = ()
        for line in row[side].splitlines():
            handler, _, negated = dialect.command(line)
            if handler is None or negated:
                continue
            if handler.startswith("sub_"):
                blocks.add(header + (line,))
            else:
                header = (line,)
                blocks.add(header)
    return sorted(blocks)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("vendor", sorted(DIALECTS))
def test_entering_a_line_twice_equals_entering_it_once(vendor, data):
    blocks = data.draw(st.lists(st.sampled_from(_add_blocks(vendor, TWINS)), max_size=6))
    once = [line for block in blocks for line in block]
    twice = [line for block in blocks for line in block + block]
    assert not changed_sections(_applied(vendor, twice), _applied(vendor, once))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("vendor", sorted(DIALECTS))
def test_negating_each_line_in_reverse_restores_the_headers(vendor, data):
    """Lines that each add something the base lacks (the ``NEGATED`` rows),
    then each line's mechanical negation in reverse order, leave the model
    of their context headers alone."""
    side = 1 if vendor == "vendor-a" else 2
    pool = [tuple(row[side].splitlines()) for row in NEGATED]
    blocks = data.draw(st.lists(st.sampled_from(pool), unique=True))
    lines = [line for block in blocks for line in block]
    undo = [
        line
        for block in reversed(blocks)
        for line in block[:-1] + (_negation(block[-1], vendor),)
    ]
    headers = [line for block in blocks for line in block[:-1]]
    assert not changed_sections(_applied(vendor, lines + undo), _applied(vendor, headers))


@pytest.mark.parametrize("vendor", sorted(DIALECTS))
def test_every_handler_has_a_row(vendor):
    dialect = DIALECTS[vendor]
    side = 1 if vendor == "vendor-a" else 2
    reached = {
        dialect.command(line)[0]
        for row in TWINS + REJECTED
        for line in row[side].splitlines()
    }
    missing = set(dialect.commands.values()) - reached
    assert not missing, f"{vendor} handlers without a twin row: {sorted(missing)}"
