"""The single-pass IOS lexer: stanza boundaries, counts, trees."""

from repro.ios.blocks import ConfigBlock, materialize_stanza, split_blocks
from repro.ios.lexer import lex_config

SAMPLE = """\
! comment at top
hostname r1
!
interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
 no shutdown

router ospf 10
 network 10.0.0.0 0.0.0.255 area 0
"""


class TestLexConfig:
    def test_stanza_boundaries(self):
        stanzas, _, _ = lex_config(SAMPLE)
        heads = [tokens[0][2] for tokens in stanzas]
        assert heads == ["hostname r1", "interface Ethernet0", "router ospf 10"]

    def test_tokens_carry_line_numbers_and_indent(self):
        stanzas, _, _ = lex_config(SAMPLE)
        interface = stanzas[1]
        assert interface[0] == (4, 0, "interface Ethernet0")
        assert interface[1] == (5, 1, "ip address 10.0.0.1 255.255.255.0")
        assert interface[2] == (6, 1, "no shutdown")

    def test_line_and_command_counts(self):
        _, line_count, command_count = lex_config(SAMPLE)
        # 9 lines, one blank; the two "!" lines count as lines, not commands.
        assert line_count == 8
        assert command_count == 6

    def test_blank_lines_do_not_split_stanzas(self):
        stanzas, _, _ = lex_config("interface E0\n\n ip address 10.0.0.1 255.0.0.0\n")
        assert len(stanzas) == 1
        assert len(stanzas[0]) == 2

    def test_separator_closes_stanza(self):
        # An indented line after "!" opens a NEW top-level stanza whose
        # recorded indent is 0 — the historical stack-reset behavior.
        stanzas, _, _ = lex_config("interface E0\n!\n description lonely\n")
        assert len(stanzas) == 2
        assert stanzas[1] == [(3, 0, "description lonely")]

    def test_tab_led_lines_are_top_level(self):
        stanzas, _, _ = lex_config("interface E0\n\tdescription tabbed\n")
        assert len(stanzas) == 2
        assert stanzas[1][0][2] == "description tabbed"

    def test_empty_input(self):
        assert lex_config("") == ([], 0, 0)
        assert lex_config("\n\n!\n") == ([], 1, 0)


class TestMaterializeStanza:
    def test_builds_nested_tree(self):
        stanzas, _, _ = lex_config(
            "router bgp 65000\n"
            " address-family ipv4\n"
            "  neighbor 10.0.0.2 activate\n"
            " exit-address-family\n"
        )
        block = materialize_stanza(stanzas[0])
        assert block.line == "router bgp 65000"
        assert [child.line for child in block.children] == [
            "address-family ipv4",
            "exit-address-family",
        ]
        family = block.children[0]
        assert family.children[0].line == "neighbor 10.0.0.2 activate"
        assert family.indent == 1
        assert family.children[0].indent == 2

    def test_matches_split_blocks(self):
        blocks, _, _ = split_blocks(SAMPLE)
        stanzas, _, _ = lex_config(SAMPLE)
        assert [b.line for b in blocks] == [materialize_stanza(s).line for s in stanzas]
        assert blocks[1].children[0].line == "ip address 10.0.0.1 255.255.255.0"


class TestConfigBlockWords:
    def test_words_splits_once_and_caches(self):
        block = ConfigBlock(line="ip address 10.0.0.1 255.0.0.0", line_number=1)
        first = block.words
        assert first == ["ip", "address", "10.0.0.1", "255.0.0.0"]
        assert block.words is first  # memoized, not re-split

    def test_cached_words_excluded_from_equality(self):
        one = ConfigBlock(line="hostname r1", line_number=1)
        two = ConfigBlock(line="hostname r1", line_number=1)
        _ = one.words  # populate the cache on one side only
        assert one == two
