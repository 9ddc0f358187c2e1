"""Lenient ingestion: skip-and-diagnose parsing, fault policies, recovery."""

import pytest

import repro.model.dialect as dialect_module
from repro.diag import Diagnostic, DiagnosticSink, ERROR, INFO, WARNING
from repro.ingest import ParseCache
from repro.ios.parser import ConfigParseError, parse_config
from repro.junos import parse_junos_config
from repro.junos.blocks import JunosSyntaxError
from repro.model import Network

IOS_ONE_BAD_BLOCK = """\
hostname r1
!
interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
!
interface Ethernet1
 ip address 999.0.0.1 255.255.255.0
!
interface Ethernet2
 ip address 10.0.2.1 255.255.255.0
"""

JUNOS_ONE_BAD_UNIT = """\
system {
    host-name pe1;
}
interfaces {
    so-0/0/0 {
        unit 0 {
            family inet {
                address 10.0.0.1/30;
            }
        }
    }
    ge-0/1/0 {
        unit 0 {
            family inet {
                address 999.0.0.1/24;
            }
        }
    }
}
"""


class TestIosLenient:
    def test_strict_still_raises(self):
        with pytest.raises(ConfigParseError):
            parse_config(IOS_ONE_BAD_BLOCK)

    def test_lenient_skips_bad_block(self):
        sink = DiagnosticSink()
        cfg = parse_config(IOS_ONE_BAD_BLOCK, mode="lenient", sink=sink, source="R1")
        assert list(cfg.interfaces) == ["Ethernet0", "Ethernet2"]
        assert sink.has_errors

    def test_diagnostic_names_the_file_and_line(self):
        sink = DiagnosticSink()
        parse_config(IOS_ONE_BAD_BLOCK, mode="lenient", sink=sink, source="R1")
        errors = sink.by_severity(ERROR)
        assert errors[0].file == "R1"
        assert errors[0].line_number > 0
        assert "skipped block" in errors[0].message

    def test_skipped_block_counted_as_unmodeled(self):
        cfg = parse_config(IOS_ONE_BAD_BLOCK, mode="lenient", sink=DiagnosticSink())
        assert any("Ethernet1" in line for line in cfg.unmodeled_lines)

    def test_unmodeled_command_gets_info_diag(self):
        sink = DiagnosticSink()
        parse_config("hostname r1\nscheduler allocate 4000 400\n",
                     mode="lenient", sink=sink, source="R1")
        infos = sink.by_severity(INFO)
        assert any("unmodeled command" in d.message for d in infos)

    def test_lenient_without_sink(self):
        cfg = parse_config(IOS_ONE_BAD_BLOCK, mode="lenient")
        assert len(cfg.interfaces) == 2


class TestJunosLenient:
    def test_strict_still_raises(self):
        with pytest.raises(ValueError):
            parse_junos_config(JUNOS_ONE_BAD_UNIT)

    def test_lenient_skips_bad_unit(self):
        sink = DiagnosticSink()
        cfg = parse_junos_config(
            JUNOS_ONE_BAD_UNIT, mode="lenient", sink=sink, source="pe1"
        )
        assert "so-0/0/0.0" in cfg.interfaces
        assert "ge-0/1/0.0" not in cfg.interfaces
        errors = sink.by_severity(ERROR)
        assert errors and errors[0].file == "pe1"
        assert errors[0].line_number > 0

    def test_brace_imbalance_raises_even_lenient(self):
        # File-level structural damage cannot be skipped block-wise.
        with pytest.raises(JunosSyntaxError):
            parse_junos_config(
                "system {\n    host-name x;\n", mode="lenient", sink=DiagnosticSink()
            )

    def test_bad_autonomous_system(self):
        text = "system {\n    host-name x;\n}\nrouting-options {\n    autonomous-system banana;\n}\n"
        with pytest.raises(ValueError):
            parse_junos_config(text)
        sink = DiagnosticSink()
        cfg = parse_junos_config(text, mode="lenient", sink=sink, source="pe1")
        assert cfg.hostname == "x"
        assert sink.has_errors

    def test_unknown_section_gets_info_diag(self):
        sink = DiagnosticSink()
        parse_junos_config(
            "system {\n    host-name x;\n}\nsnmp {\n    community public;\n}\n",
            mode="lenient",
            sink=sink,
        )
        assert any("unmodeled section" in d.message for d in sink.by_severity(INFO))


class TestFromConfigsPolicies:
    def test_strict_raises(self):
        with pytest.raises(ConfigParseError):
            Network.from_configs({"R1": IOS_ONE_BAD_BLOCK})

    def test_skip_block_recovers(self):
        network = Network.from_configs({"R1": IOS_ONE_BAD_BLOCK}, on_error="skip-block")
        assert "R1" in network.routers
        assert network.diagnostics.has_errors
        assert network.quarantined == []

    def test_skip_file_quarantines(self):
        network = Network.from_configs(
            {"R1": IOS_ONE_BAD_BLOCK, "R2": "hostname r2\n"}, on_error="skip-file"
        )
        assert network.quarantined == ["R1"]
        assert list(network.routers) == ["R2"]
        assert any(
            "quarantined" in d.message for d in network.diagnostics.by_severity(ERROR)
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Network.from_configs({"R1": "hostname r1\n"}, on_error="ignore")

    def test_junos_file_level_fault_quarantined_in_skip_block(self):
        # skip-block degrades to quarantine when the fault is file-level.
        network = Network.from_configs(
            {"pe1": "system {\n    host-name pe1;\n"}, on_error="skip-block"
        )
        assert network.quarantined == ["pe1"]
        assert len(network.routers) == 0

    def test_from_configs_keys_networks_by_mapping_name(self):
        network = Network.from_configs({"A": "hostname other\n"})
        assert list(network.routers) == ["A"]


class TestDuplicateHostnames:
    def _write(self, path, entries):
        for name, text in entries.items():
            (path / name).write_text(text)

    def test_strict_raises(self, tmp_path):
        self._write(
            tmp_path,
            {"config1": "hostname twin\n", "config2": "hostname twin\n"},
        )
        with pytest.raises(ValueError, match="duplicate router name"):
            Network.from_directory(str(tmp_path))

    def test_lenient_renames_with_suffix(self, tmp_path):
        self._write(
            tmp_path,
            {
                "config1": "hostname twin\n",
                "config2": "hostname twin\n",
                "config3": "hostname twin\n",
            },
        )
        network = Network.from_directory(str(tmp_path), on_error="skip-block")
        assert sorted(network.routers) == ["twin", "twin~2", "twin~3"]
        warnings = network.diagnostics.by_severity(WARNING)
        assert any("duplicate router name" in d.message for d in warnings)

    def test_rename_diag_names_the_file(self, tmp_path):
        self._write(
            tmp_path,
            {"config1": "hostname twin\n", "config2": "hostname twin\n"},
        )
        network = Network.from_directory(str(tmp_path), on_error="skip-block")
        warning = network.diagnostics.by_severity(WARNING)[0]
        assert warning.file == "config2"


class TestDirectoryHardening:
    def test_binary_file_skipped_with_warning(self, tmp_path):
        (tmp_path / "config1").write_text("hostname r1\n")
        (tmp_path / "core.bin").write_bytes(b"\x7fELF\x00\x00\x00garbage")
        network = Network.from_directory(str(tmp_path))
        assert list(network.routers) == ["r1"]
        assert network.quarantined == ["core.bin"]
        warnings = network.diagnostics.by_severity(WARNING)
        assert any("binary" in d.message for d in warnings)

    def test_binary_skip_applies_even_in_strict(self, tmp_path):
        (tmp_path / "blob").write_bytes(b"\x00" * 64)
        network = Network.from_directory(str(tmp_path), on_error="strict")
        assert network.quarantined == ["blob"]

    def test_undecodable_file_skipped(self, tmp_path):
        (tmp_path / "config1").write_text("hostname r1\n")
        (tmp_path / "junk").write_bytes(bytes(range(128, 256)) * 8)
        network = Network.from_directory(str(tmp_path))
        assert list(network.routers) == ["r1"]
        assert "junk" in network.quarantined

    def test_missing_hostname_falls_back_to_filename(self, tmp_path):
        (tmp_path / "edge7.conf").write_text("interface Ethernet0\n shutdown\n")
        network = Network.from_directory(str(tmp_path))
        assert list(network.routers) == ["edge7"]
        infos = network.diagnostics.by_severity(INFO)
        assert any("no hostname" in d.message for d in infos)

    def test_each_file_parsed_exactly_once(self, tmp_path, monkeypatch):
        for i in range(3):
            (tmp_path / f"config{i}").write_text(f"hostname r{i}\n")
        calls = []
        real = dialect_module.parse_any_config

        def counting(text, **kwargs):
            calls.append(kwargs.get("source"))
            return real(text, **kwargs)

        monkeypatch.setattr(dialect_module, "parse_any_config", counting)
        Network.from_directory(str(tmp_path))
        assert sorted(calls) == ["config0", "config1", "config2"]


UNMODELED_AROUND_BAD_BLOCK = """\
hostname r1
!
service timestamps debug uptime
snmp-server community public RO
ip http server
!
interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
!
interface Ethernet1
 ip address 999.0.0.1 255.255.255.0
!
ntp server 10.9.9.9
ip domain-name example.net
!
line vty 0 4
 login
"""

UNMODELED_AROUND_ISIS = """\
hostname r2
!
logging buffered 4096
ip http server
!
router isis
 net 49.0001.0000.0000.0001.00
 is-type level-2-only
!
ip domain-name example.net
!
router ospf 1
 network 10.0.0.0 0.0.0.255 area 0
!
banner motd ^C hi ^C
"""

CLEAN_WITH_UNMODELED = """\
hostname ra
!
service password-encryption
!
interface Loopback0
 ip address 10.1.1.1 255.255.255.255
!
ip classless
"""

FAILS_MID_FILE = """\
hostname rb
!
snmp-server location lab
ip http server
!
interface Serial0
 ip address 10.2.0.1 255.255.255.252
!
interface Serial1
 ip address 10.2.0.999 255.255.255.252
!
ntp server 10.9.9.9
"""

AFTER_FAILURE = """\
hostname rc
!
clock timezone UTC 0
"""

THREE_FILES = {"A": CLEAN_WITH_UNMODELED, "B": FAILS_MID_FILE, "C": AFTER_FAILURE}

# Streams recorded from the parser that emitted one info row per
# unmodeled stanza as it went: deferring the rows must not move them.
STREAM_CASES = {
    "around-skipped-block": (
        "skip-block",
        {"R1": UNMODELED_AROUND_BAD_BLOCK},
        [
            "info: R1:3: [parse] unmodeled command: service | 'service timestamps debug uptime'",
            "info: R1:4: [parse] unmodeled command: snmp-server | 'snmp-server community public RO'",
            "info: R1:5: [parse] unmodeled command: ip | 'ip http server'",
            "error: R1:11: [parse] skipped block: octet out of range in '999.0.0.1' "
            "(line 11: 'ip address 999.0.0.1 255.255.255.0') | 'ip address 999.0.0.1 255.255.255.0'",
            "info: R1:13: [parse] unmodeled command: ntp | 'ntp server 10.9.9.9'",
            "info: R1:14: [parse] unmodeled command: ip | 'ip domain-name example.net'",
            "info: R1:16: [parse] unmodeled command: line | 'line vty 0 4'",
        ],
    ),
    "around-router-isis": (
        "skip-block",
        {"R2": UNMODELED_AROUND_ISIS},
        [
            "info: R2:3: [parse] unmodeled command: logging | 'logging buffered 4096'",
            "info: R2:4: [parse] unmodeled command: ip | 'ip http server'",
            "info: R2:6: [parse] unmodeled routing protocol: isis | 'router isis'",
            "info: R2:10: [parse] unmodeled command: ip | 'ip domain-name example.net'",
            "info: R2:15: [parse] unmodeled command: banner | 'banner motd ^C hi ^C'",
        ],
    ),
    "strict-failure-mid-file": (
        "strict",
        THREE_FILES,
        [
            "info: A:3: [parse] unmodeled command: service | 'service password-encryption'",
            "info: A:8: [parse] unmodeled command: ip | 'ip classless'",
            "info: B:3: [parse] unmodeled command: snmp-server | 'snmp-server location lab'",
            "info: B:4: [parse] unmodeled command: ip | 'ip http server'",
        ],
    ),
    "skip-file-quarantine": (
        "skip-file",
        THREE_FILES,
        [
            "info: A:3: [parse] unmodeled command: service | 'service password-encryption'",
            "info: A:8: [parse] unmodeled command: ip | 'ip classless'",
            "info: B:3: [parse] unmodeled command: snmp-server | 'snmp-server location lab'",
            "info: B:4: [parse] unmodeled command: ip | 'ip http server'",
            "error: B:10: [parse] quarantined unparseable file: octet out of range in "
            "'10.2.0.999' (line 10: 'ip address 10.2.0.999 255.255.255.252') "
            "| 'ip address 10.2.0.999 255.255.255.252'",
            "info: C:3: [parse] unmodeled command: clock | 'clock timezone UTC 0'",
        ],
    ),
}


class TestDeferredUnmodeledRows:
    """Unmodeled stanzas are recorded once and their rows built on read."""

    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_stream_order_cold_and_replayed(self, case, tmp_path):
        on_error, configs, expected = STREAM_CASES[case]
        cache = ParseCache(root=str(tmp_path))
        for temperature in ("cold", "warm"):
            sink = DiagnosticSink()
            if on_error == "strict":
                with pytest.raises(ConfigParseError):
                    Network.from_configs(
                        configs, on_error=on_error, diagnostics=sink, cache=cache
                    )
            else:
                Network.from_configs(
                    configs, on_error=on_error, diagnostics=sink, cache=cache
                )
            assert [str(d) for d in sink] == expected, temperature
            assert len(sink) == len(expected)
        # The warm pass replayed every file but a strict failure's.
        strict_failures = 1 if on_error == "strict" else 0
        assert cache.stats.hits == len(configs) - strict_failures

    def test_unmodeled_rows_are_built_only_when_read(self, monkeypatch):
        built = []
        post_init = Diagnostic.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Diagnostic, "__post_init__", counting)
        stanzas = 50
        text = "hostname r1\n" + "".join(
            f"snmp-server host 10.0.0.{n} public\n" for n in range(stanzas)
        )
        sink = DiagnosticSink()
        config = parse_config(text, mode="lenient", sink=sink, source="R1")
        assert sink.counts() == {ERROR: 0, WARNING: 0, INFO: stanzas}
        assert sink.exit_code() == 0
        assert len(sink) == stanzas
        assert built == []
        # The record holds the very string kept in unmodeled_lines.
        assert [line for _n, line in config.unmodeled_stanzas] == config.unmodeled_lines
        assert all(
            record[1] is line
            for record, line in zip(config.unmodeled_stanzas, config.unmodeled_lines)
        )
        rows = list(sink)
        assert len(built) == stanzas
        assert rows[0].message == "unmodeled command: snmp-server"
        assert rows[-1].line_number == stanzas + 1

    def test_modeled_only_config_shares_the_empty_record(self):
        first = parse_config("hostname a\n", mode="lenient", sink=DiagnosticSink())
        second = parse_config("hostname b\n", mode="lenient", sink=DiagnosticSink())
        assert first.unmodeled_stanzas == ()
        assert first.unmodeled_stanzas is second.unmodeled_stanzas

    def test_no_records_without_a_sink(self):
        config = parse_config("hostname r1\nntp server 10.9.9.9\n")
        assert config.unmodeled_lines == ["ntp server 10.9.9.9"]
        assert config.unmodeled_stanzas == ()
