"""CLI tests (exercised in-process via repro.cli.main)."""

import argparse
import os

import pytest

from repro.cli import build_parser, main
from repro.exec import ANALYSIS_STAGES
from repro.synth.templates.example_fig1 import build_example_networks


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs")
    configs, _meta = build_example_networks()
    for name, text in configs.items():
        (path / name).write_text(text)
    return os.fspath(path)


class TestAnalyze:
    def test_summary_output(self, config_dir, capsys):
        assert main(["analyze", config_dir]) == 0
        out = capsys.readouterr().out
        assert "routers: 6" in out
        assert "routing instances: 5" in out
        assert "address blocks:" in out

    def test_rejects_missing_dir(self):
        with pytest.raises(SystemExit):
            main(["analyze", "/nonexistent/place"])


class TestInstances:
    def test_listing(self, config_dir, capsys):
        assert main(["instances", config_dir]) == 0
        out = capsys.readouterr().out
        assert "bgp" in out and "ospf" in out
        assert "12762" in out


class TestPathway:
    def test_pathway_output(self, config_dir, capsys):
        assert main(["pathway", config_dir, "R1"]) == 0
        out = capsys.readouterr().out
        assert "depth 0" in out
        assert "External World" in out

    def test_pathway_output_is_pinned(self, config_dir, capsys):
        # The RIB node's label is router-free so routers can share one
        # search; the command itself names the router on the RIB line.
        assert main(["pathway", config_dir, "R1"]) == 0
        assert capsys.readouterr().out == (
            "route pathway of R1:\n"
            "  depth 0: Router RIB (R1)\n"
            "  depth 1: instance 1 ospf\n"
            "  depth 2: instance 2 BGP AS 64780\n"
            "  depth 3: instance 3 ospf\n"
            "  depth 3: instance 4 BGP AS 12762\n"
            "  depth 4: External World\n"
            "external routes arrive after 4 hops\n"
        )

    def test_unknown_router(self, config_dir):
        with pytest.raises(SystemExit):
            main(["pathway", config_dir, "R99"])


class TestAnonymize:
    def test_produces_parseable_archive(self, config_dir, tmp_path, capsys):
        out_dir = os.fspath(tmp_path / "anon")
        assert main(["anonymize", config_dir, out_dir, "--key", "k"]) == 0
        assert main(["analyze", out_dir]) == 0
        out = capsys.readouterr().out
        assert "routing instances: 5" in out

    def test_file_names_are_pseudonymous(self, config_dir, tmp_path):
        # Regression: output files used to keep their original stems,
        # leaking the hostnames the content anonymization just scrubbed.
        import json

        out_dir = os.fspath(tmp_path / "anon2")
        main(["anonymize", config_dir, out_dir, "--key", "k"])
        originals = sorted(os.listdir(config_dir))
        produced = sorted(os.listdir(out_dir))
        assert len(produced) == len(originals)
        assert not set(produced) & set(originals)
        with open(out_dir + ".mapping.json") as handle:
            mapping = json.load(handle)
        assert sorted(mapping["files"]) == originals
        assert sorted(mapping["files"].values()) == produced

    def test_mapping_path_inside_outdir_rejected(self, config_dir, tmp_path):
        out_dir = os.fspath(tmp_path / "anon3")
        with pytest.raises(SystemExit, match="never travel"):
            main(
                ["anonymize", config_dir, out_dir, "--key", "k",
                 "--mapping", os.path.join(out_dir, "mapping.json")]
            )


class TestSurvivability:
    def test_reports_spofs(self, config_dir, capsys):
        assert main(["survivability", config_dir]) == 0
        out = capsys.readouterr().out
        assert "articulation routers" in out
        assert "SINGLE POINT OF FAILURE" in out


class TestDiff:
    def test_no_change_exit_zero(self, config_dir, capsys):
        assert main(["diff", config_dir, config_dir]) == 0
        assert "no design-level changes" in capsys.readouterr().out

    def test_change_exit_one(self, config_dir, tmp_path, capsys):
        import shutil

        altered = tmp_path / "altered"
        shutil.copytree(config_dir, altered)
        (altered / "R1").unlink()
        assert main(["diff", config_dir, os.fspath(altered)]) == 1
        assert "-1 routers" in capsys.readouterr().out


class TestGenerate:
    def test_generate_enterprise(self, tmp_path, capsys):
        out_dir = os.fspath(tmp_path / "gen")
        assert main(["generate", "enterprise", out_dir, "--routers", "8"]) == 0
        assert len(os.listdir(out_dir)) == 8
        assert main(["analyze", out_dir]) == 0
        assert "design class: enterprise" in capsys.readouterr().out

    def test_generate_unknown_template(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "martian", os.fspath(tmp_path / "x")])


class TestFlow:
    def test_permitted_flow(self, config_dir, capsys):
        # R1's LAN host to R3's LAN host inside the enterprise.
        from repro.model import Network

        net = Network.from_directory(config_dir)
        r1_lan = net.routers["R1"].config.interfaces["Ethernet0/0"].prefix
        r3_lan = net.routers["R3"].config.interfaces["Ethernet0/0"].prefix
        code = main(
            [
                "flow",
                config_dir,
                str(r1_lan.network + 5),
                str(r3_lan.network + 5),
                "--protocol",
                "tcp",
                "--port",
                "80",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PERMITTED" in out
        assert "R1 -> R2 -> R3" in out

    def test_unknown_hosts(self, config_dir, capsys):
        assert main(["flow", config_dir, "203.0.113.9", "203.0.113.10"]) == 2


class TestReport:
    def test_report_to_stdout(self, config_dir, capsys):
        assert main(["report", config_dir]) == 0
        out = capsys.readouterr().out
        for section in (
            "# Routing design report",
            "## Inventory",
            "## Design classification",
            "## Routing instances",
            "## Protocol roles",
            "## Address space structure",
            "## Packet filtering",
            "## Survivability",
        ):
            assert section in out

    def test_report_to_file(self, config_dir, tmp_path, capsys):
        out_file = os.fspath(tmp_path / "report.md")
        assert main(["report", config_dir, "-o", out_file]) == 0
        text = open(out_file).read()
        assert "## Routing instances" in text
        assert "| id | protocol | AS | routers |" in text


class TestGraph:
    def test_dot_output(self, config_dir, capsys):
        assert main(["graph", config_dir]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "External World" in out
        assert "BGP AS 12762" in out
        assert "dir=both" in out

    def test_dot_file(self, config_dir, tmp_path):
        out_file = os.fspath(tmp_path / "g.dot")
        assert main(["graph", config_dir, "-o", out_file]) == 0
        text = open(out_file).read()
        assert text.count("inst") >= 5


class TestAudit:
    def test_audit_reports_open_edges(self, config_dir, capsys):
        # The fig1 example has an unfiltered uplink toward R7.
        code = main(["audit", config_dir])
        out = capsys.readouterr().out
        assert code == 1
        assert "unfiltered" in out

    def test_audit_clean_network(self, tmp_path, capsys):
        (tmp_path / "r1").write_text(
            "hostname r1\n"
            "!\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
        )
        code = main(["audit", os.fspath(tmp_path)])
        assert code == 0
        assert "consistent" in capsys.readouterr().out


class TestLint:
    def test_clean_archive_exits_zero(self, config_dir, capsys):
        assert main(["lint", config_dir]) == 0
        out = capsys.readouterr().out
        assert "no diagnostics" in out

    def test_warnings_exit_one(self, tmp_path, capsys):
        (tmp_path / "config1").write_text("hostname twin\n")
        (tmp_path / "config2").write_text("hostname twin\n")
        assert main(["lint", os.fspath(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "duplicate router name" in out

    def test_errors_exit_two(self, config_dir, tmp_path, capsys):
        from repro.synth import inject_fault

        configs, _meta = build_example_networks()
        mutated, fault = inject_fault(configs, "corrupt-ip", seed=1)
        for name, text in mutated.items():
            (tmp_path / name).write_text(text)
        assert main(["lint", os.fspath(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert fault.file in out
        assert "error" in out

    def test_strict_flag_reports_first_failure(self, tmp_path, capsys):
        from repro.synth import inject_fault

        configs, _meta = build_example_networks()
        mutated, _fault = inject_fault(configs, "corrupt-ip", seed=1)
        for name, text in mutated.items():
            (tmp_path / name).write_text(text)
        assert main(["lint", "--strict", os.fspath(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_rejects_missing_dir(self):
        with pytest.raises(SystemExit):
            main(["lint", "/nonexistent/place"])


class TestExitCodeFolding:
    def test_lenient_analyze_folds_ingestion_errors(self, tmp_path, capsys):
        from repro.synth import inject_fault

        configs, _meta = build_example_networks()
        mutated, _fault = inject_fault(configs, "corrupt-ip", seed=2)
        for name, text in mutated.items():
            (tmp_path / name).write_text(text)
        code = main(["analyze", "--lenient", os.fspath(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "routers:" in captured.out  # analysis still ran
        assert "ingestion:" in captured.err

    def test_clean_archive_unaffected(self, config_dir, capsys):
        assert main(["analyze", "--lenient", config_dir]) == 0
        assert capsys.readouterr().err == ""

    def test_strict_and_lenient_flags_conflict(self, config_dir, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--strict", "--lenient", config_dir])
        capsys.readouterr()

    def test_analyze_defaults_to_strict(self, tmp_path):
        # Regression: a shared parent-parser action once let lint's
        # lenient default leak into every other command.
        from repro.ios.parser import ConfigParseError
        from repro.synth import inject_fault

        configs, _meta = build_example_networks()
        mutated, _fault = inject_fault(configs, "corrupt-ip", seed=2)
        for name, text in mutated.items():
            (tmp_path / name).write_text(text)
        with pytest.raises(ConfigParseError):
            main(["analyze", os.fspath(tmp_path)])


class TestIngestFlags:
    def test_jobs_flag_matches_serial_output(self, config_dir, capsys):
        assert main(["analyze", "--no-cache", config_dir]) == 0
        serial_out = capsys.readouterr().out
        assert main(["analyze", "--no-cache", "--jobs", "4", config_dir]) == 0
        assert capsys.readouterr().out == serial_out

    def test_cache_dir_warm_run_matches(self, config_dir, tmp_path, capsys):
        cache = os.fspath(tmp_path / "cache")
        assert main(["analyze", "--cache-dir", cache, config_dir]) == 0
        cold_out = capsys.readouterr().out
        assert main(["analyze", "--cache-dir", cache, config_dir]) == 0
        assert capsys.readouterr().out == cold_out
        assert os.path.isdir(os.path.join(cache, "objects"))

    def test_negative_jobs_rejected(self, config_dir, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["analyze", "--no-cache", "--jobs", "-2", config_dir])
        assert raised.value.code == 2
        assert "error: argument --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--compress"],
            ["lint", "--compress"],
            ["sweep", "--compress"],
            ["corpus", "--no-compress"],
        ],
    )
    def test_compress_flag_only_on_corpus(self, config_dir, capsys, argv):
        # Only `repro corpus` reads --compress, and its default needs no
        # spelling: anything else is an argparse error.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [config_dir])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


_OBS = {"-h", "--help", "--log-level", "--log-json"}
_MODE = {"--strict", "--lenient"}
_REPORT = {"--trace", "--run-report"}
_CACHE = {"--cache-dir", "--no-cache"}
_CHECKPOINTS = {"--checkpoint-dir", "--no-checkpoint"}
_ARCHIVE = _OBS | _MODE | _REPORT | _CACHE | {"--jobs"}

#: Every subcommand's option strings; a flag added, dropped or renamed
#: anywhere must show up here.
OPTION_STRINGS = {
    "analyze": _ARCHIVE,
    "anonymize": _OBS | {"--key", "--mapping"},
    "audit": _ARCHIVE,
    "corpus": _ARCHIVE
    | _CHECKPOINTS
    | {
        "--archive-jobs",
        "--compress",
        "--deadline",
        "--fail-fast",
        "--json",
        "--resume",
        "--soft-deadline",
        "--stage-deadline",
    },
    "diff": _ARCHIVE,
    "flow": _ARCHIVE | {"--port", "--protocol"},
    "generate": _OBS | {"--routers", "--seed"},
    "graph": _ARCHIVE | {"-o", "--output"},
    "instances": _ARCHIVE,
    "lint": _ARCHIVE,
    "pathway": _ARCHIVE,
    "report": _ARCHIVE | {"-o", "--output"},
    "serve": _OBS
    | _CACHE
    | _CHECKPOINTS
    | {
        "--backoff",
        "--generation-deadline",
        "--grace",
        "--host",
        "--max-backoff",
        "--poll-interval",
        "--port",
        "--soft-deadline",
        "--stage-deadline",
    },
    "share": _OBS
    | _MODE
    | _REPORT
    | {
        "--certify",
        "--decoy-template",
        "--decoys",
        "--diff-out",
        "--json",
        "--key",
        "--mapping",
        "--salt-probes",
    },
    "survivability": _ARCHIVE,
    "sweep": _ARCHIVE
    | _CHECKPOINTS
    | {
        "--depth",
        "--double-budget",
        "--fail-fast",
        "--json",
        "--max-scenarios",
        "--resume",
        "--scenario-deadline",
        "--seed",
        "--soft-deadline",
        "--top",
    },
}


#: Every out-of-range number a command must refuse with an ``error:``
#: line; ``DIR`` is the fig1 archive and ``OUT`` a fresh output path.
_BAD_NUMBERS = [
    ["sweep", "DIR", "--max-scenarios", "-1"],
    ["sweep", "DIR", "--max-scenarios", "-5"],
    ["sweep", "DIR", "--top", "-1"],
    ["sweep", "DIR", "--scenario-deadline", "-1"],
    ["sweep", "DIR", "--scenario-deadline", "0"],
    ["sweep", "DIR", "--depth", "2", "--double-budget", "-1"],
    ["share", "DIR", "OUT", "--decoys", "-1"],
    ["share", "DIR", "OUT", "--salt-probes", "0"],
    ["generate", "enterprise", "OUT", "--routers", "1"],
    ["generate", "pod", "OUT", "--routers", "2"],
    ["flow", "DIR", "notanip", "10.0.0.1"],
    ["serve", "DIR", "--port", "99999"],
    ["serve", "DIR", "--poll-interval", "0"],
    ["serve", "DIR", "--poll-interval", "-1"],
    *(
        [*command, "--jobs", "-1"]
        for command in (
            ["analyze", "DIR"],
            ["instances", "DIR"],
            ["pathway", "DIR", "R1"],
            ["survivability", "DIR"],
            ["audit", "DIR"],
            ["graph", "DIR"],
            ["report", "DIR"],
            ["flow", "DIR", "10.0.0.1", "10.0.0.2"],
            ["diff", "DIR", "DIR"],
            ["lint", "DIR"],
            ["corpus", "DIR"],
            ["sweep", "DIR"],
        )
    ),
]


@pytest.mark.parametrize("argv", _BAD_NUMBERS, ids=" ".join)
def test_bad_numbers_end_in_an_error_line(config_dir, tmp_path, capsys, argv):
    paths = {"DIR": config_dir, "OUT": os.fspath(tmp_path / "out")}
    with pytest.raises(SystemExit) as raised:
        main([paths.get(arg, arg) for arg in argv])
    code = raised.value.code
    # argparse prints its message and exits 2; a command exits with its
    # "error: ..." message, which the interpreter prints on stderr.
    message = capsys.readouterr().err if isinstance(code, int) else code
    assert code != 0
    assert "error:" in message
    assert "Traceback" not in message


def _subcommands():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestOptionTable:
    def test_every_subcommand_keeps_its_option_strings(self):
        table = {
            name: {option for action in p._actions for option in action.option_strings}
            for name, p in _subcommands().items()
        }
        assert table == OPTION_STRINGS

    def test_each_store_flag_has_one_help_text(self):
        helps = {}
        for p in _subcommands().values():
            for action in p._actions:
                for option in set(action.option_strings) & (_CACHE | _CHECKPOINTS):
                    helps.setdefault(option, set()).add(action.help)
        assert set(helps) == _CACHE | _CHECKPOINTS
        assert all(len(texts) == 1 for texts in helps.values())


class TestCorpus:
    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        configs, _meta = build_example_networks()
        for archive in ("alpha", "beta"):
            d = tmp_path / "corpus" / archive
            d.mkdir(parents=True)
            for name, text in configs.items():
                (d / name).write_text(text)
        return os.fspath(tmp_path / "corpus")

    def test_table_lists_every_archive(self, corpus_dir, capsys):
        assert main(["corpus", "--no-cache", corpus_dir]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out
        assert "TOTAL" in out
        for column in ("parse s", "links s", "inst s", "path s", "parsed/s"):
            assert column in out

    def test_json_payload_shape(self, corpus_dir, capsys):
        import json as json_mod

        assert main(["corpus", "--no-cache", "--json", corpus_dir]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["totals"]["archives"] == 2
        assert payload["totals"]["parsed"] == payload["totals"]["files"] == 12
        names = [e["archive"] for e in payload["archives"]]
        assert names == ["alpha", "beta"]
        stage_names = [s["name"] for s in payload["archives"][0]["stages"]]
        assert stage_names == ["read", "parse", *ANALYSIS_STAGES]
        assert payload["archives"][0]["status"] == "ok"
        assert payload["totals"]["stages"] == {"ok": 2 * len(ANALYSIS_STAGES)}

    def test_warm_cache_parses_zero_files(self, corpus_dir, tmp_path, capsys):
        import json as json_mod

        cache = os.fspath(tmp_path / "cache")
        assert main(["corpus", "--json", "--cache-dir", cache, corpus_dir]) == 0
        cold = json_mod.loads(capsys.readouterr().out)
        # alpha and beta hold identical bytes: the content-addressed cache
        # dedupes across archives even within the cold run.
        assert cold["totals"]["parsed"] == 6
        assert cold["totals"]["cached"] == 6
        assert main(["corpus", "--json", "--cache-dir", cache, corpus_dir]) == 0
        warm = json_mod.loads(capsys.readouterr().out)
        assert warm["totals"]["parsed"] == 0
        assert warm["totals"]["cached"] == 12
        # Timing aside, the warm payload describes the same corpus.
        for cold_e, warm_e in zip(cold["archives"], warm["archives"]):
            assert cold_e["routers"] == warm_e["routers"]
            assert cold_e["exit_code"] == warm_e["exit_code"]
            assert cold_e["quarantined"] == warm_e["quarantined"]

    def test_flat_directory_is_one_archive(self, config_dir, capsys):
        assert main(["corpus", "--no-cache", config_dir]) == 0
        out = capsys.readouterr().out
        assert "1 archive(s)" in out

    def test_rejects_missing_dir(self):
        with pytest.raises(SystemExit):
            main(["corpus", "/nonexistent/place"])

    def test_faulted_archive_folds_exit_code(self, tmp_path, capsys):
        from repro.synth import inject_fault

        configs, _meta = build_example_networks()
        mutated, _fault = inject_fault(configs, "corrupt-ip", seed=2)
        d = tmp_path / "corpus" / "damaged"
        d.mkdir(parents=True)
        for name, text in mutated.items():
            (d / name).write_text(text)
        code = main(["corpus", "--no-cache", os.fspath(tmp_path / "corpus")])
        assert code == 2
        capsys.readouterr()


class TestCheckpointRoot:
    """Checkpoints live at --checkpoint-dir, else $REPRO_CHECKPOINT_DIR,
    else <--cache-dir or the default cache dir>/checkpoints."""

    @pytest.fixture()
    def archive(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", os.fspath(tmp_path / "default"))
        configs, _meta = build_example_networks()
        d = tmp_path / "archive"
        d.mkdir()
        for name, text in configs.items():
            (d / name).write_text(text)
        return os.fspath(d)

    @staticmethod
    def _entries(root):
        return [
            name
            for _dirpath, _dirnames, names in os.walk(root)
            for name in names
            if name.endswith(".json")
        ]

    @pytest.mark.parametrize("command", ["corpus", "sweep"])
    def test_checkpoints_follow_cache_dir(self, archive, tmp_path, capsys, command):
        cache = tmp_path / "cache"
        assert main([command, "--json", "--cache-dir", os.fspath(cache), archive]) == 0
        capsys.readouterr()
        assert self._entries(cache / "checkpoints")
        assert not (tmp_path / "default").exists()

    def test_default_cache_dir_holds_checkpoints(self, archive, tmp_path, capsys):
        assert main(["corpus", "--json", archive]) == 0
        capsys.readouterr()
        assert self._entries(tmp_path / "default" / "checkpoints")

    def test_env_then_flag_take_precedence(self, archive, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", os.fspath(tmp_path / "env"))
        assert main(["corpus", "--json", "--cache-dir", os.fspath(cache), archive]) == 0
        assert self._entries(tmp_path / "env")
        flag = tmp_path / "flag"
        assert main(
            ["corpus", "--json", "--cache-dir", os.fspath(cache),
             "--checkpoint-dir", os.fspath(flag), archive]
        ) == 0
        capsys.readouterr()
        assert self._entries(flag)
        assert not (cache / "checkpoints").exists()

    @pytest.mark.parametrize("command", ["corpus", "sweep"])
    def test_resume_without_checkpoints_is_an_error(self, archive, capsys, command):
        with pytest.raises(SystemExit, match="--resume needs checkpointing"):
            main([command, "--no-checkpoint", "--resume", archive])
