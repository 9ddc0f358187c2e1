"""Certification gate tests: isomorphism on every synth template, and
divergence detection when the shared corpus is tampered with."""

import json
import os

import pytest

from repro.cli import main
from repro.share import ShareOptions, certify_share, share_corpus
from repro.synth import inject_fault
from repro.synth.templates.backbone import build_backbone
from repro.synth.templates.enterprise import build_enterprise
from repro.synth.templates.example_fig1 import build_example_networks
from repro.synth.templates.hybrid import build_hybrid
from repro.synth.templates.mixed import build_mixed
from repro.synth.templates.net5 import build_net5
from repro.synth.templates.net15 import build_net15
from repro.synth.templates.pods import build_pods
from repro.synth.templates.tier2 import build_tier2

#: One representative (small) build per synth template family.
TEMPLATE_BUILDS = {
    "enterprise": lambda: build_enterprise("ent", 3, 6, n_borders=2, n_igp_instances=2),
    "backbone": lambda: build_backbone("bb", 4, 12, pop_size=6),
    "tier2": lambda: build_tier2("t2", 5, 8),
    "net5": lambda: build_net5(scale=0.12),
    "net15": lambda: build_net15(scale=0.1),
    "hybrid": lambda: build_hybrid("hy", 6, 10),
    "pod": lambda: build_pods("pod", 7, 14),
    "mixed": lambda: build_mixed("mx", 8, n_routers=8),
}


def _write_archive(root, name, configs):
    d = os.path.join(root, name)
    os.makedirs(d)
    for router, text in configs.items():
        with open(os.path.join(d, router + ".cfg"), "w") as handle:
            handle.write(text)
    return d


class TestCertifyTemplates:
    @pytest.mark.parametrize("template", sorted(TEMPLATE_BUILDS))
    def test_certified_isomorphic(self, tmp_path, template):
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        configs, _spec = TEMPLATE_BUILDS[template]()
        _write_archive(root, template, configs)
        result = share_corpus(root, out, ShareOptions(key=b"cert"))
        certification = certify_share(root, out, result.mapping)
        assert certification.ok, certification.divergent_sections()

    @pytest.mark.parametrize("decoy_template", ["enterprise", "mixed", "pod"])
    def test_certified_with_decoys(self, tmp_path, decoy_template):
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        configs, _spec = TEMPLATE_BUILDS["enterprise"]()
        _write_archive(root, "net", configs)
        result = share_corpus(
            root,
            out,
            ShareOptions(key=b"cert", decoys=4, decoy_template=decoy_template),
        )
        assert result.archives[0].decoys is not None
        certification = certify_share(root, out, result.mapping)
        assert certification.ok, certification.divergent_sections()

    @pytest.mark.parametrize("decoys", [0, 4])
    def test_duplicate_hostname_certifies(self, tmp_path, decoys):
        # Files R2 and R5 both say "hostname R5": lenient ingestion
        # names the later file's router R5~2, and the shared file names
        # put the two files in the other order.  Routers pair by source
        # file, so the suffix order cannot matter.
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        configs, fault = inject_fault(
            build_example_networks()[0], "duplicate-hostname", 1
        )
        assert fault.files == ("R2", "R5")
        _write_archive(root, "fig1", configs)
        result = share_corpus(root, out, ShareOptions(key=b"cert", decoys=decoys))
        certification = certify_share(root, out, result.mapping)
        assert certification.ok, certification.to_dict()["archives"]["fig1"].get(
            "divergence"
        )


class TestCertifyDivergence:
    def _share(self, tmp_path, **options):
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        configs, _spec = TEMPLATE_BUILDS["enterprise"]()
        _write_archive(root, "net", configs)
        result = share_corpus(root, out, ShareOptions(key=b"cert", **options))
        record = result.archives[0]
        shared_dir = os.path.join(out, record.shared)
        return root, out, result, record, shared_dir

    def test_tampered_file_diverges(self, tmp_path):
        root, out, result, record, shared_dir = self._share(tmp_path)
        victim = os.path.join(shared_dir, sorted(record.files.values())[0])
        with open(victim) as handle:
            lines = handle.read().splitlines()
        kept = [line for line in lines if "ip address" not in line]
        assert kept != lines
        with open(victim, "w") as handle:
            handle.write("\n".join(kept) + "\n")
        certification = certify_share(root, out, result.mapping)
        assert not certification.ok
        assert certification.divergent_sections()

    def test_deleted_file_diverges(self, tmp_path):
        root, out, result, record, shared_dir = self._share(tmp_path)
        os.unlink(os.path.join(shared_dir, sorted(record.files.values())[0]))
        certification = certify_share(root, out, result.mapping)
        assert not certification.ok

    def test_unregistered_decoy_diverges(self, tmp_path):
        # A planted router the mapping does not list as a decoy must not
        # be silently filtered out — fail closed.
        root, out, result, record, shared_dir = self._share(tmp_path)
        with open(os.path.join(shared_dir, "stowaway.cfg"), "w") as handle:
            handle.write(
                "hostname stowaway\n"
                "interface Ethernet0\n ip address 203.0.113.1 255.255.255.0\n"
            )
        certification = certify_share(root, out, result.mapping)
        assert not certification.ok

    def test_diff_reports_section_and_archive(self, tmp_path):
        root, out, result, record, shared_dir = self._share(tmp_path)
        os.unlink(os.path.join(shared_dir, sorted(record.files.values())[0]))
        certification = certify_share(root, out, result.mapping)
        payload = certification.to_dict()
        assert payload["ok"] is False
        assert "net" in payload["archives"]
        diverged = payload["archives"]["net"]
        assert any(not matched for matched in diverged["sections"].values())
        assert diverged["diff"]
        # The path names the first divergent section, in section order,
        # and leads to a value that differs between the two sides.
        first = next(name for name, ok in diverged["sections"].items() if not ok)
        assert diverged["divergence"].startswith(first)
        assert set(diverged["diff"][first]) == {"original", "shared"}
        assert diverged["diff"][first]["original"] != diverged["diff"][first]["shared"]


class TestShareCli:
    def test_cli_certify_exit_codes(self, tmp_path):
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        configs, _spec = TEMPLATE_BUILDS["enterprise"]()
        _write_archive(root, "net", configs)
        code = main(
            ["share", root, out, "--key", "k", "--decoys", "3", "--certify"]
        )
        assert code == 0

    def test_cli_certify_writes_diff_and_json(self, tmp_path, capsys):
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        configs, _spec = TEMPLATE_BUILDS["enterprise"]()
        _write_archive(root, "net", configs)
        diff_out = str(tmp_path / "diff.json")
        code = main(
            [
                "share",
                root,
                out,
                "--key",
                "k",
                "--certify",
                "--diff-out",
                diff_out,
                "--json",
            ]
        )
        assert code == 0
        with open(diff_out) as handle:
            assert json.load(handle)["ok"] is True
        assert '"certified": true' in capsys.readouterr().out

    def test_cli_divergence_exits_3(self, tmp_path, monkeypatch):
        # The share command re-emits the tree before certifying, so a clean
        # run always passes; force a divergent certification to pin the
        # degraded exit-code contract.
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        configs, _spec = TEMPLATE_BUILDS["enterprise"]()
        _write_archive(root, "net", configs)
        diff_out = str(tmp_path / "diff.json")

        import repro.share as share_module
        from repro.compress import Certificate
        from repro.share import ShareCertification

        def divergent(*_args, **_kwargs):
            broken = Certificate(
                sections={"instances": False},
                divergence="instances[len 0!=1]",
                diff={"instances": ([], ["i#0"])},
            )
            return ShareCertification(archives={"net": broken})

        monkeypatch.setattr(share_module, "certify_share", divergent)
        code = main(
            ["share", root, out, "--key", "k", "--certify", "--diff-out", diff_out]
        )
        assert code == 3
        with open(diff_out) as handle:
            payload = json.load(handle)
        assert payload["ok"] is False
        assert payload["archives"]["net"]["sections"]["instances"] is False
        assert payload["archives"]["net"]["divergence"] == "instances[len 0!=1]"
        assert payload["archives"]["net"]["diff"]["instances"] == {
            "original": [],
            "shared": ["i#0"],
        }

    def test_cli_diff_out_needs_certify(self, tmp_path):
        # Without --certify there is no certificate to write: refuse
        # before anything is shared rather than silently skip the file.
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        configs, _spec = TEMPLATE_BUILDS["enterprise"]()
        _write_archive(root, "net", configs)
        diff_out = str(tmp_path / "diff.json")
        with pytest.raises(SystemExit, match="--diff-out needs --certify"):
            main(["share", root, out, "--key", "k", "--diff-out", diff_out])
        assert not os.path.exists(diff_out)
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".mapping.json")

    def test_cli_rejects_mapping_inside_outdir(self, tmp_path):
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        configs, _spec = TEMPLATE_BUILDS["enterprise"]()
        _write_archive(root, "net", configs)
        with pytest.raises(SystemExit, match="never travel"):
            main(
                [
                    "share",
                    root,
                    out,
                    "--key",
                    "k",
                    "--mapping",
                    os.path.join(out, "mapping.json"),
                ]
            )

    @pytest.mark.parametrize(
        "flags",
        [["--cache-dir", "pc"], ["--no-cache"], ["--jobs", "2"], ["--compress"]],
        ids=lambda flags: flags[0],
    )
    def test_cli_rejects_flags_it_does_not_read(self, tmp_path, flags):
        # share reads both trees itself, without a parse cache: a flag it
        # would silently ignore is a usage error, and nothing is written.
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        configs, _spec = TEMPLATE_BUILDS["enterprise"]()
        _write_archive(root, "net", configs)
        flags = [str(tmp_path / flag) if flag == "pc" else flag for flag in flags]
        with pytest.raises(SystemExit) as excinfo:
            main(["share", root, out, "--key", "k", "--certify", *flags])
        assert excinfo.value.code == 2
        assert not os.path.exists(out)
        assert not os.path.exists(str(tmp_path / "pc"))

    def test_cli_run_report_holds_the_share_summary(self, tmp_path):
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        configs, _spec = TEMPLATE_BUILDS["enterprise"]()
        _write_archive(root, "net", configs)
        report = str(tmp_path / "run.json")
        code = main(["share", root, out, "--key", "k", "--certify", "--run-report", report])
        assert code == 0
        with open(report) as handle:
            manifest = json.load(handle)
        assert manifest["environment"]["share"]["archives"] == 1
        assert manifest["environment"]["share"]["certified"] is True
        assert manifest["archives"] == []
