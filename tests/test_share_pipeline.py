"""Share pipeline tests: renaming, mapping hygiene, decoy admissibility."""

import json
import os

import pytest

from repro.share import (
    DecoySet,
    ShareError,
    ShareMapping,
    ShareOptions,
    check_decoy_admissible,
    default_mapping_path,
    ensure_mapping_outside,
    share_corpus,
    synthesize_decoys,
)
from repro.synth.templates.enterprise import build_enterprise


def _write_corpus(root, n_networks=2, n_routers=5, **kwargs):
    archives = {}
    for i in range(n_networks):
        d = os.path.join(root, f"net{i}")
        os.makedirs(d)
        configs, _spec = build_enterprise(f"net{i}", i, n_routers, **kwargs)
        for name, text in configs.items():
            with open(os.path.join(d, name + ".cfg"), "w") as handle:
                handle.write(text)
        archives[f"net{i}"] = configs
    return archives


class TestSharePipeline:
    def test_file_names_are_pseudonymous(self, tmp_path):
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        archives = _write_corpus(root)
        result = share_corpus(root, out, ShareOptions(key=b"k"))
        original_names = {name for configs in archives.values() for name in configs}
        for record in result.archives:
            assert record.shared not in archives  # archive dirs renamed too
            for original, shared in record.files.items():
                stem = os.path.splitext(original)[0]
                assert stem in original_names
                assert stem not in shared
                assert shared.endswith(".cfg")  # extension is structure

    def test_file_stem_matches_content_hostname(self, tmp_path):
        # A file named after its hostname gets the hostname's pseudo-name,
        # so the shared archive remains self-consistent.
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        _write_corpus(root, n_networks=1)
        result = share_corpus(root, out, ShareOptions(key=b"k"))
        record = result.archives[0]
        for original, shared in record.files.items():
            stem = os.path.splitext(original)[0]
            assert os.path.splitext(shared)[0] == result.mapping.names[stem]
            with open(os.path.join(out, record.shared, shared)) as handle:
                assert f"hostname {result.mapping.names[stem]}" in handle.read()

    def test_no_original_identifier_in_shared_tree(self, tmp_path):
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        archives = _write_corpus(root)
        share_corpus(root, out, ShareOptions(key=b"k"))
        leaked = []
        for dirpath, _dirs, files in os.walk(out):
            for file_name in files:
                with open(os.path.join(dirpath, file_name)) as handle:
                    text = handle.read()
                for configs in archives.values():
                    for router in configs:
                        if router in text or router in file_name:
                            leaked.append(router)
        assert not leaked

    def test_flat_directory_is_one_archive(self, tmp_path):
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        os.makedirs(root)
        configs, _spec = build_enterprise("flat", 0, 4)
        for name, text in configs.items():
            with open(os.path.join(root, name + ".cfg"), "w") as handle:
                handle.write(text)
        result = share_corpus(root, out, ShareOptions(key=b"k"))
        assert len(result.archives) == 1
        assert result.archives[0].shared is None
        assert len(os.listdir(out)) == len(configs)

    def test_binary_files_are_skipped(self, tmp_path):
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        _write_corpus(root, n_networks=1)
        with open(os.path.join(root, "net0", "core.dump"), "wb") as handle:
            handle.write(b"\x00\x01\x02")
        result = share_corpus(root, out, ShareOptions(key=b"k"))
        assert result.archives[0].skipped == ["core.dump"]
        assert "core.dump" not in result.archives[0].files

    def test_share_is_deterministic_per_key(self, tmp_path):
        root = str(tmp_path / "corpus")
        _write_corpus(root, n_networks=1)
        a = share_corpus(root, str(tmp_path / "a"), ShareOptions(key=b"k"))
        b = share_corpus(root, str(tmp_path / "b"), ShareOptions(key=b"k"))
        assert a.mapping.names == b.mapping.names
        assert a.mapping.addresses == b.mapping.addresses
        c = share_corpus(root, str(tmp_path / "c"), ShareOptions(key=b"other"))
        assert c.mapping.names != a.mapping.names


class TestMappingHygiene:
    def test_default_mapping_path_is_outside(self, tmp_path):
        out = str(tmp_path / "shared")
        path = default_mapping_path(out)
        ensure_mapping_outside(out, path)  # must not raise
        assert not os.path.normpath(path).startswith(os.path.normpath(out) + os.sep)

    def test_mapping_inside_outdir_rejected(self, tmp_path):
        out = str(tmp_path / "shared")
        os.makedirs(out)
        with pytest.raises(ValueError, match="never travel"):
            ensure_mapping_outside(out, os.path.join(out, "mapping.json"))
        with pytest.raises(ValueError, match="never travel"):
            ensure_mapping_outside(out, os.path.join(out, "deep", "mapping.json"))

    def test_mapping_round_trip(self, tmp_path):
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        _write_corpus(root, n_networks=1)
        result = share_corpus(root, out, ShareOptions(key=b"k", decoys=3))
        path = str(tmp_path / "mapping.json")
        result.mapping.write(path)
        loaded = ShareMapping.read(path)
        assert loaded.key == b"k"
        assert loaded.names == result.mapping.names
        assert loaded.decoy_routers("net0") == result.mapping.decoy_routers("net0")

    def test_mapping_schema_guard(self, tmp_path):
        path = str(tmp_path / "bogus.json")
        with open(path, "w") as handle:
            json.dump({"schema": "something-else"}, handle)
        with pytest.raises(ValueError, match="share mapping"):
            ShareMapping.read(path)

    def test_mapping_records_decoy_inventory(self, tmp_path):
        root, out = str(tmp_path / "corpus"), str(tmp_path / "shared")
        _write_corpus(root, n_networks=1)
        result = share_corpus(root, out, ShareOptions(key=b"k", decoys=3))
        decoys = result.mapping.archives["net0"]["decoys"]
        assert decoys["count"] == len(decoys["routers"]) > 0
        assert set(decoys["files"]) <= set(
            os.listdir(os.path.join(out, result.archives[0].shared))
        )
        # every decoy router is role-stamped for the trusted party
        assert set(decoys["role_stamps"]) == set(decoys["routers"])


class TestDecoyAdmissibility:
    def test_admissible_decoys_found(self, tmp_path):
        root = str(tmp_path / "corpus")
        _write_corpus(root, n_networks=1)
        result = share_corpus(
            root, str(tmp_path / "shared"), ShareOptions(key=b"k", decoys=4)
        )
        assert result.archives[0].decoys is not None
        assert len(result.archives[0].decoys.routers) >= 4

    def test_name_collision_rejected(self):
        configs, _spec = build_enterprise("real", 0, 4)
        real_files = {name + ".cfg": text for name, text in configs.items()}
        decoy = DecoySet(
            salt=0,
            template="enterprise",
            files={"real-r0.cfg": "hostname real-r0\n"},
            routers=("real-r0",),
        )
        reason = check_decoy_admissible(real_files, decoy)
        assert reason is not None and "collision" in reason

    def test_shared_subnet_rejected(self):
        configs, _spec = build_enterprise("real", 0, 4)
        real_files = {name + ".cfg": text for name, text in configs.items()}
        # A decoy squatting on one of the real network's own interfaces.
        real_text = next(iter(configs.values()))
        address_line = next(
            line for line in real_text.splitlines() if "ip address" in line
        )
        decoy_text = f"hostname intruder\ninterface Ethernet0\n{address_line}\n"
        decoy = DecoySet(
            salt=0,
            template="enterprise",
            files={"intruder.cfg": decoy_text},
            routers=("intruder",),
        )
        reason = check_decoy_admissible(real_files, decoy)
        assert reason is not None

    def test_broken_decoy_rejected(self):
        configs, _spec = build_enterprise("real", 0, 4)
        real_files = {name + ".cfg": text for name, text in configs.items()}
        decoy = DecoySet(
            salt=0,
            template="enterprise",
            files={"ghost.cfg": "interface \n"},
            routers=("ghost",),
        )
        assert check_decoy_admissible(real_files, decoy) is not None

    def test_synthesized_decoys_reroll_with_salt(self):
        a = synthesize_decoys("net0", b"k", 0, 4)
        b = synthesize_decoys("net0", b"k", 1, 4)
        assert set(a.files) != set(b.files)
        assert a.routers != b.routers

    def test_exhausted_probe_budget_raises(self, tmp_path, monkeypatch):
        root = str(tmp_path / "corpus")
        _write_corpus(root, n_networks=1)
        import repro.share.pipeline as pipeline_module

        # Each salt's admission runs on the networks its probe built.
        monkeypatch.setattr(
            pipeline_module,
            "_admission",
            lambda real_net, decoy_net, combined, decoy: "vetoed by test",
        )
        with pytest.raises(ShareError, match="vetoed by test"):
            share_corpus(
                root,
                str(tmp_path / "shared"),
                ShareOptions(key=b"k", decoys=4, max_salt_probes=2),
            )

    def test_bad_template_rejected(self):
        with pytest.raises(ShareError, match="template"):
            ShareOptions(key=b"k", decoys=2, decoy_template="nonsense")
