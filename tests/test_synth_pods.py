"""The replicated pod template and its CLI / executor integration.

Covers the template's structural promises (single network-wide OSPF
instance, dual-homing, exact replication), the ``repro generate pod``
entry point, and the end-to-end ``--compress`` contract: a corpus run
with compression produces the same normalized JSON payload as the
direct run.
"""

import json
import os

import pytest

from repro.cli import main
from repro.core.instances import compute_instances
from repro.model import Network
from repro.obs import normalize_run
from repro.synth.templates.pods import build_pods, pod_count


def test_pod_count_rounds_up():
    assert pod_count(14, access_per_pod=8) == 1
    assert pod_count(104, access_per_pod=8) == 10
    assert pod_count(105, access_per_pod=8) == 11


def test_single_network_wide_ospf_instance():
    configs, spec = build_pods("pod", 1, 40, access_per_pod=4)
    network = Network.from_configs(configs, name="pod")
    instances = compute_instances(network)
    ospf = [i for i in instances if i.protocol == "ospf"]
    assert len(ospf) == 1
    assert ospf[0].size == len(network) == spec.router_count
    bgp = [i for i in instances if i.protocol == "bgp"]
    assert len(bgp) == 1 and bgp[0].size == 2


def test_pods_are_exact_replicas_up_to_addresses():
    configs, _spec = build_pods("pod", 1, 40, access_per_pod=4)

    def shape(text):
        # Strip addresses; keep command shapes and stanza order.
        lines = []
        for line in text.splitlines():
            if line.startswith("hostname"):
                continue
            lines.append(" ".join(
                tok for tok in line.split()
                if not tok[0].isdigit() or tok.isdigit() and int(tok) < 300
            ))
        return "\n".join(lines)

    assert shape(configs["pod-p0-acc0"]) == shape(configs["pod-p2-acc3"])
    assert shape(configs["pod-p0-agg0"]) == shape(configs["pod-p1-agg1"])


def test_access_routers_dual_home_to_pod_aggs():
    configs, _spec = build_pods("pod", 1, 40, access_per_pod=4)
    network = Network.from_configs(configs, name="pod")
    neighbors = {name: set() for name in network.routers}
    for link in network.links:
        members = {end.router for end in link.ends}
        for member in members:
            neighbors[member] |= members - {member}
    assert neighbors["pod-p0-acc0"] == {"pod-p0-agg0", "pod-p0-agg1"}
    assert {"pod-core0", "pod-core1"} <= neighbors["pod-p1-agg0"]


def test_external_interfaces_live_on_borders_only():
    configs, spec = build_pods("pod", 1, 40, access_per_pod=4)
    network = Network.from_configs(configs, name="pod")
    external_routers = {router for router, _ in network.external_interfaces}
    assert external_routers == {"pod-border0", "pod-border1"}
    assert set(spec.external_interfaces) <= set(network.external_interfaces)


def test_rejects_fabrics_too_small_for_one_pod():
    with pytest.raises(ValueError):
        build_pods("pod", 1, 5)


def test_generate_cli_emits_pod_archive(tmp_path, capsys):
    outdir = os.fspath(tmp_path / "pod")
    code = main(["generate", "pod", outdir, "--routers", "24"])
    assert code == 0
    capsys.readouterr()
    files = os.listdir(outdir)
    assert any(name.endswith("core0") for name in files)
    network = Network.from_configs(
        {
            name: open(os.path.join(outdir, name)).read()
            for name in files
        },
        name="pod",
    )
    assert len(network) >= 24


def test_corpus_payload_identical_with_and_without_compress(tmp_path, capsys):
    # The end-to-end --compress contract: same corpus, same normalized
    # JSON payload, whichever pathway runner executed.
    configs, _spec = build_pods("pod", 1, 26, access_per_pod=4)
    archive = tmp_path / "corpus" / "fabric"
    archive.mkdir(parents=True)
    for name, text in configs.items():
        (archive / name).write_text(text)
    corpus = os.fspath(archive.parent)

    normalized = {}
    for flags in ((), ("--compress",)):
        code = main(
            ["corpus", "--no-cache", "--json", "--no-checkpoint", *flags, corpus]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["compress"] is bool(flags)
        normalized[flags] = json.dumps(normalize_run(payload), sort_keys=True)
    assert normalized[()] == normalized[("--compress",)]
