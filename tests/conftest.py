"""Shared fixtures: small-scale generated networks, parsed once per session."""

from __future__ import annotations

import pytest

from repro.model import Network
from repro.synth.corpus import paper_corpus
from repro.synth.templates.backbone import build_backbone
from repro.synth.templates.enterprise import build_enterprise
from repro.synth.templates.example_fig1 import build_example_networks
from repro.synth.templates.net5 import build_net5
from repro.synth.templates.net15 import build_net15
from repro.synth.templates.tier2 import build_tier2

#: Scale used for corpus-wide tests: full structure, sharply reduced size.
TEST_SCALE = 0.06


@pytest.fixture(autouse=True)
def _isolated_parse_cache(tmp_path_factory, monkeypatch):
    """Keep the CLI's default parse cache away from the user's ~/.cache."""
    monkeypatch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.getbasetemp() / "parse-cache")
    )


@pytest.fixture()
def four_cpus(monkeypatch):
    """Report four usable CPUs, so a sweep with ``jobs`` > 1 takes the
    process-pool path whatever the host running the tests has."""
    monkeypatch.setattr("repro.sweep.runner.available_cpus", lambda: 4)


@pytest.fixture(scope="session")
def fig1():
    """The paper's running example: ``(network, meta)``."""
    configs, meta = build_example_networks()
    return Network.from_configs(configs, name="fig1"), meta


@pytest.fixture(scope="session")
def enterprise_net():
    configs, spec = build_enterprise("ent", 1, 25, seed=3, igp="ospf", n_borders=2)
    return Network.from_configs(configs, name="ent"), spec


@pytest.fixture(scope="session")
def backbone_net():
    configs, spec = build_backbone("bb", 2, 48, seed=5, pop_size=6)
    return Network.from_configs(configs, name="bb"), spec


@pytest.fixture(scope="session")
def tier2_net():
    configs, spec = build_tier2("t2", 3, 30, seed=7)
    return Network.from_configs(configs, name="t2"), spec


@pytest.fixture(scope="session")
def net5_small():
    configs, spec = build_net5(scale=0.12)
    return Network.from_configs(configs, name="net5"), spec


@pytest.fixture(scope="session")
def net15_full():
    configs, spec = build_net15(scale=1.0)
    return Network.from_configs(configs, name="net15"), spec


@pytest.fixture(scope="session")
def small_corpus():
    """The 31-network corpus at test scale, networks parsed lazily."""
    return paper_corpus(scale=TEST_SCALE)
