"""Generate one workload's inputs from a seed, write them, hash the tree.

    python3 perfbench/gen.py <workload> <seed> <outdir> [--tiny]

Runs in a process of its own, before the measured child starts, so the
child's peak RSS is the program's alone.  Everything the child and the
output checks need is written under ``<outdir>``: the config archives,
``expect.json`` (the generator's ground truth), and for ``serve-edit``
``edits.json`` (the seeded edit script).  The last stdout line is
``{"digest": ..., "files": n, "bytes": n, "variant": n}``, where the
digest is SHA-256 over the sorted relative paths and bytes of every file
written.

Seed ``n`` generates input variant ``n mod INPUT_VARIANTS``, so every
seed a caller can pass has its digest pinned.  ``--tiny`` shrinks every
workload for the self-test.  ``gen.py pin`` prints the digest table
``run.py`` checks inputs against (``digests.json``); re-pin only when a
generator change is intended.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import sys

#: The 31-network study is the paper's fixed data set: it is generated at
#: the corpus generator's own default seed, and the input variant sets
#: the mixed-vendor archives added beside it.
STUDY_SEED = 2004

#: Distinct input sets per workload, each with a pinned digest.
INPUT_VARIANTS = 20

#: Instance-count disagreements between the study generator's
#: ``NetworkSpec`` and the analyzer, as (analyzer − spec).  net29's spec
#: expects two 2-router RIP instances where the analyzer finds one
#: 4-router instance, at every scale.  Recorded, not skipped; any other
#: disagreement fails the check.
KNOWN_INSTANCE_GAPS = {"net29": -1}

SIZES = {
    False: {
        "study_scale": 0.25,
        "mixed_archives": 3,
        "mixed_routers": 12,
        "pod_routers": 5000,
        "pod_sample": 12,
        "sweep_routers": 32,
        "serve_routers": 48,
        "serve_edits": 110,
    },
    True: {
        "study_scale": 0.02,
        "mixed_archives": 1,
        "mixed_routers": 6,
        "pod_routers": 54,
        "pod_sample": 4,
        "sweep_routers": 12,
        "serve_routers": 12,
        "serve_edits": 6,
    },
}

WORKLOADS = ("paper-corpus", "pod-compress", "sweep-backbone", "serve-edit")


def _write_archive(root: str, configs: dict) -> None:
    os.makedirs(root, exist_ok=True)
    for name in sorted(configs):
        with open(os.path.join(root, name), "w", encoding="utf-8") as handle:
            handle.write(configs[name])


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def tree_digest(root: str) -> dict:
    """SHA-256 over sorted ``(relative path, bytes)`` of every file."""
    paths = []
    for directory, _dirs, files in os.walk(root):
        for name in files:
            full = os.path.join(directory, name)
            paths.append(os.path.relpath(full, root).replace(os.sep, "/"))
    digest = hashlib.sha256()
    total = 0
    for rel in sorted(paths):
        with open(os.path.join(root, rel), "rb") as handle:
            data = handle.read()
        total += len(data)
        digest.update(rel.encode("utf-8") + b"\0")
        digest.update(str(len(data)).encode("ascii") + b"\0")
        digest.update(data)
    return {"digest": digest.hexdigest(), "files": len(paths), "bytes": total}


def variant(seed: int) -> int:
    """The input variant seed ``seed`` generates."""
    return seed % INPUT_VARIANTS


def gen_paper_corpus(out: str, seed: int, size: dict) -> None:
    from repro.synth.corpus import build_corpus
    from repro.synth.templates.mixed import build_mixed

    archives = {}
    for net in build_corpus(scale=size["study_scale"], seed=STUDY_SEED):
        _write_archive(os.path.join(out, "corpus", net.name), net.configs)
        archives[net.name] = {
            "routers": net.spec.router_count,
            "instances": net.spec.instance_count(),
        }
    for index in range(size["mixed_archives"]):
        name = f"mixed{index}"
        # build_mixed draws nothing from its seed: the variant sets what
        # it does use, the network index (address block, AS number) and
        # the sizes of the JunOS core and the IOS access layer.
        shift = seed + index
        configs, spec = build_mixed(
            name,
            200 + seed * size["mixed_archives"] + index,
            size["mixed_routers"] + shift % 3,
            core_size=3 + shift % 3,
        )
        _write_archive(os.path.join(out, "corpus", name), configs)
        archives[name] = {
            "routers": spec.router_count,
            "instances": spec.instance_count(),
            "junos_routers": len(spec.notes["junos_routers"]),
        }
    _write_json(
        os.path.join(out, "expect.json"),
        {"archives": archives, "known_instance_gaps": KNOWN_INSTANCE_GAPS},
    )


def gen_pod_compress(out: str, seed: int, size: dict) -> None:
    from repro.synth.templates.pods import build_pods

    # The pod template draws nothing from its seed (any per-router
    # variation would split the classes it exists to exhibit); the
    # variant picks the network index, which sets the AS numbers.
    configs, spec = build_pods("pod", 1 + seed, size["pod_routers"])
    _write_archive(os.path.join(out, "corpus", "pod"), configs)
    # The generator builds four router positions — core, border,
    # aggregation, access — replicated across pods: one class each.
    positions = sorted(
        {re.sub(r"\d+$", "", name.rsplit("-", 1)[1]) for name in configs}
    )
    rng = random.Random(seed)
    sample = sorted(rng.sample(sorted(configs), size["pod_sample"]))
    _write_json(
        os.path.join(out, "expect.json"),
        {
            "routers": spec.router_count,
            "classes": len(positions),
            "positions": positions,
            "sample": sample,
        },
    )


def gen_sweep_backbone(out: str, seed: int, size: dict) -> None:
    from repro.synth.templates.backbone import build_backbone

    configs, spec = build_backbone("bb", 1, size["sweep_routers"], seed=seed)
    _write_archive(os.path.join(out, "archive"), configs)
    _write_json(os.path.join(out, "expect.json"), {"routers": spec.router_count})


# -- serve-edit: the seeded edit script ---------------------------------------

_STATIC = "ip route 198.51.100.{k} 255.255.255.255 Null0"


def _stanzas(lines):
    """``[(start, end)]`` line ranges of every top-level ``interface`` stanza."""
    spans = []
    for index, line in enumerate(lines):
        if line.startswith("interface "):
            end = index + 1
            while end < len(lines) and lines[end].startswith(" "):
                end += 1
            spans.append((index, end))
    return spans


def _cosmetic(lines, rng, counter):
    start, end = rng.choice(_stanzas(lines))
    body = [line for line in lines[start + 1:end] if not line.startswith(" description ")]
    return lines[:start + 1] + [f" description bench-edit-{counter}"] + body + lines[end:]


def _topology(lines, rng, counter):
    numbered = [
        (start, end)
        for start, end in _stanzas(lines)
        if any(line.startswith(" ip address ") for line in lines[start:end])
        and not lines[start].startswith("interface Loopback")
    ]
    if not numbered:
        return None
    start, end = rng.choice(numbered)
    body = lines[start + 1:end]
    if " shutdown" in body:
        body = [line for line in body if line != " shutdown"]
    else:
        body = body + [" shutdown"]
    return lines[:start + 1] + body + lines[end:]


def _routing(lines, rng, counter):
    statics = [i for i, line in enumerate(lines) if line.startswith("ip route 198.51.100.")]
    networks = [i for i, line in enumerate(lines) if line.startswith(" network ")]
    choice = rng.random()
    if statics and choice < 0.4:
        drop = rng.choice(statics)
        return lines[:drop] + lines[drop + 1:]
    if networks and choice < 0.6:
        drop = rng.choice(networks)
        return lines[:drop] + lines[drop + 1:]
    line = _STATIC.format(k=counter % 250 + 1)
    if line in lines:
        return None
    anchor = next(
        (i for i, text in enumerate(lines) if text.startswith("router ")), len(lines)
    )
    return lines[:anchor] + [line, "!"] + lines[anchor:]


_EDIT_KINDS = (("cosmetic", _cosmetic), ("topology", _topology), ("routing", _routing))


def edit_script(configs: dict, count: int, seed: int) -> list:
    """``count`` one-file edits, each giving its file bytes never seen before.

    Kinds rotate through cosmetic (a description), topology (toggle
    ``shutdown`` on a numbered interface) and routing (add or remove a
    static route or an OSPF ``network`` line), with the file and target
    drawn from ``seed``.  New file bytes mean the parse cache misses on
    exactly that file and the corpus state is new, so no stage replays
    from a checkpoint.  A candidate that would repeat earlier bytes is
    redrawn as a cosmetic edit, whose fresh counter always ends the
    redraw.
    """
    rng = random.Random(seed)
    texts = dict(configs)
    seen = {(name, text) for name, text in texts.items()}
    names = sorted(texts)
    edits = []
    for counter in range(count):
        kind, mutate = _EDIT_KINDS[counter % len(_EDIT_KINDS)]
        while True:
            name = rng.choice(names)
            lines = texts[name].rstrip("\n").split("\n")
            changed = mutate(lines, rng, counter)
            if changed is not None:
                text = "\n".join(changed) + "\n"
                if (name, text) not in seen:
                    break
            kind, mutate = _EDIT_KINDS[0]
        seen.add((name, text))
        texts[name] = text
        edits.append({"file": name, "kind": kind, "text": text})
    return edits


def gen_serve_edit(out: str, seed: int, size: dict) -> None:
    from repro.synth.templates.backbone import build_backbone

    configs, spec = build_backbone(
        "serve", 1, size["serve_routers"], seed=seed, pop_size=6
    )
    _write_archive(os.path.join(out, "archive"), configs)
    edits = edit_script(configs, size["serve_edits"], seed)
    _write_json(os.path.join(out, "edits.json"), edits)
    _write_json(
        os.path.join(out, "expect.json"),
        {"routers": spec.router_count, "edits": len(edits)},
    )


GENERATORS = {
    "paper-corpus": gen_paper_corpus,
    "pod-compress": gen_pod_compress,
    "sweep-backbone": gen_sweep_backbone,
    "serve-edit": gen_serve_edit,
}


def pin() -> dict:
    """Digests of every workload's inputs for every variant, full and
    tiny, as ``digests.json`` holds them."""
    import shutil
    import tempfile

    table = {"full": {}, "tiny": {}}
    os.makedirs(".perfbench-work", exist_ok=True)
    workdir = tempfile.mkdtemp(dir=".perfbench-work")
    try:
        for tiny in (False, True):
            for workload in WORKLOADS:
                for seed in range(INPUT_VARIANTS):
                    out = os.path.join(workdir, f"{workload}-{seed}-{tiny}")
                    os.makedirs(out)
                    GENERATORS[workload](out, seed, SIZES[tiny])
                    digest = tree_digest(out)["digest"]
                    table["tiny" if tiny else "full"].setdefault(workload, {})[str(seed)] = digest
                    shutil.rmtree(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return table


def main(argv) -> int:
    if argv == ["pin"]:
        # Deliberate re-pinning after a generator change:
        #   python3 perfbench/gen.py pin > perfbench/digests.json
        print(json.dumps(pin(), indent=1, sort_keys=True))
        return 0
    tiny = "--tiny" in argv
    args = [arg for arg in argv if arg != "--tiny"]
    if len(args) != 3 or args[0] not in GENERATORS:
        print(
            f"usage: gen.py {{{'|'.join(WORKLOADS)}}} SEED OUTDIR [--tiny] | gen.py pin",
            file=sys.stderr,
        )
        return 2
    workload, seed, out = args[0], int(args[1]), args[2]
    if os.path.exists(out):
        print(f"gen.py: {out} already exists", file=sys.stderr)
        return 2
    os.makedirs(out)
    GENERATORS[workload](out, variant(seed), SIZES[tiny])
    print(json.dumps(dict(tree_digest(out), variant=variant(seed)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
