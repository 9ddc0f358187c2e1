"""The certification contract: plan-then-expand equals direct.

Compression is only trustworthy if it is *provably* lossless on the
designs we care about.  :func:`certify_compression` runs both pipelines
on the same network, normalizes both payloads (stripping the provenance
fields only the compressed side carries), and demands byte-identical
canonical JSON.  A digest match is necessary; on mismatch the result
carries the first structural divergence path so failures are debuggable
rather than a bare hash inequality.

``KNOWN_GAPS`` is the escape hatch for templates where equivalence is
not yet proven: a mapping of network name -> reason.  It ships empty —
every existing template certifies — and the test suite asserts it stays
empty so a regression cannot hide behind it silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.compress.analysis import analyze_compressed, analyze_direct
from repro.compress.payload import normalize_analysis_payload, payload_digest
from repro.compress.plan import CompressionPlan, build_compression_plan
from repro.model.network import Network

#: Network name -> reason the compressed pipeline is allowed to diverge.
#: Empty by design; adding an entry requires a documented justification.
KNOWN_GAPS: Dict[str, str] = {}


@dataclass
class CertificationResult:
    """Outcome of one compressed-vs-direct certification run."""

    network: str
    identical: bool
    direct_digest: str
    compressed_digest: str
    n_routers: int
    n_classes: int
    ratio: float
    #: Dotted path of the first differing field, or None when identical.
    divergence: Optional[str] = None
    #: Reason from KNOWN_GAPS when the divergence is waived, else None.
    waived: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.identical or self.waived is not None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "network": self.network,
            "identical": self.identical,
            "direct_digest": self.direct_digest,
            "compressed_digest": self.compressed_digest,
            "routers": self.n_routers,
            "classes": self.n_classes,
            "ratio": round(self.ratio, 3),
            "divergence": self.divergence,
            "waived": self.waived,
        }


def _first_divergence(direct: Any, compressed: Any, path: str = "") -> Optional[str]:
    """Dotted path of the first structural difference, depth-first."""
    if type(direct) is not type(compressed):
        return path or "<root>"
    if isinstance(direct, dict):
        for key in sorted(set(direct) | set(compressed), key=str):
            here = f"{path}.{key}" if path else str(key)
            if key not in direct or key not in compressed:
                return here
            found = _first_divergence(direct[key], compressed[key], here)
            if found is not None:
                return found
        return None
    if isinstance(direct, list):
        if len(direct) != len(compressed):
            return f"{path}[len {len(direct)}!={len(compressed)}]"
        for i, (a, b) in enumerate(zip(direct, compressed)):
            found = _first_divergence(a, b, f"{path}[{i}]")
            if found is not None:
                return found
        return None
    if direct != compressed:
        return path or "<root>"
    return None


def certify_compression(
    network: Network,
    max_depth: Optional[int] = None,
    plan: Optional[CompressionPlan] = None,
) -> CertificationResult:
    """Prove (or refute) that compression is lossless on *network*."""
    if plan is None:
        plan = build_compression_plan(network)
    direct = normalize_analysis_payload(
        analyze_direct(network, max_depth=max_depth)
    )
    compressed = normalize_analysis_payload(
        analyze_compressed(network, max_depth=max_depth, plan=plan)
    )
    direct_digest = payload_digest(direct)
    compressed_digest = payload_digest(compressed)
    identical = direct_digest == compressed_digest
    divergence = None if identical else _first_divergence(direct, compressed)
    waived = None if identical else KNOWN_GAPS.get(network.name)
    return CertificationResult(
        network=network.name,
        identical=identical,
        direct_digest=direct_digest,
        compressed_digest=compressed_digest,
        n_routers=plan.n_routers,
        n_classes=plan.n_classes,
        ratio=plan.ratio,
        divergence=divergence,
        waived=waived,
    )


__all__ = ["KNOWN_GAPS", "CertificationResult", "certify_compression"]
