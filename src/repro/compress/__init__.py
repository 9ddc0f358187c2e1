"""Role-based topology compression (Control Plane Compression, applied).

The paper analyzes ~500-router networks whose operators think in terms
of a handful of router *roles*; *Control Plane Compression* (SIGCOMM
2018) shows such role symmetries can be found mechanically.  This
package groups equivalent routers into classes and certifies that one
pathway per class, expanded to every member, equals the direct
analysis:

* :mod:`repro.compress.signature` — the equivalence signature (role,
  process set, policy digest, degree profile) plus Weisfeiler-Lehman
  color refinement over the link topology;
* :mod:`repro.compress.plan` — :func:`build_compression_plan`, grouping
  routers into :class:`EquivalenceClass`\\ es;
* :mod:`repro.compress.payload` — the one analysis payload both
  certification gates compare (this one and ``repro share --certify``),
  its :func:`canonicalize` and :func:`certify`;
* :mod:`repro.compress.analysis` — the compressed pipeline, with
  ``expanded_from`` provenance on every expanded pathway, and
  :func:`certify_compression`: plan-then-expand must equal direct
  analysis in every canonical section.

``--compress`` buys no speed: the direct pathway stage already
runs one search per attachment signature
(:func:`repro.core.pathways.route_pathways`), so the flag only adds the
plan to the run.  Deleting the flag and ``ExecutorConfig.runners`` waits
for a change to the benchmark, whose pod-compress workload passes
``--compress`` and requires the plan's span.
"""

from repro.compress.analysis import (
    analyze_compressed,
    certify_compression,
    compressed_stage_runners,
)
from repro.compress.payload import (
    Certificate,
    analysis_payload,
    canonicalize,
    certify,
    payload_digest,
)
from repro.compress.plan import CompressionPlan, EquivalenceClass, build_compression_plan
from repro.compress.signature import local_signature, signature_colors

__all__ = [
    "Certificate",
    "CompressionPlan",
    "EquivalenceClass",
    "analysis_payload",
    "analyze_compressed",
    "build_compression_plan",
    "canonicalize",
    "certify",
    "certify_compression",
    "compressed_stage_runners",
    "local_signature",
    "payload_digest",
    "signature_colors",
]
