"""Shareable-corpus pipeline: anonymize, decoy-expand, certify (§4.1).

The paper could study 31 production networks only because configurations
could be shared safely: anonymized single-blind, with a few trusted
group members holding the mapping back to reality.  This package is that
workflow as a certified pipeline:

* :mod:`repro.share.pipeline` — anonymize a corpus (content *and* file
  names) with one per-run key and optionally expand each archive with
  NetCloak-style decoy routers, admissibility-checked by a salt probe;
* :mod:`repro.share.mapping` — the trusted-party file (key, renames,
  decoy inventory), kept strictly outside the shared tree, and the
  :class:`Renamer` that maps original names, ASNs and prefixes to their
  shared form;
* :mod:`repro.share.decoys` — decoy synthesis from the
  :mod:`repro.synth` templates, role-stamped via :mod:`repro.compress`;
* :mod:`repro.share.certify` — the invariance gate: full-executor
  analysis of both corpora as :mod:`repro.compress.payload` payloads,
  decoy-stripped, certified equal under the mapping (``repro share
  --certify``).
"""

from repro.share.certify import (
    ShareCertification,
    analysis_summary,
    certify_archive,
    certify_share,
)
from repro.share.decoys import DECOY_TEMPLATES, DecoySet, synthesize_decoys
from repro.share.mapping import (
    SHARE_MAPPING_SCHEMA,
    Renamer,
    ShareMapping,
    default_mapping_path,
    ensure_mapping_outside,
)
from repro.share.pipeline import (
    ShareError,
    ShareOptions,
    SharedArchive,
    ShareResult,
    check_decoy_admissible,
    share_corpus,
    shared_file_name,
)

__all__ = [
    "DECOY_TEMPLATES",
    "SHARE_MAPPING_SCHEMA",
    "DecoySet",
    "Renamer",
    "ShareCertification",
    "ShareError",
    "ShareMapping",
    "ShareOptions",
    "ShareResult",
    "SharedArchive",
    "analysis_summary",
    "certify_archive",
    "certify_share",
    "check_decoy_admissible",
    "default_mapping_path",
    "ensure_mapping_outside",
    "share_corpus",
    "shared_file_name",
    "synthesize_decoys",
]
