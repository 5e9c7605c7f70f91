"""Conformance kit: golden vectors, compatibility checking, invariants.

Three tools that together pin the *on-disk* archive format against drift:

* :mod:`repro.conformance.corpus` -- generates the committed golden-vector
  corpus under ``tests/vectors/``: tiny archives spanning container kinds,
  workflows, dtypes and dimensionalities, plus a ``manifest.json``
  recording SHA-256 digests of each archive and of its decoded output.
  Format v3 vectors are rebuilt; the v1/v2 ones are frozen decode-only
  fixtures.
* :mod:`repro.conformance.check` -- decodes every committed vector and
  verifies byte-exact archive and output digests, error-bound satisfaction,
  and serial-vs-parallel encoder identity, with a diff report that names
  the offending vector and archive section on mismatch.
* :mod:`repro.conformance.metamorphic` -- pure metamorphic invariants
  (re-compression idempotence, error-bound monotonicity, axis/order
  consistency, rel-mode scale covariance, serial-vs-parallel byte
  identity) that the tier-1 suite parametrizes across the whole
  workflow/container matrix.

The CLI front ends are ``repro conformance generate`` and
``repro conformance check``; CI runs ``check`` from a fresh checkout so any
encode/decode co-change that would break previously written archives fails
the build.  Committed vectors only change together with an explicit format
version bump (see ``docs/testing.md``).
"""

from .check import ConformanceReport, VectorFailure, check_corpus, locate_divergence
from .corpus import (
    CORPUS,
    VectorSpec,
    build_vector,
    default_vector_dir,
    generate_corpus,
    make_field,
)
from .metamorphic import (
    check_decode_serial_parallel_identity,
    check_decoder_agreement,
    check_eb_monotonicity,
    check_order_invariance,
    check_recompression_idempotence,
    check_rel_scale_covariance,
    check_serial_parallel_identity,
    check_transpose_consistency,
)

__all__ = [
    "CORPUS",
    "VectorSpec",
    "build_vector",
    "default_vector_dir",
    "generate_corpus",
    "make_field",
    "ConformanceReport",
    "VectorFailure",
    "check_corpus",
    "locate_divergence",
    "check_recompression_idempotence",
    "check_eb_monotonicity",
    "check_transpose_consistency",
    "check_order_invariance",
    "check_rel_scale_covariance",
    "check_serial_parallel_identity",
    "check_decoder_agreement",
    "check_decode_serial_parallel_identity",
]
