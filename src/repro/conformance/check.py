"""Compatibility checker: decode every committed golden vector, byte-exactly.

For each manifest entry the checker verifies, in order:

1. **encode stability** -- rebuilding the vector from its spec with today's
   code reproduces the committed archive bytes (a drifted encoder would
   silently re-golden every test that regenerates its own archives; here it
   fails loudly);
2. **archive digest** -- the committed file still hashes to the manifest's
   SHA-256 (bit-rot / accidental edits), with a diff that names the archive
   *section* containing the first divergent byte;
3. **decode** -- today's decoder reads the committed bytes without error;
4. **output digest** -- the decoded array is byte-identical to the output
   recorded when the vector was written;
5. **error bound** -- the decoded array satisfies the vector's bound
   against the regenerated original field (absolute for rel-mode vectors,
   point-wise relative for pwrel vectors, zeros exact);
6. **parallel identity** -- re-encoding through a ``jobs=2`` engine yields
   the same bytes as the serial build.

Checks 1 and 6 need a writer, so they run on the format-v3 vectors only;
the v1/v2 entries are frozen decode-only fixtures and get checks 2 to 5.

A failure never aborts the run: the report collects every violation so one
drifted format change shows its whole blast radius at once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.archive import VERSION, ArchiveReader
from ..core.errors import ReproError
from .corpus import (
    MANIFEST_NAME,
    VectorSpec,
    build_vector,
    load_manifest,
    make_field,
    output_digest,
)

__all__ = ["VectorFailure", "ConformanceReport", "check_corpus", "locate_divergence"]


@dataclass(frozen=True)
class VectorFailure:
    """One violated conformance property."""

    vector: str
    check: str  # encode-drift | archive-digest | decode | output-digest | error-bound | parallel-identity | missing-file
    detail: str

    def render(self) -> str:
        return f"FAIL {self.vector} [{self.check}]: {self.detail}"


@dataclass
class ConformanceReport:
    """Everything one :func:`check_corpus` run established."""

    vector_dir: str
    n_vectors: int = 0
    n_checked: int = 0
    failures: list[VectorFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and self.n_checked == self.n_vectors

    def render(self) -> str:
        lines = [
            f"conformance corpus: {self.vector_dir} "
            f"({self.n_checked}/{self.n_vectors} vectors checked)"
        ]
        for f in self.failures:
            lines.append("  " + f.render())
        lines.append(
            "OK: every vector decodes byte-identically" if self.ok
            else f"DRIFT DETECTED: {len(self.failures)} failure(s)"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "vector_dir": self.vector_dir,
            "n_vectors": self.n_vectors,
            "n_checked": self.n_checked,
            "ok": self.ok,
            "failures": [
                {"vector": f.vector, "check": f.check, "detail": f.detail}
                for f in self.failures
            ],
        }


def locate_divergence(reference: bytes, actual: bytes) -> str:
    """Name the archive section containing the first byte where ``actual``
    diverges from the well-formed ``reference`` blob.

    The reference parses cleanly (it was just rebuilt), so its section table
    maps any byte offset to a region: the header/section-table prefix, one
    of the payload sections, or past-the-end truncation.  ``actual`` may be
    arbitrarily corrupt -- it is never parsed.
    """
    limit = min(len(reference), len(actual))
    offset = next(
        (i for i in range(limit) if reference[i] != actual[i]), None
    )
    if offset is None:
        if len(reference) == len(actual):
            return "no byte-level divergence"
        if len(actual) < len(reference):
            offset = len(actual)
            region = _region_for_offset(reference, offset)
            return (
                f"truncated at byte {offset}/{len(reference)} (inside {region})"
            )
        return f"{len(actual) - len(reference)} trailing bytes past the archive end"
    return f"first divergent byte at offset {offset} (inside {_region_for_offset(reference, offset)})"


def _region_for_offset(reference: bytes, offset: int) -> str:
    try:
        reader = ArchiveReader(reference)
        spans = reader.section_spans()
    except ReproError:  # pragma: no cover - reference is always well-formed
        return "unparseable archive"
    payload_start = min((off for off, _ in spans.values()), default=len(reference))
    if offset < payload_start:
        return "header/section-table"
    for name, (off, length) in spans.items():
        if off <= offset < off + length:
            return f"section {name!r}"
    return "inter-section padding"  # pragma: no cover - sections are contiguous


def _spec_from_entry(entry: dict) -> VectorSpec:
    return VectorSpec(
        version=int(entry["version"]),
        container=entry["container"],
        workflow=entry["workflow"],
        dtype=entry["dtype"],
        ndim=int(entry["ndim"]),
        eb=float(entry["eb"]),
        seed=int(entry["seed"]),
    )


def _check_bound(field_data: np.ndarray, out: np.ndarray, spec: VectorSpec,
                 eb_abs: float) -> str | None:
    """Error-bound violation description, or None when satisfied."""
    a = field_data.astype(np.float64).reshape(-1)
    b = out.astype(np.float64).reshape(-1)
    if spec.eb_mode == "pwrel":
        nonzero = a != 0.0
        if not np.array_equal(b[~nonzero], a[~nonzero]):
            return "pwrel zeros were not restored exactly"
        rel = np.abs(b[nonzero] - a[nonzero]) / np.abs(a[nonzero])
        worst = float(rel.max()) if rel.size else 0.0
        if worst > spec.eb * (1 + 1e-9):
            return f"point-wise relative error {worst:.3e} exceeds bound {spec.eb:.3e}"
        return None
    worst = float(np.abs(a - b).max())
    if worst > eb_abs * (1 + 1e-12):
        return f"max |error| {worst:.3e} exceeds bound {eb_abs:.3e}"
    return None


def check_corpus(
    vector_dir: Path | str | None = None,
    names: list[str] | None = None,
    jobs: int = 2,
    backend: str | None = None,
) -> ConformanceReport:
    """Run every conformance check over the committed corpus.

    ``names`` restricts the run to specific vectors (test speed-up);
    ``jobs``/``backend`` configure the parallel-identity re-encode engine
    (``--backend process`` asserts the process pool's zero-copy path emits
    the committed bytes too).
    """
    from ..core.compressor import decompress
    from .corpus import default_vector_dir

    vector_dir = Path(vector_dir) if vector_dir is not None else default_vector_dir()
    report = ConformanceReport(vector_dir=str(vector_dir))
    if not (vector_dir / MANIFEST_NAME).exists():
        report.n_vectors = 1
        report.failures.append(VectorFailure(
            vector=MANIFEST_NAME, check="missing-file",
            detail=f"no manifest at {vector_dir / MANIFEST_NAME}; run "
                   "`repro conformance generate` once and commit the corpus",
        ))
        return report
    manifest = load_manifest(vector_dir)
    entries = manifest["vectors"]
    if names is not None:
        entries = [e for e in entries if e["name"] in set(names)]
    report.n_vectors = len(entries)

    for entry in entries:
        name = entry["name"]
        spec = _spec_from_entry(entry)
        fail = lambda check, detail: report.failures.append(  # noqa: E731
            VectorFailure(vector=name, check=check, detail=detail)
        )

        path = vector_dir / entry["file"]
        if not path.exists():
            fail("missing-file", f"{path} is listed in the manifest but absent")
            continue
        committed = path.read_bytes()
        rebuilt = build_vector(spec) if spec.version == VERSION else None

        if rebuilt is not None and (
            hashlib.sha256(rebuilt).hexdigest() != entry["archive_sha256"]
        ):
            fail("encode-drift",
                 "today's encoder no longer reproduces the committed bytes: "
                 + locate_divergence(rebuilt, committed))
        if hashlib.sha256(committed).hexdigest() != entry["archive_sha256"]:
            where = (
                locate_divergence(rebuilt, committed) if rebuilt is not None
                else f"frozen fixture of {len(committed)} bytes, the manifest "
                     f"records {entry['archive_bytes']}"
            )
            fail("archive-digest",
                 "committed file does not match its manifest digest: " + where)

        try:
            out = decompress(committed)
        except ReproError as exc:
            fail("decode", f"{type(exc).__name__}: {exc}")
        else:
            if output_digest(out) != entry["output_sha256"]:
                fail("output-digest",
                     "decoded output bytes differ from the recorded digest "
                     f"(shape={out.shape}, dtype={out.dtype})")
            field_data = make_field(spec)
            eb_abs = _eb_abs_for(spec, field_data)
            bound_problem = _check_bound(field_data, out, spec, eb_abs)
            if bound_problem:
                fail("error-bound", bound_problem)

        if rebuilt is not None:
            parallel = build_vector(spec, jobs=jobs, backend=backend)
            if parallel != rebuilt:
                fail("parallel-identity",
                     f"jobs={jobs} backend={backend or 'thread'} re-encode "
                     "diverges from the serial build: "
                     + locate_divergence(rebuilt, parallel))

        report.n_checked += 1
    return report


def _eb_abs_for(spec: VectorSpec, field_data: np.ndarray) -> float:
    """Absolute bound a rel-mode vector promises (pwrel checks relatively)."""
    if spec.eb_mode == "pwrel":
        return float("nan")
    value_range = float(np.max(field_data) - np.min(field_data))
    from .corpus import spec_config

    return spec_config(spec).absolute_bound(value_range)
