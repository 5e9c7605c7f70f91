"""Golden-vector corpus: the committed on-disk-format compatibility set.

Every vector is a tiny archive (16--64-element field) produced by one point
of the format matrix

    {single, blocks, pwrel} x {huffman, rle, rle+vle, huffman+lz} x
    {f4, f8} x {1D, 2D, 3D}

The single-field container carries the full workflow/dtype/dimensionality
cross product; the blocks and pwrel containers cover every axis value in a
reduced combination set (their inner payloads reuse the single-field layout,
so the cross product there would re-test the same bytes while tripling the
committed corpus size).

:data:`CORPUS` holds the format-v3 specs, the only format the library
writes.  The committed corpus also keeps the same matrix in formats v1 and
v2, written by earlier releases: those are frozen decode-only fixtures that
no code here can rebuild, and :func:`generate_corpus` carries them over
untouched.

Byte stability across machines is what makes the corpus a compatibility
oracle: archives are always stamped with CRC-32 (identical on every host),
and all field data comes from seeded ``numpy`` generators whose streams are
stable across versions.

Regenerate with ``python -m repro conformance generate`` -- but note the
policy: committed vectors only change together with an explicit archive
format version bump (see ``docs/testing.md``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..core.archive import VERSION
from ..core.compressor import compress
from ..core.config import CompressorConfig
from ..core.integrity import ALGO_CRC32, ALGO_NAMES
from ..core.streaming import compress_blocks

__all__ = [
    "CORPUS",
    "MANIFEST_NAME",
    "VectorSpec",
    "build_vector",
    "default_vector_dir",
    "generate_corpus",
    "make_field",
    "spec_config",
]

MANIFEST_NAME = "manifest.json"

#: Workflow name -> filename-safe slug.
_WORKFLOW_SLUGS = {
    "huffman": "huff",
    "rle": "rle",
    "rle+vle": "rlevle",
    "huffman+lz": "hufflz",
}

#: Per-dimensionality field shapes (16--64 elements keeps archives tiny).
_SHAPES = {1: (48,), 2: (8, 8), 3: (4, 4, 4)}

#: Small alphabet keeps the dense Huffman codebook section at 64 bytes.
_DICT_SIZE = 64


@dataclass(frozen=True)
class VectorSpec:
    """One point of the conformance matrix (fully determines the bytes)."""

    version: int  # archive format version: 3 (1 and 2: frozen fixtures)
    container: str  # "single" | "blocks" | "pwrel"
    workflow: str  # "huffman" | "rle" | "rle+vle" | "huffman+lz"
    dtype: str  # "f4" | "f8"
    ndim: int  # 1 | 2 | 3
    eb: float = 1e-3
    seed: int = 7

    @property
    def name(self) -> str:
        return (
            f"v{self.version}-{self.container}-{_WORKFLOW_SLUGS[self.workflow]}"
            f"-{self.dtype}-{self.ndim}d"
        )

    @property
    def filename(self) -> str:
        return f"{self.name}.rpsz"

    @property
    def shape(self) -> tuple[int, ...]:
        return _SHAPES[self.ndim]

    @property
    def eb_mode(self) -> str:
        return "pwrel" if self.container == "pwrel" else "rel"

    @property
    def block_bytes(self) -> int | None:
        """Uncompressed block budget chosen to split the field into 2 blocks."""
        if self.container != "blocks":
            return None
        shape = self.shape
        itemsize = np.dtype(np.float32 if self.dtype == "f4" else np.float64).itemsize
        row_bytes = itemsize * int(np.prod(shape[1:], dtype=np.int64))
        return row_bytes * ((shape[0] + 1) // 2)


def _full_cross(container: str) -> list[VectorSpec]:
    return [
        VectorSpec(version=VERSION, container=container, workflow=wf, dtype=dt,
                   ndim=nd)
        for wf in ("huffman", "rle", "rle+vle", "huffman+lz")
        for dt in ("f4", "f8")
        for nd in (1, 2, 3)
    ]


def _axis_cover(container: str) -> list[VectorSpec]:
    """Cover every workflow, dtype and ndim for ``container`` without the
    full cross product (the inner archives reuse the single-field layout)."""
    specs = [
        VectorSpec(version=VERSION, container=container, workflow=wf, dtype="f4",
                   ndim=2)
        for wf in ("huffman", "rle", "rle+vle", "huffman+lz")
    ]
    specs.append(VectorSpec(version=VERSION, container=container, workflow="huffman",
                            dtype="f8", ndim=1))
    specs.append(VectorSpec(version=VERSION, container=container, workflow="rle",
                            dtype="f8", ndim=3))
    return specs


#: The buildable (format-v3) corpus, in manifest order.
CORPUS: list[VectorSpec] = (
    _full_cross("single") + _axis_cover("blocks") + _axis_cover("pwrel")
)


def make_field(spec: VectorSpec) -> np.ndarray:
    """Deterministic synthetic field for ``spec`` (seeded numpy stream).

    A smooth ramp plus plateaus keeps both Huffman and RLE viable; a single
    exact zero pins the pwrel zero-index path; everything stays finite and
    the stream is stable across numpy versions (Generator bit-stream
    compatibility policy).
    """
    dtype = np.float32 if spec.dtype == "f4" else np.float64
    n = int(np.prod(spec.shape, dtype=np.int64))
    rng = np.random.default_rng(spec.seed + 1000 * spec.ndim)
    t = np.linspace(0.0, 3.0 * np.pi, n)
    smooth = np.sin(t) * 4.0 + 8.0
    plateaus = np.repeat(rng.integers(0, 3, (n + 7) // 8).astype(np.float64), 8)[:n]
    flat = smooth + plateaus + rng.normal(0.0, 0.01, n)
    flat[n // 2] = 0.0  # exact zero: exercises the pwrel zero-index section
    return flat.astype(dtype).reshape(spec.shape)


def spec_config(spec: VectorSpec) -> CompressorConfig:
    """The compressor configuration a spec's archive is produced with."""
    return CompressorConfig(
        eb=spec.eb,
        eb_mode=spec.eb_mode,
        workflow=spec.workflow,
        dict_size=_DICT_SIZE,
    )


def build_vector(
    spec: VectorSpec, jobs: int | None = None, backend: str | None = None
) -> bytes:
    """Produce the archive bytes for one format-v3 spec.

    ``jobs``/``backend`` route encoding through a
    :class:`~repro.engine.CompressionEngine` worker pool; the result must
    be byte-identical to the serial build -- the checker asserts exactly
    that, for every backend.  v1/v2 specs are rejected: no writer for those
    formats is left, so their committed vectors are decode-only fixtures.
    """
    if spec.version != VERSION:
        raise ValueError(
            f"{spec.name}: format v{spec.version} vectors are frozen "
            f"decode-only fixtures; only v{VERSION} vectors can be built"
        )
    field = make_field(spec)
    config = spec_config(spec)
    if spec.container == "blocks":
        return compress_blocks(
            field, config, max_block_bytes=spec.block_bytes,
            jobs=jobs, backend=backend,
        )
    if backend is not None or (jobs is not None and jobs != 1):
        from ..engine.backends import get_executor

        with get_executor(backend, jobs=jobs, config=config) as engine:
            return engine.submit(field, config).result().archive
    return compress(field, config).archive


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digest(out: np.ndarray) -> str:
    """Digest of a decoded array's exact bytes (C order, native dtype)."""
    return _sha256(np.ascontiguousarray(out).tobytes())


def default_vector_dir() -> Path:
    """The committed corpus location: ``tests/vectors`` at the repo root.

    Resolved relative to the working directory so CI's fresh-checkout run
    and local runs agree; falls back to the path relative to this file for
    invocations from outside the repository root.
    """
    cwd_dir = Path("tests") / "vectors"
    if (cwd_dir / MANIFEST_NAME).exists() or not _repo_relative_dir().exists():
        return cwd_dir
    return _repo_relative_dir()


def _repo_relative_dir() -> Path:
    return Path(__file__).resolve().parents[3] / "tests" / "vectors"


def generate_corpus(out_dir: Path | str) -> dict:
    """Write every :data:`CORPUS` vector plus ``manifest.json`` into ``out_dir``.

    Returns the manifest dict.  Existing v3 vector files are overwritten --
    the caller (CLI / tests) owns the don't-rewrite-history policy.  Frozen
    (v1/v2) entries already in ``out_dir``'s manifest are carried over, with
    their files left alone, and keep their place in the manifest order.
    """
    from ..core.compressor import decompress

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fresh = {}
    for spec in CORPUS:
        blob = build_vector(spec)
        out = decompress(blob)
        (out_dir / spec.filename).write_bytes(blob)
        fresh[spec.name] = {
            **asdict(spec),
            "name": spec.name,
            "file": spec.filename,
            "shape": list(spec.shape),
            "eb_mode": spec.eb_mode,
            "block_bytes": spec.block_bytes,
            "archive_bytes": len(blob),
            "archive_sha256": _sha256(blob),
            "output_sha256": output_digest(out),
            "output_dtype": out.dtype.name,
        }
    entries = []
    if (out_dir / MANIFEST_NAME).exists():
        for entry in load_manifest(out_dir)["vectors"]:
            if entry["version"] != VERSION:
                entries.append(entry)
            elif entry["name"] in fresh:
                entries.append(fresh.pop(entry["name"]))
    entries.extend(fresh.values())
    manifest = {
        "_format": "repro.conformance/v1",
        "_regenerate": "PYTHONPATH=src python -m repro conformance generate",
        "_policy": (
            "Committed vectors are a compatibility contract: they only "
            "change together with an explicit archive format version bump. "
            "See docs/testing.md."
        ),
        "checksum_algo": ALGO_NAMES[ALGO_CRC32],
        "n_vectors": len(entries),
        "vectors": entries,
    }
    (out_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def load_manifest(vector_dir: Path | str) -> dict:
    """Read and structurally validate a corpus manifest."""
    path = Path(vector_dir) / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    if manifest.get("_format") != "repro.conformance/v1":
        raise ValueError(f"{path}: unknown conformance manifest format")
    return manifest
