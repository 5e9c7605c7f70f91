"""Conformance kit tests: corpus integrity, drift detection, diff reports.

The committed ``tests/vectors`` corpus is the on-disk-format compatibility
contract; these tests assert that (a) today's code still honors it, (b) any
single mutated byte is detected with a report naming the vector and the
archive section, and (c) the generator is deterministic, so regeneration is
reviewable.  The v1/v2 vectors are frozen decode-only fixtures: no writer
for those formats is left, so they are read and digested but never rebuilt.
"""

import shutil
from pathlib import Path

import pytest

from repro.conformance import check_corpus, generate_corpus, locate_divergence
from repro.conformance.corpus import (
    CORPUS,
    MANIFEST_NAME,
    VectorSpec,
    build_vector,
    default_vector_dir,
    load_manifest,
)
from repro.core.archive import ArchiveReader
from repro.core.integrity import (
    flip_bit,
    with_mutated_section_length,
    with_swapped_table_entries,
)

VECTOR_DIR = Path(__file__).parent / "vectors"


@pytest.fixture(scope="module")
def manifest():
    return load_manifest(VECTOR_DIR)


class TestCommittedCorpus:
    def test_full_check_passes(self, manifest):
        report = check_corpus(VECTOR_DIR)
        assert report.ok, report.render()
        # 36 rebuilt v3 vectors plus 72 decode-only v1/v2 fixtures.
        assert report.n_checked == report.n_vectors == len(manifest["vectors"]) == 108
        assert len(CORPUS) == 36 and {s.version for s in CORPUS} == {3}

    def test_corpus_stays_under_size_budget(self):
        total = sum(p.stat().st_size for p in VECTOR_DIR.iterdir())
        assert total < 200_000, f"corpus grew to {total} bytes (budget 200 KB)"

    def test_matrix_axes_are_all_covered(self, manifest):
        vectors = manifest["vectors"]
        assert {v["version"] for v in vectors} == {1, 2, 3}
        assert {v["container"] for v in vectors} == {"single", "blocks", "pwrel"}
        assert {v["workflow"] for v in vectors} == {
            "huffman", "rle", "rle+vle", "huffman+lz"}
        assert {v["dtype"] for v in vectors} == {"f4", "f8"}
        assert {v["ndim"] for v in vectors} == {1, 2, 3}
        # The single-field container carries the full cross product.
        singles = [v for v in vectors if v["container"] == "single"]
        assert len(singles) == 3 * 4 * 2 * 3

    def test_committed_files_match_manifest_versions(self, manifest):
        for entry in manifest["vectors"]:
            blob = (VECTOR_DIR / entry["file"]).read_bytes()
            assert ArchiveReader(blob).version == entry["version"], entry["name"]

    def test_generation_is_deterministic(self, tmp_path, manifest):
        generate_corpus(tmp_path)
        fresh = load_manifest(tmp_path)
        committed = {e["name"]: e for e in manifest["vectors"]}
        for entry in fresh["vectors"]:
            ref = committed[entry["name"]]
            assert entry["archive_sha256"] == ref["archive_sha256"], entry["name"]
            assert entry["output_sha256"] == ref["output_sha256"], entry["name"]
            regenerated = (tmp_path / entry["file"]).read_bytes()
            assert regenerated == (VECTOR_DIR / entry["file"]).read_bytes()

    def test_generate_carries_frozen_entries_over(self, tmp_path):
        work = tmp_path / "vectors"
        shutil.copytree(VECTOR_DIR, work)
        generate_corpus(work)
        for path in VECTOR_DIR.iterdir():
            assert (work / path.name).read_bytes() == path.read_bytes(), path.name

    def test_build_vector_rejects_frozen_versions(self):
        for version in (1, 2):
            spec = VectorSpec(version=version, container="single",
                              workflow="huffman", dtype="f4", ndim=2)
            with pytest.raises(ValueError, match="decode-only"):
                build_vector(spec)


class TestDriftDetection:
    VICTIM = "v3-single-huff-f4-2d"
    FROZEN = "v2-single-huff-f4-2d"

    @pytest.fixture()
    def corpus_copy(self, tmp_path):
        work = tmp_path / "vectors"
        shutil.copytree(VECTOR_DIR, work)
        return work

    def _mutated_report(self, corpus_copy, mutate):
        victim_path = corpus_copy / f"{self.VICTIM}.rpsz"
        victim_path.write_bytes(mutate(victim_path.read_bytes()))
        return check_corpus(corpus_copy, names=[self.VICTIM])

    @pytest.mark.parametrize("region", ["header", "table", "payload", "tail"])
    def test_single_bit_flip_fails_naming_vector_and_section(
        self, corpus_copy, region
    ):
        blob = (corpus_copy / f"{self.VICTIM}.rpsz").read_bytes()
        bit = {
            "header": 8,  # inside the magic
            "table": 30 * 8,  # inside the first section-table entry
            "payload": (len(blob) // 2) * 8,
            "tail": len(blob) * 8 - 3,
        }[region]
        report = self._mutated_report(corpus_copy, lambda b: flip_bit(b, bit))
        assert not report.ok
        rendered = report.render()
        assert self.VICTIM in rendered
        assert "header/section-table" in rendered or "section '" in rendered

    def test_truncation_detected(self, corpus_copy):
        report = self._mutated_report(corpus_copy, lambda b: b[: len(b) - 9])
        assert not report.ok
        assert any(f.check == "archive-digest" for f in report.failures)
        assert "truncated" in report.render()

    def test_structural_mutators_detected(self, corpus_copy):
        for mutate in (
            lambda b: with_swapped_table_entries(b, 0, 1),
            lambda b: with_mutated_section_length(b, 0, +3),
        ):
            work = corpus_copy / "case"
            if work.exists():
                shutil.rmtree(work)
            shutil.copytree(corpus_copy, work, ignore=shutil.ignore_patterns("case"))
            victim = work / f"{self.VICTIM}.rpsz"
            victim.write_bytes(mutate(victim.read_bytes()))
            report = check_corpus(work, names=[self.VICTIM])
            assert not report.ok
            assert self.VICTIM in report.render()

    @pytest.mark.parametrize("mutate", [
        lambda b: flip_bit(b, (len(b) // 2) * 8),
        lambda b: b[: len(b) - 9],
    ], ids=["bit-flip", "truncation"])
    def test_frozen_vector_corruption_detected(self, corpus_copy, mutate):
        victim = corpus_copy / f"{self.FROZEN}.rpsz"
        victim.write_bytes(mutate(victim.read_bytes()))
        report = check_corpus(corpus_copy, names=[self.FROZEN])
        assert not report.ok
        assert any(f.check == "archive-digest" for f in report.failures)
        assert self.FROZEN in report.render()

    def test_missing_vector_file_reported(self, corpus_copy):
        (corpus_copy / f"{self.VICTIM}.rpsz").unlink()
        report = check_corpus(corpus_copy, names=[self.VICTIM])
        assert not report.ok
        assert any(f.check == "missing-file" for f in report.failures)

    def test_missing_manifest_points_at_generate(self, tmp_path):
        report = check_corpus(tmp_path / "nowhere")
        assert not report.ok
        assert "conformance generate" in report.render()


class TestDiffReport:
    def test_divergence_names_payload_section(self):
        spec = CORPUS[0]
        blob = build_vector(spec)
        reader = ArchiveReader(blob)
        name, (off, length) = next(
            (n, s) for n, s in reader.section_spans().items() if s[1] > 0
        )
        mutated = bytearray(blob)
        mutated[off] ^= 0x55
        where = locate_divergence(blob, bytes(mutated))
        assert f"section {name!r}" in where

    def test_divergence_names_header(self):
        blob = build_vector(CORPUS[0])
        mutated = b"\x00" + blob[1:]
        assert "header/section-table" in locate_divergence(blob, mutated)

    def test_truncation_and_trailing_bytes(self):
        blob = build_vector(CORPUS[0])
        assert "truncated" in locate_divergence(blob, blob[:-4])
        assert "trailing" in locate_divergence(blob, blob + b"xx")
        assert "no byte-level divergence" in locate_divergence(blob, blob)


class TestPinnedFormat:
    def test_default_vector_dir_resolves(self):
        d = default_vector_dir()
        assert (d / MANIFEST_NAME).exists()
