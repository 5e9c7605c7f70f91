"""Command-line interface: the ``cusz``-binary equivalent.

Subcommands::

    python -m repro compress   INPUT -o OUT.rpsz --dims 1800 3600 --eb 1e-3
    python -m repro decompress OUT.rpsz -o restored.f32
    python -m repro info       OUT.rpsz
    python -m repro verify     INPUT OUT.rpsz --dims 1800 3600
    python -m repro bench      run --scenario smoke [--baseline BENCH.json]
    python -m repro bench      compare OLD.json NEW.json
    python -m repro bench      trend results/ --metric ratio
    python -m repro bench      scaling-gate BENCH_scaling.json [--min-speedup 1.5]
    python -m repro profile    [--scenario smoke] [--fold out.folded]
    python -m repro diagnose   [--json]
    python -m repro conformance generate|check [--dir tests/vectors]
    python -m repro obs        report [LEDGER.jsonl]
    python -m repro obs        scaling --jobs 1,2,4 --backends thread,process
    python -m repro serve      [--port 8077] [--backend process] [-j 4]
    python -m repro replay     PROFILE.jsonl [--url http://host:port] [--out DIR]

Input fields are SDRBench-style headerless binaries (``.f32``/``.f64``);
``--dims`` is given slowest-varying first, exactly like the real tool.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import telemetry
from .analysis.metrics import evaluate_quality
from .core.archive import ArchiveReader
from .core.compressor import compress, decompress_with_stats
from .core.config import CompressorConfig
from .core.errors import ReproError
from .data.io import load_binary

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="cuSZ+-style error-bounded lossy compression for scientific data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compress", help="compress a flat binary field")
    pc.add_argument("input", type=Path, help="input .f32/.f64 field")
    pc.add_argument("-o", "--output", type=Path, required=True, help="archive path")
    pc.add_argument("--dims", type=int, nargs="+", required=True,
                    help="field dimensions, slowest-varying first")
    pc.add_argument("--eb", type=float, default=1e-4, help="error bound (default 1e-4)")
    pc.add_argument("--mode", choices=["rel", "abs", "pwrel"], default="rel",
                    help="bound interpretation: relative to value range "
                         "(default), absolute, or point-wise relative")
    pc.add_argument("--workflow", choices=["auto", "huffman", "rle", "rle+vle"],
                    default="auto")
    pc.add_argument("--predictor", choices=["lorenzo", "regression", "interp", "auto"],
                    default="lorenzo")
    pc.add_argument("--dict-size", type=int, default=1024)
    pc.add_argument("--dtype", choices=["f32", "f64"], default=None,
                    help="override dtype inference from the file suffix")
    pc.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                    help="compress blocks concurrently on N engine workers "
                         "(emits a multi-block archive; output is "
                         "byte-identical to --jobs 1)")
    pc.add_argument("--backend", choices=["serial", "thread", "process"],
                    default=None,
                    help="executor backend for --jobs (default: thread, or "
                         "$REPRO_ENGINE_BACKEND); output bytes are identical "
                         "across backends")
    pc.add_argument("--block-bytes", type=int, default=None, metavar="BYTES",
                    help="split the field into blocks of at most BYTES "
                         "uncompressed bytes (implies a multi-block archive; "
                         "default 64 MiB when --jobs is given)")
    _add_telemetry_flags(pc)
    pc.add_argument("--json", action="store_true", dest="as_json",
                    help="emit a machine-readable JSON result on stdout")

    pd = sub.add_parser("decompress", help="decompress an archive")
    pd.add_argument("archive", type=Path)
    pd.add_argument("-o", "--output", type=Path, required=True,
                    help="output flat binary path")
    pd.add_argument("-j", "--jobs", type=int, default=None,
                    help="decode with N parallel workers (across blocks, or "
                         "across the byte-aligned chunk groups of a format-v3 "
                         "archive); output is identical to the serial decode")
    pd.add_argument("--backend", choices=["serial", "thread", "process"],
                    default=None,
                    help="executor backend for --jobs (default: thread, or "
                         "$REPRO_ENGINE_BACKEND)")
    _add_telemetry_flags(pd)
    pd.add_argument("--json", action="store_true", dest="as_json",
                    help="emit a machine-readable JSON result on stdout")

    pi = sub.add_parser("info", help="describe an archive")
    pi.add_argument("archive", type=Path)
    pi.add_argument("--json", action="store_true", dest="as_json",
                    help="emit a machine-readable JSON result on stdout")

    ps = sub.add_parser("stats", help="size/entropy breakdown of an archive")
    ps.add_argument("archive", type=Path)

    pv = sub.add_parser(
        "verify",
        help="verify an archive against its original, or (--deep, archive "
             "only) validate its integrity without decompression",
    )
    pv.add_argument("input", type=Path,
                    help="original .f32/.f64 field, or the archive itself "
                         "when --deep is given without an original")
    pv.add_argument("archive", type=Path, nargs="?", default=None)
    pv.add_argument("--dims", type=int, nargs="+", default=None)
    pv.add_argument("--dtype", choices=["f32", "f64"], default=None)
    pv.add_argument("--deep", action="store_true",
                    help="walk the archive (including nested block/rank "
                         "archives) validating framing, checksums, and "
                         "metadata without decompressing")
    pv.add_argument("--json", action="store_true", dest="as_json",
                    help="emit a machine-readable JSON result on stdout")

    pb = sub.add_parser(
        "bench",
        help="structured benchmark harness: run scenarios into BENCH "
             "records and detect regressions between records",
    )
    bench_sub = pb.add_subparsers(dest="bench_command", required=True)
    pbr = bench_sub.add_parser("run", help="execute a named scenario")
    pbr.add_argument("--scenario", default="smoke",
                     help="scenario name (default: smoke)")
    pbr.add_argument("--repeats", type=int, default=None,
                     help="override the scenario's repeat count")
    pbr.add_argument("--label", default=None,
                     help="record label (default: the scenario name)")
    pbr.add_argument("--out", type=Path, default=Path("results"),
                     help="directory for BENCH_<label>.json (default: results)")
    pbr.add_argument("--baseline", type=Path, default=None,
                     help="compare the fresh record against this baseline "
                          "record and exit nonzero on regression")
    pbr.add_argument("--profile", dest="cmp_profile",
                     choices=["default", "ci"], default="default",
                     help="threshold profile for --baseline comparison")
    pbr.add_argument("--gate-stage", dest="gate_stages", action="append",
                     default=[], metavar="STAGE",
                     help="timing stage to gate unconditionally in the "
                          "--baseline comparison (repeatable); a gated stage "
                          "missing from either record is a regression")
    pbr.add_argument("--json", action="store_true", dest="as_json",
                     help="print the record (and comparison) as JSON")
    pbc = bench_sub.add_parser(
        "compare", help="compare two BENCH records; exit 1 on regression")
    pbc.add_argument("old", type=Path, help="baseline record")
    pbc.add_argument("new", type=Path, help="candidate record")
    pbc.add_argument("--profile", dest="cmp_profile",
                     choices=["default", "ci"], default="default")
    pbc.add_argument("--gate-stage", dest="gate_stages", action="append",
                     default=[], metavar="STAGE",
                     help="timing stage to gate unconditionally, even below "
                          "the profile's min-seconds floor (repeatable)")
    pbc.add_argument("--all", action="store_true", dest="show_all",
                     help="show every row, not just notable ones")
    pbc.add_argument("--json", action="store_true", dest="as_json")
    pbt = bench_sub.add_parser(
        "trend",
        help="plot a metric's trajectory across committed BENCH records")
    pbt.add_argument("records", type=Path, nargs="+",
                     help="record files and/or directories of BENCH_*.json")
    pbt.add_argument("--metric", default="ratio",
                     choices=["ratio", "psnr", "compress_ms", "decompress_ms"],
                     help="which per-case figure to plot (default: ratio)")
    pbt.add_argument("--case", default=None,
                     help="restrict to one benchmark case")
    pbt.add_argument("--json", action="store_true", dest="as_json")
    pbg = bench_sub.add_parser(
        "scaling-gate",
        help="judge a scaling-scenario record against the parallel-speedup "
             "gate (process jobs=4 vs jobs=1 on compress_total, 1.5x); "
             "skips with a notice on hosts with too few cores",
    )
    pbg.add_argument("record", type=Path, help="BENCH_scaling.json record")
    pbg.add_argument("--json", action="store_true", dest="as_json")

    pp = sub.add_parser(
        "profile",
        help="run a scenario under the profiler: self-time hotspots, "
             "folded flamegraph stacks, per-kernel counters",
    )
    pp.add_argument("--scenario", default="smoke")
    pp.add_argument("--repeats", type=int, default=1)
    pp.add_argument("--top", type=int, default=20,
                    help="hotspot rows to print (default 20)")
    pp.add_argument("--fold", type=Path, default=None, metavar="OUT.folded",
                    help="write folded stacks (flamegraph.pl input)")
    pp.add_argument("--json", action="store_true", dest="as_json")

    pdg = sub.add_parser(
        "diagnose",
        help="selector-accuracy audit: predicted ⟨b⟩ bounds and RLE gain "
             "vs the actually coded bits, per field",
    )
    pdg.add_argument("--json", action="store_true", dest="as_json")

    pcf = sub.add_parser(
        "conformance",
        help="golden-vector corpus tooling: (re)generate the committed "
             "compatibility vectors or check them for format drift",
    )
    conf_sub = pcf.add_subparsers(dest="conformance_command", required=True)
    pcg = conf_sub.add_parser(
        "generate",
        help="write every corpus vector plus manifest.json (policy: "
             "committed vectors only change with a format version bump)",
    )
    pcg.add_argument("--out", type=Path, default=None,
                     help="corpus directory (default: tests/vectors)")
    pcc = conf_sub.add_parser(
        "check",
        help="decode every committed vector; fail on any byte-level or "
             "behavioral drift",
    )
    pcc.add_argument("--dir", type=Path, default=None, dest="vector_dir",
                     help="corpus directory (default: tests/vectors)")
    pcc.add_argument("--jobs", type=int, default=2,
                     help="worker count for the parallel-identity re-encode "
                          "(default 2)")
    pcc.add_argument("--backend", choices=["serial", "thread", "process"],
                     default=None,
                     help="executor backend for the parallel-identity "
                          "re-encode (default: thread)")
    pcc.add_argument("--json", action="store_true", dest="as_json")

    po = sub.add_parser(
        "obs",
        help="continuous observability: run-ledger reports and engine "
             "scaling diagnostics",
    )
    obs_sub = po.add_subparsers(dest="obs_command", required=True)
    porp = obs_sub.add_parser(
        "report",
        help="aggregate a run ledger into per-stage/per-workflow summaries",
    )
    porp.add_argument("ledger", type=Path, nargs="?", default=None,
                      help="ledger JSONL path (default: $REPRO_LEDGER)")
    porp.add_argument("--live-only", action="store_true",
                      help="ignore rotated generations (ledger.1, ...)")
    porp.add_argument("--json", action="store_true", dest="as_json")
    posc = obs_sub.add_parser(
        "scaling",
        help="sweep engine worker counts per backend and print the speedup "
             "curves with a CPU-vs-lock-wait-vs-IPC breakdown and a backend "
             "recommendation",
    )
    posc.add_argument("--jobs", default="1,2,4,8",
                      help="comma-separated worker counts (default 1,2,4,8)")
    posc.add_argument("--backends", default="thread,process",
                      help="comma-separated executor backends to sweep "
                           "(default thread,process)")
    posc.add_argument("--fields", type=int, default=8,
                      help="fields per batch (default 8)")
    posc.add_argument("--shape", type=int, nargs="+", default=[256, 256],
                      help="per-field shape (default 256 256)")
    posc.add_argument("--eb", type=float, default=1e-3)
    posc.add_argument("--repeats", type=int, default=3,
                      help="best-of repeats per point (default 3)")
    posc.add_argument("--json", action="store_true", dest="as_json")

    psrv = sub.add_parser(
        "serve",
        help="serve compress/decompress/verify over HTTP with per-tenant "
             "quotas, priority classes, and 429 backpressure",
    )
    psrv.add_argument("--host", default="127.0.0.1")
    psrv.add_argument("--port", type=int, default=8077,
                      help="listen port (0 picks an ephemeral one)")
    psrv.add_argument("-j", "--jobs", type=int, default=None,
                      help="engine workers (default: core count)")
    psrv.add_argument("--backend", choices=["serial", "thread", "process"],
                      default=None,
                      help="executor backend (default: $REPRO_ENGINE_BACKEND "
                           "then thread)")
    psrv.add_argument("--max-inflight", type=int, default=None,
                      help="admission limit on in-flight requests "
                           "(default 2 * jobs)")
    psrv.add_argument("--batch-reserve", type=int, default=None,
                      help="slots withheld from batch-priority requests "
                           "(default max-inflight // 4)")
    psrv.add_argument("--quota", default="100", metavar="RATE[:BURST]",
                      help="default per-tenant token-bucket quota in "
                           "requests/second (default 100)")
    psrv.add_argument("--tenant-quota", action="append", default=[],
                      metavar="TENANT=RATE[:BURST]",
                      help="per-tenant quota override (repeatable)")
    psrv.add_argument("--max-body-mb", type=int, default=256,
                      help="largest accepted request body (default 256 MiB)")

    prp = sub.add_parser(
        "replay",
        help="replay a JSONL traffic profile against a live server and "
             "emit a repro.bench latency record",
    )
    prp.add_argument("profile", type=Path, help="JSONL traffic profile")
    prp.add_argument("--url", default=None,
                     help="server base URL (overrides --host/--port)")
    prp.add_argument("--host", default="127.0.0.1")
    prp.add_argument("--port", type=int, default=8077)
    prp.add_argument("--out", type=Path, default=None,
                     help="directory for the BENCH_<label>.json record")
    prp.add_argument("--label", default=None,
                     help="record label (default replay_<profile-stem>)")
    prp.add_argument("--speed", type=float, default=1.0,
                     help="time-compression factor for arrival offsets")
    prp.add_argument("--max-concurrency", type=int, default=64,
                     help="client-side cap on simultaneous requests")
    prp.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _add_telemetry_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--trace", type=Path, default=None, metavar="OUT.json",
        help="write a Chrome trace-event JSON file (open in Perfetto)")
    sub_parser.add_argument(
        "--stats", action="store_true",
        help="print per-stage wall timings after the run")


def _load_field(path: Path, dims: list[int], dtype_flag: str | None) -> np.ndarray:
    dtype = {"f32": np.float32, "f64": np.float64, None: None}[dtype_flag]
    return load_binary(path, tuple(dims), dtype=dtype)


def _telemetry_capture(args):
    """Trace collector for a command run; forces telemetry on when any
    telemetry output (``--trace``/``--stats``) was requested."""
    if args.trace or args.stats:
        return telemetry.scope(True), telemetry.trace(f"repro {args.command}")
    return nullcontext(), nullcontext()


def _emit_trace(args, tr) -> None:
    if args.trace and tr is not None:
        telemetry.write_chrome_trace(args.trace, tr)


def _note_trace(args) -> None:
    if args.trace:
        print(f"  trace -> {args.trace}")


def _print_stage_stats(stage_stats: dict[str, float]) -> None:
    timings = {k[: -len("_seconds")]: v for k, v in stage_stats.items()
               if k.endswith("_seconds")}
    if not timings:
        print("  (no stage timings recorded; is REPRO_TELEMETRY disabled?)")
        return
    total = timings.pop("total", None) or sum(timings.values()) or 1.0
    print("  stage timings:")
    for name, seconds in sorted(timings.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<18} {seconds * 1e3:9.3f} ms  ({seconds / total:6.1%})")
    print(f"    {'total':<18} {total * 1e3:9.3f} ms")


def _cmd_compress(args) -> int:
    field = _load_field(args.input, args.dims, args.dtype)
    config = CompressorConfig(
        eb=args.eb, eb_mode=args.mode, workflow=args.workflow,
        predictor=args.predictor, dict_size=args.dict_size,
        telemetry=True if (args.trace or args.stats) else None,
    )
    if (args.jobs is not None or args.block_bytes is not None
            or args.backend is not None):
        return _cmd_compress_blocks(args, field, config)
    scope_ctx, trace_ctx = _telemetry_capture(args)
    with scope_ctx, trace_ctx as tr:
        result = compress(field, config)
    args.output.write_bytes(result.archive)
    _emit_trace(args, tr)
    if args.as_json:
        print(json.dumps({
            "command": "compress",
            "input": str(args.input),
            "output": str(args.output),
            "original_bytes": result.original_bytes,
            "compressed_bytes": result.compressed_bytes,
            "compression_ratio": result.compression_ratio,
            "workflow": result.workflow,
            "predictor": result.predictor,
            "eb_abs": result.eb_abs,
            "n_outliers": result.n_outliers,
            "section_sizes": result.section_sizes,
            "stage_stats": result.stage_stats,
            "diagnostics": dataclasses.asdict(result.diagnostics)
            if result.diagnostics else None,
        }, indent=2))
        return 0
    print(f"{args.input} -> {args.output}")
    print(f"  {result.original_bytes} -> {result.compressed_bytes} bytes "
          f"({result.compression_ratio:.2f}x)")
    print(f"  workflow={result.workflow} predictor={result.predictor} "
          f"eb_abs={result.eb_abs:.4g} outliers={result.n_outliers}")
    if args.stats:
        _print_stage_stats(result.stage_stats)
    _note_trace(args)
    return 0


def _cmd_compress_blocks(args, field: np.ndarray, config: CompressorConfig) -> int:
    """``repro compress --jobs N`` / ``--block-bytes``: multi-block archive."""
    from .core.streaming import block_manifest, compress_blocks

    max_block_bytes = args.block_bytes or (64 << 20)
    scope_ctx, trace_ctx = _telemetry_capture(args)
    with scope_ctx, trace_ctx as tr:
        blob = compress_blocks(
            field, config, max_block_bytes=max_block_bytes, jobs=args.jobs,
            backend=args.backend,
        )
    args.output.write_bytes(blob)
    _emit_trace(args, tr)
    manifest = block_manifest(blob)
    ratio = field.nbytes / len(blob)
    if args.as_json:
        print(json.dumps({
            "command": "compress",
            "input": str(args.input),
            "output": str(args.output),
            "original_bytes": int(field.nbytes),
            "compressed_bytes": len(blob),
            "compression_ratio": ratio,
            "container": "blocks",
            "n_blocks": manifest.n_blocks,
            "jobs": args.jobs or 1,
            "backend": args.backend or "thread",
            "block_bytes": max_block_bytes,
        }, indent=2))
        return 0
    print(f"{args.input} -> {args.output}")
    print(f"  {field.nbytes} -> {len(blob)} bytes ({ratio:.2f}x)")
    print(f"  blocks={manifest.n_blocks} (<= {max_block_bytes} bytes each) "
          f"jobs={args.jobs or 1} backend={args.backend or 'thread'}")
    _note_trace(args)
    return 0


def _cmd_decompress(args) -> int:
    blob = args.archive.read_bytes()
    scope_ctx, trace_ctx = _telemetry_capture(args)
    with scope_ctx, trace_ctx as tr:
        result = decompress_with_stats(blob, jobs=args.jobs, backend=args.backend)
    field = result.data
    np.ascontiguousarray(field).tofile(args.output)
    _emit_trace(args, tr)
    if args.as_json:
        print(json.dumps({
            "command": "decompress",
            "archive": str(args.archive),
            "output": str(args.output),
            "shape": list(field.shape),
            "dtype": field.dtype.name,
            "workflow": result.workflow,
            "predictor": result.predictor,
            "eb_abs": result.eb_abs,
            "n_outliers": result.n_outliers,
            "section_sizes": result.section_sizes,
            "stage_stats": result.stage_stats,
        }, indent=2))
        return 0
    print(f"{args.archive} -> {args.output}  shape={field.shape} dtype={field.dtype}")
    if args.stats:
        _print_stage_stats(result.stage_stats)
    _note_trace(args)
    return 0


def _cmd_info(args) -> int:
    blob = args.archive.read_bytes()
    reader = ArchiveReader(blob)
    from .core.compressor import _unpack_meta, sniff_container  # shared parsing

    kind = sniff_container(blob)
    if kind == "blocks":
        return _info_blocks(args, blob, reader)
    if kind == "pwrel":
        # Describe the wrapped log-domain archive; the pw.* sections carry
        # signs/zeros and the point-wise bound.
        inner_reader = ArchiveReader(reader.get_bytes("pw.inner"))
        meta = _unpack_meta(inner_reader.get_bytes("meta"))
        rel_bound = float(np.frombuffer(reader.get_bytes("pw.meta")[:8], np.float64)[0])
        meta["eb_abs"] = rel_bound
        meta["workflow"] = f"pwrel({meta['workflow']})"
    else:
        meta = _unpack_meta(reader.get_bytes("meta"))
    # Format-v3 indexed payloads carry per-chunk sync points (the *.idx
    # sections), which is what makes the archive parallel-decodable.
    sync_sections = [n for n in reader.names() if n.endswith(".idx")
                     and n != "o.idx"]
    if args.as_json:
        original = int(np.prod(meta["shape"])) * np.dtype(meta["dtype"]).itemsize
        print(json.dumps({
            "command": "info",
            "archive": str(args.archive),
            "archive_bytes": len(blob),
            "format_version": reader.version,
            "indexed_payload": bool(sync_sections),
            "shape": list(meta["shape"]),
            "dtype": np.dtype(meta["dtype"]).name,
            "workflow": meta["workflow"],
            "predictor": meta["predictor"],
            "eb_abs": meta["eb_abs"],
            "dict_size": meta["dict_size"],
            "n_outliers": meta["n_outliers"],
            "compression_ratio": original / len(blob),
            "section_sizes": reader.section_sizes(),
        }, indent=2))
        return 0
    print(f"archive    : {args.archive} ({len(blob)} bytes, format v{reader.version})")
    print(f"shape      : {meta['shape']}  dtype={np.dtype(meta['dtype']).name}")
    print(f"workflow   : {meta['workflow']}  predictor={meta['predictor']}")
    print(f"error bound: {meta['eb_abs']:.4g} (absolute, user bound)")
    print(f"dict size  : {meta['dict_size']}  outliers={meta['n_outliers']}")
    if sync_sections:
        print(f"sync points: {', '.join(sync_sections)} (indexed payload, "
              "parallel-decodable)")
    original = int(np.prod(meta["shape"])) * np.dtype(meta["dtype"]).itemsize
    print(f"ratio      : {original / len(blob):.2f}x")
    print("sections   :")
    for name in reader.names():
        print(f"  {name:10} {len(reader.get_bytes(name)):>12} bytes")
    return 0


def _info_blocks(args, blob: bytes, reader: ArchiveReader) -> int:
    """``repro info`` on a multi-block container: geometry, not per-field meta."""
    from .core.streaming import block_manifest

    manifest = block_manifest(blob)
    if args.as_json:
        print(json.dumps({
            "command": "info",
            "archive": str(args.archive),
            "archive_bytes": len(blob),
            "container": "blocks",
            "shape": list(manifest.shape),
            "n_blocks": manifest.n_blocks,
            "block_extents": list(manifest.extents),
            "section_sizes": reader.section_sizes(),
        }, indent=2))
        return 0
    print(f"archive    : {args.archive} ({len(blob)} bytes, format v{reader.version})")
    print(f"container  : multi-block  shape={manifest.shape}")
    print(f"blocks     : {manifest.n_blocks}  extents={list(manifest.extents)}")
    print("sections   :")
    for name in reader.names():
        print(f"  {name:10} {len(reader.get_bytes(name)):>12} bytes")
    return 0


def _deep_verify(args, archive_path: Path, quiet: bool = False) -> int:
    """Integrity-validate one archive; print a report unless ``quiet``."""
    from .core.integrity import verify_archive

    blob = archive_path.read_bytes()
    try:
        report = verify_archive(blob, deep=True)
    except ReproError as exc:
        if args.as_json:
            print(json.dumps({
                "command": "verify",
                "deep": True,
                "archive": str(archive_path),
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }, indent=2))
        else:
            print(f"FAIL: {archive_path}: {exc}", file=sys.stderr)
        return 2
    if quiet:
        return 0
    if args.as_json:
        print(json.dumps({
            "command": "verify",
            "deep": True,
            "archive": str(archive_path),
            "ok": True,
            "format_version": report.version,
            "checksum_algo": report.checksum_algo,
            "kind": report.kind,
            "sections_checked": report.total_sections_checked,
            "nested_archives": len(report.nested),
            "section_bytes": report.section_bytes,
        }, indent=2))
        return 0
    print(f"{archive_path} ({len(blob)} bytes): integrity OK")
    print("  " + report.summary().replace("\n", "\n  "))
    return 0


def _cmd_stats(args) -> int:
    from .core.inspect import inspect_archive

    print(inspect_archive(args.archive.read_bytes()).report())
    return 0


def _cmd_verify(args) -> int:
    if args.archive is None:
        # Archive-only invocation: integrity validation, no original field.
        if not args.deep:
            print("error: verify needs an original field and an archive, or "
                  "--deep with just an archive", file=sys.stderr)
            return 2
        return _deep_verify(args, args.input)
    if args.dims is None:
        print("error: --dims is required when verifying against an original",
              file=sys.stderr)
        return 2
    if args.deep:
        rc = _deep_verify(args, args.archive, quiet=args.as_json)
        if rc != 0:
            return rc
    field = _load_field(args.input, args.dims, args.dtype)
    result = decompress_with_stats(args.archive.read_bytes())
    restored = result.data
    if restored.shape != field.shape:
        if args.as_json:
            print(json.dumps({
                "command": "verify",
                "ok": False,
                "error": f"archive shape {list(restored.shape)} != field shape {list(field.shape)}",
            }, indent=2))
        else:
            print(f"FAIL: archive shape {restored.shape} != field shape {field.shape}")
        return 1
    quality = evaluate_quality(field, restored, result.eb_abs)
    if args.as_json:
        print(json.dumps({
            "command": "verify",
            "ok": bool(quality.bound_satisfied),
            "max_error": quality.max_error,
            "eb_abs": quality.eb_abs,
            "bound_satisfied": bool(quality.bound_satisfied),
            "psnr_db": quality.psnr_db,
            "nrmse": quality.nrmse,
            "workflow": result.workflow,
            "stage_stats": result.stage_stats,
            "deep_ok": True if args.deep else None,
        }, indent=2))
        return 0 if quality.bound_satisfied else 1
    print(f"max |error| : {quality.max_error:.4g}")
    print(f"bound       : {quality.eb_abs:.4g}  satisfied={quality.bound_satisfied}")
    print(f"PSNR        : {quality.psnr_db:.2f} dB   NRMSE={quality.nrmse:.3g}")
    return 0 if quality.bound_satisfied else 1


def _cmd_bench(args) -> int:
    from .bench.record import load_record, write_record
    from .bench.regression import compare_records

    if args.bench_command == "trend":
        from .bench.trend import collect_records, render_trend, trend_report

        records, notes = collect_records(args.records)
        if not records:
            for note in notes:
                print(note, file=sys.stderr)
            print("error: no readable BENCH records found", file=sys.stderr)
            return 2
        report = trend_report(records, args.metric, case=args.case)
        if args.as_json:
            print(json.dumps({"command": "bench trend", **report,
                              "skipped": notes}, indent=2))
        else:
            print(render_trend(report, notes))
        return 0

    if args.bench_command == "compare":
        report = compare_records(
            load_record(args.old), load_record(args.new), args.cmp_profile,
            gate_stages=args.gate_stages,
        )
        if args.as_json:
            print(json.dumps(report.to_json(), indent=2))
        else:
            print(report.render(all_rows=args.show_all))
        return report.exit_code

    if args.bench_command == "scaling-gate":
        return _cmd_bench_scaling_gate(args)

    from .bench.runner import run_scenario

    record = run_scenario(args.scenario, repeats=args.repeats, label=args.label)
    path = write_record(record, args.out)
    if args.as_json:
        print(json.dumps(record, indent=2))
    else:
        print(f"wrote {path}")
        for result in record["results"]:
            t = result["timing"].get("compress_total", {})
            print(
                f"  {result['case']:<24} ratio {result['quality']['compression_ratio']:8.2f}x"
                f"  psnr {result['quality']['psnr_db']:6.1f} dB"
                f"  compress {t.get('min', 0.0) * 1e3:8.1f} ms (best of {t.get('n', 0)})"
            )
    if args.baseline is None:
        return 0
    report = compare_records(load_record(args.baseline), record, args.cmp_profile,
                             gate_stages=args.gate_stages)
    if args.as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return report.exit_code


def _cmd_bench_scaling_gate(args) -> int:
    """``repro bench scaling-gate``: pass/fail/skip on the speedup gate."""
    from .bench.record import load_record
    from .bench.scaling import check_scaling_gate

    record = load_record(args.record)
    status, message = check_scaling_gate(record)
    if args.as_json:
        print(json.dumps({
            "command": "bench scaling-gate",
            "record": str(args.record),
            "status": status,
            "message": message,
        }, indent=2))
    else:
        print(f"scaling gate: {status.upper()} -- {message}")
    return 1 if status == "fail" else 0


def _cmd_profile(args) -> int:
    from .bench.profiler import profile_scenario

    view, kernels = profile_scenario(args.scenario, repeats=args.repeats)
    if args.as_json:
        print(json.dumps({
            "command": "profile",
            "scenario": args.scenario,
            "total_seconds": view.total_seconds,
            "hotspots": [
                {"span": h.name, "calls": h.count, "self_seconds": h.self_seconds,
                 "total_seconds": h.total_seconds, "gbps": h.gbps}
                for h in view.hotspots
            ],
            "folded": view.folded_lines(),
        }, indent=2))
    else:
        print(view.render(top=args.top))
        print()
        print(kernels)
    if args.fold is not None:
        args.fold.write_text("\n".join(view.folded_lines()) + "\n")
        if not args.as_json:
            print(f"\nfolded stacks -> {args.fold}")
    return 0


def _cmd_conformance(args) -> int:
    from .conformance import check_corpus, generate_corpus
    from .conformance.corpus import default_vector_dir
    from .core.archive import VERSION

    if args.conformance_command == "generate":
        out_dir = args.out or default_vector_dir()
        manifest = generate_corpus(out_dir)
        built = [e for e in manifest["vectors"] if e["version"] == VERSION]
        total = sum(e["archive_bytes"] for e in built)
        print(f"wrote {len(built)} vectors ({total} archive bytes) + "
              f"{out_dir}/manifest.json ({manifest['n_vectors']} entries)")
        return 0

    report = check_corpus(args.vector_dir, jobs=args.jobs, backend=args.backend)
    if args.as_json:
        print(json.dumps({"command": "conformance", **report.to_json()}, indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_obs(args) -> int:
    if args.obs_command == "report":
        return _cmd_obs_report(args)
    return _cmd_obs_scaling(args)


def _cmd_obs_report(args) -> int:
    import os

    from .telemetry.ledger import aggregate_ledger, read_ledger, render_ledger_report

    path = args.ledger or os.environ.get("REPRO_LEDGER")
    if not path:
        print("error: no ledger given and REPRO_LEDGER is not set",
              file=sys.stderr)
        return 2
    path = Path(path)
    if not path.exists():
        print(f"error: ledger {path} does not exist", file=sys.stderr)
        return 2
    records = read_ledger(path, include_rotated=not args.live_only)
    report = aggregate_ledger(records)
    if args.as_json:
        print(json.dumps({"command": "obs report", "ledger": str(path),
                          **report}, indent=2))
    else:
        print(render_ledger_report(report))
    return 0


def _cmd_obs_scaling(args) -> int:
    from .engine.backends import BACKEND_NAMES
    from .engine.diagnostics import compare_backends, recommend_backend

    try:
        jobs_list = tuple(int(j) for j in str(args.jobs).split(",") if j.strip())
    except ValueError:
        print(f"error: --jobs must be comma-separated integers, got "
              f"{args.jobs!r}", file=sys.stderr)
        return 2
    if not jobs_list or any(j < 1 for j in jobs_list):
        print("error: --jobs needs positive worker counts", file=sys.stderr)
        return 2
    backends = tuple(b.strip() for b in str(args.backends).split(",") if b.strip())
    bad = [b for b in backends if b not in BACKEND_NAMES]
    if not backends or bad:
        print(f"error: --backends must name backends from "
              f"{list(BACKEND_NAMES)}, got {args.backends!r}", file=sys.stderr)
        return 2
    reports = compare_backends(
        jobs_list=jobs_list, backends=backends, n_fields=args.fields,
        shape=tuple(args.shape), eb=args.eb, repeats=args.repeats,
    )
    recommendation = recommend_backend(reports)
    if args.as_json:
        print(json.dumps({
            "command": "obs scaling",
            "backends": {name: rep.to_json() for name, rep in reports.items()},
            "recommendation": recommendation,
        }, indent=2))
        return 0
    for rep in reports.values():
        print(rep.render())
        print()
    print(f"recommended backend: {recommendation}")
    return 0


def _cmd_diagnose(args) -> int:
    from .bench.diagnose import diagnose_report, render_report

    report = diagnose_report()
    if args.as_json:
        print(json.dumps({"command": "diagnose", **report}, indent=2))
    else:
        print(render_report(report))
    return 0


def _cmd_serve(args) -> int:
    from .core.errors import ConfigError
    from .server import ServerConfig, parse_quota, serve_forever

    rate, burst = parse_quota(args.quota)
    tenant_quotas = {}
    for spec in args.tenant_quota:
        name, sep, quota = spec.partition("=")
        if not sep or not name:
            raise ConfigError(
                f"--tenant-quota must be TENANT=RATE[:BURST], got {spec!r}"
            )
        tenant_quotas[name] = parse_quota(quota)
    serve_forever(ServerConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        backend=args.backend,
        max_inflight=args.max_inflight,
        batch_reserve=args.batch_reserve,
        quota_rate=rate,
        quota_burst=burst,
        tenant_quotas=tenant_quotas,
        max_body=args.max_body_mb << 20,
    ))
    return 0


def _cmd_replay(args) -> int:
    from urllib.parse import urlsplit

    from .core.errors import ConfigError
    from .server.replay import replay_profile

    host, port = args.host, args.port
    if args.url:
        split = urlsplit(args.url)
        if not split.hostname or not split.port:
            raise ConfigError(
                f"--url must look like http://host:port, got {args.url!r}"
            )
        host, port = split.hostname, split.port
    summary = replay_profile(
        args.profile,
        host=host,
        port=port,
        out_dir=args.out,
        label=args.label,
        speed=args.speed,
        max_concurrency=args.max_concurrency,
    )
    failed = bool(summary["errors"]) or summary["digest_mismatches"] > 0
    if args.as_json:
        print(json.dumps(summary, indent=2))
        return 1 if failed else 0
    lat = summary["latency_seconds"]
    print(f"replayed {summary['n_requests']} requests "
          f"({summary['n_tenants']} tenant(s)) against {summary['url']} "
          f"in {summary['wall_seconds']:.2f}s "
          f"({summary['requests_per_second']:.1f} req/s)")
    print(f"  statuses: {summary['statuses']}")
    print(f"  latency p50/p95/p99: {lat['p50'] * 1e3:.1f} / "
          f"{lat['p95'] * 1e3:.1f} / {lat['p99'] * 1e3:.1f} ms")
    if summary["record_path"]:
        print(f"  bench record -> {summary['record_path']}")
    if failed:
        print(f"  FAILED: {len(summary['errors'])} error(s), "
              f"{summary['digest_mismatches']} digest mismatch(es)")
        for err in summary["errors"][:10]:
            print(f"    #{err['index']} {err['op']} [{err['tenant']}] "
                  f"status={err['status']}: {err['detail']}")
        return 1
    print("  all round-trips byte-identical to the library pipeline")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "compress": _cmd_compress,
        "decompress": _cmd_decompress,
        "info": _cmd_info,
        "stats": _cmd_stats,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
        "profile": _cmd_profile,
        "diagnose": _cmd_diagnose,
        "conformance": _cmd_conformance,
        "obs": _cmd_obs,
        "serve": _cmd_serve,
        "replay": _cmd_replay,
    }[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        from .bench.record import RecordSchemaError

        print(f"error: {exc}", file=sys.stderr)
        # A record written by a newer tool is a distinct failure mode from
        # a malformed one: exit 3 so CI can tell "upgrade me" from "broken".
        if isinstance(exc, RecordSchemaError) and exc.newer:
            return 3
        # Record-schema/scenario-name problems from the bench harness.
        return 2
    except KeyError as exc:
        if args.command in ("bench", "profile", "diagnose"):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raise
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
