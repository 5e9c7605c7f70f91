"""Pipeline profiler: fold span trees into hotspots and flamegraph stacks.

Two views over the same telemetry trace:

* **hotspots** -- per span name: call count, inclusive wall time, *self*
  time (wall minus the union of the children's intervals -- where the time
  actually goes), bytes moved and the derived GB/s, sorted by self time;
* **folded stacks** -- ``root;child;leaf <self-microseconds>`` lines, the
  input format of flamegraph.pl / speedscope / Perfetto's "import folded".

Plus a per-kernel table derived from the ``repro_kernel_*`` counters and
the simulated-seconds histogram: elements processed, DRAM bytes moved, and
the cost-model GB/s each kernel achieved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import telemetry as tel
from ..core.compressor import compress, decompress_with_stats
from ..core.config import CompressorConfig
from .harness import format_table
from .scenarios import get_scenario

__all__ = [
    "HotSpot",
    "ProfileView",
    "fold_trace",
    "kernel_table",
    "profile_scenario",
]


@dataclass
class HotSpot:
    """Aggregated statistics for one span name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0
    bytes_moved: int = 0

    @property
    def gbps(self) -> float:
        return (
            self.bytes_moved / self.total_seconds / 1e9
            if self.total_seconds > 0 and self.bytes_moved
            else 0.0
        )


@dataclass
class ProfileView:
    """Hotspot list + folded stacks for one captured trace."""

    hotspots: list[HotSpot] = field(default_factory=list)
    folded: dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0

    def render(self, top: int = 20) -> str:
        rows = []
        for h in self.hotspots[:top]:
            share = h.self_seconds / self.total_seconds if self.total_seconds else 0.0
            rows.append([
                h.name, h.count,
                h.self_seconds * 1e3, h.total_seconds * 1e3,
                share * 100.0, h.gbps if h.gbps else None,
            ])
        return format_table(
            ["span", "calls", "self ms", "total ms", "self %", "GB/s"],
            rows,
            title=f"hotspots by self time (total {self.total_seconds * 1e3:.1f} ms)",
        )

    def folded_lines(self) -> list[str]:
        """``path self_us`` lines, flamegraph.pl-compatible."""
        return [
            f"{path} {int(round(us))}"
            for path, us in sorted(self.folded.items())
            if us >= 1.0
        ]


def fold_trace(trace) -> ProfileView:
    """Aggregate a :class:`~repro.telemetry.context.Trace` (or span list).

    A projection of :func:`repro.telemetry.fold_spans`: a name's total is
    the sum of its paths' walls, its self time the sum of their self times.
    """
    folded = tel.fold_spans(trace)
    spots: dict[str, HotSpot] = {}
    total = 0.0
    for path, stats in folded.items():
        spot = spots.setdefault(path[-1], HotSpot(path[-1]))
        spot.count += stats.count
        spot.total_seconds += stats.wall
        spot.self_seconds += stats.self
        spot.bytes_moved += stats.bytes
        if len(path) == 1:
            total += stats.wall
    return ProfileView(
        hotspots=sorted(spots.values(), key=lambda h: -h.self_seconds),
        folded={";".join(path): stats.self * 1e6 for path, stats in folded.items()},
        total_seconds=total,
    )


def kernel_table() -> str:
    """Per-kernel counter table: elements, bytes moved, cost-model GB/s."""
    elements = tel.REGISTRY.get("repro_kernel_elements_total")
    kbytes = tel.REGISTRY.get("repro_kernel_bytes_total")
    sim = tel.REGISTRY.get("repro_kernel_simulated_seconds")
    if elements is None or not elements.to_json()["values"]:
        return "(no kernel counters recorded; run a gpu workload first)"
    per_kernel: dict[str, dict] = {}
    for entry in elements.to_json()["values"]:
        name = entry["labels"].get("kernel", "?")
        per_kernel.setdefault(name, {})["elements"] = entry["value"]
    if kbytes is not None:
        for entry in kbytes.to_json()["values"]:
            name = entry["labels"].get("kernel", "?")
            key = "bytes_" + entry["labels"].get("direction", "read")
            per_kernel.setdefault(name, {})[key] = entry["value"]
    if sim is not None:
        for entry in sim.to_json()["values"]:
            name = entry["labels"].get("kernel", "?")
            per_kernel.setdefault(name, {})["sim_seconds"] = entry["sum"]
    rows = []
    for name in sorted(per_kernel):
        k = per_kernel[name]
        moved = k.get("bytes_read", 0.0) + k.get("bytes_written", 0.0)
        secs = k.get("sim_seconds", 0.0)
        rows.append([
            name,
            k.get("elements"),
            moved / 1e6 if moved else None,
            secs * 1e3 if secs else None,
            moved / secs / 1e9 if secs and moved else None,
        ])
    return format_table(
        ["kernel", "elements", "MB moved", "sim ms", "GB/s"],
        rows, title="simulated kernels (cost-model device time)",
    )


def profile_scenario(scenario_name: str = "smoke", repeats: int = 1) -> tuple[ProfileView, str]:
    """Run a scenario once under a trace; returns (view, kernel table)."""
    scenario = get_scenario(scenario_name)
    tel.reset_metrics()
    with tel.scope(True), tel.trace(f"profile {scenario.name}") as tr:
        if scenario.extra is not None:
            scenario.extra()
        for case in scenario.cases:
            data = case.make_field()
            config = CompressorConfig(eb=case.eb, eb_mode=case.eb_mode,
                                      workflow=case.workflow)
            for _ in range(max(int(repeats), 1)):
                result = compress(data, config)
                decompress_with_stats(result.archive)
    return fold_trace(tr), kernel_table()
