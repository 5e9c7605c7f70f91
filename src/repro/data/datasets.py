"""Registry of the seven evaluation datasets (paper Table III), synthetic.

Each dataset mirrors its SDRBench counterpart's dimensionality and paper
shape; the materialized arrays are scaled down to laptop size (MBs), while
:attr:`Field.paper_shape` carries the full size for the simulated kernel
timings.  Field generators are parametrized so their quant-code statistics
land in the paper's compressibility regimes -- for the CESM fields of
Table IV, the plume density is derived from each field's published RLE
compression ratio via the empirically measured coverage->ratio map (see
``_plume_params``); the correspondence is regime-level, not cell-exact
(EXPERIMENTS.md discusses fidelity per table).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from ..core.errors import ConfigError
from . import synthetic as syn
from .fields import Field

__all__ = ["DatasetSpec", "DATASETS", "get_dataset", "TABLE4_CESM_TARGETS"]


def _seed(dataset: str, name: str) -> int:
    """Stable per-field seed (crc32 of the qualified name)."""
    return zlib.crc32(f"{dataset}/{name}".encode()) & 0x7FFFFFFF


@dataclass
class DatasetSpec:
    """One evaluation dataset: shapes, description, and field makers."""

    name: str
    description: str
    paper_shape: tuple[int, ...]
    scaled_shape: tuple[int, ...]
    paper_size_mb: float
    makers: dict[str, Callable[[tuple[int, ...], np.random.Generator], np.ndarray]]
    example: str | None = None
    _cache: dict[str, Field] = dc_field(default_factory=dict, repr=False)

    @property
    def ndim(self) -> int:
        return len(self.paper_shape)

    @property
    def field_names(self) -> list[str]:
        return list(self.makers)

    def field(self, name: str) -> Field:
        """Materialize (and cache) one field."""
        if name not in self.makers:
            raise ConfigError(f"dataset {self.name!r} has no field {name!r}")
        if name not in self._cache:
            rng = np.random.default_rng(_seed(self.name, name))
            data = self.makers[name](self.scaled_shape, rng)
            assert data.shape == self.scaled_shape, (self.name, name)
            self._cache[name] = Field(
                name=name, dataset=self.name, data=data, paper_shape=self.paper_shape
            )
        return self._cache[name]

    def fields(self, limit: int | None = None) -> list[Field]:
        names = self.field_names[:limit] if limit else self.field_names
        return [self.field(n) for n in names]

    def example_field(self) -> Field:
        """The field the paper uses for single-field demonstrations."""
        return self.field(self.example or self.field_names[0])


# ---------------------------------------------------------------------------
# CESM-ATM: Table IV's 35 fields, parametrized from their published RLE CRs.
# ---------------------------------------------------------------------------

#: Paper Table IV at eb=1e-2: field -> (qhg ref, qh VLE, RLE, RLE+VLE).
TABLE4_CESM_TARGETS: dict[str, tuple[float, float, float, float]] = {
    "AEROD_v": (94.27, 25.06, 10.46, 30.33),
    "FLNTC": (56.95, 23.66, 8.87, 25.35),
    "FLUTC": (57.06, 23.66, 8.91, 25.46),
    "FSDSC": (58.30, 23.88, 26.10, 71.35),
    "FSDTOA": (430.61, 26.10, 43.65, 119.17),
    "FSNSC": (51.73, 23.44, 10.11, 29.46),
    "FSNTC": (60.35, 23.88, 12.33, 35.50),
    "FSNTOAC": (111.63, 25.06, 12.46, 35.84),
    "ICEFRAC": (159.18, 25.31, 16.57, 50.39),
    "LANDFRAC": (97.15, 23.66, 13.98, 40.50),
    "OCNFRAC": (89.55, 23.88, 11.23, 32.55),
    "ODV_bcar1": (189.28, 25.83, 37.28, 110.51),
    "ODV_bcar2": (197.32, 25.83, 30.71, 89.98),
    "ODV_dust1": (242.89, 26.10, 22.91, 67.72),
    "ODV_dust2": (319.55, 26.37, 24.02, 70.98),
    "ODV_dust3": (270.50, 26.10, 33.29, 98.22),
    "ODV_dust4": (230.40, 26.10, 46.81, 139.27),
    "ODV_ocar1": (65.81, 24.11, 41.17, 121.59),
    "ODV_ocar2": (64.92, 24.11, 33.79, 98.63),
    "PHIS": (98.86, 25.06, 9.51, 28.87),
    "PRECSC": (176.21, 25.83, 19.50, 58.92),
    "PRECSL": (142.23, 25.57, 15.39, 45.69),
    "PSL": (83.13, 24.34, 12.43, 36.32),
    "PS": (98.59, 21.09, 7.45, 22.27),
    "SNOWHICE": (144.74, 25.31, 15.14, 45.53),
    "SNOWHLND": (184.39, 25.57, 21.18, 63.33),
    "SOLIN": (430.62, 26.10, 43.65, 119.17),
    "TAUX": (100.30, 25.06, 11.30, 33.28),
    "TAUY": (106.55, 25.31, 12.40, 36.45),
    "TREFHT": (82.50, 24.58, 8.75, 25.12),
    "TREFMXAV": (87.39, 24.58, 9.60, 27.33),
    "TROP_P": (93.78, 24.82, 11.19, 31.40),
    "TROP_T": (92.94, 24.82, 11.10, 30.64),
    "TROP_Z": (84.81, 24.58, 9.48, 27.07),
    "TSMX": (64.95, 23.88, 8.55, 24.69),
}


def _plume_params(coverage: float) -> tuple[int, float]:
    """Split a plume coverage into ``(n, scale)`` for ``plume_field``.

    Sweeping ``plume_field`` on the scaled CESM grid shows the RLE ratio
    tracks the total plume *coverage* ``n * scale^2`` as
    ``CR ~= 4050 * coverage^-0.737`` (invert it for a target ratio); the
    coverage is split into at least two plumes (a single plume leaves
    whole-row runs that overshoot the target badly).
    """
    n = max(2, int(round(coverage / 400.0)))
    scale = float(np.clip(np.sqrt(coverage / n), 4.0, 26.0))
    return n, scale


def _measured_rle_cr(f: np.ndarray) -> float:
    """Quick estimate of the field's Workflow-RLE ratio at rel eb=1e-2.

    Mean quant-code run length equals the RLE ratio when one (value, count)
    tuple costs the same 32 bits as one float32 element.
    """
    from ..core.config import CompressorConfig
    from ..core.dual_quant import quantize_field

    bundle, _ = quantize_field(f, CompressorConfig(eb=1e-2))
    flat = bundle.quant.reshape(-1)
    runs = int(np.count_nonzero(flat[1:] != flat[:-1])) + 1
    return flat.size / runs


#: The remaining CESM-ATM fields of the paper's 77 (Table I averages over
#: all of them; Table IV lists only the 35 where RLE wins or nearly wins).
#: Each is assigned an archetype: plume (optical depths, condensates),
#: smooth (state variables), or windy (smooth + fine turbulence).
EXTRA_CESM_FIELDS: dict[str, tuple[str, float]] = {
    # name: (archetype, knob) -- plume: target run length; smooth: feature
    # scale in pixels; windy: feature scale (detail fixed).
    "CLDHGH": ("plume", 9.0),
    "CLDLOW": ("plume", 7.0),
    "CLDMED": ("plume", 8.0),
    "CLDTOT": ("plume", 6.0),
    "FLDS": ("smooth", 35.0),
    "FLNS": ("smooth", 25.0),
    "FLNSC": ("smooth", 30.0),
    "FLNT": ("smooth", 28.0),
    "FLUT": ("smooth", 26.0),
    "FSDS": ("plume", 12.0),
    "FSNS": ("plume", 10.0),
    "FSNT": ("smooth", 24.0),
    "FSNTOA": ("smooth", 26.0),
    "LHFLX": ("windy", 12.0),
    "OMEGA500": ("windy", 10.0),
    "PBLH": ("windy", 14.0),
    "PRECC": ("plume", 16.0),
    "PRECL": ("plume", 13.0),
    "PRECT": ("plume", 12.0),
    "Q200": ("smooth", 40.0),
    "Q500": ("smooth", 30.0),
    "Q850": ("smooth", 22.0),
    "QREFHT": ("smooth", 20.0),
    "RELHUM500": ("windy", 16.0),
    "SHFLX": ("windy", 12.0),
    "SNOWH": ("plume", 15.0),
    "SOLL": ("plume", 11.0),
    "SOLS": ("plume", 11.0),
    "T200": ("smooth", 45.0),
    "T500": ("smooth", 38.0),
    "T850": ("smooth", 30.0),
    "TGCLDIWP": ("plume", 8.0),
    "TGCLDLWP": ("plume", 7.0),
    "TMQ": ("smooth", 24.0),
    "TS": ("smooth", 20.0),
    "U10": ("windy", 14.0),
    "U200": ("windy", 22.0),
    "U850": ("windy", 16.0),
    "UBOT": ("windy", 12.0),
    "V200": ("windy", 22.0),
    "V850": ("windy", 16.0),
    "VBOT": ("windy", 12.0),
}


def _extra_cesm_maker(archetype: str, knob: float):
    def make(shape, rng):
        if archetype == "plume":
            n, scale = _plume_params((4050.0 / knob) ** (1.0 / 0.737))
            f = syn.plume_field(shape, n, scale, rng)
        elif archetype == "smooth":
            f = syn.smooth_field(shape, feature_scale=knob, rng=rng)
        else:  # windy: smooth flow + fine-scale turbulence
            f = syn.smooth_field(shape, feature_scale=knob, rng=rng, detail_amp=0.04)
        return (f + rng.normal(0, 3.5e-4, shape)).astype(np.float32)

    return make


def _cesm_maker(field_name: str):
    target = TABLE4_CESM_TARGETS[field_name][2]

    def make(shape, rng):
        # Closed-loop shaping: plume placement is random enough that the
        # open-loop coverage fit scatters ~2x, so adjust coverage against
        # the measured run length a few times (each pass is ~30 ms).
        coverage = (4050.0 / target) ** (1.0 / 0.737)
        f = None
        for attempt in range(4):
            n, scale = _plume_params(coverage)
            f = syn.plume_field(shape, n, scale, np.random.default_rng(rng.integers(2**31)))
            measured = _measured_rle_cr(f)
            ratio = measured / target
            if 0.8 < ratio < 1.25:
                break
            coverage *= ratio ** (1.0 / 0.737)
        # Fine-scale texture well below the 1e-2 quantization step (so the
        # Table IV RLE regime is untouched) but visible at 1e-3/1e-4, where
        # it sets realistic quant-code entropy (Table I's tight-bound rows).
        return (f + rng.normal(0, 3.5e-4, shape)).astype(np.float32)

    return make


# ---------------------------------------------------------------------------
# Other datasets
# ---------------------------------------------------------------------------


def _hacc_position(shape, rng):
    return syn.particle_positions(shape[0], rng)


def _hacc_velocity(shape, rng):
    return syn.particle_velocities(shape[0], rng)


def _nyx_density(shape, rng):
    # Log-normal density: huge dynamic range, vast near-zero voids -- the
    # reason Nyx baryon_density hits CR > 100 with Workflow-RLE (Table V).
    # Closed-loop on the log-density amplitude: a larger exponent deepens
    # the voids below the quantization step, lengthening zero runs; tuned
    # until the quant-run statistics match Table V's 122.7x (the 128^3 grid
    # has relatively 4x thicker void boundaries than the paper's 512^3).
    # The additive noise floor is ~8e-5 of the range: sub-step at eb=1e-2
    # (voids stay exact zero runs), visible at 1e-4.
    target = 122.7
    base = syn.smooth_field(shape, feature_scale=6.0, rng=rng)
    k = 2.5
    f = None
    for _ in range(5):
        f = np.exp(k * base)
        measured = _measured_rle_cr(f.astype(np.float32))
        ratio = measured / target
        if 0.8 < ratio < 1.25:
            break
        # ln(CR) grows ~1.76 per unit exponent (measured on this grid).
        k = float(np.clip(k - np.log(ratio) / 1.76, 1.0, 8.0))
    return (f + rng.normal(0, 8e-5 * float(f.max()), shape)).astype(np.float32)


def _nyx_temperature(shape, rng):
    base = syn.smooth_field(shape, feature_scale=5.0, rng=rng)
    f = 1e4 * np.exp(1.5 * base)
    return (f + rng.normal(0, 8e-5 * float(f.max()), shape)).astype(np.float32)


def _nyx_velocity(shape, rng):
    return (syn.smooth_field(shape, feature_scale=4.0, rng=rng, detail_amp=0.02) * 3e7).astype(
        np.float32
    )


def _hurricane_smooth(scale, amp=1.0, detail=0.0):
    def make(shape, rng):
        return (syn.smooth_field(shape, scale, rng, detail_amp=detail) * amp).astype(
            np.float32
        )

    return make


def _hurricane_cloud(shape, rng):
    f = syn.plume_field(shape, n_plumes=30, plume_scale=6.0, rng=rng, amplitude=0.002)
    return np.maximum(f - 3e-4, 0.0).astype(np.float32)


def _hurricane_condensate(n_plumes):
    """Hydrometeor mixing ratios: sparse 3-D condensate shells."""

    def make(shape, rng):
        f = syn.plume_field(shape, n_plumes=n_plumes, plume_scale=5.0, rng=rng,
                            amplitude=1e-3)
        return np.maximum(f - 1e-4, 0.0).astype(np.float32)

    return make


def _rtm_snapshot(wavelength, target_rle_cr=76.0):
    def make(shape, rng):
        # Closed-loop on the beam angle: the active wavefront fraction sets
        # the quant-code run length, targeted at Table V's RTM ratio.
        cone = 0.6
        f = None
        for _ in range(5):
            f = syn.wave_snapshot(
                shape, wavelength, np.random.default_rng(rng.integers(2**31)),
                shell_radius=0.35, shell_width=0.015, cone_halfangle=cone,
            )
            measured = _measured_rle_cr(f)
            ratio = measured / target_rle_cr
            if 0.8 < ratio < 1.25:
                break
            cone = float(np.clip(cone * np.sqrt(ratio), 0.08, 2.5))
        return (f + rng.normal(0, 4e-4, shape)).astype(np.float32)

    return make


def _miranda_shock(sharpness, scale=8.0):
    def make(shape, rng):
        f = syn.shock_field(shape, feature_scale=scale, shock_sharpness=sharpness, rng=rng)
        return (f + rng.normal(0, 4e-4, shape)).astype(np.float32)

    return make


def _qmc_orbital(n_plumes):
    def make(shape, rng):
        f = syn.plume_field(shape, n_plumes=n_plumes, plume_scale=5.0, rng=rng)
        return (f + rng.normal(0, 5e-4, shape)).astype(np.float32)

    return make


DATASETS: dict[str, DatasetSpec] = {
    "HACC": DatasetSpec(
        name="HACC",
        description="1D cosmology particle simulation (positions + velocities)",
        paper_shape=(280_953_867,),
        scaled_shape=(2_097_152,),
        paper_size_mb=1071.75,
        example="vx",
        makers={
            "x": _hacc_position,
            "y": _hacc_position,
            "z": _hacc_position,
            "vx": _hacc_velocity,
            "vy": _hacc_velocity,
            "vz": _hacc_velocity,
        },
    ),
    "CESM": DatasetSpec(
        name="CESM",
        description="2D CESM-ATM climate simulation (Table IV's 35 fields)",
        paper_shape=(1800, 3600),
        scaled_shape=(450, 900),
        paper_size_mb=24.72,
        example="FSDSC",
        makers={
            **{name: _cesm_maker(name) for name in TABLE4_CESM_TARGETS},
            **{
                name: _extra_cesm_maker(arch, knob)
                for name, (arch, knob) in EXTRA_CESM_FIELDS.items()
            },
        },
    ),
    "Hurricane": DatasetSpec(
        name="Hurricane",
        description="3D Hurricane ISABEL simulation",
        paper_shape=(100, 500, 500),
        scaled_shape=(50, 125, 125),
        paper_size_mb=95.37,
        example="Uf48",
        makers={
            "CLOUDf48": _hurricane_cloud,
            "Uf48": _hurricane_smooth(4.0, amp=30.0, detail=0.01),
            "Vf48": _hurricane_smooth(4.0, amp=30.0, detail=0.01),
            "Wf48": _hurricane_smooth(3.0, amp=5.0, detail=0.02),
            "TCf48": _hurricane_smooth(6.0, amp=20.0),
            "Pf48": _hurricane_smooth(8.0, amp=500.0),
            "PRECIPf48": lambda shape, rng: syn.plume_field(
                shape, n_plumes=40, plume_scale=5.0, rng=rng, amplitude=0.01
            ),
            "QVAPORf48": _hurricane_smooth(5.0, amp=0.02),
            "QCLOUDf48": _hurricane_condensate(28),
            "QICEf48": _hurricane_condensate(18),
            "QRAINf48": _hurricane_condensate(36),
            "QSNOWf48": _hurricane_condensate(22),
            "QGRAUPf48": _hurricane_condensate(12),
        },
    ),
    "Nyx": DatasetSpec(
        name="Nyx",
        description="3D Nyx cosmology simulation",
        paper_shape=(512, 512, 512),
        scaled_shape=(128, 128, 128),
        paper_size_mb=512.0,
        example="baryon_density",
        makers={
            "baryon_density": _nyx_density,
            "dark_matter_density": _nyx_density,
            "temperature": _nyx_temperature,
            "velocity_x": _nyx_velocity,
            "velocity_y": _nyx_velocity,
            "velocity_z": _nyx_velocity,
        },
    ),
    "RTM": DatasetSpec(
        name="RTM",
        description="3D seismic-wave reverse-time-migration snapshots",
        paper_shape=(449, 449, 235),
        scaled_shape=(112, 112, 59),
        paper_size_mb=180.72,
        example="snapshot2800",
        makers={
            "snapshot2800": _rtm_snapshot(18.0),
            "snapshot2850": _rtm_snapshot(16.0),
            "snapshot2900": _rtm_snapshot(14.0),
        },
    ),
    "Miranda": DatasetSpec(
        name="Miranda",
        description="3D Miranda radiation hydrodynamics (double converted to float)",
        paper_shape=(256, 384, 384),
        scaled_shape=(64, 96, 96),
        paper_size_mb=144.0,
        example="density",
        makers={
            "density": _miranda_shock(2.0),
            "pressure": _miranda_shock(1.5),
            "diffusivity": _miranda_shock(3.0, scale=6.0),
            "viscocity": _miranda_shock(3.5, scale=6.0),
            "velocityx": _miranda_shock(1.0),
            "velocityy": _miranda_shock(1.0),
            "velocityz": _miranda_shock(1.0),
        },
    ),
    "QMCPACK": DatasetSpec(
        name="QMCPACK",
        description="Quantum Monte Carlo orbitals (4D reinterpreted as 3D)",
        paper_shape=(288 * 115, 69, 69),
        scaled_shape=(414, 69, 69),
        paper_size_mb=601.52,
        example="preconditioned",
        makers={
            "preconditioned": _qmc_orbital(160),
            "raw": _qmc_orbital(320),
        },
    ),
}


def get_dataset(name: str) -> DatasetSpec:
    """Look up a dataset spec (case-insensitive prefix match allowed)."""
    for key, ds in DATASETS.items():
        if key.lower() == name.lower():
            return ds
    matches = [ds for key, ds in DATASETS.items() if key.lower().startswith(name.lower())]
    if len(matches) == 1:
        return matches[0]
    raise ConfigError(f"unknown dataset {name!r}; available: {sorted(DATASETS)}")
