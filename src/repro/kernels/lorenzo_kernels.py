"""Simulated Lorenzo construction/reconstruction kernels.

Construction (compression side) is the fused prequant+predict+postquant
kernel; cuSZ+ improves it with thread coarsening and in-warp shuffles
(Section IV-A.2), modeled as a higher sustained memory efficiency.

Reconstruction (decompression side) comes in the paper's three variants:

* ``coarse``     -- original cuSZ: one thread sequentially reconstructs one
                    whole chunk; stride-(chunk) accesses destroy coalescing.
                    This is the 16.8 GB/s row of Table II.
* ``naive``      -- proof-of-concept fine-grained partial-sum in shared
                    memory, 1 item per thread (Table II "naive").
* ``optimized``  -- cuSZ+'s register-resident partial-sum with sequentiality
                    8 and warp shuffles (Table II "ours"); streaming-bound.

All three produce numerically identical outputs (proved in
tests/test_lorenzo.py); only their cost profiles differ.
"""

from __future__ import annotations

import numpy as np

from ..core.config import CompressorConfig
from ..core.dual_quant import Quantized, quantize_field, reconstruct_field
from ..gpu.kernel import KernelProfile
from .calibration import get_calibration
from .common import scale_count, standard_launch, tag_elements

__all__ = ["lorenzo_construct_kernel", "lorenzo_reconstruct_kernel"]

#: Per-block synchronization-step counts of the naive shared-memory kernel
#: (scan passes + barriers), per dimensionality.
_NAIVE_BLOCK_STEPS = {1: 512, 2: 96, 3: 120, 4: 140}

#: Outlier storage cost per entry: 4-byte index + 4-byte value (the sparse
#: stream the gather/scatter kernels move).
OUTLIER_ENTRY_BYTES = 8


def lorenzo_construct_kernel(
    data: np.ndarray,
    config: CompressorConfig,
    impl: str = "cuszplus",
    n_sim: int | None = None,
) -> tuple[Quantized, float, KernelProfile]:
    """Fused dual-quantization + Lorenzo prediction kernel.

    Returns the quantized bundle, the resolved absolute error bound, and the
    kernel's cost profile (at ``n_sim`` elements).
    """
    bundle, eb_abs = quantize_field(data, config)
    n = int(data.size)
    n_sim = n_sim or n
    cal = get_calibration("lorenzo_construct", impl, data.ndim)
    payload = n_sim * data.dtype.itemsize
    profile = KernelProfile(
        name=f"lorenzo_construct[{impl}]",
        payload_bytes=payload,
        bytes_read=payload,
        bytes_written=n_sim * bundle.quant.dtype.itemsize
        + scale_count(bundle.n_outliers, n, n_sim) * OUTLIER_ENTRY_BYTES,
        launch=standard_launch(n_sim),
        coalescing_read=cal.coalescing_read,
        coalescing_write=cal.coalescing_write,
        mem_efficiency=cal.mem_efficiency,
        tags={"impl": impl, "ndim": data.ndim},
    )
    return bundle, eb_abs, tag_elements(profile, n_sim)


def lorenzo_reconstruct_kernel(
    bundle: Quantized,
    variant: str = "optimized",
    out_dtype=np.float32,
    n_sim: int | None = None,
) -> tuple[np.ndarray, KernelProfile]:
    """Partial-sum Lorenzo reconstruction (or its baselines).

    ``variant`` is ``"coarse"`` (original cuSZ), ``"naive"`` (shared-memory
    proof of concept) or ``"optimized"`` (cuSZ+).  Outputs are identical;
    profiles differ.
    """
    out = reconstruct_field(bundle, dtype=out_dtype)

    n = int(np.prod(bundle.shape))
    n_sim = n_sim or n
    ndim = len(bundle.shape)
    payload = n_sim * np.dtype(out_dtype).itemsize
    common = dict(
        payload_bytes=payload,
        bytes_read=n_sim * bundle.quant.dtype.itemsize,
        bytes_written=payload,
    )

    if variant == "coarse":
        cal = get_calibration("lorenzo_reconstruct_coarse", "cusz", ndim)
        chunk_elems = int(np.prod(bundle.chunks))
        n_chunks = -(-n_sim // chunk_elems)
        profile = KernelProfile(
            name="lorenzo_reconstruct[coarse]",
            launch=standard_launch(n_chunks),
            coalescing_read=cal.coalescing_read,
            coalescing_write=cal.coalescing_write,
            mem_efficiency=cal.mem_efficiency,
            tags={"impl": "cusz", "ndim": ndim},
            **common,
        )
    elif variant == "naive":
        cal = get_calibration("lorenzo_reconstruct_naive", "cuszplus", ndim)
        chunk_elems = int(np.prod(bundle.chunks))
        block_threads = min(max(chunk_elems, 32), 1024)
        profile = KernelProfile(
            name="lorenzo_reconstruct[naive]",
            launch=standard_launch(
                n_sim, threads_per_block=block_threads,
                shared_per_block=chunk_elems * 8,
            ),
            mem_efficiency=cal.mem_efficiency,
            serial_chain=_NAIVE_BLOCK_STEPS.get(ndim, 120),
            cycles_per_step=cal.serial_cycles,
            concurrency_per_chain=block_threads,
            tags={"impl": "cuszplus", "ndim": ndim},
            **common,
        )
    elif variant == "optimized":
        cal = get_calibration("lorenzo_reconstruct", "cuszplus", ndim)
        # Sequentiality 8: each thread owns 8 items (Section IV-B.3b).
        profile = KernelProfile(
            name="lorenzo_reconstruct[optimized]",
            launch=standard_launch(-(-n_sim // 8)),
            mem_efficiency=cal.mem_efficiency,
            tags={"impl": "cuszplus", "ndim": ndim},
            **common,
        )
    else:
        raise ValueError(f"unknown reconstruction variant {variant!r}")
    return out, tag_elements(profile, n_sim)
