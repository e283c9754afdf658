"""Microarchitecture overlay axes for the widened design space.

The classic autotuner sweeps (transform, sparsity, balancing); membuf
geometry, DMA in-flight depth and regfile variants are swept by hand in
the membuf / DMA / regfile ablations.  This module folds those three
axes into :class:`~repro.dse.space.DesignSpace` as analytic
*overlays*: a variant never changes what gets compiled or simulated
-- it adjusts the simulated outcome by a deterministic
``(extra_cycles, area_delta_um2)`` pair computed from the same
cycle/area models those ablations use (:class:`~repro.sim.membuf.
MemBufSim` pipeline timing, :class:`~repro.sim.dma.DMASim` pointer-chase
stalls, :class:`~repro.sim.regfile.RegfileSim` access latencies,
:mod:`repro.area.model` SRAM/DMA constants).

Because the overlay is applied *after* the cached simulation, every
variant of one (transform, sparsity, balancing) point shares a single
compile + simulate cache entry: widening the space 8x costs almost
nothing beyond the overlay arithmetic.  Variants are monotone --
``extra_cycles >= 0`` always -- so the suite's fixed baseline (the
neutral ``default`` configuration on every axis) remains the
cycle-optimal point of its own design, preserving the autotuner's
never-worse-than-fixed guarantee.  Area-saving variants (smaller
staging buffers, shallower DMA queues) trade those extra cycles for
negative area deltas, which is what puts them on the Pareto frontier
and gives ``--constraint area<=N`` real choices.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Tuple

from ..area.model import REGFILE_PORT_MUX_AREA, dma_area, sram_area
from ..core.expr import Bounds
from ..core.memspec import dense_matrix_buffer
from ..core.passes.regfile_opt import RegfileKind
from ..sim.dma import DMASim, pointer_chase_transfers
from ..sim.dram import DRAMModel
from ..sim.regfile import RegfileSim

#: The in-flight depth of the unmodified ("default") DMA, i.e. the
#: Section VI-C fix the generated hardware ships with.  Shallower
#: variants trade pointer-chase stalls for tracking-slot area.
BASELINE_DMA_INFLIGHT = 16


class MembufVariant(NamedTuple):
    """A staging-buffer geometry of ``rows x cols`` elements."""

    rows: int
    cols: int


class DmaVariant(NamedTuple):
    """A DMA engine tolerating ``max_inflight`` outstanding requests."""

    max_inflight: int


class RegfileVariant(NamedTuple):
    """A per-PE register-file structure (Figure 14 variant name)."""

    kind: str

    def regfile_kind(self) -> RegfileKind:
        return RegfileKind(self.kind)


def standard_uarch_axes() -> Tuple[
    Dict[str, Optional[MembufVariant]],
    Dict[str, Optional[DmaVariant]],
    Dict[str, Optional[RegfileVariant]],
]:
    """The ``(membufs, dmas, regfiles)`` axes of the widened suite space.

    Each axis leads with the mandatory ``default -> None`` entry
    (exactly today's design, zero overlay) followed by the variants the
    bench harness used to sweep by hand: a quarter-tile staging buffer
    (area saver), a one-deep DMA (the paper's Section VI-C default,
    area saver), and the crossbar regfile (latency 2, Figure 14's most
    general structure).
    """
    membufs: Dict[str, Optional[MembufVariant]] = {
        "default": None,
        "stage4x4": MembufVariant(4, 4),
    }
    dmas: Dict[str, Optional[DmaVariant]] = {
        "default": None,
        "shallow1": DmaVariant(1),
    }
    regfiles: Dict[str, Optional[RegfileVariant]] = {
        "default": None,
        "crossbar": RegfileVariant(RegfileKind.CROSSBAR.value),
    }
    return membufs, dmas, regfiles


# ---------------------------------------------------------------------------
# Overlay arithmetic
# ---------------------------------------------------------------------------


def _dim(bounds: Bounds, name: str, fallback: int = 1) -> int:
    return bounds.size(name) if name in bounds else fallback


def _operand_elements(bounds: Bounds) -> Tuple[int, int, int]:
    """``(A, B, C)`` tile footprints in elements for an i/j/k matmul."""
    i = _dim(bounds, "i")
    j = _dim(bounds, "j")
    k = _dim(bounds, "k")
    return i * k, k * j, i * j


def membuf_overlay(
    variant: MembufVariant, bounds: Bounds, element_bits: int
) -> Tuple[int, float]:
    """Extra cycles and area delta of staging operands through a
    ``rows x cols`` buffer instead of a footprint-sized one.

    A buffer smaller than the operand footprint refills once per pass;
    every refill beyond the first streams a buffer-full through the
    axis pipeline (``access_latency + capacity - 1`` cycles, the
    :class:`~repro.sim.membuf.MemBufSim` load law).  The area delta is
    the SRAM difference between the variant and a footprint-sized
    baseline buffer, so sub-footprint variants save area.
    """
    element_bytes = max(1, element_bits // 8)
    a_elems, b_elems, _ = _operand_elements(bounds)
    footprint = a_elems + b_elems
    spec = dense_matrix_buffer(
        "stage", variant.rows, variant.cols, element_bits=element_bits
    )
    capacity = max(1, variant.rows * variant.cols)
    passes = math.ceil(footprint / capacity)
    refill_cycles = spec.access_latency() + capacity - 1
    extra_cycles = max(0, passes - 1) * refill_cycles
    area_delta = sram_area(capacity * element_bytes) - sram_area(
        footprint * element_bytes
    )
    return extra_cycles, area_delta


def dma_overlay(
    variant: DmaVariant, bounds: Bounds, element_bits: int
) -> Tuple[int, float]:
    """Extra cycles and area delta of a ``max_inflight``-deep DMA
    relative to the :data:`BASELINE_DMA_INFLIGHT`-deep default.

    Both depths run the same pointer-chase transfer list (one scattered
    pointer per operand row, Section VI-C) against the default DRAM
    model; the variant's extra cycles are the serialization stalls the
    deep queue hides.  The area delta is the tracking-slot difference,
    negative for shallow queues.
    """
    element_bytes = max(1, element_bits // 8)
    i = _dim(bounds, "i")
    k = _dim(bounds, "k")
    transfers = pointer_chase_transfers(
        vector_count=i, vector_bytes=k * element_bytes
    )
    shallow = DMASim(DRAMModel(), max_inflight=variant.max_inflight).run(
        transfers
    )
    deep = DMASim(DRAMModel(), max_inflight=BASELINE_DMA_INFLIGHT).run(
        transfers
    )
    extra_cycles = max(0, shallow.total_cycles - deep.total_cycles)
    area_delta = dma_area(variant.max_inflight) - dma_area(
        BASELINE_DMA_INFLIGHT
    )
    return extra_cycles, area_delta


def regfile_overlay(
    variant: RegfileVariant, bounds: Bounds, element_bits: int
) -> Tuple[int, float]:
    """Extra cycles and area delta of a non-feedforward regfile.

    Every output element pays the structure's access-latency surplus
    over the feedforward FIFO (crossbar: match then mux, 2 cycles), and
    associative structures pay one port mux per stored output element.
    """
    del element_bits
    _, _, c_elems = _operand_elements(bounds)
    kind = variant.regfile_kind()
    surplus = RegfileSim(kind).access_latency() - RegfileSim(
        RegfileKind.FEEDFORWARD
    ).access_latency()
    extra_cycles = max(0, surplus) * c_elems
    area_delta = (
        REGFILE_PORT_MUX_AREA * c_elems
        if kind is RegfileKind.CROSSBAR
        else 0.0
    )
    return extra_cycles, area_delta


def uarch_overlay(
    membuf: Optional[MembufVariant],
    dma: Optional[DmaVariant],
    regfile: Optional[RegfileVariant],
    bounds: Bounds,
    element_bits: int,
) -> Tuple[int, float]:
    """The combined ``(extra_cycles, area_delta_um2)`` of a combo's
    microarchitecture selections.  ``None`` on every axis is the neutral
    configuration: ``(0, 0.0)``, byte-identical to the unmodified
    outcome."""
    extra_cycles = 0
    area_delta = 0.0
    for variant, overlay in (
        (membuf, membuf_overlay),
        (dma, dma_overlay),
        (regfile, regfile_overlay),
    ):
        if variant is None:
            continue
        cycles, area = overlay(variant, bounds, element_bits)
        extra_cycles += int(cycles)
        area_delta += float(area)
    return extra_cycles, area_delta
