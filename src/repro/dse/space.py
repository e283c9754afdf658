"""Deterministic enumeration of the candidate design space.

The explorer and the suite autotuner both sweep the same axes --
space-time transform, sparsity wiring, load balancing, plus the
microarchitecture axes (membuf geometry, DMA in-flight depth, regfile
variant) -- but they need the *enumeration* pinned down independently of
how the points are evaluated: candidate order decides tie-breaks, budget
sampling, and the shape of every golden-pinned winner table.
:class:`DesignSpace` owns that order (insertion order per axis,
transform-major cross product, microarchitecture axes innermost) so a
sweep enumerated today and a sweep enumerated in a worker process next
week agree combo-for-combo.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..core.balancing import LoadBalancingScheme, row_shift_scheme
from ..core.dataflow import (
    SpaceTimeTransform,
    hexagonal,
    input_stationary,
    output_stationary,
    weight_stationary,
)
from ..core.sparsity import SparsityStructure

#: The neutral name every microarchitecture axis reserves for "exactly
#: the design the compiler builds today" (variant value ``None``, zero
#: overlay).  The suite's fixed baseline always uses it, which is what
#: keeps autotuned aggregates comparable to the fixed sweep.
DEFAULT_UARCH = "default"


class DesignCombo(NamedTuple):
    """One fully named point of the candidate space.

    The three architectural axes (transform, sparsity, balancing) decide
    what gets compiled and simulated; the three microarchitecture axes
    (membuf, dma, regfile) are analytic overlays (:mod:`repro.dse.uarch`)
    that the autotuner adds to the outcome of the combo's base point,
    the combo with the same :attr:`names` (:mod:`repro.exec.halving`).
    The uarch axes default to the neutral configuration.
    """

    transform_name: str
    transform: SpaceTimeTransform
    sparsity_name: str
    sparsity: SparsityStructure
    balancing_name: str
    balancing: LoadBalancingScheme
    membuf_name: str = DEFAULT_UARCH
    membuf: Optional[object] = None
    dma_name: str = DEFAULT_UARCH
    dma: Optional[object] = None
    regfile_name: str = DEFAULT_UARCH
    regfile: Optional[object] = None

    @property
    def names(self) -> Tuple[str, str, str]:
        return (self.transform_name, self.sparsity_name, self.balancing_name)

    @property
    def uarch_names(self) -> Tuple[str, str, str]:
        return (self.membuf_name, self.dma_name, self.regfile_name)

    @property
    def key(self) -> Tuple[str, str, str, str, str, str]:
        """The full six-axis identity, for survivor sets and dedup."""
        return self.names + self.uarch_names

    @property
    def is_default_uarch(self) -> bool:
        return all(name == DEFAULT_UARCH for name in self.uarch_names)

    @property
    def label(self) -> str:
        base = (
            f"{self.transform_name} / {self.sparsity_name}"
            f" / {self.balancing_name}"
        )
        extras = [
            f"{axis}={name}"
            for axis, name in zip(
                ("membuf", "dma", "regfile"), self.uarch_names
            )
            if name != DEFAULT_UARCH
        ]
        if extras:
            return base + " / " + " ".join(extras)
        return base

    def candidate(self, **extra: object) -> Dict[str, object]:
        """The evaluation-engine candidate dict for this combo's base
        point: the three architectural axes, which are all the engine
        evaluates.

        ``extra`` completes the design point with the workload it runs
        on -- ``bounds`` and the operand mapping ``tensors`` (required
        by the engine) -- plus any of ``skip_illegal``, the ``want_*``
        flags and a distinct ``name`` when one combo appears once per
        workload layer (the label is built only when ``name`` is not
        given).
        """
        fields: Dict[str, object] = {
            "name": extra["name"] if "name" in extra else self.label,
            "transform_name": self.transform_name,
            "transform": self.transform,
            "sparsity_name": self.sparsity_name,
            "sparsity": self.sparsity,
            "balancing_name": self.balancing_name,
            "balancing": self.balancing,
        }
        fields.update(extra)
        return fields


def _uarch_axis(
    axis: str, values: Optional[Mapping[str, object]]
) -> Dict[str, object]:
    mapping: Dict[str, object] = dict(values or {DEFAULT_UARCH: None})
    if mapping.get(DEFAULT_UARCH, "missing") is not None:
        raise ValueError(
            f"the {axis!r} axis must map {DEFAULT_UARCH!r} to None (the"
            " unmodified design) so the suite baseline stays in the space"
        )
    return mapping


class DesignSpace:
    """Named per-axis candidate lists with a deterministic cross product.

    Axis values keep their mapping insertion order; :meth:`combos`
    enumerates transform-major, then sparsity, then balancing, then the
    microarchitecture axes (membuf, dma, regfile) innermost -- the same
    order :func:`repro.dse.explore` has always swept, now shared with
    the suite autotuner.  Every microarchitecture axis must contain the
    ``default -> None`` entry (the unmodified design), so degenerate
    axes reproduce the historical three-axis enumeration exactly.
    """

    def __init__(
        self,
        transforms: Mapping[str, SpaceTimeTransform],
        sparsities: Optional[Mapping[str, SparsityStructure]] = None,
        balancings: Optional[Mapping[str, LoadBalancingScheme]] = None,
        membufs: Optional[Mapping[str, object]] = None,
        dmas: Optional[Mapping[str, object]] = None,
        regfiles: Optional[Mapping[str, object]] = None,
    ):
        self.transforms = dict(transforms)
        self.sparsities = dict(sparsities or {"dense": SparsityStructure()})
        self.balancings = dict(balancings or {"none": LoadBalancingScheme()})
        self.membufs = _uarch_axis("membufs", membufs)
        self.dmas = _uarch_axis("dmas", dmas)
        self.regfiles = _uarch_axis("regfiles", regfiles)
        if not self.transforms:
            raise ValueError("a design space needs at least one transform")

    def __len__(self) -> int:
        return (
            len(self.transforms)
            * len(self.sparsities)
            * len(self.balancings)
            * len(self.membufs)
            * len(self.dmas)
            * len(self.regfiles)
        )

    def combos(self) -> List[DesignCombo]:
        return [
            DesignCombo(
                t_name, transform, s_name, sparsity, b_name, balancing,
                m_name, membuf, d_name, dma, r_name, regfile,
            )
            for t_name, transform in self.transforms.items()
            for s_name, sparsity in self.sparsities.items()
            for b_name, balancing in self.balancings.items()
            for m_name, membuf in self.membufs.items()
            for d_name, dma in self.dmas.items()
            for r_name, regfile in self.regfiles.items()
        ]

    def sample(
        self,
        count: int,
        seed: int = 0,
        require: Optional[Tuple[str, str, str]] = None,
    ) -> List[DesignCombo]:
        """A seeded, transform-stratified draw of ``count`` combos.

        The public sampling hook for callers that want "some legal
        combos" without enumerating the whole cross product -- the fuzz
        generator draws its per-case designs here.  Delegates to
        :func:`budgeted_combos`, so the draw is content-hash stable:
        the same ``(seed, space)`` yields the same sample in any
        process.
        """
        return budgeted_combos(
            self.combos(), count, require=require, seed=seed
        )

    def axes(self) -> Dict[str, List[str]]:
        """The axis names, for reports (``repro sweep --autotune --json``)."""
        return {
            "transforms": list(self.transforms),
            "sparsities": list(self.sparsities),
            "balancings": list(self.balancings),
            "membufs": list(self.membufs),
            "dmas": list(self.dmas),
            "regfiles": list(self.regfiles),
        }

    def __repr__(self) -> str:
        return (
            f"DesignSpace({len(self.transforms)} transforms x"
            f" {len(self.sparsities)} sparsities x"
            f" {len(self.balancings)} balancings x"
            f" {len(self.membufs)}x{len(self.dmas)}x{len(self.regfiles)} uarch)"
        )


def standard_transforms() -> Dict[str, SpaceTimeTransform]:
    """The paper's Figure 2 dataflow menu, in canonical sweep order."""
    return {
        "output-stationary": output_stationary(),
        "input-stationary": input_stationary(),
        "weight-stationary": weight_stationary(),
        "hexagonal": hexagonal(),
    }


def suite_design_space(suite, wide: bool = False) -> DesignSpace:
    """The autotuning space for one workload suite.

    Transforms are the full Figure 2 menu.  Sparsity candidates are
    ``dense`` plus the suite's own annotation (Listing 5's CSR-B wiring
    for the pruned/sparse suites) -- autotuning decides per layer
    whether the skip logic pays for itself.  For sparse suites the
    balancing axis adds the Listing 3 row-shift scheme sized to the
    suite's widest tile; dense tiles have nothing to rebalance, so the
    axis stays degenerate and the cross product stays small.

    ``wide=True`` additionally opens the microarchitecture axes the
    bench harness used to sweep by hand -- membuf geometry, DMA
    in-flight depth, regfile variant (:func:`repro.dse.uarch.
    standard_uarch_axes`) -- which is what the successive-halving
    autotuner prunes through.
    """
    sparsities: Dict[str, SparsityStructure] = {"dense": SparsityStructure()}
    if suite.sparsity_name != "dense" and not suite.sparsity.is_dense():
        sparsities[suite.sparsity_name] = suite.sparsity

    balancings: Dict[str, LoadBalancingScheme] = {"none": LoadBalancingScheme()}
    if len(sparsities) > 1:
        max_rows = max(
            (case.bounds.size("i") for case in suite.cases), default=0
        )
        if max_rows >= 2:
            balancings["row-shift"] = row_shift_scheme(max_rows // 2)

    uarch: Dict[str, Mapping[str, object]] = {}
    if wide:
        from .uarch import standard_uarch_axes

        membufs, dmas, regfiles = standard_uarch_axes()
        uarch = {"membufs": membufs, "dmas": dmas, "regfiles": regfiles}

    return DesignSpace(standard_transforms(), sparsities, balancings, **uarch)


def _stratum_rank(seed: int, combo: DesignCombo) -> str:
    digest = hashlib.sha256(
        f"{seed}|{'|'.join(combo.key)}".encode("utf-8")
    ).hexdigest()
    return digest


def budgeted_combos(
    combos: List[DesignCombo],
    budget: Optional[int],
    require: Optional[Tuple[str, str, str]] = None,
    seed: int = 0,
) -> List[DesignCombo]:
    """A deterministic ``budget``-sized stratified sample of ``combos``.

    The sample is stratified across the transform axis: combos are
    grouped by ``transform_name`` (preserving enumeration order of the
    strata), ordered within each stratum by a seeded content hash of
    their full six-axis identity, and drawn round-robin across strata --
    so even tiny budgets touch *every* transform instead of silently
    keeping a transform-major prefix that never samples late transforms.
    The draw depends only on ``(seed, combo identities)``: two fresh
    processes, or the same process a week apart, produce byte-identical
    samples.

    ``require`` names the fixed baseline design (the suite's own
    configuration, always with the neutral microarchitecture):
    autotuning under any budget must still evaluate it, so the chosen
    winner is never worse than the fixed sweep.  When the sample misses
    it, it replaces the last drawn combo.
    """
    if budget is None:
        return list(combos)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")

    strata: Dict[str, List[DesignCombo]] = {}
    for combo in combos:
        strata.setdefault(combo.transform_name, []).append(combo)
    for members in strata.values():
        members.sort(key=lambda c: _stratum_rank(seed, c))

    kept: List[DesignCombo] = []
    queues = list(strata.values())
    depth = 0
    while len(kept) < budget and any(depth < len(q) for q in queues):
        for queue in queues:
            if depth < len(queue):
                kept.append(queue[depth])
                if len(kept) == budget:
                    break
        depth += 1

    if require is not None and not any(
        c.names == require and c.is_default_uarch for c in kept
    ):
        required = [
            c for c in combos if c.names == require and c.is_default_uarch
        ]
        if required:
            kept[-1] = required[0]
    return kept
