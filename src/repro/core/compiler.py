"""The Stellar compiler: from five independent specifications to a
hardware representation (paper Section IV, Figure 7).

:func:`compile_design` elaborates a functional spec into the
``IterationSpace`` IR, applies sparsity and load-balancing pruning,
maps the result through the space-time transform, and runs the
register-file optimization ladder -- producing a :class:`CompiledDesign`
that the RTL backend, the simulator, and the area model all consume.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..exec.cache import CompileCache

from .balancing import LoadBalancingScheme
from .dataflow import (
    SpaceTimeTransform,
    classify_dataflow,
    distinct_rows,
    validate_schedule,
)
from .expr import Bounds
from .functionality import FunctionalSpec
from .iterspace import (
    IODirection,
    IterationSpace,
    PhysicalArray,
    apply_transform,
    elaborate,
)
from ..obs.profile import span
from .memspec import MemoryBufferSpec
from .passes.pipelining import PipeliningReport, analyze_pipelining
from .passes.prune import PruneReport, prune_for_balancing, prune_for_sparsity
from .passes.regfile_opt import RegfilePlan, choose_regfile, consumption_order
from .sparsity import SparsityStructure


class BalancerPlan:
    """A generated load-balancer module (paper Section IV-E): the regfiles
    it monitors and the space-time biases it can apply at runtime."""

    def __init__(
        self,
        monitored_variables: Sequence[str],
        bias_vectors: Sequence[Tuple[int, ...]],
        granularity: str,
    ):
        self.monitored_variables = list(monitored_variables)
        self.bias_vectors = [tuple(b) for b in bias_vectors]
        self.granularity = granularity  # "row" or "pe"

    def __repr__(self) -> str:
        return (
            f"BalancerPlan(monitors={self.monitored_variables},"
            f" biases={self.bias_vectors}, granularity={self.granularity!r})"
        )


class CompiledDesign:
    """Everything the backends need about one compiled accelerator.

    It carries hardware, not the compiler's IR: the physical array, the
    regfile plans, the balancer and the analysis reports.  The functional
    and pruned ``IterationSpace`` s stay inside :func:`compile_design`
    (and its memo stages); what the backends need of them -- the point
    and IO request counts -- lives on the :class:`PhysicalArray`.
    """

    def __init__(
        self,
        spec: FunctionalSpec,
        bounds: Bounds,
        transform: SpaceTimeTransform,
        array: PhysicalArray,
        regfile_plans: Dict[str, RegfilePlan],
        membufs: Dict[str, MemoryBufferSpec],
        balancer: Optional[BalancerPlan],
        sparsity: SparsityStructure,
        balancing: LoadBalancingScheme,
        prune_reports: List[PruneReport],
        pipelining: PipeliningReport,
        dataflow_roles: Dict[str, str],
        element_bits: int = 32,
    ):
        self.spec = spec
        self.bounds = bounds
        self.transform = transform
        self.array = array
        self.regfile_plans = regfile_plans
        self.membufs = membufs
        self.balancer = balancer
        self.sparsity = sparsity
        self.balancing = balancing
        self.prune_reports = prune_reports
        self.pipelining = pipelining
        self.dataflow_roles = dataflow_roles
        self.element_bits = element_bits

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def axes(self) -> Tuple[object, ...]:
        """The inputs ``compile_design`` built this design from, the
        key parts of the memo stages derived from it (``lower``,
        ``area.model``)."""
        return (
            self.spec, self.bounds, self.transform, self.sparsity,
            self.balancing, self.membufs, self.element_bits,
        )

    @property
    def pe_count(self) -> int:
        return self.array.pe_count

    def pruned_variables(self) -> List[str]:
        out: List[str] = []
        for report in self.prune_reports:
            out.extend(report.pruned_variables)
        return out

    def summary(self) -> str:
        lines = [
            f"design {self.name}: {self.pe_count} PEs,"
            f" schedule length {self.array.schedule_length}",
            f"  dataflow roles: {self.dataflow_roles}",
            f"  connections: {len(self.array.conns)}"
            f" (pruned variables: {self.pruned_variables() or 'none'})",
        ]
        for variable, plan in sorted(self.regfile_plans.items()):
            lines.append(
                f"  regfile[{variable}]: {plan.kind.value}"
                f" ({plan.entries} entries) -- {plan.reason}"
            )
        if self.balancer is not None:
            lines.append(f"  balancer: {self.balancer!r}")
        return "\n".join(lines)


def compile_design(
    spec: FunctionalSpec,
    bounds: Bounds,
    transform: SpaceTimeTransform,
    sparsity: Optional[SparsityStructure] = None,
    balancing: Optional[LoadBalancingScheme] = None,
    membufs: Optional[Mapping[str, MemoryBufferSpec]] = None,
    element_bits: int = 32,
    check: bool = True,
    cache: Optional["CompileCache"] = None,
) -> CompiledDesign:
    """Run the full compilation pipeline of Figure 7.

    Parameters mirror the five design axes of Section III: ``spec``
    (functionality), ``transform`` (dataflow), ``sparsity``, ``balancing``,
    and ``membufs`` (private memory buffers, keyed by tensor name).

    With ``check=True`` (the default) the spec-legality analyzer runs
    before elaboration and raises :class:`repro.analysis.AnalysisError`
    on error-severity findings; pass ``check=False`` to collect
    diagnostics yourself via :func:`repro.analysis.check_spec`.

    ``cache`` (a :class:`repro.exec.cache.CompileCache`) memoizes the
    finished design on all of these arguments (stage ``compile``): a hit
    returns the shared design without running any stage or analysis
    gate.  A miss memoizes the stages that are shared between designs
    differing in only some axes: elaboration per ``(spec, bounds)``, the
    transform-legality analysis per ``(spec, bounds, transform)``, and
    pruning per ``(spec, bounds, sparsity, balancing)``.  Memoized
    products are shared objects; the pipeline never mutates them after
    construction.
    """
    from ..exec.cache import memo

    # Key on the normalized axes, so a ``None`` axis and its default
    # object name one design and share one ``compile`` entry.  A passed
    # object is kept as is, so its identity-memoized fingerprint hits.
    if sparsity is None:
        sparsity = SparsityStructure()
    if balancing is None:
        balancing = LoadBalancingScheme()
    membufs = dict(membufs or {})
    return memo(
        cache,
        "compile",
        (spec, bounds, transform, sparsity, balancing, membufs,
         element_bits, check),
        lambda: _compile(
            spec, bounds, transform, sparsity, balancing, membufs,
            element_bits, check, cache,
        ),
    )


def _compile(
    spec: FunctionalSpec,
    bounds: Bounds,
    transform: SpaceTimeTransform,
    sparsity: SparsityStructure,
    balancing: LoadBalancingScheme,
    membufs: Dict[str, MemoryBufferSpec],
    element_bits: int,
    check: bool,
    cache: Optional["CompileCache"],
) -> CompiledDesign:
    """The pipeline behind :func:`compile_design`, on normalized axes."""
    from ..exec.cache import memo

    # The analysis gate runs before validate_schedule so its richer
    # multi-finding diagnostics win over the legacy first-failure error.
    if check:
        from ..analysis.diagnostics import AnalysisError, errors_only
        from ..analysis.spec import check_spec

        with span(
            "analysis.spec", "check_spec", component="compiler",
            design=spec.name,
        ):
            findings = errors_only(
                check_spec(
                    spec, bounds, transform, sparsity, balancing, cache=cache
                )
            )
        if findings:
            raise AnalysisError(findings)

    with span(
        "compile.validate_schedule", "validate_schedule", component="compiler",
        design=spec.name,
    ):
        validate_schedule(spec, transform)

    # Stage 1: the functional IterationSpace (Figure 9a).
    with span(
        "compile.elaborate", "elaborate", component="compiler",
        design=spec.name,
    ):
        functional = memo(
            cache, "compile.elaborate", (spec, bounds),
            lambda: elaborate(spec, bounds),
        )

    # Stage 2: prune connections for sparsity and balancing (Figure 9b).
    with span(
        "compile.prune", "prune", component="compiler",
        design=spec.name,
    ):
        def _prune() -> Tuple[IterationSpace, Tuple[PruneReport, PruneReport]]:
            step1, sparsity_report = prune_for_sparsity(functional, sparsity)
            step2, balancing_report = prune_for_balancing(step1, balancing)
            return step2, (sparsity_report, balancing_report)

        pruned, report_pair = memo(
            cache, "compile.prune", (spec, bounds, sparsity, balancing), _prune
        )
        reports: List[PruneReport] = list(report_pair)

    # Stage 3: map to physical space-time (Figure 9c).
    with span(
        "compile.map_spacetime", "map_spacetime", component="compiler",
        design=spec.name,
    ):
        array = apply_transform(pruned, transform)

    # Stage 4: the register-file optimization ladder (Figure 14).
    with span(
        "compile.regfile_ladder", "regfile_ladder", component="compiler",
        design=spec.name,
    ):
        regfile_plans = _plan_regfiles(
            spec, pruned, transform, membufs, sparsity, element_bits
        )

    with span(
        "compile.analyze", "analyze", component="compiler",
        design=spec.name,
    ):
        balancer = _plan_balancer(spec, balancing)
        pipelining = analyze_pipelining(spec, transform)
        roles = classify_dataflow(spec, transform)

    return CompiledDesign(
        spec=spec,
        bounds=bounds,
        transform=transform,
        array=array,
        regfile_plans=regfile_plans,
        membufs=membufs,
        balancer=balancer,
        sparsity=sparsity,
        balancing=balancing,
        prune_reports=reports,
        pipelining=pipelining,
        dataflow_roles=roles,
        element_bits=element_bits,
    )


def _plan_regfiles(
    spec: FunctionalSpec,
    pruned: IterationSpace,
    transform: SpaceTimeTransform,
    membufs: Mapping[str, MemoryBufferSpec],
    sparsity: SparsityStructure,
    element_bits: int,
) -> Dict[str, RegfilePlan]:
    """One regfile per local variable with IO traffic (Section IV-D)."""
    plans: Dict[str, RegfilePlan] = {}
    data_dependent = spec.has_data_dependent_accesses()
    sparse_iters = sparsity.skipped_iterators()

    io = pruned.io
    # The PE position of each IO request.
    sites = transform.image(pruned.points[io.point])[:, : transform.space_dims]

    for variable in sorted(set(io.variables()) | set(spec.difference_vectors())):
        inputs = io.rows(variable, IODirection.INPUT)
        outputs = io.rows(variable, IODirection.OUTPUT)
        if not len(inputs) and not len(outputs):
            continue

        consumer = consumption_order(pruned, transform, variable, IODirection.INPUT)
        tensor = io.tensor_of(inputs) or io.tensor_of(outputs)
        producer = None
        if tensor is not None and tensor in membufs:
            producer = _producer_order_for(membufs[tensor], consumer)
        # A variable whose identity involves a skipped (compressed) iterator
        # has runtime-expanded coordinates: its regfile must search entries.
        dep_sparse = bool(spec.dependence_set(variable) & sparse_iters)

        entries = len(consumer) if consumer else None
        # Port counts: one regfile port per distinct PE position touching
        # this variable (after pruning, IO may reach interior PEs -- the
        # "more ports to outer register files" cost of Figure 4).
        plans[variable] = choose_regfile(
            variable,
            producer,
            consumer,
            entries=entries,
            in_ports=max(1, len(distinct_rows(sites[inputs]))),
            out_ports=max(1, len(distinct_rows(sites[outputs]))),
            element_bits=element_bits,
            data_dependent=data_dependent or dep_sparse,
        )
    return plans


def _producer_order_for(membuf: MemoryBufferSpec, consumer) -> Optional[List[Tuple[int, ...]]]:
    order = membuf.provable_read_order()
    if order is None:
        return None
    # The buffer emits elements by storage coordinates; the consumer order is
    # expressed in dependence-set coordinates.  They are directly comparable
    # when both are tuples of the same rank.
    if consumer and order and len(order[0]) != len(consumer[0]):
        return None
    return order


def _plan_balancer(
    spec: FunctionalSpec, balancing: LoadBalancingScheme
) -> Optional[BalancerPlan]:
    if balancing.is_disabled():
        return None
    order = spec.index_names
    biases = [shift.bias_vector(order) for shift in balancing]
    granularity = (
        "row" if all(s.is_row_granular(order) for s in balancing) else "pe"
    )
    monitored = sorted(
        v
        for v in spec.difference_vectors()
        if spec.dependence_set(v)
    )
    return BalancerPlan(monitored, biases, granularity)
