"""The point-at-a-time compiler, kept as a reference for the columnar one.

This is the object-graph ``IterationSpace`` the compiler used before it
moved to columns: one :class:`Point` per domain element, one
:class:`Point2PointConn` per connection, one :class:`IOConn` per IO
request, every stage a Python loop over them.  It lives with the tests
only: ``test_columnar_oracle`` compiles each case both ways and requires
equal physical arrays, regfile plans and prune reports.

The pruning *decisions* (which variables lose or widen their
connections) are shared with :mod:`repro.core.passes.prune`; what is
re-implemented here is everything that touches points.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.balancing import LoadBalancingScheme
from repro.core.compiler import _producer_order_for
from repro.core.dataflow import SpaceTimeTransform
from repro.core.expr import Bounds, BoundMarker, EvalContext, SpecError
from repro.core.functionality import AssignmentKind, FunctionalSpec
from repro.core.iterspace import IODirection, PhysicalArray, PhysicalConn
from repro.core.passes.prune import (
    PruneReport,
    _optimistic_targets,
    connection_survives,
)
from repro.core.passes.regfile_opt import (
    RegfilePlan,
    _element_subscripts,
    choose_regfile,
)
from repro.core.sparsity import SparsityStructure


class Point:
    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[int]):
        self.coords = tuple(coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)


class Point2PointConn:
    __slots__ = ("variable", "src", "dst", "bundle")

    def __init__(self, variable: str, src: Point, dst: Point, bundle: int = 1):
        self.variable = variable
        self.src = src
        self.dst = dst
        self.bundle = bundle

    def offset(self) -> Tuple[int, ...]:
        return tuple(d - s for s, d in zip(self.src.coords, self.dst.coords))


class IOConn:
    __slots__ = ("variable", "point", "direction", "tensor")

    def __init__(self, variable, point, direction, tensor=None):
        self.variable = variable
        self.point = point
        self.direction = direction
        self.tensor = tensor


class ScalarSpace:
    def __init__(self, spec, bounds, points, p2p_conns, io_conns):
        self.spec = spec
        self.bounds = bounds
        self.points: List[Point] = list(points)
        self.p2p_conns: List[Point2PointConn] = list(p2p_conns)
        self.io_conns: List[IOConn] = list(io_conns)

    def conns_for(self, variable: str) -> List[Point2PointConn]:
        return [c for c in self.p2p_conns if c.variable == variable]

    def io_for(self, variable: str) -> List[IOConn]:
        return [c for c in self.io_conns if c.variable == variable]

    def without_conns(self, variables, replace_with_io: bool = True):
        doomed = set(variables)
        kept = [c for c in self.p2p_conns if c.variable not in doomed]
        new_io = list(self.io_conns)
        if replace_with_io:
            existing = {(c.variable, c.point, c.direction) for c in self.io_conns}
            for conn in self.p2p_conns:
                if conn.variable not in doomed:
                    continue
                for point, direction in (
                    (conn.dst, IODirection.INPUT),
                    (conn.src, IODirection.OUTPUT),
                ):
                    key = (conn.variable, point, direction)
                    if key not in existing:
                        existing.add(key)
                        new_io.append(IOConn(conn.variable, point, direction))
        return ScalarSpace(self.spec, self.bounds, self.points, kept, new_io)

    def widened(self, variable: str, bundle: int):
        conns = [
            Point2PointConn(c.variable, c.src, c.dst, bundle)
            if c.variable == variable
            else c
            for c in self.p2p_conns
        ]
        return ScalarSpace(self.spec, self.bounds, self.points, conns, self.io_conns)


def elaborate(spec: FunctionalSpec, bounds: Bounds) -> ScalarSpace:
    order = spec.index_names
    for name in order:
        if name not in bounds:
            raise SpecError(f"bounds missing index {name!r}")

    points = [Point(coords) for coords in bounds.domain(order)]
    point_set = set(points)

    p2p: List[Point2PointConn] = []
    for variable, d in spec.difference_vectors().items():
        if all(v == 0 for v in d):
            continue
        for point in points:
            src = Point(tuple(c - delta for c, delta in zip(point.coords, d)))
            if src in point_set:
                p2p.append(Point2PointConn(variable, src, point))

    io: List[IOConn] = []
    for assignment in spec.assignments:
        if assignment.kind is AssignmentKind.INPUT:
            tensor = next(
                (
                    access.target.name
                    for access in assignment.rhs.references()
                    if access.target.name not in {v.name for v in spec.locals()}
                ),
                None,
            )
            targets = {}
            for name, which in assignment.boundary_conditions().items():
                lo, hi = bounds[name]
                targets[order.index(name)] = lo if which == "lb" else hi
            for point in _matching(points, targets):
                io.append(
                    IOConn(assignment.variable.name, point, IODirection.INPUT, tensor)
                )
        elif assignment.kind is AssignmentKind.OUTPUT:
            source_locals = {
                access.target.name for access in assignment.rhs.references()
            }
            targets = {}
            for access in assignment.rhs.references():
                for sub in access.subscripts:
                    if isinstance(sub, BoundMarker):
                        lo, hi = bounds[sub.index.name]
                        targets[order.index(sub.index.name)] = (
                            lo if sub.which == "lb" else hi
                        )
            for point in _matching(points, targets):
                for local_name in source_locals:
                    io.append(
                        IOConn(
                            local_name,
                            point,
                            IODirection.OUTPUT,
                            assignment.lhs.target.name,
                        )
                    )
    return ScalarSpace(spec, bounds, points, p2p, io)


def _matching(points: Sequence[Point], targets: Dict[int, int]) -> Iterable[Point]:
    for point in points:
        if all(point.coords[axis] == val for axis, val in targets.items()):
            yield point


def prune_for_sparsity(
    iterspace: ScalarSpace, sparsity: SparsityStructure
) -> Tuple[ScalarSpace, PruneReport]:
    spec = iterspace.spec
    sparsity.validate_against(spec)
    report = PruneReport()
    order = spec.index_names
    result = iterspace

    structured = [s for s in sparsity if s.is_structured() and not s.optimistic]
    if structured:
        result = _restrict_points(result, structured, report)

    expansion_deps = sparsity.expansion_dependencies()
    if expansion_deps:
        doomed: List[str] = []
        for variable, d in spec.difference_vectors().items():
            if not result.conns_for(variable):
                continue
            dep_set = spec.dependence_set(variable)
            if not connection_survives(d, dep_set, expansion_deps, order):
                doomed.append(variable)
                report.reasons[variable] = (
                    f"expanded coordinates of {sorted(dep_set & set(expansion_deps))}"
                    f" become data-dependent along d={d}"
                )
        if doomed:
            result = result.without_conns(doomed)
            report.pruned_variables.extend(doomed)

    for variable, bundle in _optimistic_targets(iterspace, sparsity).items():
        result = result.widened(variable, bundle)
        report.widened_variables[variable] = bundle
    return result, report


def _restrict_points(iterspace: ScalarSpace, structured_skips, report):
    spec = iterspace.spec
    bounds = iterspace.bounds

    def no_reads(symbol, coords):
        raise SpecError(
            "structured skip conditions must not reference tensors"
            f" (tried to read {symbol.name})"
        )

    def keep(point: Point) -> bool:
        env = dict(zip(spec.index_names, point.coords))
        ctx = EvalContext(env, bounds, no_reads)
        return not any(skip.condition.evaluate(ctx) for skip in structured_skips)

    kept_points = [p for p in iterspace.points if keep(p)]
    kept_set = set(kept_points)
    report.removed_points = len(iterspace.points) - len(kept_points)
    conns = [
        c for c in iterspace.p2p_conns if c.src in kept_set and c.dst in kept_set
    ]
    io = [c for c in iterspace.io_conns if c.point in kept_set]
    return ScalarSpace(spec, bounds, kept_points, conns, io)


def prune_for_balancing(
    iterspace: ScalarSpace, scheme: LoadBalancingScheme
) -> Tuple[ScalarSpace, PruneReport]:
    spec = iterspace.spec
    scheme.validate_against(spec)
    report = PruneReport()
    if scheme.is_disabled():
        return iterspace, report
    order = spec.index_names
    axes = scheme.pruned_axes(order)
    if not axes:
        return iterspace, report
    index_of = {name: axis for axis, name in enumerate(order)}
    doomed: List[str] = []
    for variable, d in spec.difference_vectors().items():
        if not iterspace.conns_for(variable):
            continue
        if any(d[index_of[name]] != 0 for name in axes if name in index_of):
            doomed.append(variable)
            report.reasons[variable] = (
                f"flows along load-balanced axes {sorted(axes)}; PEs there may"
                " execute foreign iterations (Figure 10b)"
            )
    if doomed:
        report.pruned_variables.extend(doomed)
        return iterspace.without_conns(doomed), report
    return iterspace, report


def apply_transform(
    iterspace: ScalarSpace, transform: SpaceTimeTransform
) -> PhysicalArray:
    if transform.rank != len(iterspace.spec.index_names):
        raise SpecError(
            f"transform rank {transform.rank} does not match spec indices"
            f" {iterspace.spec.index_names}"
        )
    positions: Set[Tuple[int, ...]] = set()
    times: List[int] = []
    for point in iterspace.points:
        st = transform.apply(point.coords)
        positions.add(st[: transform.space_dims])
        times.append(st[transform.space_dims])

    seen: Dict[Tuple[str, Tuple[int, ...], int], PhysicalConn] = {}
    for conn in iterspace.p2p_conns:
        offset = conn.offset()
        key = (conn.variable, offset, conn.bundle)
        if key in seen:
            continue
        dt = transform.time_delta(offset)
        if dt < 0:
            raise SpecError(
                f"transform violates causality for {conn.variable!r}"
                f" (time delta {dt})"
            )
        disp = transform.apply(offset)
        seen[key] = PhysicalConn(
            conn.variable,
            disp[: transform.space_dims],
            disp[transform.space_dims],
            conn.bundle,
        )

    io_ports: Dict[str, int] = {}
    io_sites: Set[Tuple[str, Tuple[int, ...]]] = set()
    inputs = 0
    for io in iterspace.io_conns:
        space = transform.space(io.point.coords)
        if (io.variable, space) not in io_sites:
            io_sites.add((io.variable, space))
            io_ports[io.variable] = io_ports.get(io.variable, 0) + 1
        inputs += io.direction is IODirection.INPUT

    schedule_length = (max(times) - min(times) + 1) if times else 0
    return PhysicalArray(
        sorted(positions),
        len(iterspace.points),
        list(seen.values()),
        io_ports,
        (inputs, len(iterspace.io_conns) - inputs),
        schedule_length,
    )


def consumption_order(
    iterspace: ScalarSpace,
    transform: SpaceTimeTransform,
    variable: str,
    direction: IODirection = IODirection.INPUT,
) -> Optional[List[Tuple[int, ...]]]:
    spec = iterspace.spec
    if spec.has_data_dependent_accesses():
        return None
    subscripts = _element_subscripts(spec, variable, direction)
    if subscripts is None:
        return None
    events = []
    seen = set()
    for io in iterspace.io_conns:
        if io.variable != variable or io.direction is not direction:
            continue
        st = transform.apply(io.point.coords)
        t = st[transform.space_dims:]
        pos = st[: transform.space_dims]
        env = dict(zip(spec.index_names, io.point.coords))
        element = tuple(int(sub.evaluate(env, iterspace.bounds)) for sub in subscripts)
        if element not in seen:
            seen.add(element)
            events.append((t, pos, element))
    if not events:
        return None
    events.sort(key=lambda e: (e[0], e[1]))
    return [element for _, __, element in events]


def plan_regfiles(
    spec, pruned: ScalarSpace, transform, membufs, sparsity, element_bits
) -> Dict[str, RegfilePlan]:
    plans: Dict[str, RegfilePlan] = {}
    data_dependent = spec.has_data_dependent_accesses()
    sparse_iters = sparsity.skipped_iterators()
    for variable in sorted(
        {io.variable for io in pruned.io_conns} | set(spec.difference_vectors())
    ):
        inputs = [
            io for io in pruned.io_for(variable) if io.direction is IODirection.INPUT
        ]
        outputs = [
            io for io in pruned.io_for(variable) if io.direction is IODirection.OUTPUT
        ]
        if not inputs and not outputs:
            continue
        consumer = consumption_order(pruned, transform, variable, IODirection.INPUT)
        tensor = next((io.tensor for io in inputs if io.tensor), None) or next(
            (io.tensor for io in outputs if io.tensor), None
        )
        producer = None
        if tensor is not None and tensor in membufs:
            producer = _producer_order_for(membufs[tensor], consumer)
        dep_sparse = bool(spec.dependence_set(variable) & sparse_iters)
        entries = len(consumer) if consumer else None
        in_positions = {transform.space(io.point.coords) for io in inputs}
        out_positions = {transform.space(io.point.coords) for io in outputs}
        plans[variable] = choose_regfile(
            variable,
            producer,
            consumer,
            entries=entries,
            in_ports=max(1, len(in_positions)),
            out_ports=max(1, len(out_positions)),
            element_bits=element_bits,
            data_dependent=data_dependent or dep_sparse,
        )
    return plans


def compile_reference(
    spec, bounds, transform, sparsity=None, balancing=None, membufs=None,
    element_bits: int = 32,
):
    """``(array, regfile_plans, prune_reports)`` of the point-at-a-time
    pipeline: the IR half of :func:`repro.core.compiler.compile_design`."""
    sparsity = sparsity or SparsityStructure()
    balancing = balancing or LoadBalancingScheme()
    functional = elaborate(spec, bounds)
    step1, sparsity_report = prune_for_sparsity(functional, sparsity)
    pruned, balancing_report = prune_for_balancing(step1, balancing)
    array = apply_transform(pruned, transform)
    plans = plan_regfiles(
        spec, pruned, transform, dict(membufs or {}), sparsity, element_bits
    )
    return array, plans, [sparsity_report, balancing_report]

