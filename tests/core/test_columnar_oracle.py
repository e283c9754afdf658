"""The columnar compiler against the point-at-a-time one it replaced.

:mod:`tests.core.scalar_compiler` keeps the object-graph elaboration,
pruning rewrites, space-time map and regfile ladder.  Every case here
compiles one design both ways and requires the same physical array
(positions, connections in order, regfile ports in order, IO counts,
schedule length), the same regfile plans, the same prune reports, the
same pruned points, connections and IO requests (in order) and the same
consumption orders -- and a compiled design holding nothing but plain
Python values.
"""

import enum
import os

import numpy as np
import pytest

from repro.analysis.check import _compiled_of, discover_examples
from repro.core import (
    Bounds,
    SpecError,
    batched_matmul_spec,
    compile_design,
    conv1d_spec,
    matmul_spec,
)
from repro.core.balancing import (
    LoadBalancingScheme,
    flexible_pe_scheme,
    row_shift_scheme,
)
from repro.core.dataflow import (
    SpaceTimeTransform,
    hexagonal,
    identity,
    input_stationary,
    output_stationary,
    validate_schedule,
)
from repro.core.iterspace import IODirection, IORequests, IterationSpace, elaborate
from repro.core.passes.prune import prune_for_balancing, prune_for_sparsity
from repro.core.passes.regfile_opt import consumption_order
from repro.core.sparsity import (
    SparsityStructure,
    a100_two_four,
    csr_b_matrix,
    diagonal_a_matrix,
)

from . import scalar_compiler as scalar

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
)

STANDARD = {
    "output-stationary": output_stationary,
    "input-stationary": input_stationary,
    "hexagonal": hexagonal,
}


def _array_fields(array):
    return (
        array.positions(),
        array.point_count,
        [(c.variable, c.space_offset, c.time_offset, c.bundle) for c in array.conns],
        list(array.io_ports.items()),
        array.io_counts,
        array.schedule_length,
    )


def _plan_fields(plans):
    return [
        (key, p.variable, p.kind, p.entries, p.in_ports, p.out_ports,
         p.element_bits, p.reason)
        for key, p in plans.items()
    ]


def _report_fields(reports):
    return [
        (r.pruned_variables, list(r.widened_variables.items()),
         r.removed_points, list(r.reasons.items()))
        for r in reports
    ]


def _columnar_lists(space):
    """An iteration space's points, connections and IO requests as the
    lists of coordinate tuples the point-at-a-time IR held, in order."""
    points = [tuple(p) for p in space.points.tolist()]
    conns = [
        (variable, points[src], points[dst], conns.bundle)
        for variable, conns in space.conns.items()
        for src, dst in zip(conns.src.tolist(), conns.dst.tolist())
    ]
    io = [
        (variable, points[row],
         IODirection.INPUT if is_input else IODirection.OUTPUT, tensor)
        for row, is_input, variable, tensor in zip(
            space.io.point.tolist(), space.io.is_input.tolist(),
            space.io.variable, space.io.tensor,
        )
    ]
    return points, conns, io


def _scalar_lists(space):
    return (
        [p.coords for p in space.points],
        [(c.variable, c.src.coords, c.dst.coords, c.bundle)
         for c in space.p2p_conns],
        [(io.variable, io.point.coords, io.direction, io.tensor)
         for io in space.io_conns],
    )


def _numpy_values(value, seen=None):
    """Paths to every numpy scalar or array reachable from ``value``."""
    seen = set() if seen is None else seen
    if id(value) in seen or isinstance(value, (str, bytes, type, enum.Enum)):
        return []
    seen.add(id(value))
    if isinstance(value, (np.generic, np.ndarray)):
        return [type(value).__name__]
    if isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    elif hasattr(value, "__dict__") or hasattr(type(value), "__slots__"):
        children = list(getattr(value, "__dict__", {}).values()) + [
            getattr(value, name)
            for name in getattr(type(value), "__slots__", ())
            if hasattr(value, name)
        ]
    else:
        return []
    return [
        f"{type(value).__name__}/{found}"
        for child in children
        for found in _numpy_values(child, seen)
    ]


def _check_against_reference(spec, bounds, transform, sparsity=None,
                             balancing=None, membufs=None, element_bits=32):
    try:
        validate_schedule(spec, transform)
    except SpecError:
        pytest.skip("illegal schedule: rejected before the IR is built")
    design = compile_design(
        spec, bounds, transform, sparsity=sparsity, balancing=balancing,
        membufs=membufs, element_bits=element_bits, check=False,
    )
    array, plans, reports = scalar.compile_reference(
        spec, bounds, transform, sparsity, balancing, membufs, element_bits
    )
    assert _array_fields(design.array) == _array_fields(array)
    assert _plan_fields(design.regfile_plans) == _plan_fields(plans)
    assert _report_fields(design.prune_reports) == _report_fields(reports)
    assert _numpy_values(design) == []

    # The pruned IR itself, and the regfile ladder's orders of every
    # variable both ways.
    pruned = prune_for_balancing(
        prune_for_sparsity(elaborate(spec, bounds), sparsity or SparsityStructure())[0],
        balancing or LoadBalancingScheme(),
    )[0]
    reference = scalar.prune_for_balancing(
        scalar.prune_for_sparsity(
            scalar.elaborate(spec, bounds), sparsity or SparsityStructure()
        )[0],
        balancing or LoadBalancingScheme(),
    )[0]
    assert _columnar_lists(pruned) == _scalar_lists(reference)
    for variable in spec.difference_vectors():
        for direction in IODirection:
            assert consumption_order(pruned, transform, variable, direction) == (
                scalar.consumption_order(reference, transform, variable, direction)
            ), (variable, direction)


def _example_cases():
    cases = []
    for example in discover_examples([EXAMPLES]):
        assert not example.error, example.error
        design = example.build()
        rank = len(design.spec.index_names)
        transforms = {"own": design.transform}
        if rank == 3:
            transforms.update({name: make() for name, make in STANDARD.items()})
        else:
            transforms["identity"] = identity(rank)
        for name, transform in transforms.items():
            cases.append(pytest.param(design, transform, id=f"{example.name}-{name}"))
    return cases


@pytest.mark.parametrize("design, transform", _example_cases())
def test_examples_match_reference(design, transform):
    _check_against_reference(
        design.spec, design.bounds, transform, design.sparsity,
        design.balancing, design.membufs, getattr(design, "element_bits", 32),
    )


SPARSITIES = {
    "dense": lambda spec: None,
    "structured-i-ne-k": diagonal_a_matrix,
    "b-csr": csr_b_matrix,
    "optimistic": a100_two_four,
}
BALANCING = {
    "unbalanced": lambda: None,
    "row-shift": lambda: row_shift_scheme(2),
    "flexible-pe": lambda: flexible_pe_scheme(4),
}


@pytest.mark.parametrize("balancing", BALANCING, ids=str)
@pytest.mark.parametrize("sparsity", SPARSITIES, ids=str)
@pytest.mark.parametrize("transform", STANDARD, ids=str)
def test_matmul_sparsity_matches_reference(transform, sparsity, balancing):
    spec = matmul_spec()
    # Offset, unequal ranges: row indices are not coordinates.
    bounds = Bounds({"i": (1, 4), "j": 3, "k": (-1, 3)})
    _check_against_reference(
        spec, bounds, STANDARD[transform](),
        SPARSITIES[sparsity](spec), BALANCING[balancing](),
    )


@pytest.mark.parametrize("transform", STANDARD, ids=str)
def test_conv1d_matches_reference(transform):
    spec = conv1d_spec()
    bounds = Bounds({name: 3 + axis for axis, name in enumerate(spec.index_names)})
    _check_against_reference(spec, bounds, STANDARD[transform]())


def test_two_time_dimensions_match_reference():
    """Batched matmul with the batch index folded into an outer time row:
    schedule length and orders read the time rows lexicographically."""
    spec = batched_matmul_spec()  # (n, i, j, k)
    transform = SpaceTimeTransform(
        [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 1, 1]], space_dims=2
    )
    bounds = Bounds({"n": (2, 4), "i": 3, "j": (1, 2), "k": 4})
    _check_against_reference(spec, bounds, transform)


@pytest.mark.parametrize(
    "make_spec", [matmul_spec, conv1d_spec, batched_matmul_spec],
    ids=lambda make: make.__name__,
)
def test_rewrites_match_reference(make_spec):
    """Removing every connection, and widening each variable, on every
    spec of the fuzz library."""
    spec = make_spec()
    bounds = Bounds({
        name: (axis - 1, axis + 1) for axis, name in enumerate(spec.index_names)
    })
    columnar = elaborate(spec, bounds)
    reference = scalar.elaborate(spec, bounds)
    assert _columnar_lists(columnar) == _scalar_lists(reference)
    variables = list(columnar.conns)
    assert _columnar_lists(columnar.without_conns(variables)) == _scalar_lists(
        reference.without_conns(variables)
    )
    for variable in variables:
        assert _columnar_lists(columnar.widened(variable, 2)) == _scalar_lists(
            reference.widened(variable, 2)
        )


def test_rewrite_skips_existing_requests():
    """A removed connection's endpoint that already has a request of the
    same variable and direction gains no second one."""
    spec = matmul_spec()
    bounds = Bounds({"i": 2, "j": 3, "k": 3})
    columnar = elaborate(spec, bounds)
    reference = scalar.elaborate(spec, bounds)
    row = int(columnar.conns["c"].dst[1])
    added = IORequests(
        np.array([row]), np.array([True]),
        np.array(["c"], dtype=object), np.array([None], dtype=object),
    )
    columnar = IterationSpace(
        spec, bounds, columnar.points, columnar.conns,
        IORequests.concat([columnar.io, added]),
    )
    reference.io_conns.append(scalar.IOConn(
        "c", reference.points[row], IODirection.INPUT
    ))
    assert _columnar_lists(columnar.without_conns(["c"])) == _scalar_lists(
        reference.without_conns(["c"])
    )


def test_compiled_examples_hold_plain_values():
    for example in discover_examples([EXAMPLES]):
        assert _numpy_values(_compiled_of(example.build())) == [], example.name
