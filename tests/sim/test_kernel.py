"""Unit tests for the trace-compiled batched reference kernels.

The byte-identity sweep against the scalar interpreter lives in
``tests/exec/test_differential.py``; this file covers the tracer's
classification, the fallback contract, the per-spec kernel memo,
pickling, and the obs instrumentation.
"""

import pickle

import numpy as np
import pytest

from repro.core import Bounds, matmul_spec
from repro.core.expr import (
    WILDCARD,
    Comparison,
    Const,
    Index,
    IndexValue,
    Local,
    SpecError,
    Tensor,
)
from repro.core.functionality import (
    FunctionalSpec,
    batched_matmul_spec,
    conv1d_spec,
)
from repro.core.library import merge_sorted_spec, sort_network_spec
from repro.obs.profile import Profiler, set_profiler
from repro.obs.trace import Tracer, set_tracer
from repro.sim.kernel import (
    CompiledKernel,
    KernelFallback,
    cached_kernel,
    compile_kernel,
    replay_interpret,
    skip_mask,
)


def _matmul_tensors(rng, i, j, k):
    return {"A": rng.integers(-5, 6, (i, k)), "B": rng.integers(-5, 6, (k, j))}


def _scan_without_init() -> FunctionalSpec:
    """A running sum whose spec forgot the ``k.lowerBound`` slot."""
    i, k = Index("i"), Index("k")
    X, Y = Tensor("X", 2), Tensor("Y", 1)
    acc = Local("acc", 2)
    spec = FunctionalSpec("noinit", [i, k])
    spec.let(acc[i, k], acc[i, k - 1] + X[i, k])
    spec.let(Y[i], acc[i, k.upper_bound])
    return spec


class TestTracing:
    def test_matmul_classification(self):
        kernel = compile_kernel(matmul_spec())
        assert isinstance(kernel, CompiledKernel)
        modes = {step.name: step.mode for step in kernel.steps}
        assert modes == {"a": "propagate", "b": "propagate", "c": "scan"}
        scan = next(s for s in kernel.steps if s.name == "c")
        assert scan.op == "+"
        assert scan.flow_axis == 2
        # Dependency order: the scan consumes a and b.
        assert [s.name for s in kernel.steps][-1] == "c"

    @pytest.mark.parametrize("factory", [conv1d_spec, batched_matmul_spec])
    def test_library_dense_specs_trace(self, factory):
        assert compile_kernel(factory()) is not None

    @pytest.mark.parametrize("factory", [merge_sorted_spec, sort_network_spec])
    def test_data_dependent_specs_fall_back(self, factory):
        assert compile_kernel(factory()) is None

    def test_multi_step_recurrence_falls_back(self):
        i, k = Index("i"), Index("k")
        X, Y = Tensor("X", 2), Tensor("Y", 1)
        acc = Local("acc", 2)
        spec = FunctionalSpec("stride2", [i, k])
        spec.let(acc[i, k.lower_bound], 0)
        spec.let(acc[i, k], acc[i, k - 2] + X[i, k])
        spec.let(Y[i], acc[i, k.upper_bound])
        assert compile_kernel(spec) is None

    def test_double_self_reference_falls_back(self):
        i, k = Index("i"), Index("k")
        X, Y = Tensor("X", 2), Tensor("Y", 1)
        acc = Local("acc", 2)
        spec = FunctionalSpec("double", [i, k])
        spec.let(acc[i, k.lower_bound], 0)
        spec.let(acc[i, k], acc[i, k - 1] + acc[i, k - 1])
        spec.let(Y[i], acc[i, k.upper_bound])
        assert compile_kernel(spec) is None

    def test_noncommutative_right_recurrence_falls_back(self):
        """``g - acc(k-1)`` alternates sign per step -- not an accumulate."""
        i, k = Index("i"), Index("k")
        X, Y = Tensor("X", 2), Tensor("Y", 1)
        acc = Local("acc", 2)
        spec = FunctionalSpec("altsign", [i, k])
        spec.let(acc[i, k.lower_bound], 0)
        spec.let(acc[i, k], X[i, k] - acc[i, k - 1])
        spec.let(Y[i], acc[i, k.upper_bound])
        assert compile_kernel(spec) is None

    def test_bound_marker_on_a_foreign_index_falls_back(self):
        """Plans are keyed on the spec's own index ranges, so a bound
        marker on any other index must take the scalar path."""
        i, z = Index("i"), Index("z")
        X, Y = Tensor("X", 1), Tensor("Y", 1)
        a = Local("a", 1)
        spec = FunctionalSpec("foreign", [i])
        spec.let(a[i], X[z.upper_bound])
        spec.let(Y[i], a[i])
        assert compile_kernel(spec) is None
        tensors = {"X": np.arange(5)}
        for hi in (1, 3):
            got = spec.interpret(Bounds({"i": 2, "z": (0, hi)}), tensors)
            assert got["Y"].tolist() == [hi, hi]

    def test_commutative_right_recurrence_traces(self):
        i, k = Index("i"), Index("k")
        X, Y = Tensor("X", 2), Tensor("Y", 1)
        acc = Local("acc", 2)
        spec = FunctionalSpec("rightsum", [i, k])
        spec.let(acc[i, k.lower_bound], 0)
        spec.let(acc[i, k], X[i, k] + acc[i, k - 1])
        spec.let(Y[i], acc[i, k.upper_bound])
        kernel = compile_kernel(spec)
        assert kernel is not None
        rng = np.random.default_rng(3)
        bounds = Bounds({"i": 3, "k": 5})
        tensors = {"X": rng.integers(-4, 5, (3, 5))}
        got = kernel.replay(bounds, tensors)
        want = spec.interpret(bounds, tensors, kernel=False)
        assert got["Y"].tobytes() == want["Y"].tobytes()


class TestFallbackContract:
    def test_missing_boundary_rule_replays_as_fallback(self):
        spec = _scan_without_init()
        kernel = compile_kernel(spec)
        assert kernel is not None  # compile is symbolic; the hole is dynamic
        bounds = Bounds({"i": 2, "k": 3})
        tensors = {"X": np.ones((2, 3), dtype=np.int64)}
        with pytest.raises(KernelFallback):
            kernel.replay(bounds, tensors)
        assert replay_interpret(spec, bounds, tensors) is None
        # The default interpret falls through to the scalar path, which
        # owns the precise diagnostic -- identical either way.
        with pytest.raises(SpecError, match="no boundary rule"):
            spec.interpret(bounds, tensors)
        with pytest.raises(SpecError, match="no boundary rule"):
            spec.interpret(bounds, tensors, kernel=False)

    def test_missing_tensor_raises_like_scalar(self):
        spec = matmul_spec()
        kernel = compile_kernel(spec)
        bounds = Bounds({"i": 2, "j": 2, "k": 2})
        with pytest.raises(SpecError, match="no data provided for tensor 'B'"):
            kernel.replay(bounds, {"A": np.ones((2, 2), dtype=np.int64)})
        with pytest.raises(SpecError, match="no data provided for tensor 'B'"):
            spec.interpret(
                bounds, {"A": np.ones((2, 2), dtype=np.int64)}, kernel=False
            )

    def test_missing_bounds_rejected_either_path(self):
        spec = matmul_spec()
        with pytest.raises(SpecError, match="bounds missing index 'k'"):
            spec.interpret(Bounds({"i": 2, "j": 2}), {})
        with pytest.raises(SpecError, match="bounds missing index 'k'"):
            compile_kernel(spec).replay(Bounds({"i": 2, "j": 2}), {})

    def test_interpret_default_matches_scalar(self):
        spec = matmul_spec()
        rng = np.random.default_rng(11)
        bounds = Bounds({"i": 4, "j": 3, "k": 5})
        tensors = _matmul_tensors(rng, 4, 3, 5)
        via_kernel = spec.interpret(bounds, tensors)
        scalar = spec.interpret(bounds, tensors, kernel=False)
        assert via_kernel["C"].dtype == scalar["C"].dtype
        assert via_kernel["C"].tobytes() == scalar["C"].tobytes()

    def test_nonzero_init_parity(self):
        i, k = Index("i"), Index("k")
        X, Y = Tensor("X", 2), Tensor("Y", 1)
        acc = Local("acc", 2)
        spec = FunctionalSpec("seeded", [i, k])
        spec.let(acc[i, k.lower_bound], 7)
        spec.let(acc[i, k], acc[i, k - 1] + X[i, k])
        spec.let(Y[i], acc[i, k.upper_bound])
        rng = np.random.default_rng(4)
        bounds = Bounds({"i": 3, "k": 4})
        tensors = {"X": rng.integers(-4, 5, (3, 4))}
        got = compile_kernel(spec).replay(bounds, tensors)
        want = spec.interpret(bounds, tensors, kernel=False)
        assert got["Y"].tobytes() == want["Y"].tobytes()


class TestSkipMask:
    """Skip conditions evaluated by the batched evaluator."""

    BOUNDS = Bounds({"i": 2, "j": 3, "k": 4})

    def _mask(self, condition, tensors):
        return skip_mask(matmul_spec(), self.BOUNDS, tensors, condition)

    def test_lexicographic_point_order(self):
        i, j, k = Index("i"), Index("j"), Index("k")
        B = Tensor("B", 2)
        tensors = {"B": np.arange(12).reshape(4, 3) % 5}
        got = self._mask(B[k, j] == 0, tensors)
        want = [
            tensors["B"][kk, jj] == 0
            for _ii, jj, kk in self.BOUNDS.domain(("i", "j", "k"))
        ]
        assert got.dtype == bool and got.tolist() == want
        index_only = self._mask(IndexValue(i) != IndexValue(k), tensors)
        assert index_only.tolist() == [
            ii != kk for ii, _jj, kk in self.BOUNDS.domain(("i", "j", "k"))
        ]

    def test_wildcard_row_reads_its_any_nonzero_flag(self):
        i = Index("i")
        A = Tensor("A", 2)
        tensors = {"A": np.array([[0, 0, 0, 0], [0, 3, 0, 0]])}
        got = self._mask(A[i, WILDCARD] == 0, tensors)
        assert got.tolist() == [True] * 12 + [False] * 12

    def test_unbatchable_conditions_fall_back(self):
        i, j, k = Index("i"), Index("j"), Index("k")
        A, B = Tensor("A", 2), Tensor("B", 2)
        tensors = {
            "A": np.ones((2, 4), dtype=np.int64),
            "B": np.ones((4, 3), dtype=np.int64),
        }
        for condition, reason in [
            (A[i, IndexValue(k) + 0] == 0, "data-dependent"),
            (Local("c", 3)[i, j, k] == 0, "reads 'c'"),
            (Comparison("==", Const(0), A[i, WILDCARD]), "wildcard"),
            (B[k + 10, j] == 0, "out of range"),
        ]:
            with pytest.raises(KernelFallback, match=reason):
                self._mask(condition, tensors)


class TestMemoization:
    def test_cached_kernel_is_per_object(self):
        spec = matmul_spec()
        assert cached_kernel(spec) is cached_kernel(spec)
        assert cached_kernel(spec) is not cached_kernel(matmul_spec())


def _scan_before_input() -> FunctionalSpec:
    """``_scan_without_init`` whose fold term reads ``X`` through a
    pointwise local, so the tensor read runs before the phantom read."""
    i, k = Index("i"), Index("k")
    X, Y = Tensor("X", 2), Tensor("Y", 1)
    p, acc = Local("p", 2), Local("acc", 2)
    spec = FunctionalSpec("inputfirst", [i, k])
    spec.let(p[i, k], X[i, k])
    spec.let(acc[i, k], acc[i, k - 1] + p[i, k])
    spec.let(Y[i], acc[i, k.upper_bound])
    return spec


def _init_reads_itself() -> FunctionalSpec:
    """A phantom slot whose boundary rule reads the unfilled scan."""
    i, k = Index("i"), Index("k")
    X, Y = Tensor("X", 2), Tensor("Y", 1)
    acc = Local("acc", 2)
    spec = FunctionalSpec("selfinit", [i, k])
    spec.let(acc[i, k.lower_bound], acc[i, k] + X[i, k])
    spec.let(acc[i, k], acc[i, k - 1] + X[i, k])
    spec.let(Y[i], acc[i, k.upper_bound])
    return spec


def _plan_bytes(plan) -> int:
    """Bytes retained by a plan, counted once per base array."""
    bases: dict = {}
    seen: set = set()
    stack = [plan]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj.nbytes
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return sum(bases.values())


class TestWarmPlans:
    """Each distinct bounds gets one index-only plan; every later replay
    of those bounds runs only the value pass against it."""

    def test_warm_replays_equal_cold_and_scalar(self):
        spec = matmul_spec()
        kernel = compile_kernel(spec)
        bounds = Bounds({"i": 4, "j": 3, "k": 5})
        rng = np.random.default_rng(5)
        for tensors in (
            _matmul_tensors(rng, 4, 3, 5),
            {"A": rng.standard_normal((4, 5)), "B": rng.standard_normal((5, 3))},
            _matmul_tensors(rng, 4, 3, 5),
        ):
            got = kernel.replay(bounds, tensors)["C"]
            for want in (
                spec.interpret(bounds, tensors, kernel=False)["C"],
                compile_kernel(spec).replay(bounds, tensors)["C"],
            ):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        assert len(kernel._plans) == 1

    @pytest.mark.parametrize(
        "factory, tensors, error",
        [
            (_scan_without_init, {"X": np.ones((2, 3), dtype=np.int64)},
             KernelFallback),
            (_scan_without_init, {}, KernelFallback),
            (_scan_before_input, {}, SpecError),
            (_scan_before_input, {"X": np.ones((2, 3), dtype=np.int64)},
             KernelFallback),
            (_init_reads_itself, {"X": np.ones((2, 3), dtype=np.int64)},
             KernelFallback),
            (matmul_spec, {"A": np.ones((2, 3), dtype=np.int64)}, SpecError),
            (matmul_spec,
             {"A": np.ones((2, 3), dtype=np.int64),
              "B": np.ones((2, 3), dtype=np.int64)},
             IndexError),
        ],
    )
    def test_errors_repeat_on_a_warm_plan(self, factory, tensors, error):
        spec = factory()
        bounds = Bounds({name: (0, 2 if name == "k" else 1)
                         for name in spec.index_names})
        kernel = compile_kernel(spec)
        raised = []
        for replayer in (kernel, kernel, compile_kernel(spec)):
            with pytest.raises(error) as info:
                replayer.replay(bounds, tensors)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1] == raised[2]

    def test_output_over_an_unpinned_axis(self):
        """``Y(i) := acc(i, k)`` fires at every k: its value is wider
        than its cells, so the later k overwrite the earlier ones."""
        i, k = Index("i"), Index("k")
        X, Y = Tensor("X", 2), Tensor("Y", 1)
        acc = Local("acc", 2)
        spec = FunctionalSpec("unpinned", [i, k])
        spec.let(acc[i, k.lower_bound], 0)
        spec.let(acc[i, k], acc[i, k - 1] + X[i, k])
        spec.let(Y[i], acc[i, k])
        kernel = compile_kernel(spec)
        bounds = Bounds({"i": 3, "k": 4})
        tensors = {"X": np.arange(12).reshape(3, 4)}
        want = spec.interpret(bounds, tensors, kernel=False)["Y"]
        for _replay in range(2):
            assert kernel.replay(bounds, tensors)["Y"].tobytes() == want.tobytes()

    def test_read_before_definition_falls_back(self):
        kernel = compile_kernel(_init_reads_itself())
        bounds = Bounds({"i": 2, "k": 3})
        with pytest.raises(KernelFallback, match="'acc' before definition"):
            kernel.replay(bounds, {"X": np.ones((2, 3), dtype=np.int64)})

    def test_each_suite_bounds_gets_its_own_plan(self):
        from repro.exec.suite import build_resnet50

        suite = build_resnet50(cap=12)
        kernel = compile_kernel(suite.spec)
        for case in suite.cases:
            got = kernel.replay(case.bounds, case.tensors)["C"]
            want = suite.spec.interpret(case.bounds, case.tensors, kernel=False)
            assert got.tobytes() == want["C"].tobytes()
        assert sorted(kernel._plans) == [
            ((0, 0), (0, 11), (0, 11)),
            ((0, 11), (0, 11), (0, 11)),
        ]

    def test_equal_bounds_objects_share_a_plan(self):
        kernel = compile_kernel(matmul_spec())
        tensors = _matmul_tensors(np.random.default_rng(2), 2, 2, 2)
        kernel.replay(Bounds({"i": 2, "j": 2, "k": 2}), tensors)
        plan = next(iter(kernel._plans.values()))
        kernel.replay(Bounds({"i": 2, "j": 2, "k": 2}), tensors)
        assert list(kernel._plans.values()) == [plan]

    def test_plans_per_kernel_are_bounded(self):
        kernel = compile_kernel(matmul_spec())
        rng = np.random.default_rng(6)
        for size in range(1, 10):
            kernel.replay(
                Bounds({"i": size, "j": 2, "k": 2}),
                _matmul_tensors(rng, size, 2, 2),
            )
        assert len(kernel._plans) == 8
        assert ((0, 0), (0, 1), (0, 1)) not in kernel._plans

    def test_plan_is_compact(self):
        """A 64^3 plan holds less than one int64 domain array: gathers
        stay per-axis vectors and boundary lanes stay compressed."""
        kernel = compile_kernel(matmul_spec())
        rng = np.random.default_rng(8)
        kernel.replay(
            Bounds({"i": 64, "j": 64, "k": 64}), _matmul_tensors(rng, 64, 64, 64)
        )
        (plan,) = kernel._plans.values()
        assert _plan_bytes(plan) < 64 ** 3 * 8


class TestPickling:
    def test_pickle_drops_plans(self):
        kernel = compile_kernel(matmul_spec())
        before = pickle.dumps(kernel, protocol=4)
        tensors = _matmul_tensors(np.random.default_rng(1), 3, 4, 2)
        kernel.replay(Bounds({"i": 3, "j": 4, "k": 2}), tensors)
        assert kernel._plans
        assert pickle.dumps(kernel, protocol=4) == before
        assert pickle.loads(before)._plans == {}

    def test_compiled_kernel_roundtrips(self):
        """A kernel is pure data: it must survive a pickle round-trip
        and replay byte-identically afterwards."""
        spec = matmul_spec()
        kernel = compile_kernel(spec)
        clone = pickle.loads(pickle.dumps(kernel, protocol=4))
        rng = np.random.default_rng(9)
        bounds = Bounds({"i": 3, "j": 4, "k": 2})
        tensors = _matmul_tensors(rng, 3, 4, 2)
        assert (
            clone.replay(bounds, tensors)["C"].tobytes()
            == kernel.replay(bounds, tensors)["C"].tobytes()
        )


class TestObservability:
    def test_profiler_scopes(self):
        previous = set_profiler(Profiler(enabled=True))
        try:
            kernel = compile_kernel(matmul_spec())
            kernel.replay(
                Bounds({"i": 2, "j": 2, "k": 2}),
                {"A": np.ones((2, 2), dtype=np.int64),
                 "B": np.ones((2, 2), dtype=np.int64)},
            )
            from repro.obs.profile import get_profiler

            labels = {record.label for record in get_profiler().records()}
        finally:
            set_profiler(previous)
        assert "sim.kernel.compile" in labels
        assert "sim.kernel.replay" in labels

    def test_trace_events(self):
        previous = set_tracer(Tracer(enabled=True))
        try:
            spec = matmul_spec()
            kernel = compile_kernel(spec)
            kernel.replay(
                Bounds({"i": 2, "j": 2, "k": 2}),
                {"A": np.ones((2, 2), dtype=np.int64),
                 "B": np.ones((2, 2), dtype=np.int64)},
            )
            compile_kernel(merge_sorted_spec())
            from repro.obs.trace import get_tracer

            names = [event.name for event in get_tracer().events()]
        finally:
            set_tracer(previous)
        assert "kernel_compile" in names
        assert "kernel_replay" in names
        assert "kernel_fallback" in names
