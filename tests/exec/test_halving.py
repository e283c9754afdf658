"""Tests for repro.exec.halving: multi-fidelity successive halving.

The differential anchor is ``eta=1``: the ladder degenerates to one
exact rung, so halving must reproduce the brute-force reference
(:func:`repro.fuzz.oracles.brute_force_autotune`) row for row.  The
pruning runs (``eta>=2``) are then held to the structural guarantees --
never worse than the fixed sweep, never worse than the
exhaustive run over the same space, byte-identical across cold and warm
disk stores -- rather than to pinned winners, because the winners are
the exhaustive search's by construction.
"""

import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balancing import LoadBalancingScheme
from repro.core.dataflow import output_stationary
from repro.core.expr import Bounds
from repro.dse.space import (
    DesignCombo,
    DesignSpace,
    budgeted_combos,
    suite_design_space,
)
from repro.dse.uarch import (
    DmaVariant,
    MembufVariant,
    RegfileVariant,
    standard_uarch_axes,
    uarch_overlay,
)
from repro.exec.cache import CompileCache, persistent_compile_cache
from repro.exec.halving import (
    MIN_RUNG_CAP,
    Constraint,
    HalvingResult,
    _combo_outcome,
    fidelity_ladder,
    halving_autotune_suite,
    parse_constraints,
)
from repro.exec.suite import SuiteError, build_suite, evaluate_suite
from repro.fuzz.oracles import brute_force_autotune
from repro.obs.profile import Profiler, set_profiler


def _suite(name="alexnet", cap=4, seed=7):
    return build_suite(name, cap=cap, seed=seed)


def _halve(suite_name="alexnet", **kwargs):
    kwargs.setdefault("cache", CompileCache())
    kwargs.setdefault("jobs", 1)
    return halving_autotune_suite(_suite(suite_name), **kwargs)


@pytest.fixture(scope="module")
def cap8_runs():
    """Halving (``eta=2``) and exhaustive (``eta=1``) runs at cap 8,
    seed 7 on each acceptance suite, sharing one cache per suite."""
    runs = {}
    for suite_name in ("resnet50", "alexnet", "suitesparse"):
        cache = CompileCache()
        runs[suite_name] = tuple(
            halving_autotune_suite(
                _suite(suite_name, cap=8), eta=eta, jobs=1, cache=cache
            )
            for eta in (2, 1)
        )
    return runs


def _winner_rows(result):
    return [
        (r["name"], r["transform"], r["sparsity"], r["balancing"],
         r["cycles"], r["output_digest"])
        for r in result.rows
    ]


class TestFidelityLadder:
    def test_eta2_doubles_caps_below_full(self):
        assert fidelity_ladder(8, 2) == [2, 4, None]
        assert fidelity_ladder(16, 2) == [2, 4, 8, None]

    def test_eta1_degenerates_to_single_exact_rung(self):
        assert fidelity_ladder(8, 1) == [None]
        assert fidelity_ladder(64, 1) == [None]

    def test_eta3_grows_by_three(self):
        assert fidelity_ladder(8, 3) == [2, 6, None]

    def test_tiny_full_cap_has_no_reduced_rungs(self):
        assert fidelity_ladder(MIN_RUNG_CAP, 2) == [None]
        assert fidelity_ladder(1, 2) == [None]

    def test_eta_below_one_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            fidelity_ladder(8, 0)


class TestConstraintGrammar:
    def test_parse_clauses(self):
        clauses = parse_constraints("area<=120000, power>=0.5")
        assert clauses == [
            Constraint("area", "<=", 120000.0),
            Constraint("power", ">=", 0.5),
        ]
        assert [str(c) for c in clauses] == ["area<=120000", "power>=0.5"]

    def test_empty_and_none_parse_to_nothing(self):
        assert parse_constraints(None) == []
        assert parse_constraints("") == []
        assert parse_constraints(" , ") == []

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            parse_constraints("latency<=10")

    def test_missing_operator_rejected(self):
        with pytest.raises(ValueError, match="form"):
            parse_constraints("cycles=10")

    def test_non_numeric_bound_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            parse_constraints("cycles<=fast")


class TestDifferential:
    def test_eta1_matches_exhaustive_autotune(self):
        """One exact rung over the classic three-axis space must pick
        exactly the brute-force reference's winners."""
        narrow = suite_design_space(_suite())
        winners, fixed_total = brute_force_autotune(_suite(), narrow)
        halved = _halve(space=narrow, eta=1)
        assert _winner_rows(halved) == winners
        assert halved.total_cycles == sum(w[4] for w in winners)
        assert halved.fixed_total_cycles == fixed_total

    def test_pruned_run_matches_eta1_over_wide_space(self):
        """Successive halving with pruning lands on the same winners as
        the single exact rung over the identical widened combo list."""
        halved = _halve(eta=2)
        exact = _halve(eta=1)
        assert _winner_rows(halved) == _winner_rows(exact)
        assert halved.total_cycles == exact.total_cycles

    def test_never_worse_than_fixed_across_suites(self):
        for suite_name in ("alexnet", "resnet50", "suitesparse"):
            result = _halve(suite_name)
            assert result.total_cycles <= result.fixed_total_cycles

    def test_never_worse_than_exhaustive_across_suites(self, cap8_runs):
        for suite_name in ("alexnet", "resnet50"):
            halved = _halve(suite_name, eta=2)
            exact = _halve(suite_name, eta=1)
            assert halved.total_cycles <= exact.total_cycles
        # At cap 8 pruning loses nothing: both runs land on the same
        # aggregate cycles on every suite.
        totals = {
            name: (halved.total_cycles, exact.total_cycles)
            for name, (halved, exact) in cap8_runs.items()
        }
        assert totals == {
            "resnet50": (389, 389),
            "alexnet": (84, 84),
            "suitesparse": (351, 351),
        }

    def test_fixed_cycles_match_fixed_sweep(self):
        fixed = evaluate_suite(_suite(), jobs=1, cache=CompileCache())
        halved = _halve()
        assert halved.fixed_total_cycles == fixed.total_cycles


class TestDiskStoreIdentity:
    def test_cold_and_warm_runs_pick_identical_winners(self):
        """Two runs sharing one disk-store root (the second answered
        mostly from disk, including the reduced-fidelity rung entries)
        agree row for row and rung for rung."""
        with tempfile.TemporaryDirectory(prefix="stellar-halving-") as root:
            cold = halving_autotune_suite(
                _suite(), jobs=1, cache=persistent_compile_cache(root)
            )
            warm_cache = persistent_compile_cache(root)
            warm = halving_autotune_suite(_suite(), jobs=1, cache=warm_cache)
        assert cold.rows == warm.rows
        assert [s.as_dict() for s in cold.rungs] == [
            s.as_dict() for s in warm.rungs
        ]
        assert warm_cache.store.stats.hits > 0


class TestSchedule:
    def test_rung_tallies_and_ladder(self):
        result = _halve(eta=2)
        assert result.ladder == [2, None]
        assert [s.fidelity for s in result.rungs] == ["cap2", "full"]
        assert result.rungs[0].candidates == len(result.combos) * len(
            result.decisions
        )
        assert result.rungs[-1].candidates == result.full_fidelity_evaluations
        assert result.rungs[-1].survivors == 0
        # Pruning must actually shed work before the exact rung.
        assert result.full_fidelity_evaluations < result.exhaustive_evaluations
        assert result.evaluations_saved > 1.0

    def test_cap8_saves_four_fold_full_fidelity_evaluations(self, cap8_runs):
        """At cap 8 and eta=2 the ladder is cap2 -> cap4 -> full, each
        rung halving the candidates, so every suite runs a quarter of
        the exhaustive full-fidelity evaluations."""
        for halved, _ in cap8_runs.values():
            assert halved.ladder == [2, 4, None]
            assert halved.evaluations_saved == 4.0
        saved = {
            name: (halved.full_fidelity_evaluations,
                   halved.exhaustive_evaluations)
            for name, (halved, _) in cap8_runs.items()
        }
        assert saved == {
            "resnet50": (144, 576),
            "alexnet": (160, 640),
            "suitesparse": (608, 2432),
        }

    def test_on_rung_events_bracket_every_rung(self):
        events = []
        _halve(on_rung=events.append)
        starts = [e for e in events if e["event"] == "rung_start"]
        finishes = [e for e in events if e["event"] == "rung_finish"]
        assert len(starts) == len(finishes) == 2
        assert [e["fidelity"] for e in starts] == ["cap2", "full"]
        assert finishes[0]["survivors"] > 0

    def test_budget_is_rung0_sizing_alias(self):
        result = _halve(budget=6)
        assert len(result.combos) == 6
        assert result.total_cycles <= result.fixed_total_cycles

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            _halve(objective="latency")

    def test_result_serializes(self):
        result = _halve(eta=2)
        payload = result.to_dict()
        assert payload["mode"] == "halving"
        assert payload["eta"] == 2
        assert payload["ladder"] == [2, "full"]
        assert payload["constraint"] is None
        assert [r["fidelity"] for r in payload["rungs"]] == ["cap2", "full"]
        assert set(payload["frontiers"]) == {
            d.case.name for d in result.decisions
        }
        for row in payload["rows"]:
            assert {"membuf", "dma", "regfile", "feasible"} <= set(row)
        aggregates = payload["aggregates"]
        assert aggregates["evaluations_saved"] == round(
            result.evaluations_saved, 4
        )
        assert aggregates["full_fidelity_evaluations"] > 0
        json.dumps(payload)  # wire-safe
        assert isinstance(result, HalvingResult)
        assert result.table()


class TestConstraints:
    def test_generous_constraint_keeps_the_winner(self):
        plain = _halve()
        bounded = _halve(constraints="area<=1000000000,cycles<=1000000")
        assert _winner_rows(bounded) == _winner_rows(plain)
        for row in bounded.rows:
            assert row["feasible"] >= 1

    def test_impossible_constraint_raises(self):
        with pytest.raises(SuiteError, match="constraint"):
            _halve(constraints="area<=1")

    def test_binding_area_constraint_changes_feasible_set(self):
        plain = _halve()
        frontier = plain.to_dict()["frontiers"]
        areas = sorted(
            {point["area_um2"] for rows in frontier.values() for point in rows}
        )
        if len(areas) < 2:
            pytest.skip("frontier has a single area point at this cap")
        limit = (areas[0] + areas[1]) / 2
        bounded = _halve(constraints=f"area<={limit}")
        assert all(
            row["area_um2"] <= limit for row in bounded.rows
        )

    def test_constraint_string_is_canonicalized(self):
        result = _halve(constraints=" area<=50000000 , power>=0 ")
        assert result.to_dict()["constraint"] == "area<=50000000,power>=0"


class TestStratifiedBudget:
    def test_sample_is_deterministic(self):
        combos = suite_design_space(_suite(), wide=True).combos()
        first = budgeted_combos(combos, 9, seed=0)
        second = budgeted_combos(combos, 9, seed=0)
        assert [c.key for c in first] == [c.key for c in second]

    def test_small_budgets_touch_every_transform(self):
        """The old prefix truncation kept a transform-major prefix; the
        stratified draw must cover all four transforms by budget 4."""
        combos = suite_design_space(_suite(), wide=True).combos()
        transforms = sorted({c.transform_name for c in combos})
        kept = budgeted_combos(combos, len(transforms))
        assert sorted({c.transform_name for c in kept}) == transforms

    def test_seed_changes_the_draw(self):
        combos = suite_design_space(_suite(), wide=True).combos()
        draws = {
            tuple(c.key for c in budgeted_combos(combos, 8, seed=seed))
            for seed in range(4)
        }
        assert len(draws) > 1

    def test_required_baseline_survives_any_budget(self):
        combos = suite_design_space(_suite(), wide=True).combos()
        baseline = ("output-stationary", "B-csr", "row-shift")
        for budget in (1, 2, 5):
            kept = budgeted_combos(combos, budget, require=baseline)
            assert len(kept) == budget
            assert any(
                c.names == baseline and c.is_default_uarch for c in kept
            )


class TestUarchOverlay:
    def test_neutral_configuration_is_free(self):
        bounds = Bounds({"i": 4, "j": 4, "k": 4})
        assert uarch_overlay(None, None, None, bounds, 16) == (0, 0.0)

    def test_variants_only_add_cycles(self):
        bounds = Bounds({"i": 8, "j": 8, "k": 8})
        extra, _area = uarch_overlay(
            MembufVariant(4, 4), DmaVariant(1), RegfileVariant("crossbar"),
            bounds, 16,
        )
        assert extra > 0

    def test_area_savers_shrink_area(self):
        bounds = Bounds({"i": 8, "j": 8, "k": 8})
        _extra, area = uarch_overlay(
            MembufVariant(4, 4), DmaVariant(1), None, bounds, 16
        )
        assert area < 0

    #: One overlay table per (bounds, element_bits), shared by every
    #: example, as one rung shares it across its combos.
    shared_tables = {}

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.tuples(*[st.integers(1, 48)] * 3),
        names=st.tuples(
            *(st.sampled_from(sorted(axis)) for axis in standard_uarch_axes())
        ),
        element_bits=st.sampled_from([8, 16, 32]),
    )
    def test_overlay_properties_over_the_standard_axes(
        self, sizes, names, element_bits
    ):
        bounds = Bounds(dict(zip("ijk", sizes)))
        variants = tuple(
            axis[name] for axis, name in zip(standard_uarch_axes(), names)
        )
        extra, delta = uarch_overlay(*variants, bounds, element_bits)
        assert extra >= 0
        if variants == (None, None, None):
            assert (extra, delta) == (0, 0.0)
        base = {"status": "ok", "cycles": 1000, "area_um2": 5000.0}
        combo = DesignCombo(
            "t", None, "s", None, "b", None,
            *(field for pair in zip(names, variants) for field in pair),
        )
        outcome = _combo_outcome(
            base, combo, bounds, element_bits,
            self.shared_tables.setdefault((sizes, element_bits), {}),
        )
        assert outcome["cycles"] == base["cycles"] + extra
        assert outcome["area_um2"] == base["area_um2"] + delta
        # A neutral combo shares its base; no combo changes it.
        assert (outcome is base) == (variants == (None, None, None))
        assert base == {"status": "ok", "cycles": 1000, "area_um2": 5000.0}

    def test_an_illegal_base_is_illegal_for_every_variant(self):
        base = {"status": "illegal", "name": "x", "error": "no"}
        membufs, dmas, regfiles = standard_uarch_axes()
        combo = DesignCombo(
            "t", None, "s", None, "b", None,
            "stage4x4", membufs["stage4x4"], "shallow1", dmas["shallow1"],
        )
        bounds = Bounds({"i": 4, "j": 4, "k": 4})
        assert _combo_outcome(base, combo, bounds, 32, {}) is base

    @staticmethod
    def _one_base_space(suite):
        """The suite's fixed design widened by the standard uarch axes:
        one base point per layer, eight combos on it."""
        return DesignSpace(
            {suite.transform_name: output_stationary()},
            {suite.sparsity_name: suite.sparsity},
            {suite.balancing_name: LoadBalancingScheme()},
            *standard_uarch_axes(),
        )

    def test_uarch_variants_of_one_base_compile_and_simulate_once(
        self, monkeypatch
    ):
        import repro.dse.uarch as uarch

        suite = _suite()
        overlay_calls = []

        def counting(*args):
            overlay_calls.append(args)
            return uarch_overlay(*args)

        monkeypatch.setattr(uarch, "uarch_overlay", counting)
        cache = CompileCache()
        profiler = Profiler(enabled=True)
        previous = set_profiler(profiler)
        try:
            result = halving_autotune_suite(
                suite, eta=2, jobs=1, cache=cache,
                space=self._one_base_space(suite),
            )
        finally:
            set_profiler(previous)
        labels = {r.label: r.calls for r in profiler.records()}
        candidates = sum(stats.candidates for stats in result.rungs)
        bases = len(suite.cases) * len(result.rungs)
        assert len(result.combos) == 8
        # One point, compile and simulation per base, never one per
        # uarch variant.
        assert labels["dse.point"] == bases < candidates
        assert cache.stats.by_stage["dse.point"][1] == bases
        assert labels["dse.compile"] == labels["dse.simulate"] == bases
        assert result.report.evaluated + result.report.skipped == len(
            suite.cases
        )
        # Each (variants, bounds) pair is computed once per rung.
        assert len(overlay_calls) == len(
            {(args[:3], repr(args[3])) for args in overlay_calls}
        )
        assert len(overlay_calls) <= 7 * bases

    def test_overlay_on_a_shared_base_matches_the_direct_overlay(self):
        suite = _suite()
        cache = CompileCache()
        result = halving_autotune_suite(
            suite, eta=1, jobs=1, cache=cache,
            space=self._one_base_space(suite),
        )
        assert sum(cache.stats.by_stage["dse.point"]) == len(suite.cases)
        axes = standard_uarch_axes()
        for decision in result.decisions:
            base = decision.fixed_outcome
            assert len(decision.frontier_points) > 1
            for point in decision.frontier_points:
                variants = tuple(
                    axis[point[name]]
                    for axis, name in zip(axes, ("membuf", "dma", "regfile"))
                )
                extra, delta = uarch_overlay(
                    *variants, decision.case.bounds, suite.element_bits
                )
                assert point["cycles"] == base["cycles"] + extra
                assert point["area_um2"] == base["area_um2"] + delta

    def test_standard_axes_lead_with_default(self):
        for axis in standard_uarch_axes():
            assert next(iter(axis)) == "default"
            assert axis["default"] is None
