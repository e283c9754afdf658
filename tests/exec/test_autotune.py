"""Tests for ``repro sweep --autotune``: exhaustive per-layer Pareto
autotuning, i.e. successive halving at ``eta=1`` over the non-widened
suite space (:func:`repro.exec.halving.sweep_suite`).

The golden-pin classes freeze the exact winner (transform, sparsity,
balancing, cycles, output digest) autotuning picks for every layer of
the small resnet50 and alexnet tiles.  Any change to candidate
enumeration order, Pareto ranking, tie-breaking, workload generation or
the simulator's cycle model shows up here as a pin diff -- which is the
point: re-pin deliberately, never accidentally.
"""

import pytest

from repro.dse.space import (
    DesignSpace,
    budgeted_combos,
    standard_transforms,
    suite_design_space,
)
from repro.exec.cache import CompileCache
from repro.exec.halving import (
    OBJECTIVES,
    HalvingResult,
    halving_autotune_suite,
    select_winner,
    sweep_suite,
)
from repro.exec.suite import SuiteError, build_suite, evaluate_suite

# (layer, transform, sparsity, balancing, cycles, output_digest) per
# suite, from `repro sweep <suite> --autotune` at cap=4 seed=7.
RESNET50_CAP4_PINS = [
    ("conv1", "input-stationary", "dense", "none", 10,
     "333d450da6d825f85195a7aa3473853140bea6d2323ea124ff4318f2ec1a95e4"),
    ("res2_1x1a", "input-stationary", "dense", "none", 10,
     "adb3bbb793bc0e6bd3ef34656ebdfe14fb7c41d44597047184bff195523b594b"),
    ("res2_3x3", "input-stationary", "dense", "none", 10,
     "dfc4ebe6e2a26c897306e458c9064232137cca7bd7b82659f8cc8abd5e4cd6d3"),
    ("res2_1x1b", "input-stationary", "dense", "none", 10,
     "9f40147a77525ec84086b1f0a7679582effbcc55550f54f2f0e8e80ec454c704"),
    ("res2_proj", "input-stationary", "dense", "none", 10,
     "d4b2621dd6c874419a1f9c7100c725085f6b41f0a6123e78e1f992b1ccc7cb06"),
    ("res3_1x1a", "input-stationary", "dense", "none", 10,
     "20a9a30b2550c0a1494d0cf8819eabc5b2d5439d8c6864a1e2637a1bf730fbd6"),
    ("res3_3x3", "input-stationary", "dense", "none", 10,
     "7888f641b7315ffd2af9413764dec33909c23b5829c8485037f061ba7f19f04b"),
    ("res3_1x1b", "input-stationary", "dense", "none", 10,
     "14d156947aea564d17e948cb7d301108cc19d7b9bde4d332bc45afdbd589f322"),
    ("res3_proj", "input-stationary", "dense", "none", 10,
     "f8928d5cdc881b8a5e1aaba813f7b6f3afe3c192907061e6eff828805cb5ec17"),
    ("res4_1x1a", "input-stationary", "dense", "none", 10,
     "bb4cffd2781947919a548d1bb0d58b8ec373d481075218a7610703e61b64d8c6"),
    ("res4_3x3", "input-stationary", "dense", "none", 10,
     "ebe1d5ef7f408048059ec6313f7e52882ad0265567c732e74b6b568b5a2c78f1"),
    ("res4_1x1b", "input-stationary", "dense", "none", 10,
     "85c6df57d258fcebc4d71fb63548f218aa22321754cf2b16470fb36d8986d2d0"),
    ("res4_proj", "input-stationary", "dense", "none", 10,
     "54b4cc7a8d4da3ec8a6672ca0deb3621d965ed505695b642dc1a524834311162"),
    ("res5_1x1a", "input-stationary", "dense", "none", 10,
     "ddd88c718150db5caff6b8744b13eeb2467a304ff5b89f495e6d062f7961dad9"),
    ("res5_3x3", "input-stationary", "dense", "none", 10,
     "29c9d2220d9d306189ff015c96ed58651a0e25524e2472edbd771bb62d1de1ae"),
    ("res5_1x1b", "input-stationary", "dense", "none", 10,
     "ae00ee8850da3d6bab15084c26caec81604f0326347a9d4d4f1c643aae8eb712"),
    ("res5_proj", "input-stationary", "dense", "none", 10,
     "b658811b0940d5c74bcc58269bfa5a6fbd9f00c26d92f653ab97cd43b8745894"),
    ("fc1000", "output-stationary", "dense", "none", 7,
     "f6bec622076bfacae2088db2f5ec79d2efa2865cbb4b4fb60d63b6b4774d194c"),
]

ALEXNET_CAP4_PINS = [
    ("conv1", "hexagonal", "B-csr", "row-shift", 8,
     "de6e9ee6aeadf97fbf9fcc17a8851cbd5f084d6f2ef1622156a1c1b51ab4d717"),
    ("conv2", "input-stationary", "B-csr", "row-shift", 6,
     "7d74b1df746118bab98bc945de3c71d9aa3cf2d7073242af11643c0a25a2ee8d"),
    ("conv3", "input-stationary", "B-csr", "row-shift", 8,
     "3f5797a534a7de8dea92adb5d06dc8b99585109d6d7c011f548cd8779049f46d"),
    ("conv4", "input-stationary", "B-csr", "row-shift", 6,
     "9e653e649f39d6bad7580d8ba61a9f8c6e609d8d4d7e9749c5b238a2167a6c4a"),
    ("conv5", "hexagonal", "B-csr", "row-shift", 7,
     "d03ea2e6a0f4e16dce7da0909d234e597903d19582710830ed152aa6140feb70"),
]


def _autotune(suite_name, **kwargs):
    return sweep_suite(
        build_suite(suite_name, cap=4, seed=7),
        autotune=True,
        cache=CompileCache(),
        jobs=1,
        **kwargs,
    )


def _pin_rows(result):
    return [
        (r["name"], r["transform"], r["sparsity"], r["balancing"],
         r["cycles"], r["output_digest"])
        for r in result.rows
    ]


class TestGoldenPins:
    def test_resnet50_cap4_winners(self):
        result = _autotune("resnet50")
        assert _pin_rows(result) == RESNET50_CAP4_PINS
        assert result.total_cycles == 177
        assert result.fixed_total_cycles == 177

    def test_alexnet_cap4_winners(self):
        result = _autotune("alexnet")
        assert _pin_rows(result) == ALEXNET_CAP4_PINS
        assert result.total_cycles == 35
        assert result.fixed_total_cycles == 41

    def test_pins_are_rerun_stable(self):
        """Two in-process runs of the same autotune agree row for row."""
        assert _pin_rows(_autotune("alexnet")) == _pin_rows(_autotune("alexnet"))

    def test_resnet50_cap8_totals_and_warm_rerun(self):
        """At cap 8 the fixed sweep and the autotuned winners both total
        389 cycles, and a second autotune against the now-warm cache
        returns identical rows."""
        cache = CompileCache()

        def suite():
            return build_suite("resnet50", cap=8, seed=7)

        fixed = evaluate_suite(suite(), jobs=1, cache=cache)
        first = sweep_suite(suite(), autotune=True, jobs=1, cache=cache)
        again = sweep_suite(suite(), autotune=True, jobs=1, cache=cache)
        assert fixed.total_cycles == first.fixed_total_cycles == 389
        assert first.total_cycles == 389
        assert again.rows == first.rows


class TestInvariants:
    def test_never_worse_than_fixed_design(self):
        """The fixed design is always a candidate, so the autotuned
        aggregate can never exceed the fixed sweep's."""
        for suite_name in ("alexnet", "resnet50", "suitesparse"):
            result = _autotune(suite_name)
            assert result.total_cycles <= result.fixed_total_cycles

    def test_fixed_cycles_match_fixed_sweep(self):
        suite = build_suite("alexnet", cap=4, seed=7)
        fixed = evaluate_suite(suite, jobs=1, cache=CompileCache())
        tuned = _autotune("alexnet")
        assert tuned.fixed_total_cycles == fixed.total_cycles

    def test_budget_keeps_baseline(self):
        """Even budget=1 must retain the suite's fixed design point."""
        result = _autotune("alexnet", budget=1)
        assert result.rows
        for row in result.rows:
            assert row["cycles"] == row["fixed_cycles"]
        assert result.total_cycles == result.fixed_total_cycles
        assert result.retuned_layers == 0

    def test_budget_caps_candidates(self):
        result = _autotune("alexnet", budget=3)
        assert result.aggregates()["candidates_per_layer"] == 3

    def test_retuned_layers_counts_changed_winners(self):
        result = _autotune("alexnet")
        changed = sum(
            1 for row in result.rows
            if (row["transform"], row["sparsity"], row["balancing"])
            != ("output-stationary", "B-csr", "none")
        )
        assert result.retuned_layers == changed == 5

    def test_objectives_registry(self):
        assert set(OBJECTIVES) == {"cycles", "energy", "edp"}

    def test_energy_and_edp_objectives_run(self):
        by_energy = _autotune("alexnet", objective="energy", budget=4)
        by_edp = _autotune("alexnet", objective="edp", budget=4)
        assert by_energy.total_energy_pj > 0
        assert by_edp.total_edp > 0

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            _autotune("alexnet", objective="latency")

    def test_result_serializes(self):
        result = _autotune("alexnet", budget=2)
        payload = result.to_dict()
        assert payload["mode"] == "halving"
        assert payload["objective"] == "cycles"
        assert payload["budget"] == 2
        assert len(payload["rows"]) == 5
        assert payload["aggregates"]["total_cycles"] == result.total_cycles
        assert isinstance(result, HalvingResult)
        assert result.table()

    def test_space_must_contain_baseline(self):
        """A custom space that drops the suite's fixed design is rejected:
        without it the aggregate is not comparable to the fixed sweep."""
        transforms = standard_transforms()
        transforms.pop("output-stationary")
        with pytest.raises(SuiteError, match="fixed baseline design"):
            halving_autotune_suite(
                build_suite("alexnet", cap=4, seed=7),
                eta=1,
                space=DesignSpace(transforms),
                cache=CompileCache(),
                jobs=1,
            )


class TestSelectWinner:
    def test_empty_points_rejected(self):
        with pytest.raises(ValueError, match="zero points"):
            select_winner([], "cycles")

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            select_winner([], "area")

    def test_budgeted_combos_rejects_non_positive(self):
        space = suite_design_space(build_suite("alexnet", cap=4))
        with pytest.raises(ValueError, match="budget"):
            budgeted_combos(space.combos(), 0, require=None)

    def test_budget_truncation_keeps_required_combo(self):
        space = suite_design_space(build_suite("alexnet", cap=4))
        baseline = ("output-stationary", "B-csr", "none")
        kept = budgeted_combos(space.combos(), 2, require=baseline)
        assert len(kept) == 2
        assert any(combo.names == baseline for combo in kept)
