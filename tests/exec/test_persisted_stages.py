"""The persisted-stage contract: only the stages a later process reads
reach the disk store; every other stage lives in the memory tier."""

import json
import os

from repro.analysis.verify import run_verify
from repro.cli import main as cli_main
from repro.exec.cache import PERSISTED_STAGES, CompileCache
from repro.exec.halving import sweep_suite
from repro.exec.store import DiskStore
from repro.exec.suite import build_suite, evaluate_suite
from repro.sim.spatial_array import SpatialArraySim

EXAMPLE = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "quickstart.py"
)


def test_cold_runs_write_only_persisted_stages(tmp_path, monkeypatch, capsys):
    root = str(tmp_path / "store")
    evaluate_suite(
        build_suite("suitesparse", cap=4, seed=7),
        jobs=1,
        cache=CompileCache(store=DiskStore(root)),
    )
    monkeypatch.setenv("STELLAR_CACHE_DIR", root)
    assert cli_main(["verify", EXAMPLE, "--json"]) == 0
    capsys.readouterr()
    stages = set(DiskStore(root).stage_summary())
    assert {"compile", "lower", "dse.point"} <= stages
    assert stages <= PERSISTED_STAGES
    assert "sim.kernel" not in stages


def test_warm_verify_prints_what_cold_printed(tmp_path, monkeypatch, capsys):
    root = str(tmp_path / "store")
    monkeypatch.setenv("STELLAR_CACHE_DIR", root)
    printed = []
    for _ in range(2):
        assert cli_main(["verify", EXAMPLE, "--json"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]

    warm = CompileCache(store=DiskStore(root))
    assert all(target.ok for target in run_verify([EXAMPLE], cache=warm).targets)
    assert set(warm.stats.by_stage) == {"compile", "lower"}
    for stage in ("compile", "lower"):
        hits, misses = warm.stats.by_stage[stage]
        assert hits >= 1 and misses == 0, stage
    assert warm.stats.disk_hits == warm.stats.hits


def test_dense_schedule_and_area_stay_in_memory(tmp_path):
    cache = CompileCache(store=DiskStore(str(tmp_path)))
    evaluate_suite(build_suite("resnet50", cap=4, seed=7), jobs=1, cache=cache)
    for stage in ("sim.dense", "area.model"):
        hits, misses = cache.stats.by_stage[stage]
        assert hits > 0 and misses > 0, stage
        assert stage not in PERSISTED_STAGES
    stages = set(DiskStore(str(tmp_path)).stage_summary())
    assert "dse.point" in stages
    assert stages <= PERSISTED_STAGES


def test_cold_halving_hits_intermediates_in_memory(tmp_path, monkeypatch):
    simulated = []
    real_run = SpatialArraySim.run

    def counting_run(self, tensors):
        simulated.append(self._is_sparse())
        return real_run(self, tensors)

    monkeypatch.setattr(SpatialArraySim, "run", counting_run)
    cache = CompileCache(store=DiskStore(str(tmp_path)))
    sweep_suite(
        build_suite("alexnet", cap=4, seed=7), halving=True, jobs=1, cache=cache
    )
    # Every simulated run, dense or sparse, looks its outputs up once.
    assert set(simulated) == {False, True}
    hits, misses = cache.stats.by_stage["sim.reference"]
    assert hits + misses == len(simulated)
    for stage in ("sim.reference", "compile.elaborate"):
        hits, _misses = cache.stats.by_stage[stage]
        assert hits > 0, stage
    assert cache.stats.disk_hits == 0  # a fresh store answers nothing


def test_old_intermediate_entries_go_unread_until_evicted(tmp_path):
    suite = build_suite("suitesparse", cap=4, seed=7)
    memory = CompileCache()
    fresh = evaluate_suite(suite, jobs=1, cache=memory)
    # Seed a store, as an older release would have, with the compile.prune
    # entries of this very sweep under the live version.
    seeded = {
        digest: value
        for (stage, digest), value in memory._entries.items()
        if stage == "compile.prune"
    }
    assert seeded
    store = DiskStore(str(tmp_path))
    for digest, value in seeded.items():
        assert store.put("compile.prune", digest, value)

    read_stages = []
    real_get = store.get

    def spying_get(stage, key):
        read_stages.append(stage)
        return real_get(stage, key)

    store.get = spying_get
    rows = evaluate_suite(suite, jobs=1, cache=CompileCache(store=store)).rows
    assert json.dumps(rows) == json.dumps(fresh.rows)
    assert read_stages and "compile.prune" not in read_stages

    paths = [store.entry_path("compile.prune", digest) for digest in seeded]
    assert all(os.path.exists(path) for path in paths)
    for path in paths:  # the stalest entries in the store
        os.utime(path, (1, 1))
    live = store.total_bytes() - sum(os.path.getsize(path) for path in paths)
    store.max_bytes = live
    assert store.gc() == len(paths)
    assert not any(os.path.exists(path) for path in paths)
    assert store.total_bytes() == live
