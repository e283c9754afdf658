"""Tests for ``python -m repro cache {stats,gc,clear}``.

The subcommand is the operational window into the persistent compile
cache: where it lives, which pipeline stages own the bytes, and the two
maintenance verbs (budget-driven GC, full clear).  These tests drive it
through the real CLI against throwaway store roots.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.exec.cache import PERSISTED_STAGES, CompileCache
from repro.exec.store import DiskStore
from repro.exec.suite import build_suite, evaluate_suite


def _populate(root):
    """Fill a store root via a real (tiny) suite evaluation."""
    cache = CompileCache(store=DiskStore(str(root)))
    evaluate_suite(build_suite("alexnet", cap=4, seed=3), jobs=1, cache=cache)
    return cache


class TestStats:
    def test_empty_store(self, tmp_path, capsys):
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"root:     {tmp_path}" in out
        assert "entries:  0" in out

    def test_populated_store_lists_stages(self, tmp_path, capsys):
        _populate(tmp_path)
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "compile" in out
        assert "entries" in out and "bytes" in out

    def test_json_stats_schema(self, tmp_path, capsys):
        _populate(tmp_path)
        assert cli_main(
            ["cache", "stats", "--cache-dir", str(tmp_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["enabled"] is True
        assert payload["root"] == str(tmp_path)
        assert payload["entries"] > 0
        assert payload["total_bytes"] > 0
        stages = payload["stages"]
        assert "compile" in stages
        for bucket in stages.values():
            assert bucket["entries"] >= 1
            assert bucket["bytes"] >= 1
        assert payload["entries"] == sum(b["entries"] for b in stages.values())
        assert payload["total_bytes"] == sum(b["bytes"] for b in stages.values())

    def test_stage_summary_matches_memory_tier_stages(self, tmp_path):
        """Every stage on disk is a persisted stage the cache looked up."""
        cache = _populate(tmp_path)
        disk_stages = set(cache.store.stage_summary())
        assert disk_stages  # populated
        assert disk_stages <= set(cache.stats.by_stage) & PERSISTED_STAGES


class TestGc:
    def test_gc_within_budget_is_a_noop(self, tmp_path, capsys):
        _populate(tmp_path)
        assert cli_main(
            ["cache", "gc", "--cache-dir", str(tmp_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evicted"] == 0
        assert payload["total_bytes"] <= payload["max_bytes"]

    def test_gc_enforces_byte_budget(self, tmp_path, capsys):
        _populate(tmp_path)
        before = DiskStore(str(tmp_path)).total_bytes()
        budget = max(before // 4, 1)
        assert cli_main(
            [
                "cache", "gc",
                "--cache-dir", str(tmp_path),
                "--max-bytes", str(budget),
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evicted"] > 0
        assert payload["total_bytes"] <= budget
        # The survivors are still a valid store.
        assert DiskStore(str(tmp_path)).total_bytes() == payload["total_bytes"]

    def test_gc_text_output(self, tmp_path, capsys):
        _populate(tmp_path)
        assert cli_main(
            ["cache", "gc", "--cache-dir", str(tmp_path), "--max-bytes", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "cache: evicted" in out and "bytes in use" in out

    def test_max_bytes_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["cache", "gc", "--max-bytes", "0"])


class TestClear:
    def test_clear_empties_the_store(self, tmp_path, capsys):
        _populate(tmp_path)
        assert DiskStore(str(tmp_path)).total_bytes() > 0
        assert cli_main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cache: cleared" in capsys.readouterr().out
        assert DiskStore(str(tmp_path)).total_bytes() == 0

    def test_clear_json(self, tmp_path, capsys):
        assert cli_main(
            ["cache", "clear", "--cache-dir", str(tmp_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"cleared": True, "root": str(tmp_path)}


class TestDisabled:
    def test_env_off_reports_disabled(self, monkeypatch, capsys):
        monkeypatch.setenv("STELLAR_CACHE_DIR", "off")
        assert cli_main(["cache", "stats"]) == 0
        assert "persistence is disabled" in capsys.readouterr().out

    def test_env_off_json(self, monkeypatch, capsys):
        monkeypatch.setenv("STELLAR_CACHE_DIR", "off")
        assert cli_main(["cache", "gc", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"enabled": False}

    def test_cache_dir_flag_overrides_env_off(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("STELLAR_CACHE_DIR", "off")
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "entries:  0" in capsys.readouterr().out

    def test_env_dir_is_used_by_default(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("STELLAR_CACHE_DIR", str(tmp_path))
        assert cli_main(["cache", "stats"]) == 0
        assert f"root:     {tmp_path}" in capsys.readouterr().out


class TestParser:
    def test_action_is_required(self):
        with pytest.raises(SystemExit):
            cli_main(["cache"])

    def test_unknown_action_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["cache", "prune"])


class TestPerStageGc:
    """``cache gc`` evicts with the one global LRU."""

    def test_default_gc_stays_global(self, tmp_path, capsys):
        _populate(tmp_path)
        assert cli_main(
            [
                "cache", "gc", "--cache-dir", str(tmp_path),
                "--max-bytes", "1", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"evicted", "total_bytes", "max_bytes"}
        assert payload["evicted"] > 0


class TestMaxBytesEnv:
    """A bad ``STELLAR_CACHE_MAX_BYTES`` is one line on stderr and exit 2
    from every command that opens the store."""

    @pytest.mark.parametrize("value", ["0", "64MB"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "resnet50", "--cap", "4"],
            ["cache", "stats"],
            ["check"],
            ["verify"],
            ["serve", "--port", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_budget_exits_2(self, argv, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STELLAR_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("STELLAR_CACHE_MAX_BYTES", value)
        # Were the budget accepted, serve would return instead of listening.
        monkeypatch.setattr(
            "repro.serve.server.EvalServer.run", lambda self, **kwargs: None
        )
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{argv[0]}: STELLAR_CACHE_MAX_BYTES must be a positive integer"
            f" byte count, got {value!r}\n"
        )
