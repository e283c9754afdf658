"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.spec == "matmul"
        assert args.dataflow == "output-stationary"
        assert args.size == 4

    def test_trace_capacity_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--capacity", "0"])
        assert "at least 1" in capsys.readouterr().err

    def test_transform_is_an_alias_for_dataflow(self):
        args = build_parser().parse_args(
            ["trace", "--transform", "weight-stationary"]
        )
        assert args.dataflow == "weight-stationary"


class TestCommands:
    def test_simulate_matches_reference(self, capsys):
        assert main(["simulate", "--size", "3"]) == 0
        out = capsys.readouterr().out
        assert "outputs-match-reference=True" in out

    def test_simulate_sparse(self, capsys):
        code = main(
            [
                "simulate",
                "--dataflow",
                "input-stationary",
                "--sparsity",
                "b-csr",
                "--size",
                "4",
            ]
        )
        assert code == 0
        assert "outputs-match-reference=True" in capsys.readouterr().out

    def test_simulate_conv1d(self, capsys):
        assert main(["simulate", "--spec", "conv1d", "--size", "3"]) == 0
        assert "outputs-match-reference=True" in capsys.readouterr().out

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--size", "2"]) == 0
        out = capsys.readouterr().out
        assert "module matmul_top (" in out
        assert "endmodule" in out

    def test_generate_to_file(self, tmp_path, capsys):
        path = tmp_path / "design.v"
        assert main(["generate", "--size", "2", "-o", str(path)]) == 0
        assert "lint-clean" in capsys.readouterr().out
        assert "module matmul_pe (" in path.read_text()

    def test_generate_lowers_once(self, capsys, monkeypatch):
        import repro.rtl.lowering as lowering

        calls = []
        lower = lowering.lower_design
        monkeypatch.setattr(
            lowering,
            "lower_design",
            lambda *args, **kwargs: calls.append(args) or lower(*args, **kwargs),
        )
        assert main(["generate", "--size", "2"]) == 0
        assert len(calls) == 1

    def test_generate_reports_lint_errors(self, capsys, monkeypatch):
        from repro.analysis import AnalysisError, Diagnostic, Severity
        from repro.core.accelerator import GeneratedDesign

        finding = Diagnostic(
            "STL-NL-001", Severity.ERROR, "netlist",
            "undeclared identifier 'ghost' in assign q", "matmul_pe",
        )

        def failing_lint(self):
            raise AnalysisError([finding])

        monkeypatch.setattr(GeneratedDesign, "to_netlist", failing_lint)
        assert main(["generate", "--size", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert finding.render() in captured.err

    def test_area(self, capsys):
        assert main(["area", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert "Matmul array" in out
        assert "Total" in out

    def test_area_with_cpu(self, capsys):
        assert main(["area", "--size", "4", "--with-cpu"]) == 0
        assert "Host CPU" in capsys.readouterr().out

    def test_frameworks(self, capsys):
        assert main(["frameworks"]) == 0
        out = capsys.readouterr().out
        assert "Stellar" in out and "TeAAL" in out

    def test_explore(self, capsys):
        assert main(["explore", "--size", "3"]) == 0
        out = capsys.readouterr().out
        assert "pareto" in out
        assert "best area-delay product" in out

    def test_explore_refuses_a_spec_outside_the_space(self, capsys):
        # The explore dataflows are rank 3; bmm has four indices.
        assert main(["explore", "--spec", "bmm", "--size", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "explore: spec 'bmm' has 4 indices, but the explore dataflows"
            " are rank 3\n"
        )

    def test_simulate_json(self, capsys):
        assert main(["simulate", "--size", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outputs_match_reference"] is True
        assert report["pe_count"] == 9
        assert report["counters"]["cycles"] > 0
        assert "custom.macs_skipped" not in report["counters"]  # dense run
        assert isinstance(report["counters"]["pe_utilization"], float)

    def test_simulate_checks_against_the_scalar_interpreter(
        self, capsys, monkeypatch
    ):
        """A kernel that is off by one must not be compared with itself."""
        from repro.sim.kernel import CompiledKernel

        real_replay = CompiledKernel.replay

        def off_by_one(self, bounds, tensors):
            return {
                name: array + 1
                for name, array in real_replay(self, bounds, tensors).items()
            }

        monkeypatch.setattr(CompiledKernel, "replay", off_by_one)
        assert main(["simulate", "--size", "3", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["outputs_match_reference"] is False

    def test_area_json(self, capsys):
        assert main(["area", "--size", "4", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_um2"] == pytest.approx(
            sum(report["components_um2"].values())
        )
        assert report["pe_count"] == 16

    def test_trace_writes_both_artifacts(self, tmp_path, capsys):
        prefix = tmp_path / "trace"
        code = main(
            [
                "trace",
                "--spec",
                "matmul",
                "--transform",
                "output-stationary",
                "--size",
                "3",
                "-o",
                str(prefix),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace events" in out
        assert "RTL cycles of waveforms" in out
        document = json.loads((tmp_path / "trace.json").read_text())
        assert document["traceEvents"]
        vcd = (tmp_path / "trace.vcd").read_text()
        assert "$timescale" in vcd and "$var wire" in vcd

    def test_trace_leaves_global_tracer_disabled(self, tmp_path):
        from repro.obs.trace import get_tracer

        assert main(["trace", "--size", "2", "-o", str(tmp_path / "t")]) == 0
        assert get_tracer().enabled is False

    def test_explore_profile(self, capsys):
        assert main(["explore", "--size", "3", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "per-pass timing:" in out
        assert "compile.elaborate" in out
        assert "dse.simulate" in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_explore_profile_adds_self_time_to_the_sweep(self, capsys, jobs):
        # Every profiled span nests inside a sweep point, so the table's
        # total (summed self time) is the dse.point total, and the
        # shares of self time add up to 100%.
        assert main(
            ["explore", "--size", "3", "--profile", "--jobs", jobs]
        ) == 0
        out = capsys.readouterr().out
        lines = out.split("per-pass timing:\n", 1)[1].splitlines()
        header, rows, total = lines[0], lines[1:-1], lines[-1].split()
        assert header.split()[-1] == "share"
        cells = {row.split()[0]: row.split() for row in rows}
        assert total[0] == "total"
        assert float(total[2]) == pytest.approx(
            float(cells["dse.point"][2]), abs=0.01
        )
        shares = [float(row.split()[-1].rstrip("%")) for row in rows]
        assert sum(shares) == pytest.approx(100.0, abs=0.1)

    def test_balancing_option(self, capsys):
        code = main(
            [
                "simulate",
                "--dataflow",
                "input-stationary",
                "--sparsity",
                "b-csr",
                "--balancing",
                "row-shift",
                "--size",
                "4",
            ]
        )
        assert code == 0
        assert "outputs-match-reference=True" in capsys.readouterr().out
