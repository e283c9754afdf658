"""Level 4 tests: netlist equivalence checking (STL-EQ-*)."""

import re
from typing import Tuple

import pytest

from repro.analysis.equiv import check_equivalence
from repro.core import Accelerator, Bounds, matmul_spec
from repro.core.dataflow import output_stationary
from repro.rtl.lowering import lower_design
from repro.rtl.netlist import Assign, Module, Netlist, RTLError, SyncBlock
from repro.rtl.passes import run_passes
from repro.rtl.sim import RTLSimulator


@pytest.fixture(scope="module")
def lowered():
    design = Accelerator(
        spec=matmul_spec(),
        bounds=Bounds({"i": 4, "j": 4, "k": 4}),
        transform=output_stationary(),
    ).build()
    return lower_design(design.compiled)


class TestEquivalenceProof:
    def test_optimized_design_proven_equivalent(self, lowered):
        optimized, results = run_passes(lowered, 2)
        assert sum(r.rewrites for r in results) > 0
        result = check_equivalence(lowered, optimized, design_name="matmul")
        assert result.ok
        assert result.diagnostics == []
        assert result.stats["modules"] > 0
        assert result.stats["cones"] > 0
        assert result.stats["differential_modules"] == result.stats["modules"]

    def test_identity_is_equivalent(self, lowered):
        result = check_equivalence(lowered, lowered.clone())
        assert result.ok
        assert result.stats["proved_structural"] == result.stats["cones"]

    def test_stats_round_trip(self, lowered):
        result = check_equivalence(lowered, lowered.clone())
        as_dict = result.to_dict()
        assert as_dict["ok"] is True
        assert as_dict["stats"]["modules"] == result.stats["modules"]


class TestInterfaceCheck:
    def test_port_width_mismatch_flagged(self, lowered):
        broken = lowered.clone()
        module = next(iter(broken.modules.values()))
        port = module.ports[-1]
        port.width += 1
        result = check_equivalence(lowered, broken)
        assert not result.ok
        assert any(d.code == "STL-EQ-002" for d in result.diagnostics)

    def test_missing_module_flagged(self, lowered):
        broken = lowered.clone()
        victim = next(n for n in broken.modules if n != broken.top_name)
        del broken.modules[victim]
        result = check_equivalence(lowered, broken)
        codes = {d.code for d in result.diagnostics}
        assert "STL-EQ-002" in codes

    def test_top_rename_flagged(self, lowered):
        broken = lowered.clone()
        broken.top_name = "somewhere_else"
        broken.modules["somewhere_else"] = broken.modules.pop(lowered.top_name)
        result = check_equivalence(lowered, broken)
        assert not result.ok


class TestMutationCatching:
    """Acceptance criterion: an intentionally broken pass is caught with an
    STL-EQ-* diagnostic naming the first divergent signal and cycle."""

    def _mutate_first_guard(self, netlist: Netlist) -> str:
        """A 'broken pass': drop the guard from a guarded sync statement."""
        for module in netlist.modules.values():
            for b, block in enumerate(module.sync_blocks):
                for i, stmt in enumerate(block.statements):
                    match = re.match(r"if \((.+?)\) (.+)", stmt.text)
                    if match and "else" not in stmt.text:
                        statements = list(block.statements)
                        statements[i] = match.group(2)
                        module.sync_blocks[b] = SyncBlock(
                            statements, block.reset_statements
                        )
                        return module.name
        raise AssertionError("no guarded statement to mutate")

    def test_dropped_guard_caught_with_signal_and_cycle(self, lowered):
        broken = lowered.clone()
        mutated_module = self._mutate_first_guard(broken)
        result = check_equivalence(lowered, broken, design_name="matmul")
        assert not result.ok
        divergences = [
            d for d in result.diagnostics if d.code == "STL-EQ-003"
        ]
        assert divergences, [d.code for d in result.diagnostics]
        diag = divergences[0]
        # The message names the first divergent cycle and signal.
        match = re.search(
            r"divergence at cycle (\d+) on signal '([^']+)'", diag.message
        )
        assert match, diag.message
        assert int(match.group(1)) >= 1
        assert diag.location.startswith("matmul.")
        assert diag.severity.name == "ERROR"
        # The mutated module itself is localized by its own differential.
        assert any(
            f".{mutated_module}" in d.location or mutated_module in d.message
            for d in divergences
        )

    def test_combinational_mutation_refuted_symbolically(self, lowered):
        broken = lowered.clone()
        for module in broken.modules.values():
            for i, assign in enumerate(module.assigns):
                rhs = assign.rhs.text
                if "+" in rhs or "&" in rhs:
                    module.assigns[i] = Assign(assign.lhs, f"~({rhs})")
                    mutated = True
                    break
            else:
                continue
            break
        else:
            pytest.skip("no combinational assign to mutate")
        result = check_equivalence(lowered, broken)
        assert not result.ok
        codes = {d.code for d in result.diagnostics}
        assert codes & {"STL-EQ-001", "STL-EQ-003"}

    def test_upper_input_lanes_are_driven(self):
        """A rewrite that only differs above bit 63 of an input is caught:
        the differential stimulus covers every bit of a wide port."""

        def wide(statement: str) -> Netlist:
            module = Module("wide")
            module.input("clk")
            module.input("rst")
            module.input("in_data", 128)
            module.output("out", 64)
            module.reg("r", 64)
            module.sync([statement], ["r <= 64'd0;"])
            module.assign("out", "r")
            netlist = Netlist("wide")
            netlist.add(module)
            return netlist

        result = check_equivalence(
            wide("r <= in_data[127:64];"), wide("r <= 64'd0;")
        )
        assert result.stats["sequential_deferred"] == 1
        assert not result.ok
        assert {d.code for d in result.diagnostics} == {"STL-EQ-003"}


class TestBoundedStage:
    """The exact ``STL-EQ-001`` of the bounded stage: ``y``'s cone reads
    a memory element and packs a slice whose bounds are computed, and
    the first leaf assignment separating the two sides is not all
    zeros.  ``z`` is rewritten to an equal value (checked, not refuted)
    and ``w`` reads other leaves on each side (deferred)."""

    @staticmethod
    def _pair(width: int, select: int, mutant: str) -> Tuple[Netlist, Netlist]:
        def build(y: str, z: str, w: str) -> Netlist:
            module = Module("bnd")
            module.input("clk")
            module.input("a", width)
            module.input("b", width)
            module.input("s", select)
            module.output("y", 16)
            module.output("z", width + 1)
            module.output("w", width)
            module.reg("mem", 8, depth=4)
            module.assign("y", y)
            module.assign("z", z)
            module.assign("w", w)
            netlist = Netlist("bnd")
            netlist.add(module)
            return netlist

        packed = f"{{mem[s], a[s + {select}'d1:s]}}"
        return (
            build(f"{packed} + b", "a + b", "b - b"),
            build(f"{packed} + {mutant}", "(a | b) + (a & b)", "a - a"),
        )

    def _refutations(self, before: Netlist, after: Netlist):
        result = check_equivalence(before, after, design_name="d")
        assert result.stats["checked_bounded"] == 1
        assert result.stats["deferred_to_differential"] == 1
        return [
            (d.location, d.message)
            for d in result.diagnostics
            if d.code == "STL-EQ-001"
        ]

    def test_exhaustive_witness(self):
        # 10 leaf bits: every assignment, in order, until b is odd.
        assert self._refutations(*self._pair(4, 2, "(b & 4'd14)")) == [(
            "d.bnd.y",
            "combinational cone of 'y' changed value: 189 != 188"
            " under {a=0, b=1, s=0}",
        )]

    def test_random_witness(self):
        # 19 leaf bits: no corner has b & 3 == 1, a seeded draw does.
        mutant = "b + ((b & 8'd3) == 8'd1)"
        assert self._refutations(*self._pair(8, 3, mutant)) == [(
            "d.bnd.y",
            "combinational cone of 'y' changed value: 1018 != 1019"
            " under {a=131, b=89, s=7}",
        )]


class TestInlining:
    def test_wire_with_a_child_driver_stays_a_leaf(self):
        """``w`` is driven by an assign and by a child's output: inlining
        its assign would prove ``y`` from one of two drivers."""

        def build(y: str) -> Netlist:
            buf = Module("buf")
            buf.input("i", 4)
            buf.output("o", 4)
            buf.assign("o", "i")
            top = Module("top")
            top.input("clk")
            top.input("a", 4)
            top.output("y", 5)
            top.wire("w", 4)
            top.assign("w", "a")
            top.instantiate(buf, "u", {"i": "a", "o": "w"})
            top.assign("y", y)
            netlist = Netlist("top")
            netlist.add(buf)
            netlist.add(top)
            return netlist

        result = check_equivalence(build("w + 4'd1"), build("a + 4'd1"))
        assert result.ok
        assert result.stats["cones"] == 3
        assert result.stats["proved_structural"] == 2
        assert result.stats["deferred_to_differential"] == 1


class TestByteIdenticalSimulation:
    """Acceptance criterion: optimized (opt_level=2) and unoptimized
    netlists produce byte-identical RTLSimulator outputs across >= 3
    random-stimulus seeds."""

    def test_lockstep_identical_across_seeds(self, lowered):
        import random

        optimized, _ = run_passes(lowered, 2)
        shared = sorted(
            set(lowered.modules) & set(optimized.modules)
        )
        assert shared
        for seed in (1, 7, 1234):
            for name in shared:
                before = RTLSimulator(lowered, top=name)
                after = RTLSimulator(optimized, top=name)
                inputs = [
                    p.name
                    for p in lowered.modules[name].ports
                    if p.direction.value == "input"
                    and p.name not in ("clk", "rst")
                ]
                rng = random.Random(seed)
                schedule = [
                    {
                        p: rng.getrandbits(
                            lowered.modules[name].port(p).width
                        )
                        for p in inputs
                    }
                    for _ in range(12)
                ]
                for sim in (before, after):
                    if "rst" in sim.top.values:
                        sim.poke("rst", 1)
                        sim.step()
                        sim.poke("rst", 0)
                outs = [
                    p.name
                    for p in lowered.modules[name].ports
                    if p.direction.value == "output"
                ]
                for pokes in schedule:
                    for sim in (before, after):
                        for port_name, value in pokes.items():
                            sim.poke(port_name, value)
                        sim.step()
                    got_before = bytes(
                        str([before.peek(o) for o in outs]), "ascii"
                    )
                    got_after = bytes(
                        str([after.peek(o) for o in outs]), "ascii"
                    )
                    assert got_before == got_after, (name, seed, pokes)


def _single(name, ports, regs=(), assigns=(), sync=None) -> Netlist:
    """A one-module netlist: ``ports`` as ``(name, width, is_output)``."""
    module = Module(name)
    for port, width, is_output in ports:
        (module.output if is_output else module.input)(port, width)
    for reg, width in regs:
        module.reg(reg, width)
    for lhs, rhs in assigns:
        module.assign(lhs, rhs)
    if sync is not None:
        module.sync(*sync)
    netlist = Netlist(name)
    netlist.add(module)
    return netlist


def _divergences(result):
    return [d for d in result.diagnostics if d.code == "STL-EQ-003"]


class TestDifferentialDiagnostics:
    """The exact ``STL-EQ-003`` text: earliest cycle, ties broken by the
    smaller signal path, both values and the seed."""

    def test_planted_sequential_mutant(self, lowered):
        broken = lowered.clone()
        TestMutationCatching()._mutate_first_guard(broken)
        result = check_equivalence(lowered, broken, design_name="matmul")
        # The PE's own differential and the array's (through pe_0_0).
        assert [(d.location, d.message) for d in _divergences(result)] == [
            (
                "matmul.matmul_array.matmul_array.pe_0_0.c_hold",
                "differential divergence at cycle 2 on signal"
                " 'matmul_array.pe_0_0.c_hold': 0 (input netlist)"
                " != 1631814489 (optimized netlist) [seed 0]",
            ),
            (
                "matmul.matmul_pe.matmul_pe.c_hold",
                "differential divergence at cycle 2 on signal"
                " 'matmul_pe.c_hold': 0 (input netlist)"
                " != 1775813289 (optimized netlist) [seed 0]",
            ),
        ]

    def test_same_cycle_tie_names_the_smaller_path(self):
        # ``zq`` is a port, so it comes first in declaration order; both
        # it and ``a`` diverge at cycle 3, and ``tie.a`` sorts first.
        def tie(step: int) -> Netlist:
            return _single(
                "tie",
                [("clk", 1, False), ("rst", 1, False), ("en", 1, False),
                 ("zq", 4, True)],
                regs=[("a", 4)],
                assigns=[("zq", "a")],
                sync=([f"if (en) a <= a + 4'd{step};"], ["a <= 4'd0;"]),
            )

        result = check_equivalence(tie(1), tie(2), design_name="d")
        (divergence,) = _divergences(result)
        assert divergence.message == (
            "differential divergence at cycle 3 on signal 'tie.a':"
            " 1 (input netlist) != 2 (optimized netlist) [seed 0]"
        )
        assert divergence.location == "d.tie.tie.a"

    def test_cycle_zero_combinational_divergence(self):
        def comb(rhs: str) -> Netlist:
            return _single(
                "comb",
                [("clk", 1, False), ("rst", 1, False), ("a", 4, False),
                 ("y", 4, True)],
                assigns=[("y", rhs)],
            )

        result = check_equivalence(comb("~a"), comb("a"), design_name="d")
        (divergence,) = _divergences(result)
        assert divergence.message == (
            "differential divergence at cycle 0 on signal 'comb.y':"
            " 15 (input netlist) != 0 (optimized netlist) [seed 0]"
        )

    def test_divergence_on_the_reset_release_cycle(self):
        # rst is high for the first edge only: the reset arm writes at
        # cycle 1, then the run arm counts.
        def counter(reset_value: str) -> Netlist:
            return _single(
                "rel",
                [("clk", 1, False), ("rst", 1, False), ("q", 4, True)],
                regs=[("r", 4)],
                assigns=[("q", "r")],
                sync=(["r <= r + 4'd1;"], [f"r <= {reset_value};"]),
            )

        result = check_equivalence(
            counter("4'd0"), counter("4'd3"), design_name="d"
        )
        (divergence,) = _divergences(result)
        assert divergence.message == (
            "differential divergence at cycle 1 on signal 'rel.q':"
            " 0 (input netlist) != 3 (optimized netlist) [seed 0]"
        )


class TestDifferentialContracts:
    def test_every_cycle_counts_after_a_divergence(self, lowered):
        broken = lowered.clone()
        TestMutationCatching()._mutate_first_guard(broken)
        result = check_equivalence(lowered, broken, cycles=24)
        assert _divergences(result)
        stats = result.stats
        assert stats["differential_modules"] == stats["modules"]
        assert stats["differential_cycles"] == 24 * stats["differential_modules"]

    @staticmethod
    def _faulty(ghost: str, cycle: int, start: int = 0) -> Netlist:
        """Reads the undeclared ``ghost`` -- an error -- on the clock edge
        that ends ``cycle``; at cycle 0, when the simulator is built.
        ``start`` is the counter's reset value."""
        if cycle == 0:
            return _single(
                "faulty",
                [("clk", 1, False), ("rst", 1, False), ("q", 4, True)],
                assigns=[("q", ghost)],
            )
        return _single(
            "faulty",
            [("clk", 1, False), ("rst", 1, False), ("q", 4, True)],
            regs=[("n", 4)],
            assigns=[("q", "n")],
            sync=(
                ["n <= n + 4'd1;", f"if (n == 4'd{cycle - 2}) n <= {ghost};"],
                [f"n <= 4'd{start};"],
            ),
        )

    @pytest.mark.parametrize("after_cycle", [0, 3])
    def test_input_netlist_error_wins(self, after_cycle):
        """Both simulators raise, the optimized one first: the input
        netlist's error is the one reported."""
        with pytest.raises(RTLError, match="'before_ghost'"):
            check_equivalence(
                self._faulty("before_ghost", 6),
                self._faulty("after_ghost", after_cycle),
            )

    def test_input_netlist_error_after_a_divergence_is_raised(self):
        """The sides diverge at cycle 1; both keep stepping, so the input
        netlist's error at cycle 6 still surfaces."""
        with pytest.raises(RTLError, match="'before_ghost'"):
            check_equivalence(
                self._faulty("before_ghost", 6),
                self._faulty("before_ghost", 6, start=9),
            )

    def test_optimized_netlist_error_is_raised(self):
        clean = _single(
            "faulty",
            [("clk", 1, False), ("rst", 1, False), ("q", 4, True)],
            regs=[("n", 4)],
            assigns=[("q", "n")],
            sync=(["n <= n + 4'd1;"], ["n <= 4'd0;"]),
        )
        with pytest.raises(RTLError, match="'after_ghost'"):
            check_equivalence(clean, self._faulty("after_ghost", 3))
