"""Level 4 tests: netlist equivalence checking (STL-EQ-*)."""

import re

import pytest

from repro.analysis.equiv import check_equivalence
from repro.core import Accelerator, Bounds, matmul_spec
from repro.core.dataflow import output_stationary
from repro.rtl.lowering import lower_design
from repro.rtl.netlist import Assign, Module, Netlist, SyncBlock
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
