"""Whole-hierarchy trace fidelity of the RTL simulator.

Every module of every example netlist, at opt-levels 0, 1 and 2, is
simulated under a seeded random stimulus on its non-clock, non-reset
inputs for 40 cycles with ``rst`` held for the first two, stepped by
:meth:`~repro.rtl.sim.RTLSimulator.run`, and the sha256 of its full trace
(every signal of every instance below the module, every cycle) must
match the digest pinned in ``tests/data/rtl_trace_digests.json``.  The
digests were recorded once; a simulator change that alters any value,
width type or signal set of any trace fails here.
"""

import hashlib
import json
import os
import random
import zlib

import pytest

from repro.analysis.check import _compiled_of, discover_examples
from repro.rtl.lowering import lower_design
from repro.rtl.netlist import PortDir
from repro.rtl.passes import run_passes
from repro.rtl.sim import RTLSimulator

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DIGESTS = os.path.join(ROOT, "tests", "data", "rtl_trace_digests.json")
CYCLES = 40
RESET_CYCLES = 2
OPT_LEVELS = (0, 1, 2)


def _netlists():
    """``(example, opt_level) -> netlist`` for every example."""
    out = {}
    for example in discover_examples([os.path.join(ROOT, "examples")]):
        assert not example.error, example.error
        base = lower_design(_compiled_of(example.build()), check=False)
        for level in OPT_LEVELS:
            out[example.name, level] = run_passes(base, level)[0]
    return out


def capture_trace(sim, inputs, schedule):
    """``{signal_path: [v0, v1, ...]}``: every signal's value before the
    first edge and after each of ``CYCLES`` edges, paths in probe order."""
    paths = list(sim.signal_values())
    rows = list(sim.run(paths, CYCLES, RESET_CYCLES, inputs, schedule))
    return dict(zip(paths, map(list, zip(*rows))))


def trace_digest(netlist, module_name: str) -> str:
    """sha256 of the module's trace under its seeded stimulus."""
    module = netlist.modules[module_name]
    rng = random.Random(zlib.crc32(module_name.encode("utf-8")))
    inputs = [
        p for p in module.ports
        if p.direction is PortDir.INPUT and p.name not in ("clk", "rst")
    ]
    schedule = [
        [rng.getrandbits(p.width) for p in inputs] for _ in range(CYCLES + 1)
    ]
    trace = capture_trace(
        RTLSimulator(netlist, top=module_name),
        [p.name for p in inputs],
        schedule,
    )
    assert all(type(v) is int for series in trace.values() for v in series)
    text = json.dumps(trace, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def all_trace_digests():
    """``"example/opt<level>/module" -> digest`` for every simulation."""
    return {
        f"{example}/opt{level}/{module_name}": trace_digest(netlist, module_name)
        for (example, level), netlist in sorted(_netlists().items())
        for module_name in sorted(netlist.modules)
    }


@pytest.fixture(scope="module")
def pinned():
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_example_module_trace_matches_its_pin(pinned):
    digests = all_trace_digests()
    assert sorted(digests) == sorted(pinned)
    mismatched = [key for key in sorted(digests) if digests[key] != pinned[key]]
    assert not mismatched, f"trace digests changed: {mismatched}"
