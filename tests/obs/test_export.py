"""Tests for the Chrome trace_event and VCD exporters.

The VCD tests use a minimal in-test parser so the golden-file check
exercises the actual file format (header, timescale, ``$var``
declarations, value-change records) rather than writer internals.
"""

import io
import json

import pytest

from repro.core import Accelerator, Bounds, matmul_spec, output_stationary
from repro.obs.export import (
    PID_CYCLES,
    PID_WALL,
    VCDWriter,
    _vcd_identifier,
    chrome_trace,
    dump_rtl_vcd,
    write_chrome_trace,
)
from repro.obs.profile import span
from repro.obs.trace import Tracer, set_tracer


def parse_vcd(text):
    """Minimal VCD reader: header fields, declared vars, value changes.

    Returns ``(timescale, vars, changes)`` where ``vars`` maps the dotted
    signal path to ``(width, identifier_code)`` and ``changes`` maps each
    timestamp (the ``$dumpvars`` block is timestamp 0) to a
    ``code -> value`` dict.
    """
    lines = text.splitlines()
    timescale = None
    variables = {}
    scopes = []
    header_end = None
    for index, line in enumerate(lines):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "$timescale":
            timescale = tokens[1]
        elif tokens[0] == "$scope":
            assert tokens[1] == "module"
            scopes.append(tokens[2])
        elif tokens[0] == "$upscope":
            scopes.pop()
        elif tokens[0] == "$var":
            assert tokens[1] == "wire"
            width, code, name = int(tokens[2]), tokens[3], tokens[4]
            variables[".".join(scopes + [name])] = (width, code)
        elif tokens[0] == "$enddefinitions":
            header_end = index
            break
    assert header_end is not None, "missing $enddefinitions"
    assert not scopes, "unbalanced $scope/$upscope"

    changes = {}
    current = None
    for line in lines[header_end + 1:]:
        line = line.strip()
        if not line or line == "$end":
            continue
        if line == "$dumpvars":
            current = changes.setdefault(0, {})
        elif line.startswith("#"):
            current = changes.setdefault(int(line[1:]), {})
        elif line.startswith("b"):
            value, code = line[1:].split()
            current[code] = int(value, 2)
        else:
            current[line[1:]] = int(line[0])
    return timescale, variables, changes


class TestVCDIdentifiers:
    def test_first_codes(self):
        assert _vcd_identifier(0) == "!"
        assert _vcd_identifier(1) == '"'

    def test_unique_and_printable(self):
        codes = [_vcd_identifier(i) for i in range(300)]
        assert len(set(codes)) == 300
        assert all(33 <= ord(c) <= 126 for code in codes for c in code)


class TestVCDWriter:
    def test_round_trip_through_parser(self):
        buffer = io.StringIO()
        writer = VCDWriter(buffer)
        writer.add_signal("top.clk", 1)
        writer.add_signal("top.core.bus", 4)
        writer.sample(0, {"top.clk": 0, "top.core.bus": 9})
        writer.sample(1, {"top.clk": 1, "top.core.bus": 9})
        writer.sample(2, {"top.clk": 1, "top.core.bus": 9})  # no change

        timescale, variables, changes = parse_vcd(buffer.getvalue())
        assert timescale == "1ns"
        assert variables["top.clk"][0] == 1
        assert variables["top.core.bus"][0] == 4
        clk, bus = variables["top.clk"][1], variables["top.core.bus"][1]
        assert changes[0] == {clk: 0, bus: 9}
        assert changes[1] == {clk: 1}  # only the changed signal
        assert 2 not in changes

    def test_values_masked_to_width(self):
        buffer = io.StringIO()
        writer = VCDWriter(buffer)
        writer.add_signal("n", 4)
        writer.sample(0, {"n": 0})
        writer.sample(1, {"n": 0x1F})  # 5 bits into a 4-bit wire
        _, variables, changes = parse_vcd(buffer.getvalue())
        assert changes[1][variables["n"][1]] == 0xF

    def test_declarations_frozen_after_first_sample(self):
        writer = VCDWriter(io.StringIO())
        writer.add_signal("a", 1)
        writer.sample(0, {"a": 0})
        with pytest.raises(ValueError):
            writer.add_signal("b", 1)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            VCDWriter(io.StringIO()).add_signal("a", 0)


class TestDumpRTLVCD:
    @pytest.fixture(scope="class")
    def design(self):
        return Accelerator(
            spec=matmul_spec(),
            bounds=Bounds({"i": 2, "j": 2, "k": 2}),
            transform=output_stationary(),
        ).build()

    def test_golden_dump_reparses(self, design, tmp_path):
        sim = design.rtl_simulator()
        declared = sim.signal_values()
        path = tmp_path / "dump.vcd"
        cycles = dump_rtl_vcd(sim, str(path), cycles=8)
        assert cycles == 8

        timescale, variables, changes = parse_vcd(path.read_text())
        assert timescale == "1ns"
        # Every simulator signal is declared, with the netlist width.
        assert set(variables) == set(declared)
        for name, (width, _code) in variables.items():
            assert width == declared[name][1], name
        # The $dumpvars block initialises every declared signal.
        known_codes = {code for _width, code in variables.values()}
        assert set(changes[0]) == known_codes
        # Later records only reference declared identifier codes.
        for time_, values in changes.items():
            assert time_ <= 8
            assert set(values) <= known_codes
        # The design is alive: something toggles after reset.
        assert any(time_ > 0 for time_ in changes)

    def test_signal_filter(self, design, tmp_path):
        sim = design.rtl_simulator()
        chosen = sorted(sim.signal_values())[:3]
        path = tmp_path / "filtered.vcd"
        dump_rtl_vcd(sim, str(path), cycles=2, signals=chosen)
        _, variables, _ = parse_vcd(path.read_text())
        assert set(variables) == set(chosen)

    def test_unknown_signal_rejected(self, design, tmp_path):
        sim = design.rtl_simulator()
        with pytest.raises(ValueError, match="no_such"):
            dump_rtl_vcd(
                sim, str(tmp_path / "x.vcd"), cycles=1, signals=["no_such.sig"]
            )


class TestChromeTrace:
    def _tracer(self):
        tracer = Tracer(enabled=True)
        tracer.begin("run", component="sim.array", cycle=0)
        tracer.instant("timestep", component="sim.array", cycle=3, live=4)
        tracer.end("run", component="sim.array", cycle=9)
        tracer.complete("xfer", component="sim.dma", start_cycle=2, duration=5)
        previous = set_tracer(tracer)
        try:
            with span("compile", component="compiler"):
                pass
        finally:
            set_tracer(previous)
        return tracer

    def test_document_shape(self):
        document = chrome_trace(self._tracer())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"simulated cycles", "wall clock"}

    def test_domains_map_to_processes(self):
        events = chrome_trace(self._tracer())["traceEvents"]
        by_name = {e["name"]: e for e in events if e["ph"] != "M"}
        assert by_name["timestep"]["pid"] == PID_CYCLES
        assert by_name["compile"]["pid"] == PID_WALL

    def test_event_kinds(self):
        events = chrome_trace(self._tracer())["traceEvents"]
        phases = [e["ph"] for e in events if e["ph"] != "M"]
        assert phases == ["B", "i", "E", "X", "X"]
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"
        assert instant["args"] == {"live": 4}
        xfer = next(e for e in events if e["name"] == "xfer")
        assert (xfer["ts"], xfer["dur"]) == (2.0, 5.0)

    def test_threads_keyed_by_component(self):
        events = chrome_trace(self._tracer())["traceEvents"]
        array = next(e for e in events if e["name"] == "run")
        dma = next(e for e in events if e["name"] == "xfer")
        assert array["tid"] != dma["tid"]

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(self._tracer(), str(path))
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count
        assert count == 5 + 2 + 3  # events + process meta + thread meta
