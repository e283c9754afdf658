"""Command-line interface: ``python -m repro <command>``.

Wraps the Figure 1 flow for quick use without writing Python:

* ``generate`` -- compile a design and emit Verilog;
* ``simulate`` -- run a random workload through the cycle-level simulator
  (``--json`` for machine-readable counters);
* ``area`` -- print the calibrated area breakdown (``--json`` available);
* ``explore`` -- sweep dataflow/sparsity/balancing and print the Pareto
  table (``--profile`` adds a per-pass timing table; ``--jobs`` fans the
  sweep out over worker processes, ``--no-cache`` disables the
  content-hash compile cache);
* ``sweep`` -- evaluate a whole workload suite (``resnet50`` /
  ``alexnet`` / ``suitesparse``, or any user workload table given as a
  ``.json``/``.csv`` path) through the batched sweep engine, with
  per-layer rows and aggregate cycles/area/energy; repeat invocations
  warm-start from the persistent disk cache (``--no-disk-cache`` and
  ``STELLAR_CACHE_DIR`` control it); ``--autotune`` crosses each layer
  with the DSE design space and picks the Pareto-best design point per
  layer under ``--objective`` (cycles / energy / edp), within an
  optional per-layer candidate ``--budget`` (a deterministic stratified
  sample across the transform axis) and ``--constraint`` declarative
  frontier filters; ``--halving`` prunes with multi-fidelity successive
  halving over the widened design space (membuf / DMA / regfile axes,
  ``--eta`` halving rate) -- ``--autotune`` is the same autotuner at
  ``eta=1`` over the non-widened space; ``--server`` routes
  the whole request through a running ``repro serve`` daemon instead of
  evaluating in-process;
* ``serve`` -- run the resident evaluation daemon: newline-delimited
  JSON requests over a unix socket (``--socket``) or TCP (``--port``),
  a warm compile cache and worker pool shared across requests,
  in-flight deduplication of identical requests, streamed per-layer
  rows, and a live ``metrics`` endpoint;
* ``cache`` -- inspect or maintain the persistent design cache
  (``stats`` / ``gc`` / ``clear``; ``gc --per-stage`` water-fills the
  byte budget across stages);
* ``trace`` -- run a design with tracing enabled and write a Chrome
  ``trace_event`` JSON timeline plus a VCD waveform dump of the RTL
  interpreter;
* ``report`` -- the consolidated design report (structure, regfiles,
  area, Verilog stats);
* ``frameworks`` -- print the Table I comparison;
* ``check`` -- run every example design through the three-level static
  checker (spec legality, netlist dataflow lint, ISA program
  verification); exits 0 when clean, 1 on diagnostics at or above
  ``--fail-on``, 2 on usage errors;
* ``verify`` -- prove the :mod:`repro.rtl.passes` optimization pipeline
  equivalence-preserving over every example (and ``--suite`` layers);
  same 0/1/2 exit contract as ``check``;
* ``fuzz`` -- run the property-based differential fuzzing campaign:
  seeded random design points through six cross-backend oracles
  (scalar vs vectorized simulation, interpreter vs kernel, serial vs
  parallel sweep, cold vs warm cache, RTL opt0 vs opt2, halving vs
  exhaustive autotuning); mismatches are shrunk to minimal replayable
  artifacts in the corpus directory (``--replay`` re-runs one);
  same 0/1/2 exit contract as ``check``.

Specs, dataflows, sparsity structures, and balancing schemes are selected
by name; the registries below are the same objects the library exposes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .core import Accelerator, Bounds, matmul_spec
from .core.balancing import (
    LoadBalancingScheme,
    flexible_pe_scheme,
    row_shift_scheme,
)
from .core.dataflow import (
    hexagonal,
    input_stationary,
    output_stationary,
    weight_stationary,
)
from .core.functionality import batched_matmul_spec, conv1d_spec
from .core.sparsity import (
    SparsityStructure,
    a100_two_four,
    csr_b_matrix,
    csr_csc_both,
)

SPECS: Dict[str, Callable] = {
    "matmul": matmul_spec,
    "conv1d": conv1d_spec,
    "bmm": batched_matmul_spec,
}

TRANSFORMS: Dict[str, Callable] = {
    "output-stationary": output_stationary,
    "input-stationary": input_stationary,
    "weight-stationary": weight_stationary,
    "hexagonal": hexagonal,
}

SPARSITIES: Dict[str, Optional[Callable]] = {
    "dense": None,
    "b-csr": csr_b_matrix,
    "outer-product": csr_csc_both,
    "a100-2-4": a100_two_four,
}

BALANCINGS: Dict[str, Optional[Callable]] = {
    "none": None,
    "row-shift": lambda size: row_shift_scheme(size // 2),
    "flexible-pe": lambda size: flexible_pe_scheme(size),
}


def _build_accelerator(args) -> Accelerator:
    spec = SPECS[args.spec]()
    bounds = Bounds({name: args.size for name in spec.index_names})
    sparsity_factory = SPARSITIES[args.sparsity]
    balancing_factory = BALANCINGS[args.balancing]
    return Accelerator(
        spec=spec,
        bounds=bounds,
        transform=TRANSFORMS[args.dataflow](),
        sparsity=sparsity_factory(spec) if sparsity_factory else SparsityStructure(),
        balancing=(
            balancing_factory(args.size) if balancing_factory
            else LoadBalancingScheme()
        ),
    )


def _random_tensors(spec, size: int, seed: int):
    """Random inputs sized to cover every access the spec makes.

    Subscripts may be affine combinations of indices (``I[ox + f]``), so
    each tensor axis is sized to the maximum subscript value over the
    iteration domain plus one.
    """
    from .core.expr import IndexExpr
    from .core.functionality import AssignmentKind

    bounds = Bounds({name: size for name in spec.index_names})
    max_env = {name: size - 1 for name in spec.index_names}
    extents: Dict[str, list] = {}
    for assignment in spec.assignments:
        if assignment.kind is AssignmentKind.OUTPUT:
            continue
        for access in assignment.rhs.references():
            if access.target.name not in {t.name for t in spec.input_tensors()}:
                continue
            sizes = extents.setdefault(access.target.name, [1] * access.target.rank)
            for axis, sub in enumerate(access.subscripts):
                if isinstance(sub, IndexExpr):
                    sizes[axis] = max(sizes[axis], sub.evaluate(max_env, bounds) + 1)
                else:
                    sizes[axis] = max(sizes[axis], size)

    rng = np.random.default_rng(seed)
    tensors = {}
    for tensor in spec.input_tensors():
        shape = tuple(extents.get(tensor.name, [size] * tensor.rank))
        tensors[tensor.name] = rng.integers(-4, 5, shape)
    return tensors


def cmd_generate(args) -> int:
    design = _build_accelerator(args).build()
    problems = design.to_netlist().lint()
    if problems:
        for problem in problems:
            print(f"lint: {problem}", file=sys.stderr)
        return 1
    verilog = design.to_verilog()
    if args.output == "-":
        print(verilog)
    else:
        with open(args.output, "w") as handle:
            handle.write(verilog)
        print(
            f"wrote {len(verilog.splitlines())} lines of lint-clean Verilog"
            f" to {args.output}  ({design.pe_count} PEs)"
        )
    return 0


def cmd_simulate(args) -> int:
    accelerator = _build_accelerator(args)
    design = accelerator.build()
    tensors = _random_tensors(accelerator.spec, args.size, args.seed)
    result = design.run(tensors)
    reference = accelerator.spec.interpret(accelerator.bounds, tensors)
    ok = all(
        np.array_equal(result.outputs[name], reference[name])
        for name in reference
    )
    if args.json:
        print(
            json.dumps(
                {
                    "design": design.name,
                    "pe_count": design.pe_count,
                    "dataflow_roles": design.dataflow_roles,
                    "outputs_match_reference": ok,
                    "counters": result.counters.as_dict(),
                },
                indent=2,
            )
        )
        return 0 if ok else 1
    print(design.summary())
    print(
        f"\ncycles={result.cycles} macs={result.counters.macs}"
        f" utilization={result.utilization:.1%}"
        f" outputs-match-reference={ok}"
    )
    return 0 if ok else 1


def cmd_area(args) -> int:
    design = _build_accelerator(args).build()
    report = design.area_report(include_host_cpu=args.with_cpu)
    if args.json:
        print(
            json.dumps(
                {
                    "design": design.name,
                    "pe_count": design.pe_count,
                    "components_um2": dict(report.components),
                    "total_um2": report.total,
                },
                indent=2,
            )
        )
        return 0
    print(report.table())
    return 0


def cmd_trace(args) -> int:
    from .obs import Tracer, dump_rtl_vcd, set_tracer, write_chrome_trace

    tracer = Tracer(capacity=args.capacity, enabled=True)
    previous = set_tracer(tracer)
    try:
        accelerator = _build_accelerator(args)
        design = accelerator.build()
        tensors = _random_tensors(accelerator.spec, args.size, args.seed)
        result = design.run(tensors)
        vcd_path = f"{args.output}.vcd"
        rtl_cycles = dump_rtl_vcd(
            design.rtl_simulator(), vcd_path, cycles=args.rtl_cycles
        )
        trace_path = f"{args.output}.json"
        event_count = write_chrome_trace(tracer, trace_path)
    finally:
        set_tracer(previous)
    print(
        f"simulated {result.cycles} cycles at"
        f" {result.utilization:.1%} utilization"
    )
    print(f"wrote {event_count} trace events to {trace_path}")
    print(f"wrote {rtl_cycles} RTL cycles of waveforms to {vcd_path}")
    if tracer.dropped:
        print(
            f"ring buffer dropped {tracer.dropped} oldest events"
            f" (capacity {tracer.capacity}; raise with --capacity)"
        )
    return 0


def cmd_explore(args) -> int:
    from .dse import explore

    profiler = None
    previous_profiler = None
    if args.profile:
        from .obs.profile import Profiler, set_profiler

        profiler = Profiler(enabled=True)
        previous_profiler = set_profiler(profiler)

    try:
        spec = SPECS[args.spec]()
        bounds = Bounds({name: args.size for name in spec.index_names})
        tensors = _random_tensors(spec, args.size, args.seed)
        sparsities = {"dense": SparsityStructure()}
        for name, factory in SPARSITIES.items():
            if factory is not None and args.spec == "matmul":
                sparsities[name] = factory(spec)
        result = explore(
            spec,
            bounds,
            tensors,
            transforms={name: factory() for name, factory in TRANSFORMS.items()},
            sparsities=sparsities,
            balancings={
                "none": LoadBalancingScheme(),
                "row-shift": row_shift_scheme(args.size // 2),
            },
            jobs=args.jobs,
            cache=not args.no_cache,
        )
    finally:
        if previous_profiler is not None:
            from .obs.profile import set_profiler

            set_profiler(previous_profiler)

    print(result.table())
    best = result.best_by("adp")
    print(f"\nbest area-delay product: {best.name}")
    if result.report is not None and result.report.cache_stats is not None:
        stats = result.report.cache_stats
        print(
            f"engine: {result.report.mode} (jobs={result.report.jobs}),"
            f" cache {stats.hits}/{stats.lookups} hits"
            f" ({stats.hit_rate:.0%})"
        )
    if profiler is not None:
        print("\nper-pass timing:")
        print(profiler.table())
    return 0


def _cache_line(report, cache) -> str:
    stats = cache.stats
    line = (
        f"engine: {report.mode} (jobs={report.jobs}),"
        f" cache {stats.hits}/{stats.lookups} hits"
    )
    if cache.store is not None:
        disk = cache.store.stats
        line += (
            f", disk {disk.hits}/{disk.lookups} hits"
            f" ({disk.bytes_read} B read, {disk.bytes_written} B written)"
        )
    return line


def _sweep_via_server(args) -> int:
    """Route ``repro sweep --server`` through the evaluation daemon.

    Workload-table paths are read client-side and shipped inline, so
    the daemon never needs access to the client's filesystem.  Rows
    stream back per layer; the rebuilt result dict matches the batch
    path's ``--json`` shape (plus a ``dedup`` flag).
    """
    from .exec.suite import (
        SuiteError,
        format_rows,
        is_table_path,
        read_workload_table,
    )
    from .serve.client import ServeClient, ServeError

    suite_name: Optional[str] = args.suite
    table = None
    if is_table_path(args.suite):
        try:
            table = read_workload_table(args.suite)
        except SuiteError as err:
            print(f"sweep: {err}", file=sys.stderr)
            return 2
        suite_name = None

    client = ServeClient(args.server)

    def on_trace(event: dict) -> None:
        if args.json:
            return
        label = event.get("event", "trace")
        detail = ", ".join(
            f"{key}={event[key]}"
            for key in ("rung", "fidelity", "candidates", "survivors")
            if key in event
        )
        print(f"sweep: [{label}] {detail}", file=sys.stderr)

    try:
        result = client.sweep(
            suite=suite_name,
            table=table,
            cap=args.cap,
            seed=args.seed,
            autotune=args.autotune,
            halving=args.halving,
            eta=args.eta,
            constraint=args.constraint,
            objective=args.objective,
            budget=args.budget,
            on_trace=on_trace,
        )
    except ServeError as err:
        print(f"sweep: server error [{err.code}]: {err}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(result, indent=2))
        return 0
    rows = result["rows"]
    print(format_rows(rows))
    aggregates = result.get("aggregates", {})
    dedup = " (deduplicated against an identical in-flight request)" \
        if result.get("dedup") else ""
    print(
        f"\n{result.get('suite', args.suite)}:"
        f" {aggregates.get('cases', len(rows))} cases,"
        f" {aggregates.get('total_cycles')} cycles,"
        f" {aggregates.get('elapsed_s')} s"
        f" via server {args.server}{dedup}"
    )
    return 0


def cmd_serve(args) -> int:
    from .serve import EvalServer

    if (args.socket is None) == (args.port is None):
        print(
            "serve: give exactly one of --socket PATH or --port N",
            file=sys.stderr,
        )
        return 2
    server = EvalServer(
        jobs=args.jobs,
        use_disk_cache=not args.no_disk_cache,
        cache_dir=args.cache_dir,
    )

    def ready(address: str) -> None:
        print(f"serve: listening on {address}", flush=True)

    try:
        if args.socket is not None:
            server.run(socket_path=args.socket, ready=ready)
        else:
            server.run(host=args.host, port=args.port, ready=ready)
    except KeyboardInterrupt:
        print("serve: interrupted", file=sys.stderr)
        return 130
    return 0


def cmd_sweep(args) -> int:
    from .exec.halving import sweep_suite
    from .exec.suite import SuiteError, SuiteResult, build_suite

    if args.server:
        return _sweep_via_server(args)
    try:
        suite = build_suite(args.suite, cap=args.cap, seed=args.seed)
    except KeyError as err:
        print(f"sweep: {err.args[0]}", file=sys.stderr)
        return 2
    except SuiteError as err:
        print(f"sweep: {err}", file=sys.stderr)
        return 2
    cache = _compile_cache(args, args.cache_dir)

    try:
        result = sweep_suite(
            suite,
            autotune=args.autotune,
            halving=args.halving,
            eta=args.eta,
            objective=args.objective,
            budget=args.budget,
            constraints=args.constraint,
            jobs=args.jobs,
            cache=cache,
        )
    except (SuiteError, ValueError) as err:
        print(f"sweep: {err}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(result.table())
    aggregates = result.aggregates()
    if isinstance(result, SuiteResult):
        print(
            f"\n{suite.name}: {aggregates['cases']} cases,"
            f" {aggregates['total_cycles']} cycles,"
            f" mean utilization {aggregates['mean_utilization']:.1%},"
            f" {aggregates['area_um2']:.0f} um^2,"
            f" {aggregates['total_energy_pj']:.0f} pJ,"
            f" {aggregates['elapsed_s']:.3f} s"
        )
    else:
        rung_trail = " -> ".join(
            f"{stats.fidelity}:{stats.candidates}" for stats in result.rungs
        )
        print(
            f"\n{suite.name} [autotune/{args.objective} eta={result.eta}]:"
            f" {aggregates['cases']} cases,"
            f" {aggregates['total_cycles']} cycles"
            f" (fixed design: {aggregates['fixed_total_cycles']}),"
            f" {aggregates['retuned_layers']} layers re-tuned,"
            f" {aggregates['candidates_per_layer']} candidates/layer,"
            f" rungs {rung_trail},"
            f" {aggregates['evaluations_saved']:.1f}x fewer full-fidelity"
            f" evaluations,"
            f" {aggregates['total_energy_pj']:.0f} pJ,"
            f" {aggregates['elapsed_s']:.3f} s"
        )
    print(_cache_line(result.report, cache))
    return 0


def cmd_cache(args) -> int:
    from .exec.store import DiskStore

    store = DiskStore.default(args.cache_dir, max_bytes=args.max_bytes)
    if store is None:
        if args.json:
            print(json.dumps({"enabled": False}, indent=2))
        else:
            print(
                "cache: persistence is disabled"
                " (STELLAR_CACHE_DIR is off and no --cache-dir given)"
            )
        return 0

    if args.action == "stats":
        summary = store.summary()
        summary["enabled"] = True
        if args.json:
            print(json.dumps(summary, indent=2))
            return 0
        print(f"root:     {summary['root']}")
        print(f"version:  {summary['version']}")
        print(
            f"entries:  {summary['entries']}"
            f" ({summary['total_bytes']} / {summary['max_bytes']} bytes)"
        )
        stages = summary["stages"]
        if stages:
            width = max(len(stage) for stage in stages)
            for stage, bucket in stages.items():
                print(
                    f"  {stage.ljust(width)}  {bucket['entries']:5d} entries"
                    f"  {bucket['bytes']:10d} bytes"
                )
        return 0

    if args.action == "gc":
        # Budgets describe what this collection enforces, so compute
        # them from the pre-GC occupancy.
        budgets = store.stage_budgets() if args.per_stage else None
        report = store.gc_report(per_stage=args.per_stage or None)
        evicted = sum(report.values())
        remaining = store.total_bytes()
        payload = {
            "evicted": evicted,
            "total_bytes": remaining,
            "max_bytes": store.max_bytes,
        }
        if args.per_stage:
            payload["per_stage"] = report
            payload["budgets"] = budgets
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(
                f"cache: evicted {evicted} entries;"
                f" {remaining} / {store.max_bytes} bytes in use"
            )
            if args.per_stage:
                width = max((len(stage) for stage in budgets), default=0)
                for stage, budget in sorted(budgets.items()):
                    print(
                        f"  {stage.ljust(width)}  budget {budget:10d} B"
                        f"  evicted {report.get(stage, 0)}"
                    )
        return 0

    # clear
    store.clear()
    if args.json:
        print(json.dumps({"cleared": True, "root": store.root}, indent=2))
    else:
        print(f"cache: cleared {store.root}")
    return 0


def cmd_report(args) -> int:
    from .report import design_report

    design = _build_accelerator(args).build()
    print(design_report(design, include_host_cpu=args.with_cpu))
    return 0


def cmd_frameworks(args) -> int:
    from .meta import render_table

    print(render_table())
    return 0


def _default_example_paths() -> list:
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    candidate = os.path.join(os.path.dirname(os.path.dirname(here)), "examples")
    return [candidate] if os.path.isdir(candidate) else []


def _missing_path(command: str, paths, noun: str = "file or directory") -> bool:
    """Report the first of ``paths`` that does not exist; True if any."""
    import os

    for path in paths:
        if not os.path.exists(path):
            print(f"{command}: no such {noun}: {path}", file=sys.stderr)
            return True
    return False


def _compile_cache(args, cache_dir: Optional[str] = None):
    """The in-memory cache under ``--no-disk-cache``, else the persistent one."""
    from .exec.cache import CompileCache, persistent_compile_cache

    if args.no_disk_cache:
        return CompileCache()
    return persistent_compile_cache(cache_dir)


def _report_exit(args, report, text: Callable[[], str], worst) -> int:
    """Print ``report`` (its ``to_dict()`` under ``--json``, else
    ``text()``) and return 1 when ``worst`` reaches ``--fail-on``."""
    from .analysis.diagnostics import Severity

    print(json.dumps(report.to_dict(), indent=2) if args.json else text())
    return 1 if worst is not None and worst >= Severity.parse(args.fail_on) else 0


def cmd_check(args) -> int:
    from .analysis import run_check

    paths = list(args.paths) or _default_example_paths()
    if not paths:
        print(
            "check: no example paths given and no examples/ directory found",
            file=sys.stderr,
        )
        return 2
    if _missing_path("check", paths):
        return 2

    profiler = None
    previous_profiler = None
    if args.profile:
        from .obs.profile import Profiler, set_profiler

        profiler = Profiler(enabled=True)
        previous_profiler = set_profiler(profiler)
    cache = _compile_cache(args)
    try:
        report = run_check(paths, suppress=args.suppress, cache=cache)
    finally:
        if previous_profiler is not None:
            from .obs.profile import set_profiler

            set_profiler(previous_profiler)

    status = _report_exit(args, report, report.text, report.max_severity())
    if profiler is not None:
        print("\nper-level timing:")
        print(profiler.table())
        stats = cache.stats
        line = f"cache: {stats.hits}/{stats.lookups} hits"
        if cache.store is not None:
            disk = cache.store.stats
            line += f", disk {disk.hits}/{disk.lookups} hits"
        print(line)
    return status


def cmd_verify(args) -> int:
    from .analysis.verify import run_verify

    paths = list(args.paths) or _default_example_paths()
    if not paths and not args.suite:
        print(
            "verify: no example paths given and no examples/ directory found",
            file=sys.stderr,
        )
        return 2
    if _missing_path("verify", paths):
        return 2

    report = run_verify(
        paths,
        suites=args.suite,
        opt_level=args.opt_level,
        cycles=args.cycles,
        seed=args.seed,
        cap=args.cap,
        max_layers=args.max_layers,
        suppress=args.suppress,
        cache=_compile_cache(args),
    )
    return _report_exit(args, report, report.text, report.max_severity())


def cmd_fuzz(args) -> int:
    from .analysis.diagnostics import max_severity
    from .fuzz import load_case, replay_case, run_campaign

    if args.replay is not None:
        if _missing_path("fuzz", [args.replay], noun="artifact"):
            return 2
        try:
            case = load_case(args.replay)
        except ValueError as err:
            print(f"fuzz: {err}", file=sys.stderr)
            return 2
        verdict = replay_case(case)

        def text() -> str:
            detail = f": {verdict.detail}" if verdict.detail else ""
            return (
                f"fuzz: replay {case.oracle} case {case.case_id[:12]}"
                f" -> {verdict.status}{detail}"
            )

        return _report_exit(
            args, verdict, text, max_severity(verdict.diagnostics)
        )

    try:
        report = run_campaign(
            seed=args.seed,
            cases=args.cases,
            oracles=args.oracle or None,
            corpus_dir=args.corpus,
            shrink=not args.no_shrink,
        )
    except ValueError as err:
        print(f"fuzz: {err}", file=sys.stderr)
        return 2
    return _report_exit(
        args, report, report.render_text, max_severity(report.diagnostics)
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_design_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", choices=sorted(SPECS), default="matmul")
    parser.add_argument(
        "--dataflow",
        "--transform",
        dest="dataflow",
        choices=sorted(TRANSFORMS),
        default="output-stationary",
    )
    parser.add_argument("--sparsity", choices=sorted(SPARSITIES), default="dense")
    parser.add_argument("--balancing", choices=sorted(BALANCINGS), default="none")
    parser.add_argument("--size", type=int, default=4, help="per-index bound")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stellar reproduction: generate and evaluate spatial accelerators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="compile and emit Verilog")
    _add_design_arguments(generate)
    generate.add_argument("-o", "--output", default="-")
    generate.set_defaults(func=cmd_generate)

    simulate = sub.add_parser("simulate", help="run a random workload")
    _add_design_arguments(simulate)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--json", action="store_true", help="machine-readable counters report"
    )
    simulate.set_defaults(func=cmd_simulate)

    area = sub.add_parser("area", help="print the area breakdown")
    _add_design_arguments(area)
    area.add_argument("--with-cpu", action="store_true")
    area.add_argument(
        "--json", action="store_true", help="machine-readable area report"
    )
    area.set_defaults(func=cmd_area)

    explore_cmd = sub.add_parser("explore", help="sweep the design space")
    explore_cmd.add_argument("--spec", choices=sorted(SPECS), default="matmul")
    explore_cmd.add_argument("--size", type=int, default=4)
    explore_cmd.add_argument("--seed", type=int, default=0)
    explore_cmd.add_argument(
        "--profile",
        action="store_true",
        help="print per-pass wall-clock timings after the sweep",
    )
    explore_cmd.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes (0 = one per CPU, 1 = serial; default 0)",
    )
    explore_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-hash compile cache",
    )
    explore_cmd.set_defaults(func=cmd_explore)

    sweep = sub.add_parser(
        "sweep", help="evaluate a workload suite through the batched engine"
    )
    sweep.add_argument(
        "suite",
        help="workload suite name (resnet50, alexnet, suitesparse) or a"
        " path to a user workload table (.json/.csv of layer shapes"
        " and densities)",
    )
    sweep.add_argument(
        "--autotune",
        action="store_true",
        help="cross each layer with the DSE design space and pick the"
        " Pareto-best design point per layer (exhaustive: successive"
        " halving at eta=1 over the non-widened space)",
    )
    sweep.add_argument(
        "--halving",
        action="store_true",
        help="autotune with the multi-fidelity successive-halving"
        " schedule over the widened design space (membuf / DMA /"
        " regfile axes): cheap reduced-cap rungs prune candidates, only"
        " survivors reach full-fidelity evaluation",
    )
    sweep.add_argument(
        "--eta",
        type=_positive_int,
        default=2,
        help="--halving rate: keep the top 1/eta per rung and grow rung"
        " caps by eta (default 2; 1 disables pruning)",
    )
    sweep.add_argument(
        "--constraint",
        default=None,
        metavar="CLAUSES",
        help="comma-separated frontier filters for --autotune/--halving, e.g."
        " 'area<=2e6,power<=0.5' (metrics: cycles, area, energy,"
        " power); the winner is the best feasible frontier point",
    )
    sweep.add_argument(
        "--objective",
        choices=["cycles", "energy", "edp"],
        default="cycles",
        help="autotuning objective minimized on each layer's Pareto"
        " frontier (default cycles)",
    )
    sweep.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        help="cap the candidate designs per layer via a deterministic"
        " stratified sample across the transform axis (the fixed"
        " baseline design is always kept); with --halving this sizes"
        " rung 0",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (0 = one per CPU; default serial)",
    )
    sweep.add_argument(
        "--cap",
        type=_positive_int,
        default=8,
        help="clip each matmul tile dimension to this bound (default 8)",
    )
    sweep.add_argument("--seed", type=int, default=7, help="operand seed")
    sweep.add_argument(
        "--json", action="store_true", help="machine-readable suite report"
    )
    sweep.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="in-memory cache only; do not read or write the disk store",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        help="disk store root (default STELLAR_CACHE_DIR or"
        " ~/.cache/stellar-repro)",
    )
    sweep.add_argument(
        "--server",
        default=None,
        metavar="ADDR",
        help="route through a running 'repro serve' daemon instead of"
        " evaluating in-process (unix socket path, host:port, or bare"
        " port); --jobs and cache flags are the daemon's business and"
        " are ignored",
    )
    sweep.set_defaults(func=cmd_sweep)

    serve_cmd = sub.add_parser(
        "serve",
        help="run the resident evaluation daemon (NDJSON over a unix"
        " socket or TCP)",
    )
    serve_cmd.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="unix socket path to listen on",
    )
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port to listen on (0 picks a free port, printed on"
        " startup)",
    )
    serve_cmd.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (default 127.0.0.1; only with --port)",
    )
    serve_cmd.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="resident worker processes (0 = one per CPU, 1 = serial;"
        " default 0)",
    )
    serve_cmd.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="in-memory cache only; do not read or write the disk store",
    )
    serve_cmd.add_argument(
        "--cache-dir",
        default=None,
        help="disk store root (default STELLAR_CACHE_DIR or"
        " ~/.cache/stellar-repro)",
    )
    serve_cmd.set_defaults(func=cmd_serve)

    trace = sub.add_parser(
        "trace", help="run with tracing; write Chrome JSON + VCD artifacts"
    )
    _add_design_arguments(trace)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "-o",
        "--output",
        default="trace",
        help="output prefix (<prefix>.json and <prefix>.vcd)",
    )
    trace.add_argument(
        "--capacity",
        type=_positive_int,
        default=65536,
        help="trace ring-buffer capacity in events",
    )
    trace.add_argument(
        "--rtl-cycles",
        type=_positive_int,
        default=16,
        help="clock cycles of the RTL interpreter to dump as waveforms",
    )
    trace.set_defaults(func=cmd_trace)

    report = sub.add_parser("report", help="full design report")
    _add_design_arguments(report)
    report.add_argument("--with-cpu", action="store_true")
    report.set_defaults(func=cmd_report)

    frameworks = sub.add_parser("frameworks", help="print the Table I matrix")
    frameworks.set_defaults(func=cmd_frameworks)

    cache_cmd = sub.add_parser(
        "cache", help="inspect or maintain the persistent design cache"
    )
    cache_cmd.add_argument(
        "action",
        choices=["stats", "gc", "clear"],
        help="stats: per-stage occupancy; gc: enforce the byte budget;"
        " clear: drop every entry of the live version",
    )
    cache_cmd.add_argument(
        "--cache-dir",
        default=None,
        help="disk store root (default STELLAR_CACHE_DIR or"
        " ~/.cache/stellar-repro)",
    )
    cache_cmd.add_argument(
        "--max-bytes",
        type=_positive_int,
        default=None,
        help="override the byte budget for this invocation (gc evicts"
        " down to it; default STELLAR_CACHE_MAX_BYTES)",
    )
    cache_cmd.add_argument(
        "--per-stage",
        action="store_true",
        help="gc: water-fill the byte budget across stages"
        " (STELLAR_CACHE_STAGE_WEIGHTS tunes the shares) so one bulky"
        " stage cannot evict every compile entry; prints the per-stage"
        " budgets and evictions",
    )
    cache_cmd.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    cache_cmd.set_defaults(func=cmd_cache)

    check = sub.add_parser(
        "check", help="static-check example designs (spec/netlist/program)"
    )
    check.add_argument(
        "paths",
        nargs="*",
        help="example files or directories (default: the repo's examples/)",
    )
    check.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    check.add_argument(
        "--fail-on",
        choices=["warning", "error"],
        default="error",
        help="lowest severity that makes the exit status 1",
    )
    check.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="CODE",
        help="drop diagnostics with this code (repeatable)",
    )
    check.add_argument(
        "--profile",
        action="store_true",
        help="print per-level wall-clock timings after checking",
    )
    check.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="in-memory memo only; do not read or write the disk store",
    )
    check.set_defaults(func=cmd_check)

    verify = sub.add_parser(
        "verify",
        help="prove optimized netlists equivalent to their unoptimized"
        " sources (rtl.passes x analysis.equiv)",
    )
    verify.add_argument(
        "paths",
        nargs="*",
        help="example files or directories (default: the repo's examples/)",
    )
    verify.add_argument(
        "--suite",
        action="append",
        default=[],
        metavar="NAME[:LAYER]",
        help="also verify a workload suite's layers (repeatable;"
        " e.g. resnet50 or suitesparse:poisson3Da)",
    )
    verify.add_argument(
        "--opt-level",
        type=int,
        choices=[0, 1, 2],
        default=2,
        help="optimization rung to prove against the unoptimized netlist",
    )
    verify.add_argument(
        "--cycles",
        type=_positive_int,
        default=16,
        help="lockstep cycles per module in the differential backstop",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--cap",
        type=_positive_int,
        default=4,
        help="bound cap for suite layers (as in repro sweep --cap)",
    )
    verify.add_argument(
        "--max-layers",
        type=int,
        default=0,
        help="verify at most N layers per suite (0 = all)",
    )
    verify.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    verify.add_argument(
        "--fail-on",
        choices=["warning", "error"],
        default="error",
        help="lowest severity that makes the exit status 1",
    )
    verify.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="CODE",
        help="drop diagnostics with this exact code (repeatable)",
    )
    verify.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="in-memory memo only; do not read or write the disk store",
    )
    verify.set_defaults(func=cmd_verify)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random design points through"
        " cross-backend oracles, with a minimizing reducer",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz.add_argument(
        "--cases",
        type=_positive_int,
        default=200,
        help="number of generated cases (default 200)",
    )
    fuzz.add_argument(
        "--oracle",
        action="append",
        default=[],
        metavar="NAME",
        help="restrict to this oracle (repeatable; default all six --"
        " see 'repro fuzz --oracle help' in the docs)",
    )
    fuzz.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="re-run one corpus artifact (or bare-case JSON) through its"
        " oracle instead of running a campaign",
    )
    fuzz.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="write shrunk counterexample artifacts here (default: no"
        " artifacts; the committed corpus lives in"
        " tests/data/fuzz_corpus)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="save failing cases as-is without minimizing them first",
    )
    fuzz.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    fuzz.add_argument(
        "--fail-on",
        choices=["warning", "error"],
        default="error",
        help="lowest severity that makes the exit status 1",
    )
    fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
