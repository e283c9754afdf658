"""``repro verify``: equivalence-check the optimization pass pipeline.

For every example design (and optionally every layer of named workload
suites), lowers the design unoptimized, runs the
:mod:`repro.rtl.passes` pipeline at the requested rung, and proves the
two netlists equivalent with :func:`repro.analysis.equiv.check_equivalence`.
The report mirrors :mod:`repro.analysis.check`'s text/JSON shape and the
CLI shares its 0/1/2 exit contract: 0 all equivalent, 1 divergence
found (any ``STL-EQ-*`` error), 2 a target failed to build at all.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..obs.profile import span
from .check import SCHEMA_VERSION, _compiled_of, discover_examples
from .diagnostics import (
    Diagnostic,
    Severity,
    max_severity,
    suppress as _suppress,
)
from .equiv import EquivResult, check_equivalence


class VerifyTarget:
    """One verified design: a discovered example or one suite layer."""

    def __init__(
        self,
        name: str,
        source: str = "",
        result: Optional[EquivResult] = None,
        rewrites: Optional[Dict[str, int]] = None,
        error: str = "",
    ):
        self.name = name
        self.source = source
        self.result = result
        self.rewrites = dict(rewrites or {})
        self.error = error

    @property
    def ok(self) -> bool:
        return not self.error and (self.result is None or self.result.ok)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        if self.error:
            return [
                Diagnostic(
                    "STL-CK-001",
                    Severity.ERROR,
                    "verify",
                    self.error,
                    self.name,
                )
            ]
        return list(self.result.diagnostics) if self.result else []

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "source": self.source,
            "ok": self.ok,
            "rewrites": dict(self.rewrites),
        }
        if self.error:
            out["error"] = self.error
        if self.result is not None:
            out["equivalence"] = self.result.to_dict()
        return out


class VerifyReport:
    """Aggregated equivalence results over every verified target."""

    def __init__(self, targets: Sequence[VerifyTarget], opt_level: int,
                 cycles: int, seed: int):
        self.targets = list(targets)
        self.opt_level = opt_level
        self.cycles = cycles
        self.seed = seed

    @property
    def diagnostics(self) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for target in self.targets:
            out.extend(target.diagnostics)
        return out

    def max_severity(self) -> Optional[Severity]:
        return max_severity(self.diagnostics)

    def total_rewrites(self) -> int:
        return sum(sum(t.rewrites.values()) for t in self.targets)

    def to_dict(self) -> Dict[str, object]:
        errors = sum(
            1
            for d in self.diagnostics
            if d.severity >= Severity.ERROR
        )
        return {
            "schema_version": SCHEMA_VERSION,
            "opt_level": self.opt_level,
            "cycles": self.cycles,
            "seed": self.seed,
            "targets": [t.to_dict() for t in self.targets],
            "summary": {
                "targets": len(self.targets),
                "equivalent": sum(1 for t in self.targets if t.ok),
                "errors": errors,
                "total_rewrites": self.total_rewrites(),
            },
        }

    def text(self) -> str:
        lines: List[str] = []
        for target in self.targets:
            rewrites = ", ".join(
                f"{name}={count}"
                for name, count in target.rewrites.items()
                if count
            )
            if target.ok:
                lines.append(
                    f"ok   {target.name}: equivalent at opt_level"
                    f" {self.opt_level} ({rewrites or 'no rewrites'})"
                )
            else:
                lines.append(
                    f"FAIL {target.name}:"
                    f" {len(target.diagnostics)} diagnostic(s)"
                )
                for diagnostic in target.diagnostics:
                    lines.append(
                        "  " + diagnostic.render().replace("\n", "\n  ")
                    )
        ok = sum(1 for t in self.targets if t.ok)
        lines.append(
            f"verified {len(self.targets)} target(s) at opt_level"
            f" {self.opt_level}: {ok} equivalent,"
            f" {len(self.targets) - ok} failed,"
            f" {self.total_rewrites()} rewrite(s) proven"
        )
        return "\n".join(lines)


def verify_design(
    compiled,
    name: str,
    opt_level: int = 2,
    cycles: int = 16,
    seed: int = 0,
    suppress: Iterable[str] = (),
    cache=None,
) -> VerifyTarget:
    """Lower one compiled design and prove its optimized netlist."""
    from ..rtl.lowering import lower_design
    from ..rtl.passes import run_passes

    base = lower_design(compiled, check=False, cache=cache)
    optimized, results = run_passes(base, opt_level)
    with span("analysis.equiv"):
        result = check_equivalence(
            base, optimized, cycles=cycles, seed=seed, design_name=name
        )
    result.diagnostics = _suppress(result.diagnostics, suppress)
    return VerifyTarget(
        name,
        result=result,
        rewrites={r.name: r.rewrites for r in results},
    )


def run_verify(
    paths: Sequence[str],
    suites: Sequence[str] = (),
    opt_level: int = 2,
    cycles: int = 16,
    seed: int = 0,
    cap: int = 4,
    max_layers: int = 0,
    suppress: Iterable[str] = (),
    cache=None,
) -> VerifyReport:
    """Verify every example under ``paths`` plus named suites' layers.

    ``suites`` entries are :func:`repro.exec.suite.build_suite` names
    (optionally ``name:layer`` to verify a single named layer);
    ``max_layers`` truncates each suite (0 = all layers); ``cap`` bounds
    layer shapes exactly as ``repro sweep --cap`` does, so CI can keep
    the netlists small.
    """
    targets: List[VerifyTarget] = []

    for example in discover_examples(paths):
        if example.error:
            targets.append(
                VerifyTarget(example.name, example.path, error=example.error)
            )
            continue
        try:
            design = example.build()
            compiled = _compiled_of(design, cache=cache)
        except Exception as error:  # noqa: BLE001 -- report, don't crash
            targets.append(
                VerifyTarget(
                    example.name,
                    example.path,
                    error=f"build failed: {type(error).__name__}: {error}",
                )
            )
            continue
        target = verify_design(
            compiled,
            example.name,
            opt_level=opt_level,
            cycles=cycles,
            seed=seed,
            suppress=suppress,
            cache=cache,
        )
        target.source = example.path
        targets.append(target)

    for entry in suites:
        suite_name, _, layer_name = entry.partition(":")
        try:
            from ..exec.suite import build_suite

            suite = build_suite(suite_name, cap=cap, seed=seed)
        except Exception as error:  # noqa: BLE001 -- report, don't crash
            targets.append(
                VerifyTarget(
                    entry,
                    error=f"suite failed to build:"
                    f" {type(error).__name__}: {error}",
                )
            )
            continue
        cases = [
            case
            for case in suite.cases
            if not layer_name or case.name == layer_name
        ]
        if layer_name and not cases:
            targets.append(
                VerifyTarget(
                    entry,
                    error=f"suite {suite_name!r} has no layer"
                    f" {layer_name!r}",
                )
            )
            continue
        if max_layers > 0:
            cases = cases[:max_layers]
        for case in cases:
            label = f"{suite_name}:{case.name}"
            try:
                from ..core.compiler import compile_design

                compiled = compile_design(
                    suite.spec,
                    case.bounds,
                    suite.transform,
                    sparsity=suite.sparsity,
                    balancing=suite.balancing,
                    element_bits=suite.element_bits,
                    check=False,
                    cache=cache,
                )
            except Exception as error:  # noqa: BLE001 -- report, don't crash
                targets.append(
                    VerifyTarget(
                        label,
                        error=f"layer failed to compile:"
                        f" {type(error).__name__}: {error}",
                    )
                )
                continue
            targets.append(
                verify_design(
                    compiled,
                    label,
                    opt_level=opt_level,
                    cycles=cycles,
                    seed=seed,
                    suppress=suppress,
                    cache=cache,
                )
            )

    return VerifyReport(targets, opt_level, cycles, seed)


__all__ = [
    "VerifyReport",
    "VerifyTarget",
    "run_verify",
    "verify_design",
]
