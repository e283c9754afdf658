"""Netlist equivalence checking for the optimization pass pipeline.

The fourth level of the analysis ladder, in the chisel_sfv direction the
ROADMAP names: every :mod:`repro.rtl.passes` transform is *proven*
against its input rather than trusted.  Three methods, cheapest first:

1. **Interface check** -- the two netlists must expose the same modules
   with identical port signatures (``STL-EQ-002`` on mismatch).  Passes
   rewrite module bodies; they never touch interfaces.
2. **Structural / bounded-symbolic check** -- for every assign target
   both sides still drive, the combinational cone is inlined through
   singly-driven wires and canonicalized
   (:func:`repro.rtl.passes.canonicalize`); identical canonical forms
   prove the cone.  Cones that differ structurally are evaluated under
   bit-precise integer semantics (the same value rules as
   :mod:`repro.rtl.sim`) over every leaf assignment when the leaf bits
   fit ``max_exhaustive_bits``, else over corner + random assignments; a
   concrete counterexample is ``STL-EQ-001``.  Sequential behaviour is
   compared as canonicalized guarded next-state statements.
3. **Random-stimulus differential backstop** -- every shared module is
   simulated pre/post in lockstep (:class:`repro.rtl.sim.RTLSimulator`)
   under one seeded stimulus that drives every bit of every input,
   however wide; traces are captured with
   :func:`repro.obs.export.capture_rtl_trace` and aligned with
   :func:`repro.obs.export.first_trace_divergence`; the first divergent
   signal and cycle become ``STL-EQ-003``.  The differential runs
   per-module rather than only at the top because the lowered top ties
   test inputs low -- a module-local bug may be unobservable from the
   top's ports.

``repro verify`` (:mod:`repro.analysis.verify`) drives this over every
example design and suite layer.
"""

from __future__ import annotations

import itertools
import random
import zlib
from typing import Dict, List, Optional, Set, Tuple

from ..obs.export import capture_rtl_trace, first_trace_divergence
from ..rtl.netlist import Module, Netlist, PortDir, lvalue_base, refs
from ..rtl.passes import canonicalize
from ..rtl.sim import RTLSimulator
from .diagnostics import Diagnostic, Severity

#: Node-count ceiling for cone inlining.  A cone that trips it is marked
#: incomplete and is *never* refuted by bounded evaluation (its leaves
#: may not mean the same thing on both sides); the differential backstop
#: decides instead.
_INLINE_NODE_BUDGET = 800

#: Random assignments tried per cone when exhaustive enumeration is too
#: wide, on top of the all-zeros / all-ones / one-hot-max corners.
_BOUNDED_SAMPLES = 32


class EquivResult:
    """Outcome of one before/after equivalence check."""

    __slots__ = ("diagnostics", "stats")

    def __init__(self):
        self.diagnostics: List[Diagnostic] = []
        self.stats: Dict[str, int] = {
            "modules": 0,
            "cones": 0,
            "proved_structural": 0,
            "checked_bounded": 0,
            "deferred_to_differential": 0,
            "sequential_proved": 0,
            "sequential_deferred": 0,
            "differential_modules": 0,
            "differential_cycles": 0,
        }

    @property
    def ok(self) -> bool:
        return not any(d.severity >= Severity.ERROR for d in self.diagnostics)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "stats": dict(self.stats),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def check_equivalence(
    before: Netlist,
    after: Netlist,
    cycles: int = 16,
    seed: int = 0,
    max_exhaustive_bits: int = 12,
    design_name: str = "",
) -> EquivResult:
    """Prove ``after`` equivalent to ``before`` (see module docstring).

    ``cycles`` and ``seed`` parameterize the differential backstop; the
    backstop always runs, even when the symbolic stage already refuted a
    cone, because it is the localizer -- its ``STL-EQ-003`` names the
    first divergent signal and cycle.
    """
    result = EquivResult()
    prefix = f"{design_name}." if design_name else ""

    if before.top_name != after.top_name:
        result.diagnostics.append(
            Diagnostic(
                "STL-EQ-002",
                Severity.ERROR,
                "equiv",
                f"top module renamed: {before.top_name!r} !="
                f" {after.top_name!r}",
                f"{prefix}{after.top_name}",
            )
        )
    missing = sorted(set(before.modules) - set(after.modules))
    added = sorted(set(after.modules) - set(before.modules))
    for name in missing:
        result.diagnostics.append(
            Diagnostic(
                "STL-EQ-002",
                Severity.ERROR,
                "equiv",
                f"module {name!r} disappeared from the optimized netlist",
                f"{prefix}{name}",
            )
        )
    for name in added:
        result.diagnostics.append(
            Diagnostic(
                "STL-EQ-002",
                Severity.ERROR,
                "equiv",
                f"module {name!r} appeared only in the optimized netlist",
                f"{prefix}{name}",
            )
        )

    if missing or added:
        # With the module sets out of sync, body comparison is ill-defined
        # (shared modules may instantiate the missing one); the interface
        # errors above already refute equivalence.
        return result

    for name in sorted(set(before.modules) & set(after.modules)):
        mod_before, mod_after = before.modules[name], after.modules[name]
        result.stats["modules"] += 1
        if not _same_interface(mod_before, mod_after):
            result.diagnostics.append(
                Diagnostic(
                    "STL-EQ-002",
                    Severity.ERROR,
                    "equiv",
                    "port signature changed:"
                    f" {_signature(mod_before)} != {_signature(mod_after)}",
                    f"{prefix}{name}",
                )
            )
            continue
        inliners = (_Inliner(mod_before), _Inliner(mod_after))
        _check_combinational(
            mod_before, mod_after, inliners, result, f"{prefix}{name}",
            max_exhaustive_bits, seed,
        )
        _check_sequential(mod_before, mod_after, inliners, result)
        _check_differential(
            before, after, name, result, f"{prefix}{name}", cycles, seed
        )
    return result


# ---------------------------------------------------------------------------
# Stage 1: interfaces
# ---------------------------------------------------------------------------


def _signature(module: Module) -> List[Tuple[str, str, int]]:
    return [(p.name, p.direction.value, p.width) for p in module.ports]


def _same_interface(before: Module, after: Module) -> bool:
    return _signature(before) == _signature(after)


# ---------------------------------------------------------------------------
# Stage 2: combinational cones
# ---------------------------------------------------------------------------


class _Cone:
    """One side's inlined combinational cone for a target."""

    __slots__ = ("node", "complete")

    def __init__(self, node, complete: bool):
        self.node = node
        self.complete = complete


class _Inliner:
    """Inlines singly-assigned scalar wires into expression cones."""

    def __init__(self, module: Module):
        self.widths = {p.name: p.width for p in module.ports}
        self.widths.update({n.name: n.width for n in module.nets})
        self.memories = {n.name for n in module.nets if n.depth}
        regs = {n.name for n in module.nets if n.is_reg}
        ports = {p.name for p in module.ports}

        written: Dict[str, int] = {}

        def bump(name: Optional[str]) -> None:
            if name:
                written[name] = written.get(name, 0) + 1

        assign_rhs: Dict[str, object] = {}
        for assign in module.assigns:
            lhs = assign.lhs.tree
            bump(lvalue_base(lhs))
            if lhs[0] == "ref":
                assign_rhs[lhs[1]] = assign.rhs.tree
        for block in module.sync_blocks:
            for statement in block.statements + block.reset_statements:
                bump(lvalue_base(statement.tree[1]))
        # A wire is inlinable when its one and only driver is a plain
        # whole-net assign; registers and ports hold externally visible
        # state and stay as cone leaves.
        self.inlinable = {
            name: rhs
            for name, rhs in assign_rhs.items()
            if written.get(name) == 1
            and name not in regs
            and name not in ports
            and name not in self.memories
        }

    def cone(self, node) -> _Cone:
        self._nodes = 0
        self._complete = True
        expanded = self._expand(node, frozenset())
        return _Cone(expanded, self._complete)

    def _resolve_alias(self, node):
        """Follow ``a = b`` links of equal declared width from a ref."""
        seen = {node[1]}
        while True:
            rhs = self.inlinable.get(node[1])
            if (
                rhs is None
                or rhs[0] != "ref"
                or rhs[1] in seen
                or self.widths.get(rhs[1], 32) != self.widths.get(node[1], 32)
            ):
                return node
            seen.add(rhs[1])
            node = rhs

    def _expand(self, node, stack: frozenset):
        self._nodes += 1
        if self._nodes > _INLINE_NODE_BUDGET:
            self._complete = False
            return node
        kind = node[0]
        if kind == "ref":
            name = node[1]
            if name in stack:
                self._complete = False  # combinational cycle; leave as leaf
                return node
            rhs = self.inlinable.get(name)
            if rhs is None:
                return node
            return self._expand(rhs, stack | {name})
        if kind in ("literal",):
            return node
        if kind == "index":
            # A memory subscript's base stays symbolic; its address cone
            # still inlines.
            return ("index", node[1] if _is_memory_ref(node[1], self.memories)
                    else self._expand(node[1], stack),
                    self._expand(node[2], stack))
        if kind == "slice":
            return (
                "slice",
                self._expand(node[1], stack),
                self._expand(node[2], stack),
                self._expand(node[3], stack),
            )
        if kind == "concat":
            # Concat parts are width-sensitive: general inlining would
            # change the part's packing width, so refs only follow
            # equal-width alias links (matching what collapse_chains is
            # allowed to rewrite there) and everything else keeps its
            # shape.
            return (
                "concat",
                [
                    self._resolve_alias(part)
                    if part[0] == "ref"
                    else self._expand(part, stack)
                    for part in node[1]
                ],
            )
        if kind == "repl":
            return (
                "repl",
                self._expand(node[1], stack),
                self._resolve_alias(node[2])
                if node[2][0] == "ref"
                else self._expand(node[2], stack),
            )
        if kind == "unop":
            return ("unop", node[1], self._expand(node[2], stack))
        if kind == "binop":
            return (
                "binop",
                node[1],
                self._expand(node[2], stack),
                self._expand(node[3], stack),
            )
        return node


def _is_memory_ref(node, memories: Set[str]) -> bool:
    return node[0] == "ref" and node[1] in memories


def _check_combinational(
    mod_before: Module,
    mod_after: Module,
    inliners: Tuple[_Inliner, _Inliner],
    result: EquivResult,
    location: str,
    max_exhaustive_bits: int,
    seed: int,
) -> None:
    inliner_before, inliner_after = inliners

    targets_before = _assign_targets(mod_before)
    targets_after = _assign_targets(mod_after)
    for target in sorted(set(targets_before) & set(targets_after)):
        result.stats["cones"] += 1
        cone_before = inliner_before.cone(targets_before[target])
        cone_after = inliner_after.cone(targets_after[target])
        canon_before = canonicalize(cone_before.node, inliner_before.widths)
        canon_after = canonicalize(cone_after.node, inliner_after.widths)
        if canon_before == canon_after:
            result.stats["proved_structural"] += 1
            continue
        if not (cone_before.complete and cone_after.complete) or (
            _cone_leaves(cone_before.node, inliner_before.memories)
            != _cone_leaves(cone_after.node, inliner_after.memories)
        ):
            # Incomplete inlining -- or cones bottoming out on different
            # leaf signals -- means a shared environment would compare
            # unrelated functions; refuting on it would be unsound.  The
            # differential backstop decides.
            result.stats["deferred_to_differential"] += 1
            continue
        witness = _bounded_refute(
            cone_before.node,
            cone_after.node,
            inliner_before,
            max_exhaustive_bits,
            seed,
        )
        if witness is None:
            result.stats["checked_bounded"] += 1
            continue
        env, value_before, value_after = witness
        assignment = ", ".join(
            f"{name}={value}" for name, value in sorted(env.items())
        )
        result.diagnostics.append(
            Diagnostic(
                "STL-EQ-001",
                Severity.ERROR,
                "equiv",
                f"combinational cone of {target!r} changed value:"
                f" {value_before} != {value_after} under"
                f" {{{assignment or 'constant inputs'}}}",
                f"{location}.{target}",
                suggestion="the optimization pass rewrote this cone"
                " unsoundly; run repro verify --json for the full trace",
            )
        )


def _assign_targets(module: Module) -> Dict[str, object]:
    targets: Dict[str, object] = {}
    for assign in module.assigns:
        lhs = assign.lhs.tree
        if lhs[0] == "ref":
            targets[lhs[1]] = assign.rhs.tree
    return targets


# -- bounded bit-precise evaluation -----------------------------------------


def _evaluate(node, env: Dict[str, int], widths: Dict[str, int], memories):
    """Evaluate a cone under the simulator's exact value semantics."""
    kind = node[0]
    if kind == "literal":
        return node[1] & ((1 << node[2]) - 1)
    if kind == "ref":
        return env.get(node[1], 0)
    if kind == "index":
        index = _evaluate(node[2], env, widths, memories)
        base = node[1]
        if base[0] == "ref" and base[1] in memories:
            return _memory_value(base[1], index, widths.get(base[1], 32))
        return (_evaluate(base, env, widths, memories) >> index) & 1
    if kind == "slice":
        value = _evaluate(node[1], env, widths, memories)
        hi = _evaluate(node[2], env, widths, memories)
        lo = _evaluate(node[3], env, widths, memories)
        return (value >> lo) & ((1 << (hi - lo + 1)) - 1)
    if kind == "concat":
        out = 0
        for part in node[1]:
            width = _runtime_width(part, env, widths, memories)
            out = (out << width) | (
                _evaluate(part, env, widths, memories) & ((1 << width) - 1)
            )
        return out
    if kind == "repl":
        count = _evaluate(node[1], env, widths, memories)
        width = _runtime_width(node[2], env, widths, memories)
        piece = _evaluate(node[2], env, widths, memories) & ((1 << width) - 1)
        out = 0
        for _ in range(count):
            out = (out << width) | piece
        return out
    if kind == "unop":
        value = _evaluate(node[2], env, widths, memories)
        if node[1] == "!":
            return 0 if value else 1
        if node[1] == "~":
            return ~value
        return -value
    if kind == "binop":
        op = node[1]
        lhs = _evaluate(node[2], env, widths, memories)
        rhs = _evaluate(node[3], env, widths, memories)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "&":
            return lhs & rhs
        if op == "|":
            return lhs | rhs
        if op == "==":
            return int(lhs == rhs)
        if op == "!=":
            return int(lhs != rhs)
        if op == "<":
            return int(lhs < rhs)
        if op == "<=":
            return int(lhs <= rhs)
        if op == ">":
            return int(lhs > rhs)
        return int(lhs >= rhs)
    raise ValueError(f"cannot evaluate AST node {node!r}")


def _runtime_width(node, env, widths, memories) -> int:
    if node[0] == "literal":
        return node[2]
    if node[0] == "ref":
        return widths.get(node[1], 32)
    if node[0] == "slice":
        hi = _evaluate(node[2], env, widths, memories)
        lo = _evaluate(node[3], env, widths, memories)
        return hi - lo + 1
    return 32


def _memory_value(name: str, index: int, width: int) -> int:
    """Deterministic pseudo-random contents for symbolic memory reads.

    Both cones read through the same function, so a memory read models
    'the same unknown value on both sides'."""
    digest = zlib.crc32(f"{name}[{index}]".encode("utf-8"))
    return digest & ((1 << width) - 1)


def _cone_leaves(node, memories: Set[str]) -> Set[str]:
    return set(refs(node)) - memories


def _bounded_refute(
    node_before,
    node_after,
    inliner: _Inliner,
    max_exhaustive_bits: int,
    seed: int,
):
    """Search for a leaf assignment separating the two cones.

    Returns ``(env, value_before, value_after)`` or ``None``.  Leaf
    values are drawn masked to their declared widths, exactly the range
    a simulator write could have stored."""
    widths, memories = inliner.widths, inliner.memories
    leaves = sorted(
        _cone_leaves(node_before, memories) | _cone_leaves(node_after, memories)
    )
    leaf_widths = [min(widths.get(name, 32), 32) for name in leaves]

    def differs(env: Dict[str, int]):
        value_before = _evaluate(node_before, env, widths, memories)
        value_after = _evaluate(node_after, env, widths, memories)
        if value_before != value_after:
            return env, value_before, value_after
        return None

    if sum(leaf_widths) <= max_exhaustive_bits:
        for values in itertools.product(
            *[range(1 << width) for width in leaf_widths]
        ):
            witness = differs(dict(zip(leaves, values)))
            if witness is not None:
                return witness
        return None

    corners = [
        {name: 0 for name in leaves},
        {
            name: (1 << width) - 1
            for name, width in zip(leaves, leaf_widths)
        },
    ]
    for hot in leaves:
        corners.append(
            {
                name: ((1 << width) - 1 if name == hot else 0)
                for name, width in zip(leaves, leaf_widths)
            }
        )
    rng = random.Random(seed ^ zlib.crc32(",".join(leaves).encode("utf-8")))
    for _ in range(_BOUNDED_SAMPLES):
        corners.append(
            {
                name: rng.getrandbits(width)
                for name, width in zip(leaves, leaf_widths)
            }
        )
    for env in corners:
        witness = differs(env)
        if witness is not None:
            return witness
    return None


# ---------------------------------------------------------------------------
# Stage 2b: sequential next-state programs
# ---------------------------------------------------------------------------


def _sequential_program(module: Module, inliner: _Inliner) -> Set[Tuple]:
    """The module's sync behaviour as canonical guarded statements.

    Statements whose guard canonicalizes to constant zero are dropped
    and constant-true guards normalize to ``None``, so const-folded
    guard rewrites compare equal to their sources."""
    program: Set[Tuple] = set()
    for block in module.sync_blocks:
        for arm, statements in (
            ("run", block.statements),
            ("reset", block.reset_statements),
        ):
            for statement in statements:
                cond, lvalue, rhs = statement.tree
                canon_cond = None
                if cond is not None:
                    canon_cond = canonicalize(
                        inliner.cone(cond).node, inliner.widths
                    )
                    if canon_cond == ("lit", 0):
                        continue
                    if canon_cond[0] == "lit":
                        canon_cond = None
                program.add(
                    (
                        arm,
                        canon_cond,
                        canonicalize(lvalue, inliner.widths),
                        canonicalize(inliner.cone(rhs).node, inliner.widths),
                    )
                )
    return program


def _check_sequential(
    mod_before: Module,
    mod_after: Module,
    inliners: Tuple[_Inliner, _Inliner],
    result: EquivResult,
) -> None:
    inliner_before, inliner_after = inliners
    before = _sequential_program(mod_before, inliner_before)
    after = _sequential_program(mod_after, inliner_after)
    if before == after:
        result.stats["sequential_proved"] += 1
    else:
        # Not a refutation: dead-state elimination legitimately removes
        # statements.  The differential backstop decides.
        result.stats["sequential_deferred"] += 1


# ---------------------------------------------------------------------------
# Stage 3: random-stimulus differential with trace alignment
# ---------------------------------------------------------------------------


def _check_differential(
    before: Netlist,
    after: Netlist,
    module_name: str,
    result: EquivResult,
    location: str,
    cycles: int,
    seed: int,
) -> None:
    module = before.modules[module_name]
    rng = random.Random(seed ^ zlib.crc32(module_name.encode("utf-8")))
    inputs = [
        p
        for p in module.ports
        if p.direction is PortDir.INPUT and p.name not in ("clk", "rst")
    ]
    schedule = [
        {p.name: rng.getrandbits(p.width) for p in inputs}
        for _ in range(cycles + 1)
    ]

    def stimulus(cycle: int, sim: RTLSimulator) -> None:
        for name, value in schedule[min(cycle, cycles)].items():
            sim.poke(name, value)

    trace_before = capture_rtl_trace(
        RTLSimulator(before, top=module_name), cycles=cycles, stimulus=stimulus
    )
    trace_after = capture_rtl_trace(
        RTLSimulator(after, top=module_name), cycles=cycles, stimulus=stimulus
    )
    result.stats["differential_modules"] += 1
    result.stats["differential_cycles"] += cycles
    divergence = first_trace_divergence(trace_before, trace_after)
    if divergence is None:
        return
    cycle, signal = divergence
    result.diagnostics.append(
        Diagnostic(
            "STL-EQ-003",
            Severity.ERROR,
            "equiv",
            f"differential divergence at cycle {cycle} on signal"
            f" {signal!r}: {trace_before[signal][cycle]} (input netlist)"
            f" != {trace_after[signal][cycle]} (optimized netlist)"
            f" [seed {seed}]",
            f"{location}.{signal}",
            suggestion="replay with repro verify --seed"
            f" {seed} --cycles {cycles}; the first divergent signal"
            " localizes the broken pass rewrite",
        )
    )


__all__ = ["EquivResult", "check_equivalence"]
