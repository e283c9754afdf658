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
   prove the cone.  Cones that differ structurally are compiled by the
   simulator's own code generator -- not a mirror of it -- and run over
   every leaf assignment when the leaf bits fit
   ``max_exhaustive_bits``, else over corner + random assignments, with
   memory elements read as fixed pseudo-random values; a concrete
   counterexample is ``STL-EQ-001``.  Sequential behaviour is compared
   as canonicalized guarded next-state statements.
3. **Random-stimulus differential backstop** -- every shared module is
   simulated pre/post in lockstep, each side stepped by
   :meth:`repro.rtl.sim.RTLSimulator.run` under one seeded stimulus that
   drives every bit of every input, however wide.  Each cycle the
   signals present on both sides (passes legitimately delete internal
   nets) are compared as two lists; the first divergent cycle, ties
   broken by signal path, becomes ``STL-EQ-003``.  No trace is kept.
   Both sides run all ``cycles`` even after a divergence, and an error
   from the input netlist's simulator, at any cycle, wins over one from
   the optimized netlist's.  The differential runs per-module rather than
   only at the top because the lowered top ties test inputs low -- a
   module-local bug may be unobservable from the top's ports.

``repro verify`` (:mod:`repro.analysis.verify`) drives this over every
example design and suite layer.
"""

from __future__ import annotations

import itertools
import random
import zlib
from typing import Dict, List, Optional, Set, Tuple

from ..rtl.netlist import Module, Netlist, PortDir, refs
from ..rtl.passes import _driver_counts, _module_widths, canonicalize
from ..rtl.sim import RTLSimulator, _compile_function, _Emitter
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

    # Simulator code, generated and compiled once per distinct module for
    # every differential of this call.
    code: Dict[tuple, object] = {}
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
        inliners = (_Inliner(mod_before, before), _Inliner(mod_after, after))
        _check_combinational(
            mod_before, mod_after, inliners, result, f"{prefix}{name}",
            max_exhaustive_bits, seed,
        )
        _check_sequential(mod_before, mod_after, inliners, result)
        _check_differential(
            before, after, name, result, f"{prefix}{name}", cycles, seed, code
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
    """Inlines singly-driven scalar wires into expression cones."""

    def __init__(self, module: Module, netlist: Netlist):
        self.widths = _module_widths(module)
        self.memories = {n.name for n in module.nets if n.depth}
        regs = {n.name for n in module.nets if n.is_reg}
        ports = {p.name for p in module.ports}
        drivers = _driver_counts(module, netlist)
        # A wire is inlinable when its one and only driver -- of assigns,
        # sync writes and child outputs -- is a plain whole-net assign;
        # registers and ports hold externally visible state and stay as
        # cone leaves.
        self.inlinable = {
            name: rhs
            for name, rhs in _assign_targets(module).items()
            if drivers.get(name) == 1
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


# -- bounded evaluation through the simulator's code -------------------------


class _SymbolicMemory:
    """A memory every element of which reads as :func:`_memory_value`."""

    __slots__ = ("name", "width")

    def __init__(self, name: str, width: int):
        self.name = name
        self.width = width

    def get(self, index: int, default: int) -> int:
        return _memory_value(self.name, index, self.width)


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

    Both cones are compiled once, into one function, by the simulator's
    own code generator, so they evaluate exactly as the simulator would.
    Returns ``(env, value_before, value_after)`` or ``None``.  Leaf
    values are drawn masked to their declared widths, exactly the range
    a simulator write could have stored; an undeclared leaf is 32 bits
    wide."""
    widths, memories = inliner.widths, inliner.memories
    leaves = sorted(
        _cone_leaves(node_before, memories) | _cone_leaves(node_after, memories)
    )
    declared = dict(widths)
    for name in leaves:
        declared.setdefault(name, 32)
    leaf_widths = [min(declared[name], 32) for name in leaves]
    emitter = _Emitter(declared, memories)
    evaluate = _compile_function(
        "def generated(v, m, p):\n"
        f"    return {emitter.expr(node_before)}, {emitter.expr(node_after)}\n"
    )
    contents = {
        name: _SymbolicMemory(name, widths.get(name, 32)) for name in memories
    }

    def differs(env: Dict[str, int]):
        value_before, value_after = evaluate(env, contents, "")
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
# Stage 3: random-stimulus differential in lockstep
# ---------------------------------------------------------------------------


def _check_differential(
    before: Netlist,
    after: Netlist,
    module_name: str,
    result: EquivResult,
    location: str,
    cycles: int,
    seed: int,
    code: Dict[tuple, object],
) -> None:
    module = before.modules[module_name]
    rng = random.Random(seed ^ zlib.crc32(module_name.encode("utf-8")))
    inputs = [
        p
        for p in module.ports
        if p.direction is PortDir.INPUT and p.name not in ("clk", "rst")
    ]
    # Row 0 is drawn but never driven: cycle 0 is the pre-step state.
    schedule = [
        [rng.getrandbits(p.width) for p in inputs] for _ in range(cycles + 1)
    ]
    names = [p.name for p in inputs]

    sim_before = RTLSimulator(before, top=module_name, code=code)
    # An error of the optimized side waits until the input side has run
    # every cycle: the input netlist's own error, if any, is reported.
    failure: Optional[Exception] = None
    try:
        sim_after = RTLSimulator(after, top=module_name, code=code)
    except Exception as error:  # noqa: BLE001 -- re-raised below
        failure = error
        paths: List[str] = []
        run_after = None
    else:
        paths = sorted(
            set(sim_before.signal_values()) & set(sim_after.signal_values())
        )
        run_after = sim_after.run(paths, cycles, inputs=names, schedule=schedule)

    divergence = None
    for cycle, values_before in enumerate(
        sim_before.run(paths, cycles, inputs=names, schedule=schedule)
    ):
        if run_after is None:
            continue
        try:
            values_after = next(run_after)
        except Exception as error:  # noqa: BLE001 -- re-raised below
            failure, run_after = error, None
            continue
        if divergence is None and values_before != values_after:
            # The paths are sorted, so the first differing one is the
            # smallest.
            at = next(
                i for i, (x, y) in enumerate(zip(values_before, values_after))
                if x != y
            )
            divergence = cycle, paths[at], values_before[at], values_after[at]
    if failure is not None:
        raise failure

    result.stats["differential_modules"] += 1
    result.stats["differential_cycles"] += cycles
    if divergence is None:
        return
    cycle, signal, value_before, value_after = divergence
    result.diagnostics.append(
        Diagnostic(
            "STL-EQ-003",
            Severity.ERROR,
            "equiv",
            f"differential divergence at cycle {cycle} on signal"
            f" {signal!r}: {value_before} (input netlist)"
            f" != {value_after} (optimized netlist)"
            f" [seed {seed}]",
            f"{location}.{signal}",
            suggestion="replay with repro verify --seed"
            f" {seed} --cycles {cycles}; the first divergent signal"
            " localizes the broken pass rewrite",
        )
    )


__all__ = ["EquivResult", "check_equivalence"]
