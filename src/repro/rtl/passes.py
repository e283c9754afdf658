"""Netlist optimization passes with per-pass rewrite accounting.

Stellar's Chisel backend leans on FIRRTL's transform pipeline to clean
up the lowered design before emission; this module plays that role for
the structural netlist IR.  Like FIRRTL's, the passes rewrite the IR,
not text: four verified-transform passes read the trees that
:class:`~repro.rtl.netlist.Module` nodes parsed when they were built --
the same trees the simulator runs, so pass semantics and simulator
semantics can never drift apart.  A pass never mutates a node; it
replaces it with one built from new text, so only rewritten text is
parsed again:

* **const_fold** -- evaluates literal subexpressions (``16'd3 + 16'd1``
  becomes ``17'd4``), applies value-preserving identities (``x + 0``,
  ``x * 1``, ``x * 0``, ``x | 0``), drops sync statements whose guard
  folds to zero and unguards those whose guard folds to nonzero.
  Rewrites are suppressed in *width-sensitive* positions (direct concat
  parts and replication bodies) whenever they would change the node's
  inferred width, because concatenation packing depends on it.
* **collapse_chains** -- copy propagation: ``assign a = b`` where ``a``
  is a singly-driven wire at least as wide as ``b`` renames every
  identifier token ``a`` to ``b`` (literals such as ``4'd1`` are never
  touched) and deletes both the assign and the net.
* **cse** -- common-subexpression elimination: assigns within a module
  whose right-hand sides canonicalize identically (commutative operands
  sorted, constants folded) are rewritten to read the first assign's
  target instead of recomputing the cone.
* **dead_nets** -- removes nets (wires, regs, and memories) that no
  remaining construct reads, along with the assigns and sync statements
  that drove them, iterating so self-updating but unread state (the
  classic free-running counter) cascades away too.

``run_passes(netlist, opt_level)`` clones the netlist, runs the rung's
pipeline to a fixpoint, times each pass under the ambient
:class:`repro.obs.profile.Profiler` (``rtl.passes.<name>``), and returns
the optimized netlist plus :class:`PassResult` rewrite statistics.  Each
transform is *proven* against its input by
:mod:`repro.analysis.equiv`; ``PASS_PIPELINE_VERSION`` is folded into
the ``repro.exec`` cache keys so cached netlists never mix rungs.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs.profile import span
from .netlist import (
    BINARY_OPERATORS,
    COMPARISONS,
    Assign,
    Instance,
    Module,
    Netlist,
    PortDir,
    RTLError,
    Statement,
    SyncBlock,
    _mask,
    lvalue_base,
    packing_width,
    refs,
    rename,
    unparse,
    unparse_statement,
)

#: Version of the pass pipeline's semantics.  Any change to what a rung
#: rewrites MUST bump this: :meth:`repro.exec.cache.CompileCache.lower`
#: folds it into the ``lower`` stage key so persisted netlists built by
#: an older pipeline become unreachable instead of silently mixing rungs.
PASS_PIPELINE_VERSION = 2

#: Pass names per optimization rung.
OPT_LEVELS: Dict[int, Tuple[str, ...]] = {
    0: (),
    1: ("const_fold", "collapse_chains"),
    2: ("const_fold", "collapse_chains", "cse", "dead_nets"),
}

_MAX_PIPELINE_ITERATIONS = 4


class PassResult:
    """Rewrite statistics of one pass over one netlist."""

    __slots__ = ("name", "rewrites", "by_module")

    def __init__(self, name: str):
        self.name = name
        self.rewrites = 0
        self.by_module: Dict[str, int] = {}

    def add(self, module_name: str, count: int) -> None:
        if count:
            self.rewrites += count
            self.by_module[module_name] = self.by_module.get(module_name, 0) + count

    def to_dict(self) -> Dict[str, object]:
        return {
            "pass": self.name,
            "rewrites": self.rewrites,
            "by_module": dict(sorted(self.by_module.items())),
        }

    def __repr__(self) -> str:
        return f"PassResult({self.name!r}, rewrites={self.rewrites})"


# ---------------------------------------------------------------------------
# Canonical forms (cse and the equivalence checker compare by them)
# ---------------------------------------------------------------------------


def literal_node(value: int, width: int) -> Tuple[str, int, int]:
    width = max(1, width, int(value).bit_length())
    return ("literal", value, width)


def const_value(node) -> Optional[int]:
    """The evaluated value of a literal node (masked), else ``None``."""
    if node[0] == "literal":
        return _mask(node[1], node[2])
    return None


_COMMUTATIVE = frozenset({"+", "*", "&", "|", "==", "!="})


def canonicalize(node, widths: Dict[str, int], sensitive: bool = False):
    """A hashable canonical form under the simulator's value semantics.

    Two expressions with equal canonical forms evaluate identically in
    every environment: literals reduce to their masked values, constant
    subtrees fold, and commutative operands sort.  Width-sensitive
    positions (concat parts, replication bodies) annotate the operand's
    inferred width, because packing depends on it; constant folding is
    suppressed there exactly as in the folding pass, so pass output and
    pass input canonicalize through the same rules.
    """
    folded = fold_expression(node, widths, sensitive=sensitive)[0]
    return _canon(folded, widths)


def _canon(node, widths: Dict[str, int]):
    kind = node[0]
    if kind == "literal":
        return ("lit", _mask(node[1], node[2]))
    if kind == "ref":
        return ("ref", node[1])
    if kind == "index":
        return ("index", _canon(node[1], widths), _canon(node[2], widths))
    if kind == "slice":
        return (
            "slice",
            _canon(node[1], widths),
            _canon(node[2], widths),
            _canon(node[3], widths),
        )
    if kind == "concat":
        return (
            "concat",
            tuple(
                (_canon(part, widths), packing_width(part, widths))
                for part in node[1]
            ),
        )
    if kind == "repl":
        return (
            "repl",
            _canon(node[1], widths),
            _canon(node[2], widths),
            packing_width(node[2], widths),
        )
    if kind == "unop":
        return ("unop", node[1], _canon(node[2], widths))
    if kind == "binop":
        op = node[1]
        left, right = _canon(node[2], widths), _canon(node[3], widths)
        if op in _COMMUTATIVE and repr(right) < repr(left):
            left, right = right, left
        return ("binop", op, left, right)
    raise RTLError(f"cannot canonicalize AST node {node!r}")


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

def fold_expression(node, widths: Dict[str, int], sensitive: bool = False):
    """Fold constants in ``node``; returns ``(new_node, rewrite_count)``.

    ``sensitive`` marks a width-sensitive position: the fold is dropped
    if it would change the node's statically inferred width.
    """
    folded, count = _fold(node, widths)
    if count and sensitive:
        before, after = packing_width(node, widths), packing_width(folded, widths)
        if before is None or after is None or before != after:
            return node, 0
    return folded, count


def _fold(node, widths: Dict[str, int]):
    kind = node[0]
    count = 0
    if kind in ("literal", "ref"):
        return node, 0
    if kind == "index":
        base, c1 = _fold(node[1], widths)
        index, c2 = _fold(node[2], widths)
        node = ("index", base, index)
        count = c1 + c2
        bv, iv = const_value(base), const_value(index)
        if bv is not None and iv is not None:
            return literal_node((bv >> iv) & 1, 1), count + 1
        return node, count
    if kind == "slice":
        base, c1 = _fold(node[1], widths)
        hi, c2 = _fold(node[2], widths)
        lo, c3 = _fold(node[3], widths)
        node = ("slice", base, hi, lo)
        count = c1 + c2 + c3
        bv, hv, lv = const_value(base), const_value(hi), const_value(lo)
        if bv is not None and hv is not None and lv is not None and hv >= lv:
            width = hv - lv + 1
            return literal_node((bv >> lv) & ((1 << width) - 1), width), count + 1
        return node, count
    if kind == "concat":
        parts = []
        for part in node[1]:
            folded, c = fold_expression(part, widths, sensitive=True)
            parts.append(folded)
            count += c
        node = ("concat", parts)
        values = [const_value(part) for part in parts]
        part_widths = [packing_width(part, widths) for part in parts]
        if all(v is not None for v in values) and all(
            w is not None for w in part_widths
        ):
            out = 0
            for value, width in zip(values, part_widths):
                out = (out << width) | _mask(value, width)
            return ("literal", out, sum(part_widths)), count + 1
        return node, count
    if kind == "repl":
        times, c1 = _fold(node[1], widths)
        inner, c2 = fold_expression(node[2], widths, sensitive=True)
        node = ("repl", times, inner)
        count = c1 + c2
        tv, iv, iw = const_value(times), const_value(inner), packing_width(inner, widths)
        if tv is not None and iv is not None and iw is not None:
            out = 0
            for _ in range(tv):
                out = (out << iw) | _mask(iv, iw)
            return ("literal", out, max(1, tv * iw)), count + 1
        return node, count
    if kind == "unop":
        operand, count = _fold(node[2], widths)
        node = ("unop", node[1], operand)
        value = const_value(operand)
        if value is not None:
            if node[1] == "!":
                return ("literal", 0 if value else 1, 1), count + 1
            if node[1] == "-" and value == 0:
                return ("literal", 0, 1), count + 1
            # ``~`` and ``-`` of nonzero literals produce negative Python
            # ints in the simulator; no literal spelling preserves that.
        return node, count
    if kind == "binop":
        op = node[1]
        left, c1 = _fold(node[2], widths)
        right, c2 = _fold(node[3], widths)
        node = ("binop", op, left, right)
        count = c1 + c2
        lv, rv = const_value(left), const_value(right)
        if lv is not None and rv is not None:
            value = int(BINARY_OPERATORS[op](lv, rv))
            if value >= 0:
                if op in COMPARISONS:
                    return ("literal", value, 1), count + 1
                width = max(left[2], right[2])
                if op == "+":
                    width += 1
                elif op == "*":
                    width = left[2] + right[2]
                return literal_node(value, width), count + 1
            return node, count
        # Value-preserving identities (the simulator applies no masking
        # inside binops, so these hold for arbitrary operand values).
        if op in ("+", "|") and rv == 0:
            return left, count + 1
        if op in ("+", "|") and lv == 0:
            return right, count + 1
        if op == "-" and rv == 0:
            return left, count + 1
        if op == "*" and rv == 1:
            return left, count + 1
        if op == "*" and lv == 1:
            return right, count + 1
        if op == "*" and (lv == 0 or rv == 0):
            return ("literal", 0, 1), count + 1
        return node, count
    raise RTLError(f"cannot fold AST node {node!r}")


def _module_widths(module: Module) -> Dict[str, int]:
    widths = {port.name: port.width for port in module.ports}
    widths.update({net.name: net.width for net in module.nets})
    return widths


def _child_input_ports(module: Module, netlist: Netlist) -> Dict[str, Set[str]]:
    """Per child module name, the set of its input port names."""
    inputs: Dict[str, Set[str]] = {}
    for inst in module.instances:
        if inst.module_name in inputs or inst.module_name not in netlist.modules:
            continue
        child = netlist.modules[inst.module_name]
        inputs[inst.module_name] = {
            p.name for p in child.ports if p.direction is PortDir.INPUT
        }
    return inputs


def const_fold(netlist: Netlist) -> PassResult:
    """Fold constant subexpressions everywhere an expression lives."""
    result = PassResult("const_fold")
    for module in netlist.modules.values():
        widths = _module_widths(module)
        count = 0
        for index, assign in enumerate(module.assigns):
            folded, c = fold_expression(assign.rhs.tree, widths)
            if c:
                module.assigns[index] = Assign(assign.lhs, unparse(folded))
                count += c
        blocks = []
        for block in module.sync_blocks:
            arms = []
            for statements in (block.statements, block.reset_statements):
                kept: List[Statement] = []
                for statement in statements:
                    cond, lvalue, rhs = statement.tree
                    changed = 0
                    if cond is not None:
                        cond, c = fold_expression(cond, widths)
                        changed += c
                        guard = const_value(cond)
                        if guard == 0:
                            count += changed + 1
                            continue  # provably never fires
                        if guard is not None:
                            cond = None
                            changed += 1
                    rhs, c = fold_expression(rhs, widths)
                    changed += c
                    if changed:
                        statement = Statement(unparse_statement(cond, lvalue, rhs))
                        count += changed
                    kept.append(statement)
                arms.append(kept)
            if arms[0] or arms[1]:
                blocks.append(SyncBlock(*arms))
        module.sync_blocks = blocks
        child_inputs = _child_input_ports(module, netlist)
        for index, inst in enumerate(module.instances):
            inputs = child_inputs.get(inst.module_name, set())
            folds: Dict[str, str] = {}
            for port_name, expr in inst.connections.items():
                if port_name not in inputs:
                    continue  # output connections are lvalues; leave them
                folded, c = fold_expression(expr.tree, widths)
                if c:
                    folds[port_name] = unparse(folded)
                    count += c
            if folds:
                module.instances[index] = Instance(
                    inst.module_name,
                    inst.instance_name,
                    {**inst.connections, **folds},
                )
        result.add(module.name, count)
    return result


# ---------------------------------------------------------------------------
# Copy propagation (assign-chain collapsing)
# ---------------------------------------------------------------------------


def _driver_counts(module: Module, netlist: Netlist) -> Dict[str, int]:
    """How many constructs drive each name (assigns, sync writes, child
    output connections)."""
    counts: Dict[str, int] = {}

    def bump(name: Optional[str]) -> None:
        if name:
            counts[name] = counts.get(name, 0) + 1

    for assign in module.assigns:
        bump(lvalue_base(assign.lhs.tree))
    for block in module.sync_blocks:
        for statement in block.statements + block.reset_statements:
            bump(lvalue_base(statement.tree[1]))
    for inst in module.instances:
        child = netlist.modules.get(inst.module_name)
        if child is None:
            continue
        outputs = {p.name for p in child.ports if p.direction is PortDir.OUTPUT}
        for port_name, expr in inst.connections.items():
            if port_name in outputs:
                bump(lvalue_base(expr.tree))
    return counts


def _substitute(module: Module, old: str, new: str) -> None:
    """Rename identifier ``old`` to ``new`` module-wide, replacing only
    the nodes that name it."""

    def renamed(node):
        if old not in node.names():
            return node
        return type(node)(rename(node.text, old, new))

    module.assigns = [
        Assign(renamed(assign.lhs), renamed(assign.rhs))
        for assign in module.assigns
    ]
    module.sync_blocks = [
        SyncBlock(
            [renamed(s) for s in block.statements],
            [renamed(s) for s in block.reset_statements],
        )
        for block in module.sync_blocks
    ]
    module.instances = [
        Instance(
            inst.module_name,
            inst.instance_name,
            {port: renamed(expr) for port, expr in inst.connections.items()},
        )
        for inst in module.instances
    ]


def _width_sensitive_uses(module: Module, name: str) -> bool:
    """Whether ``name`` appears as a direct concat part or repl body.

    Packing width at those positions is the ref's *declared* width, so
    substituting a ref of a different width there changes the value."""

    def scan(node) -> bool:
        kind = node[0]
        if kind in ("literal", "ref"):
            return False
        if kind == "concat":
            return any(
                (part[0] == "ref" and part[1] == name) or scan(part)
                for part in node[1]
            )
        if kind == "repl":
            inner = node[2]
            if inner[0] == "ref" and inner[1] == name:
                return True
            return scan(node[1]) or scan(inner)
        if kind == "index":
            return scan(node[1]) or scan(node[2])
        if kind == "slice":
            return scan(node[1]) or scan(node[2]) or scan(node[3])
        if kind == "unop":
            return scan(node[2])
        return scan(node[2]) or scan(node[3])  # binop

    for assign in module.assigns:
        if scan(assign.rhs.tree):
            return True
    for block in module.sync_blocks:
        for statement in block.statements + block.reset_statements:
            cond, _lvalue, rhs = statement.tree
            if scan(rhs) or (cond is not None and scan(cond)):
                return True
    return any(
        scan(expr.tree)
        for inst in module.instances
        for expr in inst.connections.values()
    )


def collapse_chains(netlist: Netlist) -> PassResult:
    """Collapse pure alias assigns (``assign a = b``) by copy propagation."""
    result = PassResult("collapse_chains")
    for module in netlist.modules.values():
        port_names = {p.name for p in module.ports}
        while True:
            widths = _module_widths(module)
            drivers = _driver_counts(module, netlist)
            nets = {net.name: net for net in module.nets}
            collapsed = None
            for assign in module.assigns:
                lhs, rhs = assign.lhs.tree, assign.rhs.tree
                if lhs[0] != "ref" or rhs[0] != "ref" or lhs[1] == rhs[1]:
                    continue
                alias, source = lhs[1], rhs[1]
                net = nets.get(alias)
                if alias in port_names or net is None or net.is_reg or net.depth:
                    continue
                if drivers.get(alias, 0) != 1:
                    continue
                source_net = nets.get(source)
                if source_net is not None and source_net.depth:
                    continue  # a bare memory reference is not a value
                if widths.get(source, 32) > widths.get(alias, 32):
                    continue  # the alias masks; propagation would widen
                if widths.get(source, 32) != widths.get(alias, 32) and (
                    _width_sensitive_uses(module, alias)
                ):
                    continue  # substitution would change concat packing
                collapsed = (assign, alias, source)
                break
            if collapsed is None:
                break
            assign, alias, source = collapsed
            module.assigns.remove(assign)
            module.nets = [n for n in module.nets if n.name != alias]
            module._names.pop(alias, None)
            _substitute(module, alias, source)
            result.add(module.name, 1)
    return result


# ---------------------------------------------------------------------------
# Common-subexpression elimination
# ---------------------------------------------------------------------------


def cse(netlist: Netlist) -> PassResult:
    """Rewrite repeated assign right-hand sides to read the first target."""
    result = PassResult("cse")
    for module in netlist.modules.values():
        widths = _module_widths(module)
        drivers = _driver_counts(module, netlist)
        memories = {net.name for net in module.nets if net.depth}
        first: Dict[object, Tuple[str, int]] = {}
        count = 0
        for index, assign in enumerate(module.assigns):
            lhs = assign.lhs.tree
            if lhs[0] != "ref" or lhs[1] in memories:
                continue
            if drivers.get(lhs[1], 0) != 1:
                continue
            rhs = assign.rhs.tree
            if rhs[0] in ("ref", "literal"):
                continue  # nothing to share
            key = canonicalize(rhs, widths)
            target_width = widths.get(lhs[1], 32)
            seen = first.get(key)
            if seen is None:
                first[key] = (lhs[1], target_width)
                continue
            source, source_width = seen
            if source_width < target_width:
                continue  # the shared value would be masked narrower
            if source in refs(rhs):
                continue  # would create a self-dependence
            module.assigns[index] = Assign(assign.lhs, source)
            count += 1
        result.add(module.name, count)
    return result


# ---------------------------------------------------------------------------
# Dead-net elimination
# ---------------------------------------------------------------------------


def dead_nets(netlist: Netlist) -> PassResult:
    """Remove nets no remaining construct reads, cascading to a fixpoint.

    A read from a construct whose *only* write target is the candidate
    itself (``counter <= counter + 1``) does not keep it alive: the
    construct dies with the net.
    """
    result = PassResult("dead_nets")
    for module in netlist.modules.values():
        port_names = {p.name for p in module.ports}
        while True:
            live: Set[str] = set(port_names)
            # Instance connections are reads or writes depending on the
            # child port's direction; both pin the net (the connection
            # text cannot reference an undeclared name).
            for inst in module.instances:
                for expr in inst.connections.values():
                    live.update(expr.names())

            # Index/slice expressions inside an lvalue are reads too.
            for assign in module.assigns:
                target = lvalue_base(assign.lhs.tree)
                live.update(
                    name
                    for expr in (assign.rhs, assign.lhs)
                    for name in expr.names()
                    if name != target
                )
            for block in module.sync_blocks:
                for statement in block.statements + block.reset_statements:
                    target = lvalue_base(statement.tree[1])
                    live.update(
                        name for name in statement.names() if name != target
                    )

            dead = [net for net in module.nets if net.name not in live]
            if not dead:
                break
            dead_names = {net.name for net in dead}
            module.nets = [n for n in module.nets if n.name not in dead_names]
            for name in dead_names:
                module._names.pop(name, None)
            module.assigns = [
                a
                for a in module.assigns
                if lvalue_base(a.lhs.tree) not in dead_names
            ]
            blocks = []
            for block in module.sync_blocks:
                arms = [
                    [s for s in arm if lvalue_base(s.tree[1]) not in dead_names]
                    for arm in (block.statements, block.reset_statements)
                ]
                if arms[0] or arms[1]:
                    blocks.append(SyncBlock(*arms))
            module.sync_blocks = blocks
            result.add(module.name, len(dead))
    return result


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

_PASSES: Dict[str, Callable[[Netlist], PassResult]] = {
    "const_fold": const_fold,
    "collapse_chains": collapse_chains,
    "cse": cse,
    "dead_nets": dead_nets,
}


def run_passes(
    netlist: Netlist,
    opt_level: int,
    passes: Optional[Sequence[str]] = None,
) -> Tuple[Netlist, List[PassResult]]:
    """Optimize a clone of ``netlist`` at the given rung.

    Returns ``(optimized, results)`` where ``results`` holds one merged
    :class:`PassResult` per pipeline pass.  The input netlist is never
    mutated; the clone carries ``opt_level`` and ``pass_results`` for
    the emitter banner and the verify report.  The pipeline repeats (at
    most ``_MAX_PIPELINE_ITERATIONS`` times) until a full sweep performs
    no rewrites, so collapses exposed by CSE still get cleaned up.
    """
    if passes is None:
        try:
            passes = OPT_LEVELS[opt_level]
        except KeyError:
            raise ValueError(
                f"unknown opt_level {opt_level!r}; expected one of"
                f" {sorted(OPT_LEVELS)}"
            ) from None
    optimized = netlist.clone()
    merged: Dict[str, PassResult] = {}
    results: List[PassResult] = []
    for name in passes:
        if name not in _PASSES:
            raise ValueError(f"unknown pass {name!r}")
        merged[name] = PassResult(name)
        results.append(merged[name])
    for _ in range(_MAX_PIPELINE_ITERATIONS):
        sweep_rewrites = 0
        for name in passes:
            with span(f"rtl.passes.{name}"):
                sweep = _PASSES[name](optimized)
            for module_name, count in sweep.by_module.items():
                merged[name].add(module_name, count)
            sweep_rewrites += sweep.rewrites
        if not sweep_rewrites:
            break
    optimized.opt_level = opt_level
    optimized.pass_results = results
    return optimized, results


def total_rewrites(results: Iterable[PassResult]) -> int:
    return sum(result.rewrites for result in results)


__all__ = [
    "OPT_LEVELS",
    "PASS_PIPELINE_VERSION",
    "PassResult",
    "canonicalize",
    "collapse_chains",
    "const_fold",
    "cse",
    "dead_nets",
    "fold_expression",
    "run_passes",
    "total_rewrites",
]
