"""Expression language for Stellar functional specifications.

Stellar specifications (paper Section III-A) are written in a Halide-like,
single-assignment notation over a *tensor iteration space*.  This module
provides the building blocks of that notation:

* :class:`Index` -- a tensor iterator (``i``, ``j``, ``k`` in Listing 1),
* affine index expressions (``j - 1``, ``2 * i + 1``),
* bound markers (``j.lower_bound``, ``k.upper_bound``),
* value expressions over tensors and local variables, including the
  data-dependent accesses used by merge/sort accelerators.

Expressions are plain immutable trees.  They carry no state and make no
assumption about where or when they execute; the compiler later assigns
space-time coordinates to every operation (Section III-B).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np


class SpecError(ValueError):
    """Raised when a specification is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# Index expressions
# ---------------------------------------------------------------------------


class IndexExpr:
    """Base class for expressions appearing in tensor/variable subscripts."""

    def free_indices(self) -> frozenset:
        raise NotImplementedError

    def evaluate(self, env: Mapping[str, int], bounds: "Bounds") -> int:
        raise NotImplementedError

    def offset_from(self, index: "Index") -> Optional[int]:
        """If this expression is ``index + c`` for a constant ``c``, return c.

        Returns ``None`` when the expression is not a unit-coefficient affine
        offset of ``index`` (e.g. ``2*i`` or a different index).
        """
        return None

    # Algebra ----------------------------------------------------------------
    def __add__(self, other) -> "AffineIndexExpr":
        return _as_affine(self) + _as_affine(other)

    def __radd__(self, other) -> "AffineIndexExpr":
        return _as_affine(other) + _as_affine(self)

    def __sub__(self, other) -> "AffineIndexExpr":
        return _as_affine(self) - _as_affine(other)

    def __rsub__(self, other) -> "AffineIndexExpr":
        return _as_affine(other) - _as_affine(self)

    def __mul__(self, other) -> "AffineIndexExpr":
        return _as_affine(self) * other

    def __rmul__(self, other) -> "AffineIndexExpr":
        return _as_affine(self) * other

    def __neg__(self) -> "AffineIndexExpr":
        return _as_affine(self) * -1


class Index(IndexExpr):
    """A tensor iterator, e.g. ``i`` in ``C(i, j) += A(i, k) * B(k, j)``.

    Indices live purely in the tensor iteration space: they do not map to
    physical space or time until a space-time transform is applied.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not name.isidentifier():
            raise SpecError(f"invalid index name: {name!r}")
        self.name = name

    @property
    def lower_bound(self) -> "BoundMarker":
        """Marker pinning this index to its lower bound (``i.lowerBound``)."""
        return BoundMarker(self, "lb")

    @property
    def upper_bound(self) -> "BoundMarker":
        """Marker pinning this index to its upper bound (``i.upperBound``)."""
        return BoundMarker(self, "ub")

    def free_indices(self) -> frozenset:
        return frozenset({self.name})

    def evaluate(self, env: Mapping[str, int], bounds: "Bounds") -> int:
        return env[self.name]

    def offset_from(self, index: "Index") -> Optional[int]:
        return 0 if index.name == self.name else None

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> object:  # type: ignore[override]
        # ``==`` builds a comparison Expr so conditions such as
        # ``B[k, j] == 0`` read naturally (see sparsity.Skip).  Identity
        # comparisons should use ``is`` or compare ``.name``.
        if isinstance(other, (Index, IndexExpr, Expr, int, float)):
            return Comparison("==", _as_value(self), _as_value(other))
        return NotImplemented

    def __ne__(self, other) -> object:  # type: ignore[override]
        if isinstance(other, (Index, IndexExpr, Expr, int, float)):
            return Comparison("!=", _as_value(self), _as_value(other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Index", self.name))


class BoundMarker(IndexExpr):
    """``i.lowerBound`` / ``i.upperBound`` in subscript position.

    On an assignment's left-hand side a bound marker restricts the assignment
    to the boundary of the iteration domain; on the right-hand side it
    evaluates to the bound value itself.
    """

    __slots__ = ("index", "which")

    def __init__(self, index: Index, which: str):
        if which not in ("lb", "ub"):
            raise SpecError(f"bound marker must be 'lb' or 'ub', got {which!r}")
        self.index = index
        self.which = which

    def free_indices(self) -> frozenset:
        return frozenset()

    def evaluate(self, env: Mapping[str, int], bounds: "Bounds") -> int:
        lo, hi = bounds[self.index.name]
        return lo if self.which == "lb" else hi

    def __repr__(self) -> str:
        suffix = "lowerBound" if self.which == "lb" else "upperBound"
        return f"{self.index.name}.{suffix}"


class AffineIndexExpr(IndexExpr):
    """An affine combination of indices: ``sum(coeff * index) + const``."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[str, int], const: int = 0):
        self.coeffs = {name: c for name, c in coeffs.items() if c != 0}
        self.const = const

    def free_indices(self) -> frozenset:
        return frozenset(self.coeffs)

    def evaluate(self, env: Mapping[str, int], bounds: "Bounds") -> int:
        return self.const + sum(c * env[name] for name, c in self.coeffs.items())

    def offset_from(self, index: Index) -> Optional[int]:
        if set(self.coeffs) == {index.name} and self.coeffs[index.name] == 1:
            return self.const
        if not self.coeffs and self.const == 0:
            return None
        return None

    def __add__(self, other) -> "AffineIndexExpr":
        other = _as_affine(other)
        coeffs = dict(self.coeffs)
        for name, c in other.coeffs.items():
            coeffs[name] = coeffs.get(name, 0) + c
        return AffineIndexExpr(coeffs, self.const + other.const)

    def __sub__(self, other) -> "AffineIndexExpr":
        return self + (_as_affine(other) * -1)

    def __mul__(self, other) -> "AffineIndexExpr":
        if not isinstance(other, int):
            raise SpecError("index expressions may only be scaled by integers")
        return AffineIndexExpr(
            {name: c * other for name, c in self.coeffs.items()}, self.const * other
        )

    def __repr__(self) -> str:
        parts = []
        for name, c in sorted(self.coeffs.items()):
            if c == 1:
                parts.append(name)
            else:
                parts.append(f"{c}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


def _as_affine(value) -> AffineIndexExpr:
    if isinstance(value, AffineIndexExpr):
        return value
    if isinstance(value, Index):
        return AffineIndexExpr({value.name: 1})
    if isinstance(value, int):
        return AffineIndexExpr({}, value)
    if isinstance(value, BoundMarker):
        raise SpecError("bound markers cannot participate in index arithmetic")
    raise SpecError(f"cannot convert {value!r} to an index expression")


# Points per chunk that Bounds.domain converts to Python ints at once.
_DOMAIN_CHUNK = 4096


class Bounds:
    """Inclusive per-index bounds of the tensor iteration space.

    ``Bounds({"i": 4, "j": 4, "k": 4})`` gives each index the range
    ``[0, 3]``; an explicit ``(lo, hi)`` tuple may also be supplied.
    """

    def __init__(self, sizes: Mapping[str, Union[int, Tuple[int, int]]]):
        self._ranges: Dict[str, Tuple[int, int]] = {}
        for name, size in sizes.items():
            if isinstance(size, tuple):
                lo, hi = size
            else:
                lo, hi = 0, size - 1
            if hi < lo:
                raise SpecError(f"empty range for index {name!r}: [{lo}, {hi}]")
            self._ranges[name] = (lo, hi)

    def __getitem__(self, name: str) -> Tuple[int, int]:
        return self._ranges[name]

    def __contains__(self, name: str) -> bool:
        return name in self._ranges

    def names(self) -> Sequence[str]:
        return list(self._ranges)

    def size(self, name: str) -> int:
        lo, hi = self._ranges[name]
        return hi - lo + 1

    def grid(self, order: Sequence[str]) -> np.ndarray:
        """The iteration domain as an ``(N, rank)`` int64 array, one row
        per point in lexicographic order (the last index varies fastest).

        This is the one enumeration of the domain: the compiler's
        iteration space, the spec checks and the simulators all start
        from it, and :meth:`domain` iterates its rows."""
        axes = [
            np.arange(self._ranges[n][0], self._ranges[n][1] + 1, dtype=np.int64)
            for n in order
        ]
        sizes = [len(a) for a in axes]
        grid = np.empty(sizes + [len(axes)], dtype=np.int64)
        for axis, values in enumerate(axes):
            shape = [1] * len(axes)
            shape[axis] = -1
            grid[..., axis] = values.reshape(shape)
        return grid.reshape(math.prod(sizes), len(axes))

    def domain(self, order: Sequence[str]) -> Iterable[Tuple[int, ...]]:
        """Yield every point of the iteration domain in lexicographic
        order, as a tuple of ints per row of :meth:`grid`.

        Rows are converted a chunk at a time, so no list of every point
        is ever held."""
        grid = self.grid(order)
        for start in range(0, len(grid), _DOMAIN_CHUNK):
            for row in grid[start:start + _DOMAIN_CHUNK].tolist():
                yield tuple(row)

    def point_count(self, order: Sequence[str]) -> int:
        total = 1
        for name in order:
            total *= self.size(name)
        return total

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}=[{lo},{hi}]" for n, (lo, hi) in self._ranges.items())
        return f"Bounds({inner})"


# ---------------------------------------------------------------------------
# Value expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for value expressions (the right-hand sides of rules)."""

    def free_indices(self) -> frozenset:
        raise NotImplementedError

    def references(self) -> Iterable["Access"]:
        """Yield every tensor/variable access in this expression tree."""
        return iter(())

    def children(self) -> Iterable["Expr"]:
        """Yield this node's immediate child value expressions.

        The generic tree walk behind :meth:`references`,
        ``macs_per_point``, and the kernel tracer's structural checks;
        leaves yield nothing, ``Access`` yields its value-typed
        (data-dependent) subscripts.
        """
        return iter(())

    def evaluate(self, ctx: "EvalContext") -> Union[int, float]:
        raise NotImplementedError

    # Operators ---------------------------------------------------------------
    def __add__(self, other) -> "BinOp":
        return BinOp("+", self, _as_value(other))

    def __radd__(self, other) -> "BinOp":
        return BinOp("+", _as_value(other), self)

    def __sub__(self, other) -> "BinOp":
        return BinOp("-", self, _as_value(other))

    def __rsub__(self, other) -> "BinOp":
        return BinOp("-", _as_value(other), self)

    def __mul__(self, other) -> "BinOp":
        return BinOp("*", self, _as_value(other))

    def __rmul__(self, other) -> "BinOp":
        return BinOp("*", _as_value(other), self)

    def __eq__(self, other) -> object:  # type: ignore[override]
        if isinstance(other, (Expr, IndexExpr, int, float)):
            return Comparison("==", self, _as_value(other))
        return NotImplemented

    def __ne__(self, other) -> object:  # type: ignore[override]
        if isinstance(other, (Expr, IndexExpr, int, float)):
            return Comparison("!=", self, _as_value(other))
        return NotImplemented

    def __lt__(self, other) -> "Comparison":
        return Comparison("<", self, _as_value(other))

    def __le__(self, other) -> "Comparison":
        return Comparison("<=", self, _as_value(other))

    def __gt__(self, other) -> "Comparison":
        return Comparison(">", self, _as_value(other))

    def __ge__(self, other) -> "Comparison":
        return Comparison(">=", self, _as_value(other))

    def __hash__(self) -> int:
        return id(self)


class Const(Expr):
    """A literal scalar constant."""

    __slots__ = ("value",)

    def __init__(self, value: Union[int, float]):
        self.value = value

    def free_indices(self) -> frozenset:
        return frozenset()

    def evaluate(self, ctx: "EvalContext") -> Union[int, float]:
        return self.value

    def __repr__(self) -> str:
        return repr(self.value)


WILDCARD = "->"
"""Subscript wildcard: ``A[i, WILDCARD]`` denotes an entire row of A
(Listing 2's ``A(i, ->)``)."""


class Access(Expr):
    """An access to a named tensor or local variable at given subscripts."""

    __slots__ = ("target", "subscripts")

    def __init__(self, target: "Symbol", subscripts: Sequence):
        normalized = []
        for sub in subscripts:
            if sub is WILDCARD or isinstance(sub, (IndexExpr, Expr)):
                normalized.append(sub)
            elif isinstance(sub, int):
                normalized.append(AffineIndexExpr({}, sub))
            else:
                raise SpecError(f"invalid subscript {sub!r} for {target.name}")
        self.target = target
        self.subscripts = tuple(normalized)

    @property
    def is_data_dependent(self) -> bool:
        """True when any subscript is itself a value expression.

        Data-dependent accesses implement the merging/sorting idioms of
        Section III-A ("data-dependent accesses to input or output tensors").
        """
        return any(isinstance(s, Expr) for s in self.subscripts)

    def free_indices(self) -> frozenset:
        out: frozenset = frozenset()
        for sub in self.subscripts:
            if sub is WILDCARD:
                continue
            out |= sub.free_indices()
        return out

    def references(self) -> Iterable["Access"]:
        yield self
        for sub in self.subscripts:
            if isinstance(sub, Expr):
                yield from sub.references()

    def children(self) -> Iterable["Expr"]:
        for sub in self.subscripts:
            if isinstance(sub, Expr):
                yield sub

    def evaluate(self, ctx: "EvalContext") -> Union[int, float]:
        coords = []
        for sub in self.subscripts:
            if sub is WILDCARD:
                raise SpecError("wildcard subscripts cannot be evaluated directly")
            if isinstance(sub, Expr):
                coords.append(int(sub.evaluate(ctx)))
            else:
                coords.append(sub.evaluate(ctx.env, ctx.bounds))
        return ctx.read(self.target, tuple(coords))

    def subscript_offsets(self, order: Sequence[str]) -> Optional[Tuple[int, ...]]:
        """If every subscript is ``index + c`` matching ``order``, return the
        constant offsets; else None.

        Used to extract difference vectors: ``a(i, j - 1, k)`` with order
        ``(i, j, k)`` yields ``(0, -1, 0)``.
        """
        if len(self.subscripts) != len(order):
            return None
        offsets = []
        for sub, name in zip(self.subscripts, order):
            if sub is WILDCARD or isinstance(sub, Expr):
                return None
            if isinstance(sub, BoundMarker):
                return None
            offset = sub.offset_from(Index(name))
            if offset is None:
                return None
            offsets.append(offset)
        return tuple(offsets)

    def __repr__(self) -> str:
        inner = ", ".join("->" if s is WILDCARD else repr(s) for s in self.subscripts)
        return f"{self.target.name}({inner})"


class BinOp(Expr):
    """A binary arithmetic operation."""

    _OPS: Dict[str, Callable] = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        "//": lambda a, b: a // b,
        "%": lambda a, b: a % b,
        "min": min,
        "max": max,
    }

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        if op not in self._OPS:
            raise SpecError(f"unsupported operator {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def free_indices(self) -> frozenset:
        return self.lhs.free_indices() | self.rhs.free_indices()

    def references(self) -> Iterable[Access]:
        yield from self.lhs.references()
        yield from self.rhs.references()

    def children(self) -> Iterable[Expr]:
        yield self.lhs
        yield self.rhs

    def evaluate(self, ctx: "EvalContext") -> Union[int, float]:
        return self._OPS[self.op](self.lhs.evaluate(ctx), self.rhs.evaluate(ctx))

    def __repr__(self) -> str:
        if self.op in ("min", "max"):
            return f"{self.op}({self.lhs!r}, {self.rhs!r})"
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


class Comparison(Expr):
    """A boolean comparison, used in sparsity conditions and selects."""

    _OPS: Dict[str, Callable] = {
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        if op not in self._OPS:
            raise SpecError(f"unsupported comparison {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def free_indices(self) -> frozenset:
        return self.lhs.free_indices() | self.rhs.free_indices()

    def references(self) -> Iterable[Access]:
        yield from self.lhs.references()
        yield from self.rhs.references()

    def children(self) -> Iterable[Expr]:
        yield self.lhs
        yield self.rhs

    def evaluate(self, ctx: "EvalContext") -> bool:
        return self._OPS[self.op](self.lhs.evaluate(ctx), self.rhs.evaluate(ctx))

    def __repr__(self) -> str:
        return f"({self.lhs!r} {self.op} {self.rhs!r})"

    def __hash__(self) -> int:
        return id(self)


class Select(Expr):
    """``Select(cond, if_true, if_false)`` -- a functional conditional."""

    __slots__ = ("cond", "if_true", "if_false")

    def __init__(self, cond: Expr, if_true, if_false):
        self.cond = cond
        self.if_true = _as_value(if_true)
        self.if_false = _as_value(if_false)

    def free_indices(self) -> frozenset:
        return (
            self.cond.free_indices()
            | self.if_true.free_indices()
            | self.if_false.free_indices()
        )

    def references(self) -> Iterable[Access]:
        yield from self.cond.references()
        yield from self.if_true.references()
        yield from self.if_false.references()

    def children(self) -> Iterable[Expr]:
        yield self.cond
        yield self.if_true
        yield self.if_false

    def evaluate(self, ctx: "EvalContext") -> Union[int, float]:
        if self.cond.evaluate(ctx):
            return self.if_true.evaluate(ctx)
        return self.if_false.evaluate(ctx)

    def __repr__(self) -> str:
        return f"Select({self.cond!r}, {self.if_true!r}, {self.if_false!r})"


class IndexValue(Expr):
    """An index used as a *value* (e.g. writing coordinates during a merge)."""

    __slots__ = ("expr",)

    def __init__(self, expr: IndexExpr):
        self.expr = expr

    def free_indices(self) -> frozenset:
        return self.expr.free_indices()

    def evaluate(self, ctx: "EvalContext") -> int:
        return self.expr.evaluate(ctx.env, ctx.bounds)

    def __repr__(self) -> str:
        return f"IndexValue({self.expr!r})"


def _as_value(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(value)
    if isinstance(value, IndexExpr):
        return IndexValue(value)
    raise SpecError(f"cannot convert {value!r} to a value expression")


def minimum(a, b) -> BinOp:
    """Elementwise minimum, usable in functional specs (merging/sorting)."""
    return BinOp("min", _as_value(a), _as_value(b))


def maximum(a, b) -> BinOp:
    """Elementwise maximum, usable in functional specs (merging/sorting)."""
    return BinOp("max", _as_value(a), _as_value(b))


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


class Symbol:
    """Base class for named tensors and local variables."""

    def __init__(self, name: str, rank: int):
        if not name or not name.isidentifier():
            raise SpecError(f"invalid symbol name: {name!r}")
        if rank < 0:
            raise SpecError("rank must be non-negative")
        self.name = name
        self.rank = rank

    def __getitem__(self, subscripts) -> Access:
        if not isinstance(subscripts, tuple):
            subscripts = (subscripts,)
        if len(subscripts) != self.rank:
            raise SpecError(
                f"{self.name} has rank {self.rank}, got {len(subscripts)} subscripts"
            )
        return Access(self, subscripts)

    def __call__(self, *subscripts) -> Access:
        return self[subscripts]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, rank={self.rank})"


class Tensor(Symbol):
    """An external input or output tensor (``A``, ``B``, ``C`` in Listing 1)."""


class Local(Symbol):
    """A local (intermediate) variable flowing between PEs (``a``, ``b``, ``c``).

    Locals are always subscripted by the full set of iteration indices.
    """


def indices(names: str) -> Tuple[Index, ...]:
    """Create several indices at once: ``i, j, k = indices("i j k")``."""
    return tuple(Index(name) for name in names.split())


# ---------------------------------------------------------------------------
# Evaluation context
# ---------------------------------------------------------------------------


class EvalContext:
    """Environment for evaluating expressions during reference interpretation.

    ``read`` is dispatched back to the interpreter so that local-variable
    reads can follow recurrences and boundary rules.
    """

    def __init__(
        self,
        env: Mapping[str, int],
        bounds: Bounds,
        read: Callable[[Symbol, Tuple[int, ...]], Union[int, float]],
    ):
        self.env = env
        self.bounds = bounds
        self.read = read


def exact_inverse(matrix: Sequence[Sequence[int]]) -> Tuple[Tuple[Fraction, ...], ...]:
    """Exact inverse of a small integer matrix via Gauss-Jordan on Fractions.

    Raises :class:`SpecError` when the matrix is singular.  Used by the
    dataflow machinery (T must be invertible, Equation 1) and by PEs at
    runtime to recover tensor iterators from space-time coordinates.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise SpecError("space-time transform must be square")
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == r)) for i in range(n)]
        for r, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SpecError("space-time transform is singular (not invertible)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)
