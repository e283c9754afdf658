"""The host-speed reference of the end-to-end benchmark.

On a shared machine the host's speed swings by up to 2x, over stretches
from under a second to half a minute.  The benchmark runs chunks of this
fixed piece of Python next to the work it times -- between the parts of
each op -- and divides the op time by how much slower than
:data:`CHUNK_S` the chunks ran, which cancels most of the swing.

The chunk evaluates an expression tree whose leaves look up a 20 000-key
dict: tree walking plus scattered dict reads, like the simulators and
the equivalence checker.  A plain integer loop swings less than the
workloads do (they slow by ~1.3x its slowdown, in logs); this chunk
swings as much as they do.  It allocates nothing that outlives it, so
its speed does not depend on the heap the workload left behind.
"""

from __future__ import annotations

import random
import time

#: One chunk's wall time on a quiet host (the fastest seen on the VM in
#: README.md).  Normalised times are rescaled to this speed.
CHUNK_S = 0.015

#: Reference time run per second of op time in a measuring window.
SHARE = 0.2

#: Chunks run around each set-up: in the parent just before spawning the
#: child, and in the child just after its warm-up op.
SETUP_CHUNKS = 16

#: Tree evaluations per chunk.
_EVALS = 36


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: int, left, right):
        self.op = op
        self.left = left
        self.right = right


def _build(rng: random.Random, depth: int, keys):
    if depth == 0:
        return rng.choice(keys)
    return _Node(rng.randrange(4), _build(rng, depth - 1, keys),
                 _build(rng, depth - 1, keys))


def _evaluate(node, env) -> int:
    if type(node) is str:
        return env[node]
    left = _evaluate(node.left, env)
    right = _evaluate(node.right, env)
    op = node.op
    if op == 0:
        return (left + right) & 0xFFFF
    if op == 1:
        return (left * right) & 0xFFFF
    if op == 2:
        return (left - right) & 0xFFFF
    return left ^ right


_rng = random.Random(0)
_ENV = {f"v{index}": index for index in range(20_000)}
_TREE = _build(_rng, 11, list(_ENV))
del _rng


def chunk() -> float:
    """Run one chunk; returns its wall time."""
    started = time.perf_counter()
    for _ in range(_EVALS):
        _evaluate(_TREE, _ENV)
    return time.perf_counter() - started


def run(chunks: int) -> float:
    """Wall time of ``chunks`` chunks."""
    return sum(chunk() for _ in range(chunks))
