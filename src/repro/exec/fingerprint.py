"""Canonical content hashing of design-axis objects.

Every cache in :mod:`repro.exec` is keyed by *content*, not identity:
two independently constructed but structurally identical specs (or
bounds, transforms, sparsity structures, balancing schemes, tensors)
must produce the same key, in every process, under hash randomization.
``repr``-based or ``pickle``-based keys fail that bar -- sets serialize
in hash order and object graphs embed memo indices -- so this module
walks values structurally and streams a canonical byte encoding into
SHA-256:

* primitives are tagged with their type (``1`` and ``1.0`` and ``True``
  hash differently);
* dict entries and set elements are ordered by the digest of their
  canonical encoding, never by insertion or hash order;
* numpy arrays contribute dtype, shape, and C-contiguous raw bytes;
* arbitrary objects contribute their class identity plus their
  ``__dict__`` / ``__slots__`` attributes, recursively;
* cyclic references encode as back-references to the first visit.

Objects that carry behavior rather than data (functions, modules, open
files) raise :class:`FingerprintError`; callers treat the value as
uncacheable rather than guessing at equality.

Content keys identify *inputs*; when a cached value also depends on the
generation of the code that produced it, the producing stage folds a
semantic version constant into its key parts --
``PASS_PIPELINE_VERSION`` for ``lower`` products -- so persisted
entries from an older generation become unreachable instead of
answering with stale behavior.
"""

from __future__ import annotations

import enum
import hashlib
import types
from fractions import Fraction

import numpy as np

#: Version of the canonical encoding itself.  Any change to the byte
#: stream this module produces -- new tags, different ordering, a hash
#: swap -- MUST bump this: the disk store folds it into its layout so
#: entries keyed under an old encoding become unreachable instead of
#: silently colliding or missing.  The golden-digest tests in
#: ``tests/exec/test_fingerprint.py`` pin concrete digests and fail on
#: accidental drift.
FINGERPRINT_VERSION = 1

_PRIMITIVE_TAGS = {
    type(None): b"N",
    bool: b"b",
    int: b"i",
    float: b"f",
    complex: b"c",
    str: b"s",
    bytes: b"y",
}


class FingerprintError(TypeError):
    """Raised when a value has no canonical content encoding."""


def fingerprint(*values: object) -> str:
    """The SHA-256 hex digest of the canonical encoding of ``values``.

    Multiple arguments hash as a tuple, so
    ``fingerprint(spec, bounds) != fingerprint((spec, bounds), None)``
    style ambiguities cannot arise at call sites.
    """
    hasher = hashlib.sha256()
    _feed(hasher, values if len(values) != 1 else values[0], {})
    return hasher.hexdigest()


def _feed(hasher, value: object, visiting: dict) -> None:
    """Stream the canonical encoding of ``value`` into ``hasher``."""
    tag = _PRIMITIVE_TAGS.get(type(value))
    if tag is not None:
        payload = value if isinstance(value, bytes) else repr(value).encode()
        hasher.update(tag)
        hasher.update(str(len(payload)).encode())
        hasher.update(b":")
        hasher.update(payload)
        return

    marker = visiting.get(id(value))
    if marker is not None:
        hasher.update(b"R")
        hasher.update(str(marker).encode())
        return
    visiting[id(value)] = len(visiting)
    try:
        _feed_composite(hasher, value, visiting)
    finally:
        del visiting[id(value)]


def _feed_composite(hasher, value: object, visiting: dict) -> None:
    if isinstance(value, (tuple, list)):
        hasher.update(b"T(" if isinstance(value, tuple) else b"L(")
        for item in value:
            _feed(hasher, item, visiting)
        hasher.update(b")")
        return
    if isinstance(value, dict):
        hasher.update(b"D(")
        for key_digest, value_digest in sorted(
            (_digest(key, visiting), _digest(item, visiting))
            for key, item in value.items()
        ):
            hasher.update(key_digest)
            hasher.update(value_digest)
        hasher.update(b")")
        return
    if isinstance(value, (set, frozenset)):
        hasher.update(b"S(")
        for digest in sorted(_digest(item, visiting) for item in value):
            hasher.update(digest)
        hasher.update(b")")
        return
    if isinstance(value, Fraction):
        hasher.update(b"Q")
        hasher.update(f"{value.numerator}/{value.denominator}".encode())
        return
    if isinstance(value, np.ndarray):
        hasher.update(b"A")
        hasher.update(str(value.dtype).encode())
        hasher.update(str(value.shape).encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
        return
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        _feed(hasher, value.item(), visiting)
        return
    if isinstance(value, enum.Enum):
        # Members are identity constants; their state would drag in the
        # enum class itself.  Class identity plus member name is canonical.
        cls = type(value)
        hasher.update(b"E<")
        hasher.update(f"{cls.__module__}.{cls.__qualname__}.{value.name}".encode())
        hasher.update(b">")
        return
    _feed_object(hasher, value, visiting)


def _feed_object(hasher, value: object, visiting: dict) -> None:
    cls = type(value)
    if isinstance(
        value,
        (
            types.FunctionType,
            types.BuiltinFunctionType,
            types.MethodType,
            types.LambdaType,
            types.GeneratorType,
            types.ModuleType,
            type,
        ),
    ):
        raise FingerprintError(
            f"cannot fingerprint {value!r}: behavior, not data"
        )
    if not hasattr(value, "__dict__") and not hasattr(cls, "__slots__"):
        raise FingerprintError(
            f"cannot fingerprint {cls.__module__}.{cls.__qualname__} instances:"
            " no attribute state to encode"
        )
    hasher.update(b"O<")
    hasher.update(f"{cls.__module__}.{cls.__qualname__}".encode())
    hasher.update(b">(")
    for name, attr in sorted(_object_state(value)):
        hasher.update(name.encode())
        hasher.update(b"=")
        _feed(hasher, attr, visiting)
    hasher.update(b")")


def _object_state(value: object):
    """All (name, value) attribute pairs, from ``__dict__`` and slots."""
    if hasattr(value, "__dict__"):
        yield from vars(value).items()
    for cls in type(value).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name in ("__dict__", "__weakref__"):
                continue
            try:
                yield name, getattr(value, name)
            except AttributeError:
                continue  # declared but never assigned


def _digest(value: object, visiting: dict) -> bytes:
    sub = hashlib.sha256()
    _feed(sub, value, visiting)
    return sub.digest()

