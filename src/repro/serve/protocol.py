"""Wire protocol of the evaluation service.

One request per line, newline-delimited JSON, over a unix socket or a
TCP connection.  Every request is a JSON object with a ``type`` field;
the server answers with zero or more non-terminal ``row`` and ``trace``
messages (rows carry per-layer results; traces carry autotuner rung
progress) followed by exactly one terminal message (``result``,
``error``, ``pong``, ``metrics``, or ``shutting-down``).  A malformed line never kills the
connection: the server replies with a structured ``error`` and keeps
reading.

Requests are *declarative*: they describe the workload (suite name or
inline table, tile cap, operand seed, autotune objective), never the
execution (worker count, cache paths) -- execution policy belongs to
the daemon.  That is what makes in-flight deduplication sound:
:func:`request_key` fingerprints exactly the result-determining fields,
so two clients asking the same question at the same time share one
evaluation and both receive byte-identical rows.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Optional, Tuple

from ..dse.explorer import SPECS, explorable_spec
from ..exec.fingerprint import fingerprint
from ..exec.halving import OBJECTIVES as _OBJECTIVE_MEASURES

#: Protocol revision, echoed in ``pong`` replies.  Bump on any change
#: that an old client would misread.  Version 2 added the successive-
#: halving sweep fields (``halving``/``eta``/``constraint``) and the
#: non-terminal ``trace`` message streaming rung progress; only clients
#: that opt into autotuning receive rung traces.
PROTOCOL_VERSION = 2

#: Request types the server accepts.
REQUEST_TYPES = ("sweep", "explore", "metrics", "ping", "shutdown")

#: Autotune objectives (those of ``repro sweep --objective``).
OBJECTIVES = tuple(_OBJECTIVE_MEASURES)

#: DSE specs an ``explore`` request may name; one the explore space
#: does not cover (:func:`~repro.dse.explorer.explorable_spec`) is
#: refused as ``unsupported-spec``.
EXPLORE_SPECS = tuple(SPECS)

#: Upper bound on the per-index size of an ``explore`` request: the
#: sweep is cubic in this, and the service should never be wedged by
#: one oversized ask.
MAX_EXPLORE_SIZE = 16

#: Upper bound on the tile cap of a ``sweep`` request, same rationale.
MAX_SWEEP_CAP = 64


class RequestError(Exception):
    """A request failed validation.

    ``code`` is a stable machine-readable slug (``bad-json``,
    ``unknown-suite``, ``bad-bounds``, ...); the message is for humans.
    The server turns this into an ``error`` reply, never a traceback.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def parse_line(raw: bytes) -> object:
    """Decode one wire line into a JSON value.

    Raises ``RequestError("bad-json")`` instead of ``ValueError`` so the
    connection handler has a single error type to translate.
    """
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as err:
        raise RequestError("bad-json", f"malformed request line: {err}") from None


def _require_fields(
    request: Dict[str, object], allowed: Iterable[str], rtype: str
) -> None:
    unknown = sorted(set(request) - set(allowed) - {"type"})
    if unknown:
        raise RequestError(
            "unknown-field",
            f"{rtype} request has unknown field(s) {', '.join(unknown)}"
            f" (allowed: {', '.join(sorted(allowed))})",
        )


def _int_field(
    request: Dict[str, object],
    field: str,
    default: Optional[int],
    minimum: int,
    maximum: Optional[int] = None,
) -> Optional[int]:
    value = request.get(field, default)
    if value is None:
        return None
    # bool is an int subclass; JSON ``true`` must not pass as ``1``.
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(
            "bad-bounds", f"{field!r} must be an integer, got {value!r}"
        )
    if value < minimum:
        raise RequestError(
            "bad-bounds", f"{field!r} must be >= {minimum}, got {value}"
        )
    if maximum is not None and value > maximum:
        raise RequestError(
            "bad-bounds", f"{field!r} must be <= {maximum}, got {value}"
        )
    return value


def _bool_field(request: Dict[str, object], field: str, default: bool) -> bool:
    value = request.get(field, default)
    if not isinstance(value, bool):
        raise RequestError(
            "bad-request", f"{field!r} must be a boolean, got {value!r}"
        )
    return value


def _validate_sweep(request: Dict[str, object]) -> Dict[str, object]:
    from ..exec.suite import DEFAULT_CAP, DEFAULT_SEED, suite_names

    _require_fields(
        request,
        (
            "suite", "table", "cap", "seed", "autotune", "objective",
            "budget", "halving", "eta", "constraint",
        ),
        "sweep",
    )
    suite = request.get("suite")
    table = request.get("table")
    if (suite is None) == (table is None):
        raise RequestError(
            "bad-request",
            "sweep request needs exactly one of 'suite' (a registered"
            " suite name) or 'table' (an inline workload table)",
        )
    if suite is not None:
        if not isinstance(suite, str):
            raise RequestError(
                "bad-request", f"'suite' must be a string, got {suite!r}"
            )
        if suite not in suite_names():
            raise RequestError(
                "unknown-suite",
                f"unknown suite {suite!r};"
                f" available: {', '.join(suite_names())}",
            )
    if table is not None and not isinstance(table, (list, dict)):
        raise RequestError(
            "bad-request",
            "'table' must be an array of layer rows or an object with"
            f" a 'layers' array, got {type(table).__name__}",
        )
    objective = request.get("objective", "cycles")
    if objective not in OBJECTIVES:
        raise RequestError(
            "bad-objective",
            f"unknown objective {objective!r};"
            f" available: {', '.join(OBJECTIVES)}",
        )
    constraint = request.get("constraint")
    if constraint is not None:
        if not isinstance(constraint, str):
            raise RequestError(
                "bad-constraint",
                f"'constraint' must be a string, got {constraint!r}",
            )
        from ..exec.halving import parse_constraints

        try:
            parsed = parse_constraints(constraint)
        except ValueError as err:
            raise RequestError("bad-constraint", str(err)) from None
        # Canonicalize so equivalent spellings share one request key.
        constraint = ",".join(str(clause) for clause in parsed) or None
    return {
        "type": "sweep",
        "suite": suite,
        "table": table,
        "cap": _int_field(request, "cap", DEFAULT_CAP, 1, MAX_SWEEP_CAP),
        "seed": _int_field(request, "seed", DEFAULT_SEED, 0),
        "autotune": _bool_field(request, "autotune", False),
        "halving": _bool_field(request, "halving", False),
        "eta": _int_field(request, "eta", 2, 1),
        "constraint": constraint,
        "objective": objective,
        "budget": _int_field(request, "budget", None, 1),
    }


def _validate_explore(request: Dict[str, object]) -> Dict[str, object]:
    _require_fields(request, ("spec", "size", "seed"), "explore")
    spec = request.get("spec", "matmul")
    if spec not in EXPLORE_SPECS:
        raise RequestError(
            "unknown-spec",
            f"unknown spec {spec!r}; available: {', '.join(EXPLORE_SPECS)}",
        )
    try:
        explorable_spec(spec)
    except ValueError as err:
        raise RequestError("unsupported-spec", str(err)) from None
    return {
        "type": "explore",
        "spec": spec,
        "size": _int_field(request, "size", 4, 1, MAX_EXPLORE_SIZE),
        "seed": _int_field(request, "seed", 0, 0),
    }


def validate_request(obj: object) -> Dict[str, object]:
    """Validate a decoded request and return its normalized form.

    The normalized dict has every optional field resolved to its
    default, so downstream code (and :func:`request_key`) never sees
    two spellings of the same request.
    """
    if not isinstance(obj, dict):
        raise RequestError(
            "bad-request",
            f"request must be a JSON object, got {type(obj).__name__}",
        )
    rtype = obj.get("type")
    if rtype not in REQUEST_TYPES:
        raise RequestError(
            "unknown-type",
            f"unknown request type {rtype!r};"
            f" available: {', '.join(REQUEST_TYPES)}",
        )
    if rtype == "sweep":
        return _validate_sweep(obj)
    if rtype == "explore":
        return _validate_explore(obj)
    _require_fields(obj, (), rtype)
    return {"type": rtype}


def request_key(request: Dict[str, object]) -> str:
    """Canonical fingerprint of the result-determining request fields.

    Two concurrent requests with equal keys are guaranteed the same
    rows, so the server runs one evaluation and fans the stream out.
    Only normalized requests (from :func:`validate_request`) may be
    keyed -- defaults are already resolved, so ``{"suite": "alexnet"}``
    and ``{"suite": "alexnet", "cap": 8}`` collapse onto one key.
    """
    rtype = request["type"]
    fields: Tuple[object, ...]
    if rtype == "sweep":
        fields = tuple(
            request[name]
            for name in (
                "suite", "table", "cap", "seed", "autotune", "objective",
                "budget", "halving", "eta", "constraint",
            )
        )
    elif rtype == "explore":
        fields = tuple(request[name] for name in ("spec", "size", "seed"))
    else:
        fields = ()
    return fingerprint(("serve-request", PROTOCOL_VERSION, rtype) + fields)


def jsonable(value: object) -> object:
    """Recursively coerce ``value`` into plain JSON types.

    Result rows carry numpy scalars (cycle counts, utilizations) and
    tuples; the wire carries JSON.  Arrays become nested lists --
    bulky, but result rows only ship digests, not operand tensors.
    """
    import numpy as np

    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def _numpy_plain(value: object) -> object:
    """``json.dumps`` fallback: what :func:`jsonable` makes of a value
    plain JSON cannot hold (a numpy scalar or array); anything
    ``jsonable`` leaves as it is stays unserializable."""
    plain = jsonable(value)
    if plain is value:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return plain


def encode(message: Dict[str, object]) -> bytes:
    """One reply message as a wire line.

    Messages arrive as plain JSON -- the server passes rows, traces,
    results and metrics through :func:`jsonable` when it builds them --
    so this is one ``json.dumps`` walk; its ``default`` hook hands the
    numpy scalars and arrays a message may still carry to ``jsonable``,
    giving the bytes a second ``jsonable`` walk would.
    """
    return (
        json.dumps(message, separators=(",", ":"), default=_numpy_plain) + "\n"
    ).encode("utf-8")


def error_message(code: str, message: str) -> Dict[str, object]:
    return {"type": "error", "code": code, "message": message}
