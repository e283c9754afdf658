"""Request-schema validation and the dedup fingerprint."""

import json

import numpy as np
import pytest

from repro.serve import ServeError
from repro.serve import server as server_module
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    RequestError,
    encode,
    error_message,
    jsonable,
    parse_line,
    request_key,
    validate_request,
)

from .test_server import TABLE, harness  # noqa: F401 - shared server fixture


def err(obj):
    with pytest.raises(RequestError) as excinfo:
        validate_request(obj)
    return excinfo.value


class TestParseLine:
    def test_valid_json(self):
        assert parse_line(b'{"type": "ping"}') == {"type": "ping"}

    def test_malformed_json_is_bad_json(self):
        with pytest.raises(RequestError) as excinfo:
            parse_line(b"{nope")
        assert excinfo.value.code == "bad-json"

    def test_bad_utf8_is_bad_json(self):
        with pytest.raises(RequestError) as excinfo:
            parse_line(b'"\xff\xfe"')
        assert excinfo.value.code == "bad-json"


class TestValidate:
    def test_non_object_rejected(self):
        assert err([1, 2]).code == "bad-request"
        assert err("ping").code == "bad-request"

    def test_unknown_type_rejected(self):
        assert err({"type": "frobnicate"}).code == "unknown-type"
        assert err({}).code == "unknown-type"

    def test_simple_types_normalize(self):
        for rtype in ("ping", "metrics", "shutdown"):
            assert validate_request({"type": rtype}) == {"type": rtype}

    def test_simple_types_reject_extra_fields(self):
        assert err({"type": "ping", "x": 1}).code == "unknown-field"

    def test_sweep_defaults_resolved(self):
        request = validate_request({"type": "sweep", "suite": "alexnet"})
        assert request == {
            "type": "sweep",
            "suite": "alexnet",
            "table": None,
            "cap": 8,
            "seed": 7,
            "autotune": False,
            "halving": False,
            "eta": 2,
            "constraint": None,
            "objective": "cycles",
            "budget": None,
        }

    def test_sweep_needs_exactly_one_source(self):
        assert err({"type": "sweep"}).code == "bad-request"
        assert (
            err(
                {"type": "sweep", "suite": "alexnet", "table": []}
            ).code
            == "bad-request"
        )

    def test_unknown_suite(self):
        error = err({"type": "sweep", "suite": "nope"})
        assert error.code == "unknown-suite"
        assert "alexnet" in str(error)  # names the alternatives

    def test_non_string_suite(self):
        assert err({"type": "sweep", "suite": 7}).code == "bad-request"

    def test_table_must_be_structured(self):
        assert err({"type": "sweep", "table": "rows"}).code == "bad-request"

    def test_bad_bounds(self):
        base = {"type": "sweep", "suite": "alexnet"}
        assert err({**base, "cap": 0}).code == "bad-bounds"
        assert err({**base, "cap": 10_000}).code == "bad-bounds"
        assert err({**base, "cap": "8"}).code == "bad-bounds"
        assert err({**base, "cap": True}).code == "bad-bounds"
        assert err({**base, "seed": -1}).code == "bad-bounds"
        assert err({**base, "budget": 0}).code == "bad-bounds"

    def test_bad_objective_and_autotune(self):
        base = {"type": "sweep", "suite": "alexnet"}
        assert err({**base, "objective": "speed"}).code == "bad-objective"
        assert err({**base, "autotune": 1}).code == "bad-request"

    def test_halving_fields_validate(self):
        base = {"type": "sweep", "suite": "alexnet"}
        assert err({**base, "halving": 1}).code == "bad-request"
        assert err({**base, "eta": 0}).code == "bad-bounds"
        assert err({**base, "eta": "two"}).code == "bad-bounds"

    def test_bad_constraint_rejected(self):
        base = {"type": "sweep", "suite": "alexnet"}
        assert err({**base, "constraint": 7}).code == "bad-constraint"
        assert err({**base, "constraint": "latency<=3"}).code == (
            "bad-constraint"
        )
        assert err({**base, "constraint": "cycles=3"}).code == (
            "bad-constraint"
        )

    def test_constraint_is_canonicalized(self):
        request = validate_request(
            {
                "type": "sweep",
                "suite": "alexnet",
                "constraint": " area<=120000.0 , power>=0.5 ",
            }
        )
        assert request["constraint"] == "area<=120000,power>=0.5"
        # An all-whitespace clause list collapses to no constraint.
        empty = validate_request(
            {"type": "sweep", "suite": "alexnet", "constraint": " , "}
        )
        assert empty["constraint"] is None

    def test_unknown_field_rejected(self):
        error = err({"type": "sweep", "suite": "alexnet", "jobs": 4})
        assert error.code == "unknown-field"
        assert "jobs" in str(error)

    def test_explore_normalizes(self):
        request = validate_request({"type": "explore"})
        assert request == {
            "type": "explore",
            "spec": "matmul",
            "size": 4,
            "seed": 0,
        }

    def test_explore_bounds(self):
        assert err({"type": "explore", "spec": "nope"}).code == "unknown-spec"
        assert err({"type": "explore", "spec": "bmm"}).code == "unsupported-spec"
        assert err({"type": "explore", "size": 0}).code == "bad-bounds"
        assert err({"type": "explore", "size": 1000}).code == "bad-bounds"


class TestRequestKey:
    def test_defaults_collapse_onto_explicit_spelling(self):
        implicit = validate_request({"type": "sweep", "suite": "alexnet"})
        explicit = validate_request(
            {"type": "sweep", "suite": "alexnet", "cap": 8, "seed": 7}
        )
        assert request_key(implicit) == request_key(explicit)

    def test_result_determining_fields_change_the_key(self):
        base = validate_request({"type": "sweep", "suite": "alexnet"})
        for delta in (
            {"suite": "resnet50"},
            {"cap": 4},
            {"seed": 11},
            {"autotune": True},
            {"halving": True},
            {"eta": 3},
            {"constraint": "area<=120000"},
        ):
            other = validate_request(
                {"type": "sweep", "suite": "alexnet", **delta}
            )
            assert request_key(base) != request_key(other)

    def test_inline_table_contents_keyed(self):
        row = {"name": "l0", "m": 4, "k": 4, "n": 4}
        one = validate_request({"type": "sweep", "table": [row]})
        two = validate_request(
            {"type": "sweep", "table": [{**row, "m": 8}]}
        )
        assert request_key(one) != request_key(two)

    def test_sweep_and_explore_never_collide(self):
        sweep = validate_request({"type": "sweep", "suite": "alexnet"})
        explore = validate_request({"type": "explore"})
        assert request_key(sweep) != request_key(explore)


class TestEncoding:
    def test_encode_is_one_json_line(self):
        line = encode({"type": "row", "index": 0})
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert json.loads(line) == {"type": "row", "index": 0}

    def test_jsonable_strips_numpy(self):
        np = pytest.importorskip("numpy")
        out = jsonable(
            {
                "cycles": np.int64(7),
                "util": np.float64(0.5),
                "shape": (4, 4),
                "grid": np.arange(2),
            }
        )
        assert out == {
            "cycles": 7, "util": 0.5, "shape": [4, 4], "grid": [0, 1]
        }
        json.dumps(out)  # round-trips

    @staticmethod
    def two_walks(message):
        """The wire line as ``jsonable`` then ``json.dumps`` gave it."""
        return (json.dumps(jsonable(message), separators=(",", ":")) + "\n").encode(
            "utf-8"
        )

    def test_every_served_message_encodes_as_before(self, harness, monkeypatch):
        sent = []

        def recording(message):
            sent.append(message)
            return encode(message)

        monkeypatch.setattr(server_module, "encode", recording)
        h = harness()
        h.client.sweep(table=TABLE, cap=8, seed=7)
        h.client.sweep(table=TABLE, cap=8, seed=7, halving=True)
        h.client.ping()
        h.client.metrics()
        with pytest.raises(ServeError):
            h.client.sweep(table=TABLE, cap=0)
        assert {message["type"] for message in sent} == {
            "row", "trace", "result", "pong", "metrics", "error"
        }
        for message in sent:
            assert encode(message) == self.two_walks(message)

    def test_numpy_values_encode_as_jsonable_makes_them(self):
        message = {
            "type": "row",
            "cycles": np.int64(7),
            "util": np.float32(0.1),
            "area": np.float64(0.1),
            "ok": np.bool_(True),
            "grid": np.arange(6).reshape(2, 3),
        }
        assert encode(message) == self.two_walks(message)
        assert json.loads(encode(message))["grid"] == [[0, 1, 2], [3, 4, 5]]
        with pytest.raises(TypeError):
            encode({"type": "row", "names": {"l0"}})

    def test_error_message_shape(self):
        message = error_message("bad-json", "nope")
        assert message == {
            "type": "error", "code": "bad-json", "message": "nope"
        }

    def test_protocol_version_is_an_int(self):
        assert isinstance(PROTOCOL_VERSION, int)
