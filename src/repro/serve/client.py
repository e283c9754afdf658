"""Thin blocking client for the evaluation service.

``repro sweep --server ADDR`` routes through this instead of the
in-process engine: it ships a declarative request, surfaces streamed
rows as they arrive, and rebuilds the same result dict the batch CLI
prints -- so daemon and cold-CLI outputs are directly diffable.

The client is deliberately dependency-free (``socket`` + ``json``): it
is also the reference implementation of the wire protocol for anyone
scripting the daemon from outside this package.
"""

from __future__ import annotations

import json
import socket
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class ServeError(RuntimeError):
    """A structured error reply (or a transport failure) from the
    server; ``code`` mirrors the wire ``error`` code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def parse_address(address: str) -> Tuple[str, object]:
    """Classify a ``--server`` address.

    ``host:port`` (numeric port, no path separator) is TCP; a bare
    port number is TCP on localhost; anything else is a unix socket
    path.  Returns ``("tcp", (host, port))`` or ``("unix", path)``.
    """
    if address.isdigit():
        return ("tcp", ("127.0.0.1", int(address)))
    if "/" not in address and ":" in address:
        host, _, port = address.rpartition(":")
        if port.isdigit():
            return ("tcp", (host or "127.0.0.1", int(port)))
    return ("unix", address)


class ServeClient:
    """One request-per-call blocking client.

    Each call opens a fresh connection: the protocol allows pipelined
    requests per connection, but one-shot keeps the client trivially
    correct and the daemon's accept cost is negligible next to an
    evaluation.
    """

    def __init__(self, address: str, timeout: float = 300.0):
        self.kind, self.target = parse_address(address)
        self.address = address
        self.timeout = timeout

    def _connect(self) -> socket.socket:
        try:
            if self.kind == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.target)
            else:
                sock = socket.create_connection(
                    self.target, timeout=self.timeout
                )
            return sock
        except OSError as err:
            raise ServeError(
                "connect-failed",
                f"cannot reach evaluation server at {self.address}: {err}",
            ) from None

    def request(self, payload: Dict[str, object]) -> Iterator[Dict[str, object]]:
        """Send one request; yield every reply message through the
        terminal (``result`` / ``error`` / ``pong`` / ``metrics`` /
        ``shutting-down``), then close the connection."""
        sock = self._connect()
        try:
            stream = sock.makefile("rwb")
            stream.write(json.dumps(payload).encode("utf-8") + b"\n")
            stream.flush()
            while True:
                line = stream.readline()
                if not line:
                    raise ServeError(
                        "connection-closed",
                        "server closed the stream before the terminal"
                        " message",
                    )
                try:
                    message = json.loads(line)
                except ValueError as err:
                    raise ServeError(
                        "bad-reply", f"unparseable reply line: {err}"
                    ) from None
                yield message
                if message.get("type") not in ("row", "trace"):
                    return
        except socket.timeout:
            raise ServeError(
                "timeout",
                f"no reply from {self.address} within {self.timeout}s",
            ) from None
        finally:
            sock.close()

    def _collect(
        self,
        payload: Dict[str, object],
        on_row: Optional[Callable[[int, Dict[str, object]], None]] = None,
        on_trace: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> Dict[str, object]:
        """Run a streaming request; return the batch-shaped result dict
        (terminal payload with the streamed ``rows`` folded back in,
        plus the ``dedup`` flag).  ``trace`` messages (autotuner rung
        progress) are forwarded to ``on_trace`` and otherwise dropped --
        they are advisory, never part of the result."""
        rows: List[Dict[str, object]] = []
        terminal: Optional[Dict[str, object]] = None
        for message in self.request(payload):
            mtype = message.get("type")
            if mtype == "row":
                rows.append(message["row"])
                if on_row is not None:
                    on_row(message["index"], message["row"])
            elif mtype == "trace":
                if on_trace is not None:
                    on_trace(message.get("event", {}))
            elif mtype == "error":
                raise ServeError(
                    message.get("code", "error"),
                    message.get("message", "unspecified server error"),
                )
            elif mtype == "result":
                terminal = message
            else:
                raise ServeError(
                    "bad-reply", f"unexpected reply type {mtype!r}"
                )
        assert terminal is not None  # request() guarantees a terminal
        result = {
            key: value
            for key, value in terminal.items()
            if key not in ("type", "dedup")
        }
        result["rows"] = rows
        result["dedup"] = terminal.get("dedup", False)
        return result

    # -- request helpers -------------------------------------------------

    def sweep(
        self,
        suite: Optional[str] = None,
        table: Optional[object] = None,
        cap: Optional[int] = None,
        seed: Optional[int] = None,
        autotune: bool = False,
        objective: str = "cycles",
        budget: Optional[int] = None,
        halving: bool = False,
        eta: int = 2,
        constraint: Optional[str] = None,
        on_row: Optional[Callable[[int, Dict[str, object]], None]] = None,
        on_trace: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> Dict[str, object]:
        payload: Dict[str, object] = {"type": "sweep"}
        if suite is not None:
            payload["suite"] = suite
        if table is not None:
            payload["table"] = table
        if cap is not None:
            payload["cap"] = cap
        if seed is not None:
            payload["seed"] = seed
        if autotune or halving:
            payload["objective"] = objective
            if budget is not None:
                payload["budget"] = budget
            if constraint is not None:
                payload["constraint"] = constraint
        if halving:
            payload["halving"] = True
            payload["eta"] = eta
        elif autotune:
            payload["autotune"] = True
        return self._collect(payload, on_row=on_row, on_trace=on_trace)

    def explore(
        self,
        spec: str = "matmul",
        size: int = 4,
        seed: int = 0,
        on_row: Optional[Callable[[int, Dict[str, object]], None]] = None,
    ) -> Dict[str, object]:
        payload = {"type": "explore", "spec": spec, "size": size, "seed": seed}
        return self._collect(payload, on_row=on_row)

    def _single(self, payload: Dict[str, object]) -> Dict[str, object]:
        for message in self.request(payload):
            if message.get("type") == "error":
                raise ServeError(
                    message.get("code", "error"),
                    message.get("message", "unspecified server error"),
                )
            return message
        raise ServeError("connection-closed", "no reply received")

    def metrics(self) -> Dict[str, object]:
        return self._single({"type": "metrics"})

    def ping(self) -> Dict[str, object]:
        return self._single({"type": "ping"})

    def shutdown(self) -> Dict[str, object]:
        return self._single({"type": "shutdown"})
