"""The five workloads of the end-to-end benchmark, run inside one child
process each (see ``run.py``).

An *op* is one timed unit of work.  Every workload sets up, runs one
untimed warm-up op (part of set-up), then runs ops until the time
budget is spent.  Every op's output is reduced to a digest -- the
sha256 of the canonical JSON of its rows with time fields stripped --
and checked by :class:`Checker`.

A measuring window also runs chunks of the host-speed reference
(``reference.py``) between the parts of its ops, ``reference.SHARE`` of
the op time in all, and divides the op time by the slowdown they show
(:attr:`Measurement.op_norm_s`).
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from typing import Dict, List, Optional, Tuple

import reference
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Tile cap per workload.  Smaller than the paper's layers so that one
#: op stays near a second on a 2-vCPU box and a run holds ten or more.
CAPS = {
    "dense-cnn": 12,
    "sparse-spmm": 16,
    "halving-search": 8,
    "serve-warm": 8,
}

#: ``--smoke`` runs every suite at this cap.
SMOKE_CAP = 4

#: Each serve connection cycles these suites with its own seed.
SERVE_CYCLE = ("resnet50", "alexnet", "suitesparse")
CONNECTIONS = 2

#: Requests in the fixed descriptor-probe pass against ``--jobs 2``.
PROBE_REQUESTS = 40

#: Dict keys whose values are times (dropped before digesting).
TIME_KEYS = frozenset({"ts", "dur"})

#: The served closed loop pauses for the reference after each segment,
#: sampling the host about as often as the other workloads' laps do.
SERVE_SEGMENT_S = 0.25


def strip_times(value):
    """``value`` without dict entries holding times: keys ending in
    ``_s`` (``elapsed_s``, ``latency_p50_s``) and ``ts``/``dur``."""
    if isinstance(value, dict):
        return {
            key: strip_times(item)
            for key, item in value.items()
            if not (str(key).endswith("_s") or key in TIME_KEYS)
        }
    if isinstance(value, (list, tuple)):
        return [strip_times(item) for item in value]
    return value


def _plain(value):
    if hasattr(value, "tolist"):  # numpy scalars and arrays
        return value.tolist()
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(payload) -> str:
    """sha256 of the canonical JSON of ``payload`` minus time fields."""
    text = json.dumps(
        strip_times(payload), sort_keys=True, separators=(",", ":"),
        default=_plain,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    """Checks each op's digest against the committed golden digest for
    its key, or -- for a key with no golden entry (another seed, or
    ``--smoke`` sizes) -- against the first op with that key."""

    def __init__(self, golden: Optional[Dict[str, str]] = None):
        self.golden = dict(golden or {})
        self.digests: Dict[str, str] = {}
        self.golden_checked = 0
        self.identity_checked = 0
        self.mismatches: List[str] = []

    def check(self, key: str, payload) -> bool:
        value = digest(payload)
        first = self.digests.setdefault(key, value)
        if key in self.golden:
            self.golden_checked += 1
            expected = self.golden[key]
        else:
            self.identity_checked += 1
            expected = first
        if value != expected:
            self.mismatches.append(f"{key}: {value[:16]} != {expected[:16]}")
            return False
        return True

    def summary(self) -> Dict[str, object]:
        return {
            "golden_checked": self.golden_checked,
            "identity_checked": self.identity_checked,
            "mismatches": list(self.mismatches),
        }


class Measurement:
    """One measuring window: latencies of the ops that passed, counts,
    the wall time the throughput and layer shares are taken over, and
    the reference chunks run between ops."""

    def __init__(self):
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.ref_chunks = 0

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.wall_s if self.wall_s > 0 else 0.0

    def keep_reference(self, pending_s: float = 0.0) -> None:
        """Run reference chunks until they add up to ``reference.SHARE``
        of the op time so far, ``pending_s`` of an op in progress
        included."""
        while self.ref_s < reference.SHARE * (self.wall_s + pending_s):
            self.ref_s += reference.chunk()
            self.ref_chunks += 1

    @property
    def slowdown(self) -> float:
        """Mean reference chunk time over ``reference.CHUNK_S``: how much
        slower than the quiet host this window ran (1.0 with no chunks)."""
        if not self.ref_chunks:
            return 1.0
        return self.ref_s / (self.ref_chunks * reference.CHUNK_S)

    @property
    def op_norm_s(self) -> float:
        """Mean op time over :attr:`slowdown`: the op's time at the
        quiet host's speed."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies) / self.slowdown


def _report_failure(what: str) -> None:
    print(f"e2e: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Sequential workloads: one op at a time in this process
# ---------------------------------------------------------------------------


class Sequential:
    """A workload whose ops run one after another in this process.

    An op calls :meth:`lap` where one of its parts ends (a suite case, a
    rung, an example), so that an untraced window samples the host
    there, every part, rather than once per op: the host's speed also
    swings within a second, and an op lasts up to several."""

    #: One thread: traced spans are timed in wall time.
    trace_clock = staticmethod(time.perf_counter)

    def __init__(self, seed: int, cap: int, tmp: str):
        self.seed = seed
        self.cap = cap
        self.tmp = tmp
        self.store: Optional[str] = None
        self._stats: List[Tuple[object, object]] = []
        # The untraced window being measured, the current op's start and
        # the reference time run inside it (not op time).
        self._window: Optional[Measurement] = None
        self._op_started = 0.0
        self._paused_s = 0.0

    def lap(self, *_event) -> None:
        """End of one part of the op: run the reference owed so far."""
        if self._window is None:
            return
        paused = time.perf_counter()
        self._window.keep_reference(paused - self._op_started - self._paused_s)
        self._paused_s += time.perf_counter() - paused

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        """Untimed per-op preparation (a fresh store root)."""

    def op(self) -> Tuple[str, object]:
        raise NotImplementedError

    def cache(self):
        """A fresh ``CompileCache`` on the store root ``self.store``."""
        from repro.exec.cache import CompileCache
        from repro.exec.store import DiskStore

        cache = CompileCache(store=DiskStore(self.store))
        # The counters only: holding the cache would keep its entries.
        self._stats.append((cache.stats, cache.store.stats))
        return cache

    def cache_stats(self) -> List[Tuple[object, object]]:
        """``(CacheStats, DiskStoreStats)`` of every cache made so far."""
        return list(self._stats)

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def warm_up(self, checker: Checker) -> Measurement:
        return self.measure(checker, float("inf"), 1, with_reference=False)

    def measure(
        self,
        checker: Checker,
        seconds: float,
        max_ops: float,
        tracer: Optional[spans.Tracer] = None,
        with_reference: bool = True,
    ) -> Measurement:
        """Run ops until ``seconds`` would be exceeded by one more op of
        the last op's length (and its share of reference), or
        ``max_ops`` ran.  ``wall_s`` sums the op times only: collection,
        checking and the reference are not op time.  In a traced run
        each op is one root span, and the reference runs between ops
        only, outside every span."""
        result = Measurement()
        last = 0.0
        started = time.perf_counter()
        while result.attempted < max_ops:
            elapsed = time.perf_counter() - started
            if result.attempted and elapsed + last * (1 + reference.SHARE) > seconds:
                break
            self.prepare()
            gc.collect()
            result.attempted += 1
            token = tracer.enter(spans.ROOT) if tracer is not None else None
            self._window = result if with_reference and tracer is None else None
            self._paused_s = 0.0
            self._op_started = time.perf_counter()
            try:
                key, payload = self.op()
            except Exception:  # noqa: BLE001 - a failed op is counted
                payload = None
                _report_failure(f"{type(self).__name__} op")
            last = time.perf_counter() - self._op_started - self._paused_s
            self._window = None
            if tracer is not None:
                tracer.exit(token)
            result.wall_s += last
            if payload is not None and checker.check(key, payload):
                result.latencies.append(last)
            else:
                result.failed += 1
            if with_reference:
                result.keep_reference()
        return result


class _FreshStore(Sequential):
    """Each op gets a fresh ``CompileCache`` on a fresh, empty store."""

    def prepare(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
        self.store = tempfile.mkdtemp(prefix="store-", dir=self.tmp)


class SuiteSweep(_FreshStore):
    """``evaluate_suite(build_suite(suite, cap, seed))``, cold."""

    suite_name = ""

    def setup(self) -> None:
        from repro.exec.suite import build_suite

        self.suite = build_suite(self.suite_name, cap=self.cap, seed=self.seed)

    def op(self) -> Tuple[str, object]:
        from repro.exec.suite import evaluate_suite

        result = evaluate_suite(
            self.suite, jobs=1, cache=self.cache(), on_row=self.lap
        )
        return f"{self.suite_name}:cap{self.cap}", result.rows


class DenseCNN(SuiteSweep):
    suite_name = "resnet50"


class SparseSpMM(SuiteSweep):
    suite_name = "suitesparse"


class HalvingSearch(Sequential):
    """Warm ``sweep --halving``: a fresh ``CompileCache`` per op on the
    store root set-up filled."""

    def setup(self) -> None:
        from repro.exec.suite import build_suite

        self.suite = build_suite("alexnet", cap=self.cap, seed=self.seed)
        self.store = os.path.join(self.tmp, "store")
        self.op()  # fills the store

    def op(self) -> Tuple[str, object]:
        from repro.exec.halving import halving_autotune_suite

        result = halving_autotune_suite(
            self.suite, eta=2, cache=self.cache(), on_rung=self.lap
        )
        payload = {
            "rows": result.rows,
            "rungs": [stats.as_dict() for stats in result.rungs],
        }
        return f"alexnet:cap{self.cap}:eta2", payload


class VerifyRTL(_FreshStore):
    """``repro verify examples --opt-level 2``, cold, one example per
    ``run_verify`` call (a lap each) on one cache, merged into the report
    ``run_verify(["examples"])`` gives."""

    def setup(self) -> None:
        from repro.analysis.check import discover_examples

        # Relative to the child's working directory, the checkout root:
        # each target's "source" is part of the digest, so it must not
        # name where the checkout lives.
        self.paths = [example.path for example in discover_examples(["examples"])]

    def op(self) -> Tuple[str, object]:
        from repro.analysis.verify import VerifyReport, run_verify

        cache = self.cache()
        targets = []
        for path in self.paths:
            part = run_verify([path], opt_level=2, seed=self.seed, cache=cache)
            targets += part.targets
            self.lap()
        report = VerifyReport(targets, part.opt_level, part.cycles, part.seed).to_dict()
        summary = report["summary"]
        if summary["errors"] or summary["equivalent"] != summary["targets"]:
            raise RuntimeError(f"verify found divergences: {summary}")
        return "examples:opt2", report


# ---------------------------------------------------------------------------
# The served workload
# ---------------------------------------------------------------------------


def _status_kb(pid: int, field: str) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise KeyError(field)


def _children(pid: int) -> List[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


def _open_fds(pid: int) -> int:
    try:
        return len(os.listdir(f"/proc/{pid}/fd"))
    except OSError:
        return 0


def start_daemon(jobs: int, tmp: str) -> Tuple[subprocess.Popen, str]:
    """``repro serve --socket --jobs N --cache-dir`` with a fresh store;
    returns the process once it is listening, and its address."""
    # A path relative to the shared working directory stays inside the
    # unix-socket length limit wherever the checkout lives.
    address = os.path.relpath(os.path.join(tmp, f"serve-j{jobs}.sock"), ROOT)
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--socket", address,
            "--jobs", str(jobs),
            "--cache-dir", os.path.join(tmp, f"serve-store-j{jobs}"),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = daemon.stdout.readline()
    if not line.startswith("serve: listening"):
        stop_daemon(daemon, None)
        raise RuntimeError(f"daemon did not start: {line!r}")
    return daemon, address


def stop_daemon(daemon: subprocess.Popen, address: Optional[str]) -> None:
    from repro.serve.client import ServeClient, ServeError

    try:
        if address is not None and daemon.poll() is None:
            try:
                ServeClient(address, timeout=30).shutdown()
            except ServeError:
                pass
            daemon.wait(timeout=30)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if daemon.poll() is None:
            daemon.kill()
        daemon.wait()
        daemon.stdout.close()


class ServeWarm:
    """Closed loop from this process over two connections against one
    evaluator.  ``in_process`` hosts ``EvalServer(jobs=1)`` on a thread
    here (the traced run, so its threads are visible) instead of
    spawning ``repro serve``."""

    #: Client, event-loop and evaluator threads share the interpreter
    #: lock: traced spans are timed in per-thread CPU time.
    trace_clock = staticmethod(time.thread_time)

    def __init__(self, seed: int, cap: int, tmp: str, in_process: bool = False):
        self.seed = seed
        self.cap = cap
        self.tmp = tmp
        self.in_process = in_process
        self.daemon: Optional[subprocess.Popen] = None
        self.server = None
        self.thread: Optional[threading.Thread] = None
        self.address: Optional[str] = None

    def setup(self) -> None:
        if not self.in_process:
            self.daemon, self.address = start_daemon(1, self.tmp)
            return
        from repro.serve import EvalServer

        self.address = os.path.relpath(os.path.join(self.tmp, "serve.sock"), ROOT)
        self.server = EvalServer(
            jobs=1, cache_dir=os.path.join(self.tmp, "serve-store")
        )
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self.server.run,
            kwargs={"socket_path": self.address, "ready": lambda _a: ready.set()},
            name="serve-loop",
        )
        self.thread.start()
        if not ready.wait(60):
            raise RuntimeError("in-process server did not start")

    def warm_up(self, checker: Checker) -> Measurement:
        """The first cycle of each connection: six cold evaluations."""
        return self.measure(
            checker, float("inf"), CONNECTIONS * len(SERVE_CYCLE), with_reference=False
        )

    def measure(
        self,
        checker: Checker,
        seconds: float,
        max_ops: float,
        tracer: Optional[spans.Tracer] = None,
        with_reference: bool = True,
    ) -> Measurement:
        """The closed loop in segments of :data:`SERVE_SEGMENT_S`, each
        followed by its share of reference while both connections are
        idle; ``wall_s`` sums the segments."""
        from repro.serve.client import ServeClient

        per_connection = max_ops / CONNECTIONS
        deadline = time.perf_counter() + seconds
        replies: List[List[Tuple[str, int, Optional[float], object]]] = [
            [] for _ in range(CONNECTIONS)
        ]

        def connection(index: int, until: float) -> None:
            client = ServeClient(self.address, timeout=60)
            seed = self.seed + index
            token = tracer.enter(spans.ROOT) if tracer is not None else None
            try:
                for sent in itertools.count(len(replies[index])):
                    if sent >= per_connection or time.perf_counter() >= until:
                        break
                    suite = SERVE_CYCLE[sent % len(SERVE_CYCLE)]
                    started = time.perf_counter()
                    try:
                        reply = client.sweep(suite=suite, cap=self.cap, seed=seed)
                    except Exception:  # noqa: BLE001 - a failed request is counted
                        _report_failure(f"request {suite} seed {seed}")
                        replies[index].append((suite, seed, None, None))
                        continue
                    latency = time.perf_counter() - started
                    replies[index].append((suite, seed, latency, reply["rows"]))
            finally:
                if tracer is not None:
                    tracer.exit(token)

        result = Measurement()
        while True:
            started = time.perf_counter()
            remaining = deadline - started
            if remaining <= 0 or all(len(r) >= per_connection for r in replies):
                break
            until = started + min(SERVE_SEGMENT_S, remaining / (1 + reference.SHARE))
            threads = [
                threading.Thread(
                    target=connection, args=(index, until), name=f"client-{index}"
                )
                for index in range(CONNECTIONS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            result.wall_s += time.perf_counter() - started
            if with_reference:
                result.keep_reference()
        # Checked after the window so digesting does not slow the loop.
        for suite, seed, latency, rows in itertools.chain(*replies):
            result.attempted += 1
            key = f"{suite}:cap{self.cap}:seed{seed}"
            if rows is not None and checker.check(key, rows):
                result.latencies.append(latency)
            else:
                result.failed += 1
        return result

    def cache_stats(self) -> List[Tuple[object, object]]:
        """The in-process server's cache counters (none for a daemon)."""
        if self.server is None:
            return []
        cache = self.server.cache
        return [(cache.stats, cache.store.stats if cache.store else None)]

    def peak_rss_mb(self) -> float:
        if self.daemon is not None:
            return _status_kb(self.daemon.pid, "VmHWM") / 1024.0
        return peak_rss_mb()

    def close(self) -> None:
        if self.daemon is not None:
            stop_daemon(self.daemon, self.address)
            self.daemon = None
        if self.server is not None:
            self.server.stop()
            self.thread.join(60)
            self.server = None


def descriptor_probe(seed: int, cap: int, tmp: str) -> float:
    """Descriptors the resident workers of ``repro serve --jobs 2`` gain
    per request, over a fixed pass of :data:`PROBE_REQUESTS` requests."""
    from repro.serve.client import ServeClient

    daemon, address = start_daemon(2, tmp)
    try:
        client = ServeClient(address, timeout=60)
        client.sweep(suite=SERVE_CYCLE[0], cap=cap, seed=seed)  # forks workers
        before = sum(_open_fds(pid) for pid in _children(daemon.pid))
        for sent in range(PROBE_REQUESTS):
            client.sweep(
                suite=SERVE_CYCLE[sent % len(SERVE_CYCLE)], cap=cap, seed=seed
            )
        after = sum(_open_fds(pid) for pid in _children(daemon.pid))
    finally:
        stop_daemon(daemon, address)
    return (after - before) / PROBE_REQUESTS


SEQUENTIAL = {
    "dense-cnn": DenseCNN,
    "sparse-spmm": SparseSpMM,
    "halving-search": HalvingSearch,
    "verify-rtl": VerifyRTL,
}


# ---------------------------------------------------------------------------
# The child process
# ---------------------------------------------------------------------------


def _traced(
    workload, checker: Checker, seconds: float, max_ops: float
) -> Tuple[List[Measurement], Dict[str, object]]:
    """An untraced then a traced window of ``seconds / 2`` each; the
    per-layer figures come from the second."""
    untraced = workload.measure(checker, seconds / 2, max_ops)
    before = spans.hit_tally(workload.cache_stats())
    tracer = spans.Tracer(clock=workload.trace_clock)
    patches = spans.install(tracer)
    try:
        traced = workload.measure(checker, seconds / 2, max_ops, tracer)
    finally:
        patches.undo()
    hits = {
        name: tuple(now - then for now, then in zip(pair, before.get(name, (0, 0))))
        for name, pair in spans.hit_tally(workload.cache_stats()).items()
    }
    totals = tracer.totals()
    layers = spans.layer_metrics(totals, hits, traced.attempted, traced.wall_s)
    per_op = [
        window.wall_s / max(1, window.attempted) / window.slowdown
        for window in (untraced, traced)
    ]
    layers["trace.overhead"] = per_op[1] / max(1e-12, per_op[0]) - 1.0
    return [untraced, traced], {
        "layers": layers, "unknown_layers": spans.unknown_layers(totals),
    }


def run_child(config: Dict[str, object]) -> Dict[str, object]:
    """Set up, warm up, and (unless ``setup_only``) measure one workload.

    ``config`` carries ``workload``, ``seed``, ``seconds``, ``trace``,
    ``smoke``, ``setup_only``, ``tmp``, ``golden`` (this workload's
    digests for this seed, or ``None``) and ``spawned_at`` (the parent's
    ``time.time()`` just before spawning, so set-up time includes
    interpreter start and imports).  Right after set-up the child runs
    ``reference.SETUP_CHUNKS`` reference chunks (``setup_ref_s``), not
    counted in ``setup_s``.
    """
    name = str(config["workload"])
    seed = int(config["seed"])
    cap = SMOKE_CAP if config["smoke"] else CAPS.get(name, 0)
    tmp = str(config["tmp"])
    trace = bool(config["trace"])
    max_ops = float("inf")
    if config["smoke"]:
        max_ops = 30 if name == "serve-warm" else 1
    checker = Checker(config.get("golden"))
    if name == "serve-warm":
        workload = ServeWarm(seed, cap, tmp, in_process=trace)
    else:
        workload = SEQUENTIAL[name](seed, cap, tmp)
    out: Dict[str, object] = {"workload": name, "seed": seed, "cap": cap}
    try:
        workload.setup()
        windows = [workload.warm_up(checker)]
        out["setup_s"] = time.time() - float(config["spawned_at"])
        out["setup_ref_s"] = reference.run(reference.SETUP_CHUNKS)
        seconds = float(config["seconds"])
        if trace and not config["setup_only"]:
            measured, figures = _traced(workload, checker, seconds, max_ops)
            windows += measured
            out.update(figures)
        elif not config["setup_only"]:
            timed = workload.measure(checker, seconds, max_ops)
            windows.append(timed)
            out["ops_per_s"] = timed.ops_per_s
            out["op_norm_s"] = timed.op_norm_s
            out["slowdown"] = timed.slowdown
            out["peak_rss_mb"] = workload.peak_rss_mb()
    finally:
        workload.close()
    if "layers" in out:
        out["layers"]["exec.shm.worker_fds_per_request"] = (
            descriptor_probe(seed, cap, tmp) if name == "serve-warm" else 0.0
        )
    out["latencies"] = [
        latency for window in windows[1:] for latency in window.latencies
    ]
    out["attempted"] = sum(window.attempted for window in windows)
    out["failed"] = sum(window.failed for window in windows)
    out["check"] = checker.summary()
    out["digests"] = checker.digests
    return out
