"""Per-layer autotuning of workload suites by multi-fidelity successive halving.

Stellar's core claim is that one functional spec plus an automated
explorer finds per-workload design points rather than fixing a single
array.  :func:`halving_autotune_suite` is the repository's one
autotuner: it crosses every layer of a suite with the
:class:`~repro.dse.space.DesignSpace` candidate combos (transform x
sparsity wiring x load balancing, widened by default with the membuf /
DMA / regfile microarchitecture axes) and prunes them with the
successive-halving schedule:

* **Rung 0** evaluates *all* combos of every layer at a cheap fidelity:
  each case's bounds are clipped to a small ``cap`` and its operand
  tensors sliced to match, energy and output digests are skipped, and
  the reduced run is tagged with a ``fidelity`` label that the engine
  folds into the simulator's memo key -- rung entries can never answer
  for (or be answered by) full-fidelity cache entries.
* Each subsequent rung re-runs only the survivors at an ``eta``-times
  larger cap, keeping the top ``ceil(n / eta)`` combos per layer on the
  rung objective (cycles, then area, then name -- deterministic).  Three
  classes of combo survive unconditionally: the suite's **fixed
  baseline** (so the final winner provably never loses to the fixed
  sweep), the **previous layer's rung leader** (neighboring layers
  share shapes, so its winner warm-starts this layer's ranking), and
  combos that were **illegal at reduced fidelity** (clipping can break
  a balancing scheme that is legal at full bounds; they are carried
  forward rather than falsely pruned).
* The **final rung** is the exact evaluation: full bounds, full
  tensors, energy + digest on, no fidelity tag -- so it shares cache
  entries with the fixed sweep, and cold/warm runs stay byte-identical.

``eta=1`` degenerates to that single exact rung: an exhaustive search.
``repro sweep --autotune`` is exactly that case over the non-widened
suite space (:func:`sweep_suite` holds the mode mapping).

Every rung routes through one
:func:`~repro.exec.engine.evaluate_sweep` call, so the ResidentPool,
shared-memory transport, DiskStore, and compile-cache sharing all apply
per rung.  Per layer, the final rung's points are ranked by the Pareto
frontier over (cycles, area, energy); the frontier is optionally
filtered by declarative suite-level constraints (``area<=N,power<=N``
-- TeAAL-style) and the winner is the point minimizing the objective
(``cycles``, ``energy`` or ``edp``) with deterministic (objective,
cycles, area, name) tie-breaks, so parallel, serial, cold and warm runs
pick identical designs.  The result surfaces the full per-layer
frontier plus per-rung evaluation counts.
"""

from __future__ import annotations

import math
import time
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.expr import Bounds
from ..dse.explorer import DesignPoint, ExplorationResult
from ..dse.space import (
    DesignCombo,
    DesignSpace,
    budgeted_combos,
    suite_design_space,
)
from ..obs.trace import get_tracer
from .cache import CompileCache
from .engine import EngineReport, evaluate_sweep
from .suite import Suite, SuiteError, SuiteResult, evaluate_suite, text_table

#: The smallest rung cap.  Tiles below this stop being representative of
#: the full-bounds ranking (a 1x1x1 matmul has no dataflow).
MIN_RUNG_CAP = 2

#: Supported autotuning objectives, each mapping a point to the scalar
#: being minimized.
OBJECTIVES: Dict[str, Callable[[DesignPoint], float]] = {
    "cycles": lambda p: float(p.cycles),
    "energy": lambda p: float(p.energy_pj),
    "edp": lambda p: float(p.edp),
}

#: Metrics a ``--constraint`` clause may bound, each mapping a fully
#: evaluated :class:`~repro.dse.explorer.DesignPoint` to the scalar the
#: bound applies to.  ``power`` is the energy rate (pJ per cycle).
CONSTRAINT_METRICS: Dict[str, Callable[[DesignPoint], float]] = {
    "cycles": lambda p: float(p.cycles),
    "area": lambda p: float(p.area_um2),
    "energy": lambda p: float(p.energy_pj),
    "power": lambda p: float(p.energy_pj) / max(1.0, float(p.cycles)),
}


class Constraint(NamedTuple):
    """One declarative bound: ``metric (<=|>=) limit``."""

    metric: str
    op: str
    limit: float

    def satisfied_by(self, point: DesignPoint) -> bool:
        value = CONSTRAINT_METRICS[self.metric](point)
        return value <= self.limit if self.op == "<=" else value >= self.limit

    def __str__(self) -> str:
        limit = int(self.limit) if self.limit == int(self.limit) else self.limit
        return f"{self.metric}{self.op}{limit}"


def parse_constraints(text: Optional[str]) -> List[Constraint]:
    """Parse the ``--constraint`` grammar: comma-separated
    ``metric<=value`` / ``metric>=value`` clauses over
    :data:`CONSTRAINT_METRICS`."""
    if not text:
        return []
    constraints = []
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        for op in ("<=", ">="):
            if op in clause:
                metric, _, limit_text = clause.partition(op)
                metric = metric.strip()
                if metric not in CONSTRAINT_METRICS:
                    raise ValueError(
                        f"unknown constraint metric {metric!r}; pick from"
                        f" {sorted(CONSTRAINT_METRICS)}"
                    )
                try:
                    limit = float(limit_text.strip())
                except ValueError:
                    raise ValueError(
                        f"constraint {clause!r} needs a numeric bound"
                    ) from None
                constraints.append(Constraint(metric, op, limit))
                break
        else:
            raise ValueError(
                f"constraint {clause!r} is not of the form metric<=value"
                " or metric>=value"
            )
    return constraints


def fidelity_ladder(full_cap: int, eta: int) -> List[Optional[int]]:
    """The rung caps, cheapest first; ``None`` is the exact final rung.

    Caps grow by ``eta`` from :data:`MIN_RUNG_CAP` while strictly below
    ``full_cap``; ``eta=1`` (no pruning) degenerates to the single exact
    rung, an exhaustive search -- the ``--autotune`` mode, which the
    fuzzer's brute-force reference checks.
    """
    if eta < 1:
        raise ValueError(f"eta must be at least 1, got {eta}")
    caps: List[Optional[int]] = []
    if eta > 1:
        cap = MIN_RUNG_CAP
        while cap < full_cap:
            caps.append(cap)
            cap *= eta
    caps.append(None)
    return caps


def _suite_full_cap(suite: Suite) -> int:
    return max(
        (
            case.bounds.size(name)
            for case in suite.cases
            for name in case.bounds.names()
        ),
        default=MIN_RUNG_CAP,
    )


def _clip_case(case, cap: int):
    """``(bounds, tensors, clipped)`` for one case at rung cap ``cap``.

    Every iteration axis is clipped to ``cap`` and every operand axis
    sliced to its clipped extent -- rung tiles are genuine sub-problems
    of the layer, so their (bounds, tensors) content keys are naturally
    distinct from the full-fidelity entries.
    """
    sizes = {
        name: min(case.bounds.size(name), cap)
        for name in case.bounds.names()
    }
    if all(sizes[name] == case.bounds.size(name) for name in sizes):
        return case.bounds, case.tensors, False
    bounds = Bounds(sizes)
    tensors = {
        name: np.ascontiguousarray(
            arr[tuple(slice(min(dim, cap)) for dim in arr.shape)]
        )
        for name, arr in case.tensors.items()
    }
    return bounds, tensors, True


class RungStats:
    """Evaluation tallies of one rung, across all layers."""

    def __init__(self, rung: int, cap: Optional[int]):
        self.rung = rung
        self.cap = cap
        self.candidates = 0
        self.evaluated = 0
        self.illegal = 0
        self.carried = 0
        self.survivors = 0

    @property
    def fidelity(self) -> str:
        return "full" if self.cap is None else f"cap{self.cap}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rung": self.rung,
            "fidelity": self.fidelity,
            "cap": self.cap,
            "candidates": self.candidates,
            "evaluated": self.evaluated,
            "illegal": self.illegal,
            "carried": self.carried,
            "survivors": self.survivors,
        }


def select_winner(
    points: Sequence[DesignPoint], objective: str
) -> Tuple[DesignPoint, List[DesignPoint]]:
    """``(winner, frontier)`` for one layer's evaluated points.

    The frontier is the Pareto-nondominated subset over every measured
    metric (cycles, area, and energy when present); the winner is the
    frontier point minimizing ``objective`` with deterministic
    tie-breaks, so identical point sets always yield identical winners
    regardless of evaluation order.
    """
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
        )
    if not points:
        raise ValueError("cannot select a winner from zero points")
    frontier = ExplorationResult(list(points)).pareto_frontier()
    return _best(frontier, objective), frontier


def _best(points: Sequence[DesignPoint], objective: str) -> DesignPoint:
    measure = OBJECTIVES[objective]
    return min(
        points, key=lambda p: (measure(p), p.cycles, p.area_um2, p.name)
    )


class LayerDecision:
    """One layer's autotuning outcome: the winning design, the fixed
    baseline's outcome, and the layer's serialized Pareto frontier."""

    def __init__(
        self,
        case,
        combo: DesignCombo,
        outcome: Mapping[str, object],
        fixed_outcome: Mapping[str, object],
        frontier_points: Sequence[Dict[str, object]],
        evaluated: int,
        illegal: int,
    ):
        self.case = case
        self.combo = combo
        self.outcome = dict(outcome)
        self.fixed_outcome = dict(fixed_outcome)
        self.frontier_points = list(frontier_points)
        self.evaluated = evaluated
        self.illegal = illegal

    @property
    def cycles(self) -> int:
        return int(self.outcome["cycles"])

    @property
    def energy_pj(self) -> float:
        return float(self.outcome["energy_pj"])

    @property
    def edp(self) -> float:
        return self.cycles * self.energy_pj

    @property
    def fixed_cycles(self) -> int:
        return int(self.fixed_outcome["cycles"])

    @property
    def feasible(self) -> int:
        """Frontier points satisfying every constraint."""
        return sum(1 for point in self.frontier_points if point["feasible"])

    def row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "name": self.case.name,
            "transform": self.combo.transform_name,
            "sparsity": self.combo.sparsity_name,
            "balancing": self.combo.balancing_name,
            "cycles": self.cycles,
            "fixed_cycles": self.fixed_cycles,
            "utilization": float(self.outcome["utilization"]),
            "area_um2": float(self.outcome["area_um2"]),
            "energy_pj": round(self.energy_pj, 3),
            "edp": round(self.edp, 3),
            "output_digest": self.outcome["output_digest"],
            "frontier": len(self.frontier_points),
            "evaluated": self.evaluated,
            "illegal": self.illegal,
        }
        row.update(self.case.info)
        row["bounds_str"] = "x".join(
            str(self.case.bounds.size(name)) for name in ("i", "j", "k")
        )
        membuf, dma, regfile = self.combo.uarch_names
        row["membuf"] = membuf
        row["dma"] = dma
        row["regfile"] = regfile
        row["feasible"] = self.feasible
        return row


class HalvingResult:
    """Per-layer winner table plus suite aggregates, the engine report,
    and the halving schedule: rung tallies, the fidelity ladder,
    constraint clauses, and each layer's full Pareto frontier."""

    def __init__(
        self,
        suite: Suite,
        objective: str,
        decisions: List[LayerDecision],
        space: DesignSpace,
        combos: List[DesignCombo],
        budget: Optional[int],
        report: EngineReport,
        elapsed_s: float,
        cache: Optional[CompileCache],
        eta: int,
        ladder: Sequence[Optional[int]],
        rungs: Sequence[RungStats],
        constraints: Sequence[Constraint],
    ):
        self.suite = suite
        self.objective = objective
        self.decisions = decisions
        self.space = space
        self.combos = combos
        self.budget = budget
        self.report = report
        self.elapsed_s = elapsed_s
        self.cache = cache
        self.eta = eta
        self.ladder = list(ladder)
        self.rungs = list(rungs)
        self.constraints = list(constraints)

    # -- aggregates ------------------------------------------------------

    @property
    def rows(self) -> List[Dict[str, object]]:
        return [decision.row() for decision in self.decisions]

    @property
    def total_cycles(self) -> int:
        return sum(d.cycles for d in self.decisions)

    @property
    def fixed_total_cycles(self) -> int:
        return sum(d.fixed_cycles for d in self.decisions)

    @property
    def total_energy_pj(self) -> float:
        return sum(d.energy_pj for d in self.decisions)

    @property
    def total_edp(self) -> float:
        return sum(d.edp for d in self.decisions)

    @property
    def mean_utilization(self) -> float:
        if not self.decisions:
            return 0.0
        return sum(
            float(d.outcome["utilization"]) for d in self.decisions
        ) / len(self.decisions)

    @property
    def retuned_layers(self) -> int:
        """Layers whose winner differs from the fixed baseline on *any*
        axis, including the microarchitecture overlays."""
        baseline = (
            self.suite.transform_name,
            self.suite.sparsity_name,
            self.suite.balancing_name,
        )
        return sum(
            1
            for d in self.decisions
            if d.combo.names != baseline or not d.combo.is_default_uarch
        )

    @property
    def full_fidelity_evaluations(self) -> int:
        return self.rungs[-1].candidates if self.rungs else 0

    @property
    def exhaustive_evaluations(self) -> int:
        return len(self.suite.cases) * len(self.combos)

    @property
    def evaluations_saved(self) -> float:
        """The exhaustive-to-final-rung full-fidelity evaluation ratio."""
        return self.exhaustive_evaluations / max(
            1, self.full_fidelity_evaluations
        )

    def aggregates(self) -> Dict[str, object]:
        return {
            "cases": len(self.decisions),
            "objective": self.objective,
            "candidates_per_layer": len(self.combos),
            "total_cycles": self.total_cycles,
            "fixed_total_cycles": self.fixed_total_cycles,
            "retuned_layers": self.retuned_layers,
            "mean_utilization": round(self.mean_utilization, 4),
            "total_energy_pj": round(self.total_energy_pj, 3),
            "total_edp": round(self.total_edp, 3),
            "elapsed_s": round(self.elapsed_s, 4),
            "eta": self.eta,
            "rungs": len(self.rungs),
            "full_fidelity_evaluations": self.full_fidelity_evaluations,
            "exhaustive_evaluations": self.exhaustive_evaluations,
            "evaluations_saved": round(self.evaluations_saved, 4),
        }

    # -- presentation ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        payload = {
            "suite": self.suite.name,
            "mode": "halving",
            "objective": self.objective,
            "budget": self.budget,
            "space": self.space.axes(),
            "rows": self.rows,
            "aggregates": self.aggregates(),
            "engine": self.report.as_dict(),
        }
        if self.cache is not None and self.cache.store is not None:
            payload["store"] = self.cache.store.stats.as_dict()
        payload["eta"] = self.eta
        payload["ladder"] = [
            cap if cap is not None else "full" for cap in self.ladder
        ]
        payload["constraint"] = (
            ",".join(str(c) for c in self.constraints) or None
        )
        payload["rungs"] = [stats.as_dict() for stats in self.rungs]
        payload["frontiers"] = {
            decision.case.name: decision.frontier_points
            for decision in self.decisions
        }
        return payload

    def table(self) -> str:
        headers = (
            "case", "design", "cycles", "fixed", "util", "energy/pJ", "digest"
        )
        body = [
            (
                str(row["name"]),
                f"{row['transform']} / {row['sparsity']} / {row['balancing']}",
                str(row["cycles"]),
                str(row["fixed_cycles"]),
                f"{float(row['utilization']):.3f}",
                f"{float(row['energy_pj']):.1f}",
                str(row["output_digest"])[:12],
            )
            for row in self.rows
        ]
        return text_table(headers, body)


def _layer_points(
    combos: Sequence[DesignCombo], outcomes: Sequence[Mapping[str, object]]
) -> List[Tuple[DesignCombo, DesignPoint, Mapping[str, object]]]:
    points = []
    for combo, outcome in zip(combos, outcomes):
        if outcome["status"] != "ok":
            continue
        points.append(
            (
                combo,
                DesignPoint(
                    name=combo.label,
                    transform_name=combo.transform_name,
                    sparsity_name=combo.sparsity_name,
                    balancing_name=combo.balancing_name,
                    cycles=int(outcome["cycles"]),
                    utilization=float(outcome["utilization"]),
                    area_um2=float(outcome["area_um2"]),
                    pe_count=int(outcome["pe_count"]),
                    conn_count=int(outcome["conn_count"]),
                    pruned_variables=outcome["pruned_variables"],
                    energy_pj=float(outcome["energy_pj"]),
                ),
                outcome,
            )
        )
    return points


def _frontier_payload(
    frontier: Sequence[DesignPoint],
    by_label: Mapping[str, Tuple[DesignCombo, Mapping[str, object]]],
    constraints: Sequence[Constraint],
) -> List[Dict[str, object]]:
    payload = []
    for point in frontier:
        combo, _outcome = by_label[point.name]
        membuf, dma, regfile = combo.uarch_names
        payload.append(
            {
                "name": point.name,
                "transform": combo.transform_name,
                "sparsity": combo.sparsity_name,
                "balancing": combo.balancing_name,
                "membuf": membuf,
                "dma": dma,
                "regfile": regfile,
                "cycles": int(point.cycles),
                "area_um2": float(point.area_um2),
                "energy_pj": round(float(point.energy_pj), 3),
                "utilization": float(point.utilization),
                "feasible": all(c.satisfied_by(point) for c in constraints),
            }
        )
    return payload


def halving_autotune_suite(
    suite: Suite,
    objective: str = "cycles",
    eta: int = 2,
    budget: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: Optional[CompileCache] = None,
    space: Optional[DesignSpace] = None,
    pool=None,
    constraints: Union[str, Sequence[Constraint], None] = None,
    on_rung: Optional[Callable[[Dict[str, object]], None]] = None,
) -> HalvingResult:
    """Pick the Pareto-best design point per layer of ``suite`` by
    successive halving.

    ``space`` defaults to the *widened* suite space
    (:func:`~repro.dse.space.suite_design_space` with ``wide=True``);
    ``budget`` caps the candidate combos per layer, i.e. rung-0 sizing
    (a stratified sample across the transform axis, baseline always
    kept); ``eta`` is
    both the per-rung keep fraction (top ``1/eta``) and the cap growth
    factor; ``constraints`` filters the final frontier
    (:func:`parse_constraints` grammar) -- note a binding constraint can
    force a winner off the objective optimum, in which case the
    never-worse-than-fixed guarantee is deliberately traded away.
    ``on_rung`` observes rung start/finish events (the serve daemon
    forwards them to clients as ``trace`` messages).
    """
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
        )
    if isinstance(constraints, str):
        constraints = parse_constraints(constraints)
    constraints = list(constraints or [])
    space = space if space is not None else suite_design_space(suite, wide=True)
    baseline_names = (
        suite.transform_name, suite.sparsity_name, suite.balancing_name
    )
    combos = budgeted_combos(space.combos(), budget, require=baseline_names)
    baseline_combo = next(
        (
            combo
            for combo in combos
            if combo.names == baseline_names and combo.is_default_uarch
        ),
        None,
    )
    if baseline_combo is None:
        raise SuiteError(
            f"suite {suite.name!r}: the fixed baseline design"
            f" {baseline_names!r} is not in the autotuning space; autotuned"
            " aggregates would not be comparable to the fixed sweep"
        )

    ladder = fidelity_ladder(_suite_full_cap(suite), eta)
    tracer = get_tracer()
    started = time.perf_counter()

    survivors: List[List[DesignCombo]] = [list(combos) for _ in suite.cases]
    rung_stats: List[RungStats] = []
    final_outcomes: List[List[Mapping[str, object]]] = []
    report = None

    def emit(event: Dict[str, object]) -> None:
        tracer.instant(
            str(event["event"]), component="autotune.halving",
            **{k: v for k, v in event.items() if k != "event"},
        )
        if on_rung is not None:
            on_rung(dict(event))

    for rung_index, cap in enumerate(ladder):
        final = cap is None
        stats = RungStats(rung_index, cap)

        # One flat candidate list across all layers -> one
        # evaluate_sweep call per rung (pool/store/dedup all apply).
        entries: List[Tuple[int, DesignCombo]] = []
        candidates: List[Dict[str, object]] = []
        tensor_table: Dict[str, Mapping[str, np.ndarray]] = {}
        for case_index, case in enumerate(suite.cases):
            if final:
                bounds, tensors, clipped = case.bounds, case.tensors, False
            else:
                bounds, tensors, clipped = _clip_case(case, cap)
            tensors_key = f"{case.name}@cap{cap}" if clipped else case.name
            tensor_table.setdefault(tensors_key, tensors)
            fidelity = f"cap{cap}" if clipped else None
            for combo in survivors[case_index]:
                entries.append((case_index, combo))
                candidates.append(
                    combo.candidate(
                        name=f"{case.name} @ {combo.label}"
                        + ("" if not clipped else f" @ rung{rung_index}"),
                        bounds=bounds,
                        tensors_key=tensors_key,
                        fidelity=fidelity,
                        want_energy=final,
                        want_digest=final,
                        # The baseline must compile; exploration combos
                        # may be illegal and are pruned (or, at reduced
                        # fidelity, carried) per layer.
                        skip_illegal=combo.key != baseline_combo.key,
                    )
                )
        stats.candidates = len(candidates)
        emit(
            {
                "event": "rung_start",
                "rung": rung_index,
                "fidelity": stats.fidelity,
                "candidates": stats.candidates,
                "layers": len(suite.cases),
            }
        )

        outcomes, report = evaluate_sweep(
            suite.spec,
            None,
            None,
            candidates,
            element_bits=suite.element_bits,
            skip_illegal=True,
            jobs=jobs,
            cache=cache,
            tensor_table=tensor_table,
            pool=pool,
        )

        per_layer: List[List[Tuple[DesignCombo, Mapping[str, object]]]] = [
            [] for _ in suite.cases
        ]
        for (case_index, combo), outcome in zip(entries, outcomes):
            per_layer[case_index].append((combo, outcome))
            if outcome["status"] == "ok":
                stats.evaluated += 1
            else:
                stats.illegal += 1

        if final:
            final_outcomes = per_layer
            rung_stats.append(stats)
            emit(
                {
                    "event": "rung_finish",
                    "rung": rung_index,
                    "fidelity": stats.fidelity,
                    "evaluated": stats.evaluated,
                    "illegal": stats.illegal,
                    "survivors": 0,
                }
            )
            break

        # Successive halving: per layer, keep the top 1/eta on the rung
        # objective plus the three unconditional survivor classes.
        previous_leader: Optional[DesignCombo] = None
        for case_index in range(len(suite.cases)):
            ranked = sorted(
                (
                    (combo, outcome)
                    for combo, outcome in per_layer[case_index]
                    if outcome["status"] == "ok"
                ),
                key=lambda pair: (
                    int(pair[1]["cycles"]),
                    float(pair[1]["area_um2"]),
                    pair[0].label,
                ),
            )
            keep_n = max(1, math.ceil(len(ranked) / eta))
            keep_keys = {combo.key for combo, _ in ranked[:keep_n]}
            keep_keys.add(baseline_combo.key)
            if previous_leader is not None:
                keep_keys.add(previous_leader.key)
            carried = [
                combo
                for combo, outcome in per_layer[case_index]
                if outcome["status"] != "ok"
            ]
            stats.carried += len(carried)
            keep_keys.update(combo.key for combo in carried)
            next_survivors = [
                combo
                for combo in survivors[case_index]
                if combo.key in keep_keys
            ]
            survivors[case_index] = next_survivors
            stats.survivors += len(next_survivors)
            if ranked:
                previous_leader = ranked[0][0]

        rung_stats.append(stats)
        emit(
            {
                "event": "rung_finish",
                "rung": rung_index,
                "fidelity": stats.fidelity,
                "evaluated": stats.evaluated,
                "illegal": stats.illegal,
                "survivors": stats.survivors,
            }
        )

    elapsed = time.perf_counter() - started

    decisions: List[LayerDecision] = []
    for case_index, case in enumerate(suite.cases):
        layer = final_outcomes[case_index]
        evaluated = _layer_points(
            [combo for combo, _ in layer],
            [outcome for _, outcome in layer],
        )
        if not evaluated:
            raise SuiteError(
                f"suite {suite.name!r}: no legal design point for layer"
                f" {case.name!r}"
            )
        points = [point for _combo, point, _out in evaluated]
        winner_point, frontier = select_winner(points, objective)
        by_label = {
            point.name: (combo, outcome)
            for combo, point, outcome in evaluated
        }
        feasible = [
            point
            for point in frontier
            if all(c.satisfied_by(point) for c in constraints)
        ]
        if constraints:
            if not feasible:
                clause = ",".join(str(c) for c in constraints)
                raise SuiteError(
                    f"suite {suite.name!r}: no frontier point of layer"
                    f" {case.name!r} satisfies --constraint {clause}"
                )
            winner_point = _best(feasible, objective)
        winner_combo, winner_outcome = by_label[winner_point.name]
        fixed_outcome = next(
            outcome
            for combo, _point, outcome in evaluated
            if combo.key == baseline_combo.key
        )
        decisions.append(
            LayerDecision(
                case,
                winner_combo,
                winner_outcome,
                fixed_outcome,
                frontier_points=_frontier_payload(
                    frontier, by_label, constraints
                ),
                evaluated=len(evaluated),
                illegal=len(layer) - len(evaluated),
            )
        )

    return HalvingResult(
        suite,
        objective,
        decisions,
        space,
        combos,
        budget,
        report,
        elapsed,
        cache,
        eta=eta,
        ladder=ladder,
        rungs=rung_stats,
        constraints=constraints,
    )


def sweep_suite(
    suite: Suite,
    autotune: bool = False,
    halving: bool = False,
    eta: int = 2,
    objective: str = "cycles",
    budget: Optional[int] = None,
    constraints: Union[str, Sequence[Constraint], None] = None,
    jobs: Optional[int] = None,
    cache: Optional[CompileCache] = None,
    pool=None,
    on_row: Optional[Callable[[int, Dict[str, object]], None]] = None,
    on_rung: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Union[SuiteResult, HalvingResult]:
    """The one ``repro sweep`` dispatch, shared by the CLI and the
    serve daemon: maps the sweep mode to the autotuner's (eta, space).

    * neither flag -- the fixed-design :func:`evaluate_suite` sweep;
    * ``halving`` -- successive halving at ``eta`` over the widened
      space;
    * ``autotune`` alone -- ``eta=1`` (one exact rung, i.e. exhaustive)
      over the non-widened :func:`suite_design_space`.

    ``on_row(index, row)`` sees every result row: streamed as layers
    finish for the fixed sweep, once the winners are picked for the
    autotuner.  ``constraints`` filters the autotuned frontier.
    """
    if not (autotune or halving):
        return evaluate_suite(
            suite, jobs=jobs, cache=cache, on_row=on_row, pool=pool
        )
    space = None if halving else suite_design_space(suite)
    result = halving_autotune_suite(
        suite,
        objective=objective,
        eta=eta if halving else 1,
        budget=budget,
        jobs=jobs,
        cache=cache,
        space=space,
        pool=pool,
        constraints=constraints,
        on_rung=on_rung,
    )
    if on_row is not None:
        for index, row in enumerate(result.rows):
            on_row(index, row)
    return result
