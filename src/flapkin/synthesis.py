"""Dimensional synthesis: fit link dimensions to a target gait.

Global search by differential evolution (rand/1/bin, F=0.7, CR=0.9) over a
bounded parameter box mapped onto a fixed mechanism topology, followed by a
Nelder-Mead polish of the best candidate. Fully deterministic given the seed.

The trial vectors of one generation are independent, so each generation is
built as one block: its random draws are five block calls (the three picks of
every row, the crossover uniforms, the forced components), and mutation,
clipping and crossover act on the (P, dim) population at once. Each
generation (and the initial population) is costed in one `population_costs`
call: the design space maps the (B, dim) block of candidates onto a marker
table of the template, the dyad plan sweeps all B mechanisms at once, and
`gait` measures the B wingbeats along the sample axis of (B, N) arrays; a
dyad keeps its assembly mode, and only samples where its roots may meet are
looked at one by one. Templates the dyad plan cannot decompose are swept by
Newton, one row after another. What a call needs but X does not change (the
template's marker table, the columns to check, the crank angles) is built
once. The wingbeat rules and metrics are `gait`'s; the cost only weighs them.

The polish is batched the same way: each simplex step costs every point it
might need (reflection, expansion and both contractions, one block computed as
scipy computes each, or the N points of a shrink) in one `population_costs`
call, then takes the costs in the order a one-point-at-a-time Nelder-Mead
evaluates them, so it reaches the same points. Calls are nearly all fixed
cost, so a step's call also costs the points of the likeliest next step, which
that step takes if they are its own, bit for bit; between calls a step is a few
block operations on the simplex and comparisons of Python floats.
`objective`, the one-row case of `population_costs`, serves callers that cost
one candidate.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import BudgetTooSmallError, DisconnectedError, EmptyDesignSpaceError, SynthesisError
from .gait import (check_samples, crank_angles, min_transmission_angle, require_wingbeat, stroke_metrics,
                   wingbeat_series)
from .geometry import Point2
from .kinematics import Markers, PoseBatch, marker_table, sweep_arrays
from .mechanism import CompliantHinge, Mechanism, fourbar_sides, mobility, validate_mechanism

ASSEMBLY_FAILURE_COST = 1.0e6
METRIC_FAILURE_COST = 1.0e5
PENALTY = 1.0e3
OBJECTIVE_SAMPLES = 128
EXTENSION_ATTAIN_TOL = 0.02  # a feasible extension range reaches within this of each end of the target's
WEIGHT_KEYS = frozenset({"plunge_amplitude", "extension_min", "extension_max"})  # the metric terms

GaitTerms = namedtuple("GaitTerms", "closed zero_reach coincident reverses amp ext_min ext_max area_ratio mu")
# a GaitSpec's graded bounds, in the order the cost adds their penalties and the report names them: (violation,
# field, spec-file key, test of the bound b, its text, margin of `GaitTerms` t over b (> 0: broken), detail)
BOUNDS = (
    ("area_ratio", "area_ratio_max", "area_ratio_max", lambda b: 0.0 < b < math.inf, "positive and finite",
     lambda t, b: t.area_ratio - b, lambda t, b: f"up/down area ratio {t.area_ratio:.3f} is above {b:.3f}"),
    ("min_transmission_angle", "min_transmission_angle", "min_transmission_angle_rad", math.isfinite, "finite",
     lambda t, b: b - t.mu,
     lambda t, b: f"minimum transmission angle {math.degrees(t.mu):.2f} deg is below {math.degrees(b):.2f} deg"),
)


@dataclass(frozen=True)
class GaitSpec:
    """Synthesis target: desired gait metrics plus hard constraints, the graded ones one `BOUNDS` row each."""

    plunge_amplitude: float
    extension_range: tuple[float, float]
    area_ratio_max: float = 0.9
    min_transmission_angle: float = math.radians(30.0)
    weights: dict[str, float] = field(default_factory=lambda: {
        "plunge_amplitude": 1.0, "extension_min": 1.0, "extension_max": 1.0})

    def __post_init__(self):
        if len(self.extension_range) != 2 or not (0.0 <= self.extension_range[0] < self.extension_range[1] <= 1.0):
            raise ValueError(f"extension_range must be (min, max), 0 <= min < max <= 1, got {self.extension_range}")
        if not math.isfinite(self.plunge_amplitude):
            raise ValueError("plunge amplitude must be finite")
        for _, name, _, ok, need, _, _ in BOUNDS:
            if not ok(bound := getattr(self, name)):
                raise ValueError(f"{name} must be {need}, got {bound}")
        if unknown := sorted(set(self.weights) - WEIGHT_KEYS):
            raise ValueError(f"unknown weight {unknown[0]!r}; weights are {', '.join(sorted(WEIGHT_KEYS))}")
        w = self.weights.values()
        if not all(0.0 <= v < math.inf for v in w) or not any(w):
            raise ValueError("weights must be finite, nonnegative and not all zero")


@dataclass(frozen=True)
class Parameter:
    name: str
    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper) and self.lower < self.upper):
            raise ValueError(f"parameter {self.name!r} needs finite lower < upper")


@dataclass(frozen=True)
class DesignSpace:
    """Bounded parameters addressing fields of a fixed mechanism template.

    Parameter names are paths:
      link.<id>.marker.<name>.x | .y      marker coordinate
      joint.<id>.stiffness                compliant hinge stiffness
      joint.<id>.rest_angle               compliant hinge rest angle
    The cost weighs only the marker coordinates: a hinge path is accepted and
    `apply` (hence `synthesize --out`) keeps its value, but no cost weighs it.
    """

    template: Mechanism
    parameters: tuple[Parameter, ...]
    transmission_joints: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.parameters)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([p.lower for p in self.parameters])
        hi = np.array([p.upper for p in self.parameters])
        return lo, hi

    def __post_init__(self):
        require_wingbeat(self.template)
        validate_mechanism(self.template).raise_first_error()
        self._paths  # every parameter path and transmission joint is checked before anything is costed

    @cached_property
    def _paths(self) -> tuple[Markers, np.ndarray, np.ndarray, dict[str, dict[str, int]]]:
        """The parameter paths, read once: the template's marker table, the (2, K) pairs (parameter column,
        table column) of the edited x and of the edited y coordinates, and the hinge writes (joint id -> field
        -> parameter column). Each path is checked as it is read, so the first bad one raises SynthesisError:
        it is malformed or repeated, or names a link, marker or joint the template lacks, or a joint that is
        not a compliant hinge. A transmission joint the template lacks raises it next."""
        table = marker_table(self.template)
        links, joints = {l.id for l in self.template.links}, {j.id: j for j in self.template.joints}
        pairs, hinges = {"x": [], "y": []}, {}  # component -> (parameter, table column) pairs; the hinge writes
        for i, p in enumerate(self.parameters):
            parts = p.name.split(".")
            if not (parts[0] == "link" and len(parts) == 5 and parts[2] == "marker" and parts[4] in ("x", "y")
                    or parts[0] == "joint" and len(parts) == 3 and parts[2] in ("stiffness", "rest_angle")):
                raise SynthesisError(f"unknown parameter path {p.name!r}", code="BAD_PARAMETER")
            if p.name in (q.name for q in self.parameters[:i]):
                raise SynthesisError(f"parameter path {p.name!r} appears twice", code="BAD_PARAMETER")
            if parts[0] == "link":
                if parts[1] not in links:
                    raise SynthesisError(f"template has no link {parts[1]!r}", code="BAD_PARAMETER")
                if (ref := (parts[1], parts[3])) not in table.columns:
                    raise SynthesisError(f"link {parts[1]!r} has no marker {parts[3]!r}", code="BAD_PARAMETER")
                pairs[parts[4]].append((i, table.columns[ref]))
            elif parts[1] not in joints:
                raise SynthesisError(f"template has no joint {parts[1]!r}", code="BAD_PARAMETER")
            elif not isinstance(joints[parts[1]].kind, CompliantHinge):
                raise SynthesisError(f"joint {parts[1]!r} is not a compliant hinge", code="BAD_PARAMETER")
            else:
                hinges.setdefault(parts[1], {})[parts[2]] = i
        for jid in self.transmission_joints:
            if jid not in joints:
                raise SynthesisError(f"template has no transmission joint {jid!r}", code="BAD_PARAMETER")
        return (table, *(np.array(pairs[c], dtype=np.intp).reshape(-1, 2).T for c in "xy"), hinges)

    def apply(self, x: np.ndarray) -> Mechanism:
        """Instantiate the template with parameter vector x. Each edited marker is read from the row
        `markers` writes for x, so this is the design that row costed. An edited stiffness drops the
        hinge's geometry, which no longer gives it."""
        table, (_, cx), (_, cy), hinges = self._paths
        row, edited = self.markers(np.atleast_2d(x)).points[0].tolist(), {*cx.tolist(), *cy.tolist()}
        at = {ref: Point2(row[i].real, row[i].imag) for ref, i in table.columns.items() if i in edited}
        links = tuple(replace(l, markers={k: at.get((l.id, k), p) for k, p in l.markers.items()})
                      for l in self.template.links)
        joints = tuple(replace(j, kind=replace(j.kind, **{f: float(x[i]) for f, i in edits.items()},
                                               geometry=None if "stiffness" in edits else j.kind.geometry))
                       if (edits := hinges.get(j.id)) else j for j in self.template.joints)
        return replace(self.template, links=links, joints=joints)

    def admissible(self, X: np.ndarray) -> np.ndarray:
        """Rows of X (B, dim) that `apply` accepts: every column (a marker
        coordinate or a hinge field) finite, hinge stiffnesses positive."""
        ok = np.isfinite(X).all(axis=1)
        positive = [e["stiffness"] for e in self._paths[3].values() if "stiffness" in e]
        return ok & (X[:, positive] > 0.0).all(axis=1) if positive else ok

    def markers(self, X: np.ndarray) -> Markers:
        """Marker table of the B mechanisms `apply` builds from the rows of X
        (B, dim), without building them: the template's row B times, with the
        edited coordinates written from the columns of X."""
        table, (px, cx), (py, cy), _ = self._paths
        points = np.repeat(table.points, len(X), axis=0)
        points.real[:, cx] = X[:, px]
        points.imag[:, cy] = X[:, py]
        return Markers(table.columns, points)


@dataclass(frozen=True)
class SynthesisResult:
    mechanism: Mechanism
    parameters: np.ndarray
    cost: float
    feasible: bool
    evaluations: int
    seed: int


def _gait_terms(m: Mechanism, pb: PoseBatch, joints: tuple[str, ...]) -> GaitTerms:
    """The terms a cost weighs and a report checks, each (B,), of the sweeps in pb: whether a row closes at
    every sample, `gait`'s reach-rule masks, stroke reversal, plunge amplitude, extension min and max, the area
    ratio (on the rows that close and keep the reach rule) and the smallest transmission angle at `joints`:
    none means a four-bar's follower joint (by topology alone), and +inf for a chain that is no four-bar."""
    closed = pb.failed_at == len(pb.thetas)
    _, plunge, extension, area, zero_reach, coincident = wingbeat_series(m, pb)
    amp, ext_min, ext_max, _, reverses, ratio = stroke_metrics(plunge, extension, area,
                                                                closed & ~zero_reach & ~coincident)
    joints = joints or ((loop[1],) if (loop := fourbar_sides(m)) else ())
    mu = min_transmission_angle(m, pb, joints) if joints else np.full(len(closed), math.inf)
    return GaitTerms(closed, zero_reach, coincident, reverses, amp, ext_min, ext_max, ratio, mu)


def population_costs(space: DesignSpace, spec: GaitSpec, X: np.ndarray,
                     samples: int = OBJECTIVE_SAMPLES) -> np.ndarray:
    """Synthesis cost of every row of X (B, dim) in one array pass.

    All B candidates are swept by one `sweep_arrays` call with their marker table (by the dyad plan
    together, by Newton one row after another), then this weighs the metrics `gait` takes along the sample
    axis and adds the penalty of each `BOUNDS` row, in table order. A row's cost depends on that row alone.
    Failures come back as large finite penalties: 1e6 + 1 for a candidate that cannot be built, 1e6 + 1 -
    k/N for a sweep that fails at sample k of N, 1e5 for a degenerate gait (one that breaks the reach rule
    or has no stroke reversal).
    """
    check_samples(samples)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    costs = np.full(len(X), ASSEMBLY_FAILURE_COST + 1.0)
    m, rows = space.template, space.admissible(X).nonzero()[0]
    if not len(rows):
        return costs
    pb = sweep_arrays(m, crank_angles(samples), markers=space.markers(X[rows]))
    cost = ASSEMBLY_FAILURE_COST + (1.0 - pb.failed_at / samples)
    t = _gait_terms(m, pb, space.transmission_joints)
    degenerate = t.zero_reach | t.coincident | ~t.reverses
    w = spec.weights
    metric = (w.get("plunge_amplitude", 0.0) * (t.amp - spec.plunge_amplitude) ** 2
              + w.get("extension_min", 0.0) * (t.ext_min - spec.extension_range[0]) ** 2
              + w.get("extension_max", 0.0) * (t.ext_max - spec.extension_range[1]) ** 2)
    # hard constraints as graded penalties, scaled by the largest weight so the whole cost is homogeneous of
    # degree one in the weights; a margin that is not positive (or NaN) adds 0.0, even where pen is inf
    pen = PENALTY * max(w.values())
    for margin in (margin_of(t, getattr(spec, name)) for _, name, _, _, _, margin_of, _ in BOUNDS):
        metric += np.where(margin > 0.0, pen * margin, 0.0)
    cost[t.closed] = np.where(degenerate, METRIC_FAILURE_COST, metric)[t.closed]
    costs[rows] = cost
    return costs


def objective(x: np.ndarray, space: DesignSpace, spec: GaitSpec) -> float:
    """Scalar synthesis cost: the one-row case of `population_costs`."""
    return float(population_costs(space, spec, np.asarray(x, dtype=float)[None])[0])


_TRIAL_A, _TRIAL_B = np.array([[2.0], [3.0], [1.5], [0.5]]), np.array([[1.0], [2.0], [0.5], [-0.5]])


def _trial_points(sim: np.ndarray) -> np.ndarray:
    """The (4, N) trial points of a step from the sorted (N + 1, N) simplex sim: scipy's reflection,
    expansion, outside and inside contraction (rho, chi, psi = 1, 2, 0.5) as one block A xbar - B w, by
    the same IEEE operations ((1 - psi) xbar + psi w as 0.5 xbar - (-0.5 w): x - (-y) is x + y)."""
    return _TRIAL_A * (np.add.reduce(sim[:-1], 0) / (len(sim) - 1)) - _TRIAL_B * sim[-1]


def _nelder_mead(costs: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, maxfev: int,
                 xatol: float, fatol: float) -> tuple[np.ndarray, np.ndarray]:
    """Nelder-Mead simplex search from x0 that costs each step's points in one call.

    `costs` maps a (B, N) block of points to their B costs. The search is
    scipy's `minimize(method="Nelder-Mead")` without bounds or adaptive
    parameters (as of scipy 1.17), operation for operation: the same simplex
    and trial-point arithmetic (`_trial_points`, one block), the same argsorts
    and the same xatol/fatol stop. Where scipy evaluates one point at a time,
    this costs every point a step might need at once: the initial simplex, then
    reflection, expansion, outside and inside contraction together (all four
    depend only on the centroid and the worst vertex), then a shrink's N points.
    It then consumes the costs in the order scipy would evaluate them, up to maxfev.
    Each call also costs the next step's points should the inside contraction
    replace the worst vertex and sort first or second (the centroid's sum adds
    those two first: the same bits); that step looks its points up by bytes.
    Returns the consumed points (n, N) and their costs (n,), in that order.
    """
    sigma, nonzdelt, zdelt = 0.5, 0.05, 0.00025
    x0 = np.asarray(x0, dtype=float)
    N = len(x0)
    sim, k = np.tile(x0, (N + 1, 1)), np.arange(N)  # vertex k + 1 moves coordinate k
    sim[k + 1, k] = np.where(x0 != 0, (1 + nonzdelt) * x0, zdelt)
    seen_x: list[np.ndarray] = []
    seen_f: list[np.ndarray] = []
    room = maxfev

    def consume(X: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Take the leading points of X that fit under maxfev; their costs."""
        nonlocal room
        seen_x.append(X[:room].copy())
        seen_f.append(f[:room])
        room -= len(seen_f[-1])
        return seen_f[-1]

    fsim = np.full(N + 1, np.inf)
    f = consume(sim, costs(sim[:room]))
    fsim[:len(f)] = f
    for _ in range(2):  # scipy sorts twice here
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]

    ahead: dict[bytes, np.ndarray] = {}  # the look-ahead trial block's bytes -> its costs
    while room:
        if np.abs(sim[1:] - sim[0]).max() <= xatol and np.abs(fsim[0] - fsim[1:]).max() <= fatol:
            break
        trial = _trial_points(sim)
        ftrial = ahead.get(trial.tobytes())
        if ftrial is None:  # also cost the next block if the inside contraction sorts first
            guess = _trial_points(np.concatenate((trial[3:], sim[:-1])))
            f = costs(np.concatenate((trial, guess)))
            ftrial, ahead = f[:4], {guess.tobytes(): f[4:]}
        fxr, fxe, fxc, fxcc = ftrial.tolist()
        f_best, f_second_worst, f_worst = fsim[[0, -2, -1]].tolist()
        consume(trial[:1], ftrial[:1])
        # the second point to consume, and the point that replaces the worst
        # vertex (None: shrink)
        if fxr < f_best:
            second, pick = 1, (1 if fxe < fxr else 0)
        elif fxr < f_second_worst:
            second, pick = None, 0
        elif fxr < f_worst:
            second, pick = 2, (2 if fxc <= fxr else None)
        else:
            second, pick = 3, (3 if fxcc < f_worst else None)
        if second is not None:
            if not room:
                break
            consume(trial[second:second + 1], ftrial[second:second + 1])
        if pick is not None:
            sim[-1] = trial[pick]
            fsim[-1] = ftrial[pick]
        elif not room:
            break
        else:  # shrink towards the best vertex
            sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
            f = consume(sim[1:], costs(sim[1:]))
            fsim[1:1 + len(f)] = f
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]
    return np.concatenate(seen_x), np.concatenate(seen_f)


def _trial_block(rng: np.random.Generator, pop: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 f_weight: float = 0.7, crossover: float = 0.9) -> np.ndarray:
    """One generation's rand/1/bin trial vectors, a row per member of pop (P, dim).

    The draws are five block calls, in this order: each row's first, second
    and third pick among the P - 1, P - 2 and P - 3 members left (shifted past
    the picks before it, then past the row itself), the (P, dim) crossover
    uniforms and the component each row always takes from its mutant. Every
    row's three picks are thus uniform over the ordered triples of distinct
    members other than the row.
    """
    size, dim = pop.shape
    r1 = rng.integers(size - 1, size=size)
    r2 = rng.integers(size - 2, size=size)
    r2 += r2 >= r1
    r3 = rng.integers(size - 3, size=size)
    r3 += r3 >= np.minimum(r1, r2)
    r3 += r3 >= np.maximum(r1, r2)
    uniform = rng.random((size, dim))
    forced = rng.integers(dim, size=size)
    rows = np.arange(size)
    r1, r2, r3 = (r + (r >= rows) for r in (r1, r2, r3))
    mutant = np.clip(pop[r1] + f_weight * (pop[r2] - pop[r3]), lo, hi)
    cross = uniform < crossover
    cross[rows, forced] = True
    return np.where(cross, mutant, pop)


def synthesize(space: DesignSpace, spec: GaitSpec, budget: int, seed: int) -> SynthesisResult:
    """Differential evolution plus Nelder-Mead polish at OBJECTIVE_SAMPLES, deterministic per seed."""
    if space.dim == 0:
        raise EmptyDesignSpaceError("design space has no parameters")
    dim = space.dim
    pop_size = 15 * dim
    if budget < pop_size:
        raise BudgetTooSmallError(
            f"budget {budget} is below the population size {pop_size} (15 x dim)")
    lo, hi = space.bounds()
    rng = np.random.default_rng(seed)

    with np.errstate(all="ignore"):  # a design whose numbers overflow fails its sweep: a cost, not a warning
        pop = lo + rng.random((pop_size, dim)) * (hi - lo)
        costs = population_costs(space, spec, pop)
        evals = pop_size
        while evals + pop_size <= budget:
            trials = _trial_block(rng, pop, lo, hi)
            trial_costs = population_costs(space, spec, trials)
            evals += pop_size
            better = trial_costs <= costs
            pop[better] = trials[better]
            costs[better] = trial_costs[better]

        best_idx = int(np.argmin(costs))
        best_x, best_cost = pop[best_idx].copy(), float(costs[best_idx])

        # simplex polish on the DE winner, capped overhead
        xs, fs = _nelder_mead(lambda X: population_costs(space, spec, np.clip(X, lo, hi)),
                              best_x, maxfev=200, xatol=1e-12, fatol=1e-14)
        for x, c in zip(xs, fs):
            if c < best_cost:
                best_cost, best_x = float(c), np.clip(x, lo, hi)
        evals += len(fs)

        mech = space.apply(best_x)
        report = feasibility_report(mech, spec, space.transmission_joints)
    return SynthesisResult(mech, best_x, best_cost, not report, evals, seed)


@dataclass(frozen=True)
class ConstraintViolation:
    constraint: str
    margin: float
    detail: str


def feasibility_report(m: Mechanism, spec: GaitSpec,
                       transmission_joints: tuple[str, ...] = ()) -> list[ConstraintViolation]:
    """Hard-constraint check at OBJECTIVE_SAMPLES, the one-row reading of the terms
    `population_costs` weighs, in this order: mobility one, full revolution, the
    graded `BOUNDS` in table order (the transmission angle at a four-bar's
    follower joint if no joints are given), `gait`'s reach rule, extension-range
    attainment and stroke reversal. Empty = feasible. A failed mobility, sweep
    or reach rule ends the report.

    Margins are positive amounts by which a constraint is violated.
    """
    try:
        dof = mobility(m)
    except DisconnectedError as e:
        return [ConstraintViolation("mobility", 1.0, str(e))]
    if dof != 1:
        return [ConstraintViolation("mobility", abs(dof - 1), f"Gruebler mobility is {dof}, expected 1")]
    pb = sweep_arrays(m, crank_angles(OBJECTIVE_SAMPLES))
    t = GaitTerms._make(v[0].item() for v in _gait_terms(m, pb, transmission_joints))
    if not t.closed:
        k = int(pb.failed_at[0])
        return [ConstraintViolation("full_revolution", 1.0 - k / OBJECTIVE_SAMPLES,
                                    f"not assemblable from theta={pb.thetas[k]:.4f} rad onward ({pb.errors[0]})")]
    out = [ConstraintViolation(constraint, margin, detail(t, getattr(spec, name)))
           for constraint, name, _, _, _, margin_of, detail in BOUNDS
           if (margin := margin_of(t, getattr(spec, name))) > 0.0]
    if t.zero_reach or t.coincident:
        return out + [ConstraintViolation("gait", 1.0, "gait evaluation failed: " + (
            "maximum reach over the sweep is zero" if t.zero_reach
            else "shoulder and wingtip coincide during the sweep"))]
    lo, hi, (lo_t, hi_t) = t.ext_min, t.ext_max, spec.extension_range
    miss = max(lo - (lo_t + EXTENSION_ATTAIN_TOL), (hi_t - EXTENSION_ATTAIN_TOL) - hi, 0.0)
    if miss > 0.0:
        out.append(ConstraintViolation("extension_range", miss, f"attained extension range ({lo:.3f}, {hi:.3f})"
                                       f" cannot realize the target ({lo_t:.3f}, {hi_t:.3f})"))
    if not t.reverses:
        out.append(ConstraintViolation("stroke_reversal", 1.0,
                                       "plunge is monotone over the wingbeat; not a flapping gait"))
    return out
