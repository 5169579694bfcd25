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
Newton, all rows together. What a call needs but X does not change (the
template's marker table, the columns to check, the crank angles) is built
once. The wingbeat rules and metrics are `gait`'s; the cost only weighs them.

The polish is batched the same way: each simplex step costs every point it
might need (reflection, expansion and both contractions, or the N points of a
shrink) in one `population_costs` call, then takes the costs in the order a
one-point-at-a-time Nelder-Mead evaluates them, so it reaches the same points.
Calls are nearly all fixed cost, so a step's call also costs the points of the
likeliest next step, which that step takes if they are its own, bit for bit.
`objective`, the one-row case of `population_costs`, is no longer on the
search path; it serves callers that cost one candidate.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BudgetTooSmallError,
    EmptyDesignSpaceError,
    FlapkinError,
    GaitError,
    SynthesisError,
)
from .gait import (check_samples, gait_from_pose_arrays, min_transmission_angle, require_wingbeat,
                   stroke_metrics, wingbeat_series)
from .geometry import Point2
from .kinematics import Markers, marker_table, sweep_arrays
from .mechanism import CompliantHinge, Mechanism, as_fourbar, mobility

ASSEMBLY_FAILURE_COST = 1.0e6
METRIC_FAILURE_COST = 1.0e5
PENALTY = 1.0e3
OBJECTIVE_SAMPLES = 128
WEIGHT_KEYS = frozenset({"plunge_amplitude", "extension_min", "extension_max"})  # the metric terms


@dataclass(frozen=True)
class GaitSpec:
    """Synthesis target: desired gait metrics plus hard constraints."""

    plunge_amplitude: float
    extension_range: tuple[float, float]
    area_ratio_max: float = 0.9
    min_transmission_angle: float = math.radians(30.0)
    weights: dict[str, float] = field(default_factory=lambda: {
        "plunge_amplitude": 1.0, "extension_min": 1.0, "extension_max": 1.0})

    def __post_init__(self):
        lo, hi = self.extension_range
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"extension range must satisfy 0 <= min < max <= 1, got {self.extension_range}")
        if not (math.isfinite(self.plunge_amplitude) and math.isfinite(self.min_transmission_angle)):
            raise ValueError("plunge amplitude and minimum transmission angle must be finite")
        if not (0.0 < self.area_ratio_max < math.inf):
            raise ValueError("area ratio bound must be positive and finite")
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
        self._edits  # every parameter path and transmission joint is checked before anything is costed

    @cached_property
    def _edits(self) -> tuple[dict, dict]:
        """The parameter paths as columns: link id -> marker -> component ->
        column, and joint id -> field -> column. A path that is malformed,
        repeated, or names a link, marker or joint the template lacks (or a
        joint that is not a compliant hinge), or a transmission joint the
        template lacks, raises SynthesisError."""
        link_edits: dict[str, dict[str, dict[str, int]]] = {}
        joint_edits: dict[str, dict[str, int]] = {}
        for i, p in enumerate(self.parameters):
            parts = p.name.split(".")
            if parts[0] == "link" and len(parts) == 5 and parts[2] == "marker" and parts[4] in ("x", "y"):
                comps = link_edits.setdefault(parts[1], {}).setdefault(parts[3], {})
            elif parts[0] == "joint" and len(parts) == 3 and parts[2] in ("stiffness", "rest_angle"):
                comps = joint_edits.setdefault(parts[1], {})
            else:
                raise SynthesisError(f"unknown parameter path {p.name!r}", code="BAD_PARAMETER")
            if parts[-1] in comps:
                raise SynthesisError(f"parameter path {p.name!r} appears twice", code="BAD_PARAMETER")
            comps[parts[-1]] = i
        links, joints = {l.id: l for l in self.template.links}, {j.id: j for j in self.template.joints}
        for lid, edits in link_edits.items():
            if lid not in links:
                raise SynthesisError(f"template has no link {lid!r}", code="BAD_PARAMETER")
            for mname in edits:
                if mname not in links[lid].markers:
                    raise SynthesisError(f"link {lid!r} has no marker {mname!r}", code="BAD_PARAMETER")
        for jid in joint_edits:
            if jid not in joints:
                raise SynthesisError(f"template has no joint {jid!r}", code="BAD_PARAMETER")
            if not isinstance(joints[jid].kind, CompliantHinge):
                raise SynthesisError(f"joint {jid!r} is not a compliant hinge", code="BAD_PARAMETER")
        for jid in self.transmission_joints:
            if jid not in joints:
                raise SynthesisError(f"template has no transmission joint {jid!r}", code="BAD_PARAMETER")
        return link_edits, joint_edits

    def apply(self, x: np.ndarray) -> Mechanism:
        """Instantiate the template with parameter vector x."""
        link_edits, joint_edits = self._edits
        table = self.markers(np.atleast_2d(x))
        links = tuple(replace(l, markers={**l.markers, **{name: Point2(*table[l.id, name]) for name in edits}})
                      if (edits := link_edits.get(l.id)) else l for l in self.template.links)
        joints = tuple(replace(j, kind=replace(j.kind, **{f: float(x[i]) for f, i in edits.items()}))
                       if (edits := joint_edits.get(j.id)) else j for j in self.template.joints)
        return replace(self.template, links=links, joints=joints)

    @cached_property
    def _table(self) -> Markers:
        return marker_table(self.template)

    def admissible(self, X: np.ndarray) -> np.ndarray:
        """Rows of X (B, dim) that `apply` accepts: every column (a marker
        coordinate or a hinge field) finite, hinge stiffnesses positive."""
        ok = np.isfinite(X).all(axis=1)
        positive = [e["stiffness"] for e in self._edits[1].values() if "stiffness" in e]
        return ok & (X[:, positive] > 0.0).all(axis=1) if positive else ok

    def markers(self, X: np.ndarray) -> Markers:
        """Marker table of the B mechanisms `apply` builds from the rows of X
        (B, dim), without building them: edited coordinates are columns of X."""
        table = dict(self._table)

        def column(i):  # a float when there is one row: all rows agree
            return X[:, i, None] if len(X) > 1 else float(X[0, i])

        for lid, edits in self._edits[0].items():
            for mname, comps in edits.items():
                x, y = table[lid, mname]
                table[lid, mname] = (column(comps["x"]) if "x" in comps else x,
                                     column(comps["y"]) if "y" in comps else y)
        return table


@dataclass(frozen=True)
class SynthesisResult:
    mechanism: Mechanism
    parameters: np.ndarray
    cost: float
    feasible: bool
    evaluations: int
    seed: int


def _positive_part(v: np.ndarray) -> np.ndarray:
    """max(0.0, v) elementwise, as Python's max does it: NaN gives 0."""
    return np.where(v > 0.0, v, 0.0)


@lru_cache(maxsize=8)
def _crank_angles(samples: int) -> np.ndarray:
    """The `samples` crank angles 2 pi k / samples of a cost, as a read-only view."""
    return np.broadcast_to(2.0 * math.pi * np.arange(samples) / samples, (samples,))


def population_costs(space: DesignSpace, spec: GaitSpec, X: np.ndarray,
                     samples: int = OBJECTIVE_SAMPLES) -> np.ndarray:
    """Synthesis cost of every row of X (B, dim) in one array pass.

    All B candidates are swept together (`sweep_arrays` with their marker
    table), then this weighs the metrics `gait` takes along the sample axis.
    A row's cost depends on that row alone. Failures come back as large
    finite penalties: 1e6 + 1 for a candidate that cannot be built, 1e6 + 1 -
    k/N for a sweep that fails at sample k of N, 1e5 for a degenerate gait
    (one that breaks the reach rule or has no stroke reversal).
    """
    check_samples(samples)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    costs = np.full(len(X), ASSEMBLY_FAILURE_COST + 1.0)
    m = space.template
    thetas = _crank_angles(samples)
    try:
        rows = space.admissible(X).nonzero()[0]
        if not len(rows):
            return costs
        pb = sweep_arrays(m, thetas, markers=space.markers(X[rows]))
    except (FlapkinError, np.linalg.LinAlgError):
        return costs
    cost = ASSEMBLY_FAILURE_COST + (1.0 - pb.failed_at / samples)
    closed = pb.failed_at == samples
    _, plunge, extension, area, zero_reach, coincident = wingbeat_series(m, pb)
    amp, ext_min, ext_max, _, reverses, ratio = stroke_metrics(plunge, extension, area,
                                                                closed & ~zero_reach & ~coincident)
    degenerate = zero_reach | coincident | ~reverses
    w = spec.weights
    metric = (w.get("plunge_amplitude", 0.0) * (amp - spec.plunge_amplitude) ** 2
              + w.get("extension_min", 0.0) * (ext_min - spec.extension_range[0]) ** 2
              + w.get("extension_max", 0.0) * (ext_max - spec.extension_range[1]) ** 2)
    # hard constraints as graded penalties; scaled by the largest weight so the
    # whole cost is homogeneous of degree one in the weights
    pen = PENALTY * max(w.values())
    metric += pen * _positive_part(ratio - spec.area_ratio_max)
    if space.transmission_joints:
        mu = min_transmission_angle(m, pb, space.transmission_joints)
        metric += pen * _positive_part(spec.min_transmission_angle - mu)
    cost[closed] = np.where(degenerate, METRIC_FAILURE_COST, metric)[closed]
    costs[rows] = cost
    return costs


def objective(x: np.ndarray, space: DesignSpace, spec: GaitSpec) -> float:
    """Scalar synthesis cost: the one-row case of `population_costs`."""
    return float(population_costs(space, spec, np.asarray(x, dtype=float)[None])[0])


def _nelder_mead(costs: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, maxfev: int,
                 xatol: float, fatol: float) -> tuple[np.ndarray, np.ndarray]:
    """Nelder-Mead simplex search from x0 that costs each step's points in one call.

    `costs` maps a (B, N) block of points to their B costs. The search is
    scipy's `minimize(method="Nelder-Mead")` without bounds or adaptive
    parameters (as of scipy 1.17), operation for operation: the same simplex
    and trial-point arithmetic, the same argsorts and the same xatol/fatol
    stop. Where scipy evaluates one point at a time, this costs every point a
    step might need at once: the initial simplex, then reflection, expansion,
    outside and inside contraction together (all four depend only on the
    centroid and the worst vertex), then a shrink's N points. It then
    consumes the costs in the order scipy would evaluate them, up to maxfev.
    Each call also costs the next step's points should the inside contraction
    replace the worst vertex and sort first or second (the centroid's sum adds
    those two first: the same bits); that step looks its points up by bytes.
    Returns the consumed points (n, N) and their costs (n,), in that order.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.asarray(x0, dtype=float)
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y
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

    def trials(sim: np.ndarray) -> np.ndarray:  # a step's points, from the sorted simplex
        xbar = np.add.reduce(sim[:-1], 0) / N
        return np.stack([(1 + rho) * xbar - rho * sim[-1],                 # reflection
                         (1 + rho * chi) * xbar - rho * chi * sim[-1],     # expansion
                         (1 + psi * rho) * xbar - psi * rho * sim[-1],     # outside contraction
                         (1 - psi) * xbar + psi * sim[-1]])                # inside contraction

    fsim = np.full(N + 1, np.inf)
    f = consume(sim, costs(sim[:room]))
    fsim[:len(f)] = f
    for _ in range(2):  # scipy sorts twice here
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    ahead: dict[bytes, np.ndarray] = {}  # the look-ahead trial block's bytes -> its costs
    while room:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        trial = trials(sim)
        ftrial = ahead.get(trial.tobytes())
        if ftrial is None:  # also cost the next block if the inside contraction sorts first
            guess = trials(np.insert(sim[:-1], 0, trial[3], axis=0))
            f = costs(np.concatenate([trial, guess]))
            ftrial, ahead = f[:4], {guess.tobytes(): f[4:]}
        fxr, fxe, fxc, fxcc = ftrial
        consume(trial[:1], ftrial[:1])
        # the second point to consume, and the point that replaces the worst
        # vertex (None: shrink)
        if fxr < fsim[0]:
            second, pick = 1, (1 if fxe < fxr else 0)
        elif fxr < fsim[-2]:
            second, pick = None, 0
        elif fxr < fsim[-1]:
            second, pick = 2, (2 if fxc <= fxr else None)
        else:
            second, pick = 3, (3 if fxcc < fsim[-1] else None)
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
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
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


EXTENSION_ATTAIN_TOL = 0.02


def feasibility_report(m: Mechanism, spec: GaitSpec,
                       transmission_joints: tuple[str, ...] = ()) -> list[ConstraintViolation]:
    """Hard-constraint check at OBJECTIVE_SAMPLES: full-revolution assemblability,
    mobility one, minimum transmission angle, extension-range attainment, and
    `gait`'s reach rule. Empty = feasible. A mobility other than one is the
    whole report, since a sweep needs a mobility-one chain.

    Margins are positive amounts by which a constraint is violated.
    """
    out: list[ConstraintViolation] = []
    try:
        dof = mobility(m)
    except (FlapkinError, np.linalg.LinAlgError):
        dof = None
    if dof != 1:
        out.append(ConstraintViolation("mobility", abs((dof or 0) - 1),
                                       f"Gruebler mobility is {dof}, expected 1"))
        return out
    thetas = _crank_angles(OBJECTIVE_SAMPLES)
    pb = sweep_arrays(m, thetas)
    if error := pb.errors[0]:
        failed_at = int(pb.failed_at[0])
        out.append(ConstraintViolation(
            "full_revolution", 1.0 - failed_at / OBJECTIVE_SAMPLES,
            f"not assemblable from theta={float(thetas[failed_at]):.4f} rad onward ({error})"))
        return out

    joints = transmission_joints
    if not joints:
        view = as_fourbar(m)
        if view is not None:
            joints = (view.follower_joint,)
    if joints:
        mu_min = float(min_transmission_angle(m, pb, joints)[0])
        if mu_min < spec.min_transmission_angle:
            out.append(ConstraintViolation(
                "min_transmission_angle", spec.min_transmission_angle - mu_min,
                f"minimum transmission angle {math.degrees(mu_min):.2f} deg is below "
                f"{math.degrees(spec.min_transmission_angle):.2f} deg"))

    t = np.arange(OBJECTIVE_SAMPLES) / OBJECTIVE_SAMPLES
    try:
        gt = gait_from_pose_arrays(m, pb, 1.0, t)
        lo, hi = float(gt.extension.min()), float(gt.extension.max())
        lo_t, hi_t = spec.extension_range
        miss = max(lo - (lo_t + EXTENSION_ATTAIN_TOL), (hi_t - EXTENSION_ATTAIN_TOL) - hi, 0.0)
        if miss > 0.0:
            out.append(ConstraintViolation(
                "extension_range", miss,
                f"attained extension range ({lo:.3f}, {hi:.3f}) cannot realize the target "
                f"({lo_t:.3f}, {hi_t:.3f})"))
    except GaitError as e:
        out.append(ConstraintViolation("gait", 1.0, f"gait evaluation failed: {e}"))
    return out
