"""Dimensional synthesis: fit link dimensions to a target gait.

Global search by differential evolution (rand/1/bin, F=0.7, CR=0.9) over a
bounded parameter box mapped onto a fixed mechanism topology, followed by a
Nelder-Mead polish of the best candidate. Fully deterministic given the seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .errors import (
    BudgetTooSmallError,
    EmptyDesignSpaceError,
    FlapkinError,
    GaitError,
    SynthesisError,
)
from .gait import gait_from_pose_arrays, gait_metrics
from .geometry import Point2
from .kinematics import DEFAULT_SETTINGS, SolveSettings, sweep_arrays, transmission_angle_series
from .mechanism import CompliantHinge, Joint, Link, Mechanism, as_fourbar, mobility

ASSEMBLY_FAILURE_COST = 1.0e6
METRIC_FAILURE_COST = 1.0e5
PENALTY = 1.0e3
OBJECTIVE_SAMPLES = 128


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
        if self.area_ratio_max <= 0.0:
            raise ValueError("area ratio bound must be positive")
        if any(w < 0.0 for w in self.weights.values()) or not any(self.weights.values()):
            raise ValueError("weights must be nonnegative and not all zero")


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

    def apply(self, x: np.ndarray) -> Mechanism:
        """Instantiate the template with parameter vector x."""
        link_edits: dict[str, dict[str, dict[str, float]]] = {}
        joint_edits: dict[str, dict[str, float]] = {}
        for p, v in zip(self.parameters, x):
            parts = p.name.split(".")
            if parts[0] == "link" and len(parts) == 5 and parts[2] == "marker":
                link_edits.setdefault(parts[1], {}).setdefault(parts[3], {})[parts[4]] = float(v)
            elif parts[0] == "joint" and len(parts) == 3 and parts[2] in ("stiffness", "rest_angle"):
                joint_edits.setdefault(parts[1], {})[parts[2]] = float(v)
            else:
                raise SynthesisError(f"unknown parameter path {p.name!r}", code="BAD_PARAMETER")
        links = []
        for l in self.template.links:
            edits = link_edits.get(l.id)
            if not edits:
                links.append(l)
                continue
            markers = dict(l.markers)
            for mname, comps in edits.items():
                if mname not in markers:
                    raise SynthesisError(f"link {l.id!r} has no marker {mname!r}", code="BAD_PARAMETER")
                old = markers[mname]
                markers[mname] = Point2(comps.get("x", old.x), comps.get("y", old.y))
            links.append(replace(l, markers=markers))
        joints = []
        for j in self.template.joints:
            edits = joint_edits.get(j.id)
            if not edits:
                joints.append(j)
                continue
            if not isinstance(j.kind, CompliantHinge):
                raise SynthesisError(f"joint {j.id!r} is not a compliant hinge", code="BAD_PARAMETER")
            joints.append(replace(j, kind=replace(j.kind, **edits)))
        return replace(self.template, links=tuple(links), joints=tuple(joints))


@dataclass(frozen=True)
class SynthesisResult:
    mechanism: Mechanism
    parameters: np.ndarray
    cost: float
    feasible: bool
    evaluations: int
    seed: int


def _evaluate_candidate(space: DesignSpace, spec: GaitSpec, x: np.ndarray,
                        samples: int, settings: SolveSettings):
    """(cost, metrics or None) for one parameter vector."""
    try:
        m = space.apply(x)
    except (ValueError, SynthesisError):
        return ASSEMBLY_FAILURE_COST + 1.0, None
    thetas = 2.0 * math.pi * np.arange(samples) / samples
    try:
        pa = sweep_arrays(m, thetas, settings)
    except (FlapkinError, np.linalg.LinAlgError):
        return ASSEMBLY_FAILURE_COST + 1.0, None
    if pa.failed_at is not None:
        frac = 1.0 - pa.failed_at / samples
        return ASSEMBLY_FAILURE_COST + frac, None
    try:
        t = np.arange(samples) / samples
        gt = gait_from_pose_arrays(m, pa, 1.0, t)
        mu = None
        if space.transmission_joints:
            mu = np.minimum.reduce([transmission_angle_series(m, pa, jid)
                                    for jid in space.transmission_joints])
        metrics = gait_metrics(gt, mu)
    except GaitError:
        return METRIC_FAILURE_COST, None

    cost = 0.0
    w = spec.weights
    cost += w.get("plunge_amplitude", 0.0) * (metrics.plunge_amplitude - spec.plunge_amplitude) ** 2
    lo, hi = metrics.extension_range
    cost += w.get("extension_min", 0.0) * (lo - spec.extension_range[0]) ** 2
    cost += w.get("extension_max", 0.0) * (hi - spec.extension_range[1]) ** 2
    # hard constraints as graded penalties; scaled by the largest weight so the
    # whole cost is homogeneous of degree one in the weights
    pen = PENALTY * max(w.values())
    cost += pen * max(0.0, metrics.area_ratio_up_down - spec.area_ratio_max)
    if metrics.min_transmission_angle is not None:
        cost += pen * max(0.0, spec.min_transmission_angle - metrics.min_transmission_angle)
    return cost, metrics


def objective(x: np.ndarray, space: DesignSpace, spec: GaitSpec,
              samples: int = OBJECTIVE_SAMPLES,
              settings: SolveSettings = DEFAULT_SETTINGS) -> float:
    """Scalar synthesis cost; failures come back as large finite penalties."""
    return _evaluate_candidate(space, spec, np.asarray(x, dtype=float), samples, settings)[0]


def synthesize(space: DesignSpace, spec: GaitSpec, budget: int, seed: int,
               samples: int = OBJECTIVE_SAMPLES,
               settings: SolveSettings = DEFAULT_SETTINGS) -> SynthesisResult:
    """Differential evolution plus Nelder-Mead polish, deterministic per seed."""
    if space.dim == 0:
        raise EmptyDesignSpaceError("design space has no parameters")
    dim = space.dim
    pop_size = 15 * dim
    if budget < pop_size:
        raise BudgetTooSmallError(
            f"budget {budget} is below the population size {pop_size} (15 x dim)")
    lo, hi = space.bounds()
    rng = np.random.default_rng(seed)
    evals = 0

    def cost_of(x):
        return objective(x, space, spec, samples, settings)

    def eval_population(xs):
        nonlocal evals
        evals += len(xs)
        return [cost_of(x) for x in xs]

    pop = lo + rng.random((pop_size, dim)) * (hi - lo)
    costs = np.array(eval_population(pop))
    f_weight, crossover = 0.7, 0.9
    while evals + pop_size <= budget:
        trials = np.empty_like(pop)
        for i in range(pop_size):
            choices = [j for j in range(pop_size) if j != i]
            r1, r2, r3 = rng.choice(choices, size=3, replace=False)
            mutant = pop[r1] + f_weight * (pop[r2] - pop[r3])
            mutant = np.clip(mutant, lo, hi)
            cross = rng.random(dim) < crossover
            cross[rng.integers(dim)] = True
            trials[i] = np.where(cross, mutant, pop[i])
        trial_costs = np.array(eval_population(list(trials)))
        better = trial_costs <= costs
        pop[better] = trials[better]
        costs[better] = trial_costs[better]

    best_idx = int(np.argmin(costs))
    best_x, best_cost = pop[best_idx].copy(), float(costs[best_idx])

    # simplex polish on the DE winner, capped overhead
    polish_evals = 0

    def polished(x):
        nonlocal polish_evals, best_x, best_cost
        polish_evals += 1
        c = cost_of(np.clip(x, lo, hi))
        if c < best_cost:
            best_cost, best_x = c, np.clip(np.asarray(x, dtype=float), lo, hi)
        return c

    minimize(polished, best_x, method="Nelder-Mead",
             options={"maxfev": 200, "xatol": 1e-12, "fatol": 1e-14})
    evals += polish_evals

    mech = space.apply(best_x)
    report = feasibility_report(mech, spec, space.transmission_joints, samples, settings)
    return SynthesisResult(mech, best_x, best_cost, not report, evals, seed)


@dataclass(frozen=True)
class ConstraintViolation:
    constraint: str
    margin: float
    detail: str


EXTENSION_ATTAIN_TOL = 0.02


def feasibility_report(m: Mechanism, spec: GaitSpec,
                       transmission_joints: tuple[str, ...] = (),
                       samples: int = OBJECTIVE_SAMPLES,
                       settings: SolveSettings = DEFAULT_SETTINGS) -> list[ConstraintViolation]:
    """Hard-constraint check: full-revolution assemblability, mobility one,
    minimum transmission angle, extension-range attainment. Empty = feasible.

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
    thetas = 2.0 * math.pi * np.arange(samples) / samples
    pa = sweep_arrays(m, thetas, settings)
    if pa.failed_at is not None:
        frac = 1.0 - pa.failed_at / samples
        theta_fail = float(thetas[pa.failed_at])
        out.append(ConstraintViolation(
            "full_revolution", frac,
            f"not assemblable from theta={theta_fail:.4f} rad onward ({pa.error})"))
        return out

    joints = transmission_joints
    if not joints:
        view = as_fourbar(m)
        if view is not None:
            joints = (view.follower_joint,)
    if joints:
        mu_min = min(float(transmission_angle_series(m, pa, jid).min()) for jid in joints)
        if mu_min < spec.min_transmission_angle:
            out.append(ConstraintViolation(
                "min_transmission_angle", spec.min_transmission_angle - mu_min,
                f"minimum transmission angle {math.degrees(mu_min):.2f} deg is below "
                f"{math.degrees(spec.min_transmission_angle):.2f} deg"))

    t = np.arange(samples) / samples
    try:
        gt = gait_from_pose_arrays(m, pa, 1.0, t)
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
