"""Pseudo-rigid-body treatment of living hinges.

Each thin flexible segment is lumped into a torsional spring at the hinge:
k = E*I/l with the rectangular second moment I = w*t^3/12, acting on the
hinge deflection wrapped into (-pi, pi] about its rest angle. Quasi-static
equilibrium of a chain with sprung hinges is a stationary point of the total
potential (elastic energy minus load work) subject to joint coincidence, with
the crank held at a fixed angle when an actuated joint exists. It is found by
Newton's method on the KKT conditions, with the Hessian of the Lagrangian in
closed form, started from the dyad plan of `kinematics`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, LargeDeflectionWarning
from .geometry import Point2
from .kinematics import (
    DEFAULT_SETTINGS,
    Configuration,
    ConstraintSystem,
    SolveSettings,
    bootstrap_candidates,
)
from .mechanism import CompliantHinge, Mechanism


@dataclass(frozen=True)
class HingeGeometry:
    """Rectangular flexure dimensions and material modulus (SI units)."""

    width: float
    thickness: float
    length: float
    elastic_modulus: float

    def __post_init__(self):
        vals = (self.width, self.thickness, self.length, self.elastic_modulus)
        if not all(v > 0.0 and math.isfinite(v) for v in vals):
            raise ValueError(f"hinge geometry values must be positive, got {vals}")

    @property
    def thin(self) -> bool:
        return self.thickness <= self.width


def hinge_stiffness(hg: HingeGeometry) -> float:
    """Small-length flexural pivot stiffness, N*m per radian."""
    inertia = hg.width * hg.thickness ** 3 / 12.0
    return hg.elastic_modulus * inertia / hg.length


@dataclass(frozen=True)
class LoadCase:
    """External loading: point forces on markers and pure joint moments."""

    forces: tuple[tuple[str, str, Point2], ...] = ()   # (link id, marker, force N)
    moments: tuple[tuple[str, float], ...] = ()        # (joint id, N*m)


def _hinges(m: Mechanism):
    return [(j, j.kind) for j in m.joints if isinstance(j.kind, CompliantHinge)]


def hinge_deflection(angle_a: float, angle_b: float, rest_angle: float) -> float:
    """Hinge deflection angle_b - angle_a - rest_angle, wrapped into (-pi, pi],
    so that it does not depend on how either link angle is written."""
    d = angle_b - angle_a - rest_angle
    return math.pi - (math.pi - d) % (2.0 * math.pi)


def elastic_energy(m: Mechanism, c: Configuration) -> float:
    """Sum of 0.5*k*(deflection)^2 over compliant hinges; pins contribute 0."""
    total = 0.0
    for j, hinge in _hinges(m):
        d = hinge_deflection(c.pose(j.link_a).angle, c.pose(j.link_b).angle, hinge.rest_angle)
        total += 0.5 * hinge.stiffness * d * d
    return total


class _Potential:
    """Total potential V(q) = elastic - load work, over moving-link poses,
    with the Hessian of the Lagrangian V + lam.c of the constraints c of `sys`."""

    def __init__(self, m: Mechanism, load: LoadCase, sys: ConstraintSystem):
        self.springs = []
        for j, hinge in _hinges(m):
            self.springs.append((sys.index.get(j.link_a), sys.index.get(j.link_b),
                                 hinge.stiffness, hinge.rest_angle))
        self.forces = []
        for lid, marker, f in load.forces:
            self.forces.append((sys.index.get(lid), m.link(lid).marker(marker).as_array(),
                                f.as_array()))
        self.moments = []
        for jid, mom in load.moments:
            j = m.joint(jid)
            self.moments.append((sys.index.get(j.link_a), sys.index.get(j.link_b), mom))
        self.joints = sys.joints
        self.k_max = max((s[2] for s in self.springs), default=1.0)

    def _angle(self, q, idx):
        return 0.0 if idx is None else q[idx + 2]

    def _rotated(self, q, idx, p):
        """R(angle) p for the link at idx; p itself on the ground."""
        a = self._angle(q, idx)
        c, s = math.cos(a), math.sin(a)
        return np.array([c * p[0] - s * p[1], s * p[0] + c * p[1]])

    def value(self, q: np.ndarray) -> float:
        v = 0.0
        for ia, ib, k, rest in self.springs:
            d = hinge_deflection(self._angle(q, ia), self._angle(q, ib), rest)
            v += 0.5 * k * d * d
        for idx, p, f in self.forces:
            w = p if idx is None else q[idx:idx + 2] + self._rotated(q, idx, p)
            v -= float(f @ w)
        for ia, ib, mom in self.moments:
            v -= mom * (self._angle(q, ib) - self._angle(q, ia))
        return v

    def grad(self, q: np.ndarray) -> np.ndarray:
        g = np.zeros_like(q)
        for ia, ib, k, rest in self.springs:
            d = hinge_deflection(self._angle(q, ia), self._angle(q, ib), rest)
            if ib is not None:
                g[ib + 2] += k * d
            if ia is not None:
                g[ia + 2] -= k * d
        for idx, p, f in self.forces:
            if idx is None:
                continue
            rp = self._rotated(q, idx, p)  # d(R p)/d angle = (-rp_y, rp_x)
            g[idx] -= f[0]
            g[idx + 1] -= f[1]
            g[idx + 2] -= f[1] * rp[0] - f[0] * rp[1]
        for ia, ib, mom in self.moments:
            if ib is not None:
                g[ib + 2] -= mom
            if ia is not None:
                g[ia + 2] += mom
        return g

    def hessian(self, q: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Hessian of V + lam.c. Only the angle block is nonzero: positions
        enter linearly, d^2(R p)/d angle^2 = -R p, and moments and the drive
        row are linear in the angles."""
        H = np.zeros((len(q), len(q)))
        for ia, ib, k, _ in self.springs:
            ends = [(idx + 2, sign) for idx, sign in ((ia, -1.0), (ib, 1.0)) if idx is not None]
            for u, su in ends:
                for v, sv in ends:
                    H[u, v] += su * sv * k
        for idx, p, f in self.forces:
            if idx is not None:
                H[idx + 2, idx + 2] += float(f @ self._rotated(q, idx, p))
        for r, (ia, pa, ib, pb) in enumerate(self.joints):
            lr = lam[2 * r:2 * r + 2]
            if ia is not None:
                H[ia + 2, ia + 2] -= float(lr @ self._rotated(q, ia, pa))
            if ib is not None:
                H[ib + 2, ib + 2] += float(lr @ self._rotated(q, ib, pb))
        return H


def projected_gradient(gradient: np.ndarray, J: np.ndarray | None) -> np.ndarray:
    """Component of the gradient tangent to the constraint manifold."""
    if J is None or J.size == 0:
        return gradient
    JJt = J @ J.T
    lam = np.linalg.lstsq(JJt, J @ gradient, rcond=None)[0]
    return gradient - J.T @ lam


def _lagrange_newton(sys: ConstraintSystem, pot: _Potential, q: np.ndarray, theta: float,
                     settings: SolveSettings) -> np.ndarray:
    """Newton on the KKT conditions grad V + J^T lam = 0, c = 0 from q, with
    least-squares multipliers to start; each step is halved (at most 20
    times) until the KKT residual norm decreases."""
    n = len(q)
    tol_c = settings.tolerance
    tol_g = settings.tolerance * pot.k_max

    def kkt(qv, lam):
        J = sys.jacobian(qv)
        return np.concatenate([pot.grad(qv) + J.T @ lam, sys.residual(qv, theta)]), J

    lam = np.linalg.lstsq(sys.jacobian(q).T, -pot.grad(q), rcond=None)[0]
    F, J = kkt(q, lam)
    for _ in range(settings.max_iterations):
        if np.linalg.norm(F[:n]) <= tol_g and np.linalg.norm(F[n:]) <= tol_c:
            return q
        rows = len(lam)
        K = np.block([[pot.hessian(q, lam), J.T], [J, np.zeros((rows, rows))]])
        try:
            with np.errstate(all="ignore"):
                step = np.linalg.solve(K, -F)
        except np.linalg.LinAlgError as e:
            raise ConvergenceError(f"singular KKT system at theta={theta:.6g}") from e
        if not np.all(np.isfinite(step)):
            raise ConvergenceError(f"ill-conditioned KKT system at theta={theta:.6g}")
        fn = np.linalg.norm(F)
        t = 1.0
        for _ in range(20):
            q_new, lam_new = q + t * step[:n], lam + t * step[n:]
            F_new, J_new = kkt(q_new, lam_new)
            if np.linalg.norm(F_new) < fn:
                break
            t *= 0.5
        else:
            break
        q, lam, F, J = q_new, lam_new, F_new, J_new
    pg = np.linalg.norm(projected_gradient(pot.grad(q), J))
    c = np.linalg.norm(F[n:])
    if pg > tol_g * 100 or c > tol_c * 100:
        raise ConvergenceError(
            f"equilibrium did not converge: |proj grad|={pg:.3e}, |closure|={c:.3e}")
    return q


def solve_equilibrium(m: Mechanism, theta: float, load: LoadCase,
                      settings: SolveSettings = DEFAULT_SETTINGS,
                      guess: Configuration | None = None) -> Configuration:
    """Quasi-static equilibrium of the compliant chain under a load case.

    One Lagrange-Newton solve on the KKT conditions with the analytic Hessian
    of the Lagrangian. The actuated joint, when present, is locked at theta;
    every other joint is a free pin, sprung when compliant. The solve starts
    from `guess`, or else from each of `bootstrap_candidates` in turn until
    one converges, as `assemble` does: for a mobility-one chain the dyad plan
    already closes, and open-chain links start at orientation zero. Raises
    ConvergenceError when no start reaches stationarity and closure within
    100x the tolerance; warns LargeDeflectionWarning past pi/2 of deflection.
    """
    sys = ConstraintSystem(m)
    pot = _Potential(m, load, sys)
    starts = [guess] if guess is not None else bootstrap_candidates(m, theta)
    for start in starts:
        try:
            q = _lagrange_newton(sys, pot, sys.q_from(start), theta, settings)
            break
        except ConvergenceError as e:
            error = e
    else:
        raise error

    config = sys.config_from(q, theta)
    for j, hinge in _hinges(m):
        d = hinge_deflection(config.pose(j.link_a).angle, config.pose(j.link_b).angle,
                             hinge.rest_angle)
        if abs(d) > math.pi / 2:
            warnings.warn(f"hinge {j.id!r} deflection {d:.3f} rad exceeds pi/2",
                          LargeDeflectionWarning)
    return config


def total_potential(m: Mechanism, load: LoadCase, c: Configuration) -> float:
    """Elastic energy minus work done by the load at configuration c."""
    sys = ConstraintSystem(m)
    pot = _Potential(m, load, sys)
    return pot.value(sys.q_from(c))


def stationarity(m: Mechanism, load: LoadCase, c: Configuration, theta: float) -> tuple[float, float]:
    """(projected gradient norm, closure residual norm) at a configuration."""
    sys = ConstraintSystem(m)
    pot = _Potential(m, load, sys)
    q = sys.q_from(c)
    J = sys.jacobian(q)
    pg = projected_gradient(pot.grad(q), J)
    return float(np.linalg.norm(pg)), float(np.linalg.norm(sys.residual(q, theta)))
