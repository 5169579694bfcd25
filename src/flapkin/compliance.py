"""Pseudo-rigid-body treatment of living hinges.

Each thin flexible segment is lumped into a torsional spring at the hinge:
k = E*I/l with the rectangular second moment I = w*t^3/12, acting on the
hinge deflection wrapped into (-pi, pi] about its rest angle. Quasi-static
equilibrium of a chain with sprung hinges is a stationary point of the total
potential (elastic energy minus load work) subject to joint coincidence, with
the crank held at a fixed angle when an actuated joint exists. It is found by
Newton's method on the KKT conditions, with the Hessian of the Lagrangian in
closed form, started from the dyad-plan starts of `kinematics.start_block`.
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
    MAX_ITERATIONS,
    Configuration,
    ConstraintSystem,
    SolveSettings,
    start_block,
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
    return [j for j in m.joints if isinstance(j.kind, CompliantHinge)]


def hinge_deflection(angle_a: float, angle_b: float, rest_angle: float) -> float:
    """Hinge deflection angle_b - angle_a - rest_angle, wrapped into (-pi, pi],
    so that it does not depend on how either link angle is written."""
    d = angle_b - angle_a - rest_angle
    return math.pi - (math.pi - d) % (2.0 * math.pi)


def elastic_energy(m: Mechanism, c: Configuration) -> float:
    """Sum of 0.5*k*(deflection)^2 over compliant hinges; pins contribute 0."""
    return total_potential(m, LoadCase(), c)


class _Potential:
    """Total potential V(q) = elastic - load work, over moving-link poses,
    with the Hessian of the Lagrangian V + lam.c of the constraints c of `sys`.
    A link is the column of its x in q led by the ground's pose (0, 0, 0), 3
    times its slot in sys.plan.ids; the gradient and the Hessian then drop the
    ground's entries."""

    def __init__(self, m: Mechanism, load: LoadCase, sys: ConstraintSystem):
        col = {lid: 3 * i for i, lid in enumerate(sys.plan.ids)}
        self.springs = [(col[j.link_a], col[j.link_b], j.kind.stiffness, j.kind.rest_angle) for j in _hinges(m)]
        self.forces = [(col[lid], m.link(lid).marker(marker).as_array(), f.as_array())
                       for lid, marker, f in load.forces]
        self.moments = []
        for jid, mom in load.moments:
            j = m.joint(jid)
            self.moments.append((col[j.link_a], col[j.link_b], mom))
        self.sys = sys
        self.k_max = max((s[2] for s in self.springs), default=1.0)

    @staticmethod
    def _rotated(qp, idx, p):
        """R(angle) p for the link at column idx of the padded q."""
        c, s = math.cos(qp[idx + 2]), math.sin(qp[idx + 2])
        return np.array([c * p[0] - s * p[1], s * p[0] + c * p[1]])

    def value(self, q: np.ndarray) -> float:
        qp, v = np.append((0.0, 0.0, 0.0), q), 0.0
        for ia, ib, k, rest in self.springs:
            d = hinge_deflection(qp[ia + 2], qp[ib + 2], rest)
            v += 0.5 * k * d * d
        for idx, p, f in self.forces:
            v -= float(f @ (qp[idx:idx + 2] + self._rotated(qp, idx, p)))
        for ia, ib, mom in self.moments:
            v -= mom * (qp[ib + 2] - qp[ia + 2])
        return v

    def grad(self, q: np.ndarray) -> np.ndarray:
        qp = np.append((0.0, 0.0, 0.0), q)
        g = np.zeros_like(qp)
        for ia, ib, k, rest in self.springs:
            d = hinge_deflection(qp[ia + 2], qp[ib + 2], rest)
            g[ib + 2] += k * d
            g[ia + 2] -= k * d
        for idx, p, f in self.forces:
            rp = self._rotated(qp, idx, p)  # d(R p)/d angle = (-rp_y, rp_x)
            g[idx:idx + 3] -= (f[0], f[1], f[1] * rp[0] - f[0] * rp[1])
        for ia, ib, mom in self.moments:
            g[ib + 2] -= mom
            g[ia + 2] += mom
        return g[3:]

    def hessian(self, q: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Hessian of V + lam.c. Only the angle block is nonzero: positions
        enter linearly, d^2(R p)/d angle^2 = -R p, and moments and the drive
        row are linear in the angles."""
        qp = np.append((0.0, 0.0, 0.0), q)
        T = np.zeros((len(self.springs), len(qp)))  # each spring's deflection as a row over qp
        ends = np.array([s[:2] for s in self.springs], dtype=np.intp).reshape(-1, 2)
        T[np.arange(len(T))[:, None], ends + 2] = (-1.0, 1.0)
        H = T.T @ (np.array([s[2] for s in self.springs]).reshape(-1, 1) * T)
        for idx, p, f in self.forces:
            H[idx + 2, idx + 2] += float(f @ self._rotated(qp, idx, p))
        angles = np.arange(2, len(H), 3)  # the padded q's angle columns are `sys`'s pose slots
        H[angles, angles] += self.sys.angle_curvature(q, lam)
        return H[3:, 3:]


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

    def kkt(qv, lam, J, g):
        return np.concatenate([g + J.T @ lam, sys.residual(qv, theta)])

    J, g = sys.jacobian(q), pot.grad(q)
    lam = np.linalg.lstsq(J.T, -g, rcond=None)[0]
    F = kkt(q, lam, J, g)
    for _ in range(MAX_ITERATIONS):
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
            J_new = sys.jacobian(q_new)
            F_new = kkt(q_new, lam_new, J_new, pot.grad(q_new))
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


def solve_equilibrium(m: Mechanism, theta: float, load: LoadCase) -> Configuration:
    """Quasi-static equilibrium of the compliant chain under a load case.

    One Lagrange-Newton solve on the KKT conditions with the analytic Hessian
    of the Lagrangian. The actuated joint, when present, is locked at theta;
    every other joint is a free pin, sprung when compliant. The solve starts
    from each of the dyad plan's `start_block` starts in turn until one
    converges, as `assemble` does without a guess: for a mobility-one chain
    the dyad plan already closes, and open-chain links start at orientation
    zero. Raises ConvergenceError when no start reaches stationarity and
    closure within 100x the tolerance; warns LargeDeflectionWarning past pi/2
    of deflection.
    """
    sys = ConstraintSystem(m)
    pot = _Potential(m, load, sys)
    starts, tried = start_block(sys, theta)
    for start in starts[0, tried[0]]:
        try:
            q = _lagrange_newton(sys, pot, start, theta, DEFAULT_SETTINGS)
            break
        except ConvergenceError as e:
            error = e
    else:
        raise error

    qp = np.append((0.0, 0.0, 0.0), q)
    for j, (ia, ib, _, rest) in zip(_hinges(m), pot.springs):
        if abs(d := hinge_deflection(qp[ia + 2], qp[ib + 2], rest)) > math.pi / 2:
            warnings.warn(f"hinge {j.id!r} deflection {d:.3f} rad exceeds pi/2",
                          LargeDeflectionWarning)
    return sys.config_from(q, theta)


def total_potential(m: Mechanism, load: LoadCase, c: Configuration) -> float:
    """Elastic energy minus work done by the load at configuration c."""
    sys = ConstraintSystem(m)
    return _Potential(m, load, sys).value(sys.q_from(c))


def stationarity(m: Mechanism, load: LoadCase, c: Configuration, theta: float) -> tuple[float, float]:
    """(projected gradient norm, closure residual norm) at a configuration."""
    sys = ConstraintSystem(m)
    pot = _Potential(m, load, sys)
    q = sys.q_from(c)
    pg = projected_gradient(pot.grad(q), sys.jacobian(q))
    return float(np.linalg.norm(pg)), float(np.linalg.norm(sys.residual(q, theta)))
