"""Pseudo-rigid-body treatment of living hinges.

Each thin flexible segment is lumped into a torsional spring at the hinge:
k = E*I/l with the rectangular second moment I = w*t^3/12, acting on the
hinge deflection wrapped into (-pi, pi] about its rest angle. Quasi-static
equilibrium of a chain with sprung hinges is a stationary point of the total
potential (elastic energy minus load work) subject to joint coincidence, with
the crank held at a fixed angle when an actuated joint exists. A square chain
(mobility one, drive row included) is rigid: its pose is `kinematics.assemble`'s
and the load sets only the multipliers (reactions, crank torque), one linear
solve. Any other chain takes `kinematics.damped_newton` on the KKT conditions,
with the Hessian of the Lagrangian in closed form, from the `start_block` starts.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, LargeDeflectionWarning
from .geometry import Point2
from .kinematics import (RCOND_FLOOR, TOLERANCE, Configuration, ConstraintSystem, damped_newton, first_roots,
                         start_block)
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
        joints = [(m.joint(jid), mom) for jid, mom in load.moments]
        self.moments = [(col[j.link_a], col[j.link_b], mom) for j, mom in joints]
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


def _multipliers(gradient: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The least-squares multipliers lam of J^T lam = -gradient."""
    return np.linalg.lstsq(J.T, -gradient, rcond=None)[0]


def projected_gradient(gradient: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Component of the gradient tangent to the constraint manifold: the
    gradient plus J^T lam at its least-squares `_multipliers`."""
    return gradient + J.T @ _multipliers(gradient, J)


def _lagrange_newton(sys: ConstraintSystem, pot: _Potential, q: np.ndarray, theta: float) -> np.ndarray:
    """`damped_newton` on the KKT conditions grad V + J^T lam = 0, c = 0 in (q, lam) from q and least-squares
    `_multipliers`, to gradient rows within TOLERANCE * k_max and constraint rows within TOLERANCE. Else a
    ConvergenceError: a KKT solve fails or its step is not finite, or Newton ends outside 100x both."""
    n, tol_g = len(q), TOLERANCE * pot.k_max

    def kkt(z):
        return np.concatenate([pot.grad(z[:n]) + sys.jacobian(z[:n]).T @ z[n:], sys.residual(z[:n], theta)])

    def kkt_jacobian(z):
        J = sys.jacobian(z[:n])
        return np.block([[pot.hessian(z[:n], z[n:]), J.T], [J, np.zeros((len(J), len(J)))]])

    z = np.concatenate([q, _multipliers(pot.grad(q), sys.jacobian(q))])
    z, F, why = damped_newton(kkt, kkt_jacobian, z,
                              lambda F: np.linalg.norm(F[:n]) <= tol_g and np.linalg.norm(F[n:]) <= TOLERANCE)
    if why in ("singular", "ill-conditioned"):
        raise ConvergenceError(f"{why} KKT system at theta={theta:.6g}")
    q = z[:n]
    if why != "converged":
        pg, c = np.linalg.norm(projected_gradient(pot.grad(q), sys.jacobian(q))), np.linalg.norm(F[n:])
        if pg > tol_g * 100 or c > TOLERANCE * 100:
            raise ConvergenceError(f"equilibrium did not converge: |proj grad|={pg:.3e}, |closure|={c:.3e}")
    return q


def _square_pose(sys: ConstraintSystem, pot: _Potential, theta: float) -> np.ndarray:
    """`assemble`'s pose of a square chain at theta, where the multipliers lam of J^T lam = -gradient hold
    it (within 100x the tolerance). ConvergenceError where no start closes, or J is singular: the solve
    fails, or |lam| outgrows the gradient by more than 1 / (RCOND_FLOOR |J|)."""
    q, code = first_roots(sys, theta)
    if code is not None:
        raise ConvergenceError(f"no start closes at theta={theta:.6g} ({code})")
    g, J = pot.grad(q), sys.jacobian(q)
    with np.errstate(all="ignore"):
        try:
            lam = np.linalg.solve(J.T, -g)
        except np.linalg.LinAlgError:  # exactly singular: only lam = 0 may hold a zero gradient
            lam = np.where(g, math.inf, 0.0)
        size, pg = np.linalg.norm(lam), np.linalg.norm(g + J.T @ lam)
        if not (size * RCOND_FLOOR * np.linalg.norm(J) <= np.linalg.norm(g) and pg <= 100 * TOLERANCE * pot.k_max):
            raise ConvergenceError(f"no equilibrium at theta={theta:.6g}: singular constraint Jacobian "
                                   f"(|lam|={size:.3e}, |proj grad|={pg:.3e})")
    return q


def solve_equilibrium(m: Mechanism, theta: float, load: LoadCase) -> Configuration:
    """Quasi-static equilibrium of the compliant chain under a load case.

    The actuated joint, when present, is locked at theta; every other joint is
    a free pin, sprung when compliant. A square chain (as many constraint rows,
    the drive's included, as unknowns) takes `assemble`'s pose, and the load
    sets only the multipliers: one linear solve (Haug 1989, ch. 3). Any other
    chain (an open one) takes Lagrange-Newton on the KKT conditions with the
    analytic Hessian, from each `start_block` start in turn until one converges.
    Raises ConvergenceError where no pose is found, a square chain's Jacobian
    is singular, or Newton ends outside 100x the tolerance; warns
    LargeDeflectionWarning past pi/2 of deflection.
    """
    sys = ConstraintSystem(m)
    pot = _Potential(m, load, sys)
    if sys.rows == sys.n:
        q = _square_pose(sys, pot, theta)
    else:
        starts, tried = start_block(sys, theta)
        for start in starts[tried]:
            try:
                q = _lagrange_newton(sys, pot, start, theta)
                break
            except ConvergenceError as e:
                error = e
        else:
            raise error

    qp = np.append((0.0, 0.0, 0.0), q)
    for j, (ia, ib, _, rest) in zip(_hinges(m), pot.springs):
        if abs(d := hinge_deflection(qp[ia + 2], qp[ib + 2], rest)) > math.pi / 2:
            warnings.warn(f"hinge {j.id!r} deflection {d:.3f} rad exceeds pi/2", LargeDeflectionWarning)
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
