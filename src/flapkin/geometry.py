"""Small planar geometry primitives: points, rigid poses, rotations."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Point2:
    """A point (or vector) in the flapping plane, in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Point2 components must be finite, got ({self.x}, {self.y})")

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class Pose:
    """Rigid planar transform: link-local frame placed in the world frame."""

    origin: Point2
    angle: float

    def transform(self, p: Point2) -> Point2:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return Point2(
            self.origin.x + c * p.x - s * p.y,
            self.origin.y + s * p.x + c * p.y,
        )


IDENTITY_POSE = Pose(Point2(0.0, 0.0), 0.0)
