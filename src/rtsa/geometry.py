"""Geofence envelope, mission path, and distance/containment queries.

The envelope is an axis-aligned 3-D box. The planned mission path is
piecewise linear through the mission waypoints and parameterized by arc
length, which is what the path-following controller tracks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Envelope",
    "Mission",
    "BoundaryQuery",
    "Path",
    "contains",
    "boundary_query",
    "per_axis_boundary_distances",
    "build_path",
    "path_target",
]

@dataclass(frozen=True)
class Envelope:
    """Axis-aligned box geofence, [min_corner, max_corner] per axis (meters)."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "min_corner", np.asarray(self.min_corner, dtype=float))
        object.__setattr__(self, "max_corner", np.asarray(self.max_corner, dtype=float))
        if self.min_corner.shape != (3,) or self.max_corner.shape != (3,):
            raise ValueError("envelope corners must be 3-vectors")
        if not np.all(self.min_corner < self.max_corner):
            raise ValueError("min_corner must be strictly below max_corner on every axis")

    @property
    def half_extent(self) -> np.ndarray:
        return 0.5 * (self.max_corner - self.min_corner)


@dataclass(frozen=True)
class Mission:
    """Ordered waypoints (meters) plus the arrival radius that ends the mission.

    The first waypoint is the vehicle's initial position; the last one is the
    destination on the ground (z = 0).
    """

    waypoints: np.ndarray
    arrival_radius: float

    def __post_init__(self):
        object.__setattr__(self, "waypoints", np.asarray(self.waypoints, dtype=float))
        if self.waypoints.ndim != 2 or self.waypoints.shape[1] != 3:
            raise ValueError("waypoints must be an (N, 3) array")
        if self.waypoints.shape[0] < 2:
            raise ValueError("a mission needs at least two waypoints")
        if self.arrival_radius <= 0:
            raise ValueError("arrival_radius must be positive")
        if abs(self.waypoints[-1, 2]) > 1e-9:
            raise ValueError("final waypoint must be on the ground (z = 0)")


@dataclass(frozen=True)
class BoundaryQuery:
    """Distance to the nearest boundary point, and containment."""

    distance: float
    inside: bool


def contains(p, env: Envelope) -> bool:
    """True iff p lies in the closed box (faces count as inside)."""
    p = np.asarray(p, dtype=float)
    return bool(np.all(env.min_corner <= p) and np.all(p <= env.max_corner))


def boundary_query(p, env: Envelope) -> BoundaryQuery:
    """Closest-approach query against the box boundary.

    Inside the box the nearest boundary point lies on the nearest face, so
    the distance is the smallest of ``per_axis_boundary_distances``.
    Outside, the nearest boundary point is the clamp of p onto the box.
    """
    p = np.asarray(p, dtype=float)
    if contains(p, env):
        return BoundaryQuery(distance=float(np.min(per_axis_boundary_distances(p, env))),
                             inside=True)
    offset = np.clip(p, env.min_corner, env.max_corner) - p
    return BoundaryQuery(distance=float(np.linalg.norm(offset)), inside=False)


def per_axis_boundary_distances(p, env: Envelope) -> np.ndarray:
    """Signed distance to the nearer face along each axis (negative outside)."""
    p = np.asarray(p, dtype=float)
    return np.minimum(p - env.min_corner, env.max_corner - p)


@dataclass(frozen=True)
class Path:
    """Arc-length parameterized piecewise-linear path through waypoints."""

    points: np.ndarray
    cumulative: np.ndarray = field(repr=False)

    @property
    def length(self) -> float:
        return float(self.cumulative[-1])

    def point_at(self, s: float) -> np.ndarray:
        """Point at arc length s, clamped to [0, length]."""
        s = min(max(s, 0.0), self.length)
        i = int(np.searchsorted(self.cumulative, s, side="right")) - 1
        i = min(i, len(self.points) - 2)
        seg_len = self.cumulative[i + 1] - self.cumulative[i]
        frac = (s - self.cumulative[i]) / seg_len
        return self.points[i] + frac * (self.points[i + 1] - self.points[i])

    def project(self, p) -> float:
        """Arc length of the closest point on the path to p (earliest on ties)."""
        p = np.asarray(p, dtype=float)
        best_d2 = math.inf
        best_s = 0.0
        for i in range(len(self.points) - 1):
            a = self.points[i]
            b = self.points[i + 1]
            ab = b - a
            seg_len2 = float(ab @ ab)
            t = float((p - a) @ ab) / seg_len2
            t = min(max(t, 0.0), 1.0)
            closest = a + t * ab
            d2 = float((p - closest) @ (p - closest))
            if d2 < best_d2:
                best_d2 = d2
                best_s = float(self.cumulative[i]) + t * math.sqrt(seg_len2)
        return best_s


def build_path(mission: Mission) -> Path:
    """Build the arc-length parameterized path for a mission."""
    pts = mission.waypoints
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if np.any(seg < 1e-12):
        raise ValueError("mission has duplicate consecutive waypoints")
    cumulative = np.concatenate([[0.0], np.cumsum(seg)])
    return Path(points=pts.copy(), cumulative=cumulative)


def path_target(path: Path, p, lookahead: float) -> np.ndarray:
    """Pure-pursuit reference: the path point `lookahead` meters ahead of p's projection."""
    if lookahead <= 0:
        raise ValueError("lookahead must be positive")
    return path.point_at(path.project(p) + lookahead)
