import math

import numpy as np
import pytest

from rtsa.geometry import (
    Envelope,
    Mission,
    boundary_query,
    build_path,
    contains,
    path_target,
    per_axis_boundary_distances,
)


def _face_min_distance(p, axis, bound, lo2, hi2, n=40, levels=3):
    """Sampled minimum distance from p to one rectangular face.

    Coarse-to-fine grid refinement; valid because point-to-rectangle
    distance is convex over the face.
    """
    other = [i for i in range(3) if i != axis]
    lo2 = np.array(lo2, dtype=float)
    hi2 = np.array(hi2, dtype=float)
    best_pt = None
    for _ in range(levels):
        u = np.linspace(lo2[0], hi2[0], n)
        v = np.linspace(lo2[1], hi2[1], n)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        pts = np.empty((n * n, 3))
        pts[:, axis] = bound
        pts[:, other[0]] = uu.ravel()
        pts[:, other[1]] = vv.ravel()
        d = np.linalg.norm(pts - p, axis=1)
        k = int(np.argmin(d))
        best_pt = pts[k]
        span = np.array([u[1] - u[0] if n > 1 else 0.0, v[1] - v[0] if n > 1 else 0.0])
        center = np.array([best_pt[other[0]], best_pt[other[1]]])
        lo2 = np.maximum(center - span, lo2)
        hi2 = np.minimum(center + span, hi2)
    return float(np.linalg.norm(best_pt - p))


def brute_force_boundary_distance(p, env):
    """Minimum distance from p to a densely sampled box boundary."""
    lo, hi = env.min_corner, env.max_corner
    best = math.inf
    for axis in range(3):
        other = [i for i in range(3) if i != axis]
        lo2 = [lo[other[0]], lo[other[1]]]
        hi2 = [hi[other[0]], hi[other[1]]]
        for bound in (lo[axis], hi[axis]):
            best = min(best, _face_min_distance(np.asarray(p, float), axis, bound, lo2, hi2))
    return best


class TestEnvelope:
    def test_corner_validation(self):
        with pytest.raises(ValueError):
            Envelope(min_corner=[0, 0, 0], max_corner=[1, 1, 0])
        with pytest.raises(ValueError):
            Envelope(min_corner=[0, 0], max_corner=[1, 1])

    def test_derived_properties(self, unit_cube):
        assert np.allclose(unit_cube.half_extent, [0.5, 0.5, 0.5])


class TestMission:
    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError):
            Mission(waypoints=[[0, 0, 0]], arrival_radius=1.0)

    def test_final_waypoint_on_ground(self):
        with pytest.raises(ValueError):
            Mission(waypoints=[[0, 0, 1], [1, 0, 1]], arrival_radius=1.0)

    def test_arrival_radius_positive(self):
        with pytest.raises(ValueError):
            Mission(waypoints=[[0, 0, 1], [1, 0, 0]], arrival_radius=0.0)


class TestContains:
    def test_interior_and_exterior(self, unit_cube):
        assert contains([0.5, 0.5, 0.5], unit_cube)
        assert not contains([1.5, 0.5, 0.5], unit_cube)

    def test_faces_count_as_inside(self, unit_cube):
        assert contains([0.0, 0.5, 0.5], unit_cube)
        assert contains([1.0, 1.0, 1.0], unit_cube)


class TestBoundaryQuery:
    def test_center_tie_break(self, unit_cube):
        q = boundary_query([0.5, 0.5, 0.5], unit_cube)
        assert q.inside
        assert q.distance == pytest.approx(0.5)

    def test_nearest_face(self, unit_cube):
        q = boundary_query([0.9, 0.5, 0.5], unit_cube)
        assert q.distance == pytest.approx(0.1)

    def test_exterior_corner(self, unit_cube):
        q = boundary_query([2.0, 2.0, 0.5], unit_cube)
        assert not q.inside
        assert q.distance == pytest.approx(math.sqrt(2.0))

    def test_contains_iff_inside_flag(self, unit_cube):
        rng = np.random.default_rng(7)
        for p in rng.uniform(-1.0, 2.0, size=(500, 3)):
            assert contains(p, unit_cube) == boundary_query(p, unit_cube).inside

    def test_interior_distance_equals_min_per_axis(self, unit_cube):
        rng = np.random.default_rng(8)
        for p in rng.uniform(0.0, 1.0, size=(500, 3)):
            q = boundary_query(p, unit_cube)
            d = per_axis_boundary_distances(p, unit_cube)
            assert q.distance == pytest.approx(float(np.min(d)))

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            lo = rng.uniform(-10.0, 0.0, size=3)
            hi = lo + rng.uniform(1.0, 20.0, size=3)
            env = Envelope(min_corner=lo, max_corner=hi)
            tol = 1e-3 * np.linalg.norm(hi - lo)
            for p in rng.uniform(lo - 5.0, hi + 5.0, size=(20, 3)):
                q = boundary_query(p, env)
                brute = brute_force_boundary_distance(p, env)
                assert abs(q.distance - brute) <= tol

    def test_continuity(self, unit_cube):
        rng = np.random.default_rng(10)
        for _ in range(500):
            p = rng.uniform(-0.5, 1.5, size=3)
            eps = rng.normal(scale=1e-4, size=3)
            d0 = boundary_query(p, unit_cube).distance
            d1 = boundary_query(p + eps, unit_cube).distance
            assert abs(d1 - d0) <= float(np.linalg.norm(eps)) + 1e-12


class TestPerAxisDistances:
    def test_center(self, unit_cube):
        assert np.allclose(per_axis_boundary_distances([0.5, 0.5, 0.5], unit_cube), 0.5)

    def test_per_axis_min(self, unit_cube):
        d = per_axis_boundary_distances([0.9, 0.2, 0.5], unit_cube)
        assert np.allclose(d, [0.1, 0.2, 0.5])

    def test_sign_convention_outside(self, unit_cube):
        d = per_axis_boundary_distances([1.2, 0.5, 0.5], unit_cube)
        assert np.allclose(d, [-0.2, 0.5, 0.5])


class TestPath:
    def test_single_segment_length(self):
        m = Mission(waypoints=[[0, 0, 1], [1, 0, 0]], arrival_radius=1.0)
        path = build_path(m)
        assert path.length == pytest.approx(math.sqrt(2.0))

    def test_l_shape_midpoint(self):
        m = Mission(waypoints=[[0, 0, 1], [1, 0, 1], [1, 1, 0]], arrival_radius=1.0)
        path = build_path(m)
        assert path.length == pytest.approx(1.0 + math.sqrt(2.0))
        assert np.allclose(path.point_at(1.0), [1.0, 0.0, 1.0])

    def test_length_equals_segment_sum(self, demo_scenario):
        path = build_path(demo_scenario.mission)
        wps = demo_scenario.mission.waypoints
        expected = sum(
            float(np.linalg.norm(wps[i + 1] - wps[i])) for i in range(len(wps) - 1)
        )
        assert path.length == pytest.approx(expected)

    def test_rejects_duplicate_waypoints(self):
        m = Mission(waypoints=[[0, 0, 1], [0, 0, 1], [1, 0, 0]], arrival_radius=1.0)
        with pytest.raises(ValueError):
            build_path(m)

    def test_point_at_clamps(self):
        m = Mission(waypoints=[[0, 0, 1], [2, 0, 0]], arrival_radius=1.0)
        path = build_path(m)
        assert np.allclose(path.point_at(-1.0), [0.0, 0.0, 1.0])
        assert np.allclose(path.point_at(99.0), [2.0, 0.0, 0.0])

    def test_project_prefers_earliest_on_tie(self):
        # Out-and-back path: a point beside it is equidistant from both legs.
        m = Mission(
            waypoints=[[0, 0, 1], [2, 0, 1], [2, 2, 1], [0, 2, 0]],
            arrival_radius=1.0,
        )
        path = build_path(m)
        s = path.project([1.0, 1.0, 1.0])
        assert s == pytest.approx(1.0)


class TestPathTarget:
    def test_straight_lookahead(self):
        m = Mission(waypoints=[[0, 0, 1], [2, 0, 0]], arrival_radius=1.0)
        path = build_path(m)
        target = path_target(path, [0.0, 0.0, 1.0], 0.5)
        assert np.allclose(target, path.point_at(0.5))

    def test_past_end_clamps_to_final_waypoint(self):
        m = Mission(waypoints=[[0, 0, 1], [1, 0, 0]], arrival_radius=1.0)
        path = build_path(m)
        assert np.allclose(path_target(path, [5.0, 0.0, 0.0], 1.0), [1.0, 0.0, 0.0])

    def test_perpendicular_offset_invariance(self):
        m = Mission(waypoints=[[0, 0, 1], [4, 0, 1], [4, 0, 0]], arrival_radius=1.0)
        path = build_path(m)
        on = path_target(path, [1.0, 0.0, 1.0], 0.7)
        off = path_target(path, [1.0, 0.9, 1.0], 0.7)
        assert np.allclose(on, off)

    def test_rejects_nonpositive_lookahead(self):
        m = Mission(waypoints=[[0, 0, 1], [1, 0, 0]], arrival_radius=1.0)
        path = build_path(m)
        with pytest.raises(ValueError):
            path_target(path, [0.0, 0.0, 1.0], 0.0)
