"""Geometry primitives: reflection, mirroring, intersection, occlusion."""

import numpy as np
import pytest

from rtbpa.errors import GrazingIncidence
from rtbpa.geometry import (Facet, Scene, intersect, mirror_point,
                            occluded, rays_nearest_hit, reflect_direction)

SQ2 = np.sqrt(2.0)


def random_scene(rng, n_facets):
    facets = []
    for fid in range(n_facets):
        kind = rng.choice(["triangle", "rectangle"])
        base = rng.uniform(-1.0, 1.0, 3)
        if kind == "triangle":
            v1 = base + rng.uniform(0.1, 0.6, 3)
            v2 = base + rng.uniform(-0.6, -0.1, 3)
            try:
                facets.append(Facet.triangle(fid, base, v1, v2))
            except ValueError:
                facets.append(Facet.triangle(fid, base, base + (0.3, 0, 0),
                                             base + (0, 0.3, 0)))
        else:
            u = np.zeros(3)
            v = np.zeros(3)
            axes = rng.permutation(3)
            u[axes[0]] = rng.uniform(0.2, 0.8)
            v[axes[1]] = rng.uniform(0.2, 0.8)
            facets.append(Facet.rectangle(fid, base, u, v))
    return Scene(facets)


class TestReflectDirection:
    def test_normal_incidence_reversal(self):
        assert np.allclose(reflect_direction((0, 0, -1), (0, 0, 1)), (0, 0, 1))

    def test_specular_symmetry(self):
        d = np.array([1.0, 0.0, -1.0]) / SQ2
        assert np.allclose(reflect_direction(d, (0, 0, 1)),
                           np.array([1.0, 0.0, 1.0]) / SQ2)

    def test_grazing_raises(self):
        with pytest.raises(GrazingIncidence):
            reflect_direction((1, 0, 0), (0, 0, 1))

    def test_norm_and_normal_component(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            if abs(d @ n) <= 1e-9:
                continue
            r = reflect_direction(d, n)
            assert abs(np.linalg.norm(r) - 1.0) < 1e-12
            assert abs((r @ n) + (d @ n)) < 1e-12


class TestMirrorPoint:
    def test_ground_plane(self):
        g = Facet.plane(1, (0, 0, 0), (0, 0, 1))
        assert np.allclose(mirror_point((0, 0, 0.7), g), (0, 0, -0.7))

    def test_fixed_point(self):
        g = Facet.plane(1, (0, 0, 0), (0, 0, 1))
        assert np.allclose(mirror_point((0.3, -0.2, 0.0), g), (0.3, -0.2, 0.0))

    def test_offset_plane(self):
        f = Facet.plane(2, (2, 0, 0), (1, 0, 0))
        assert np.allclose(mirror_point((1, 1, 1), f), (3, 1, 1))

    def test_involution(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            f = Facet.plane(1, rng.uniform(-1, 1, 3),
                            rng.normal(size=3) / np.linalg.norm(rng.normal(size=3)))
            # re-draw the normal properly: unit of a fresh sample
            n = rng.normal(size=3)
            f = Facet.plane(1, rng.uniform(-1, 1, 3), n / np.linalg.norm(n))
            p = rng.uniform(-2, 2, 3)
            assert np.linalg.norm(mirror_point(mirror_point(p, f), f) - p) < 1e-12


class TestIntersect:
    def test_ray_to_ground(self):
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1))])
        h = intersect((0, 0, 1), (0, 0, -1), sc)
        assert h is not None
        assert h.t == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(h.point, (0, 0, 0))
        assert h.surface_id == 1

    def test_parallel_ray_misses(self):
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1))])
        assert intersect((0, 0, 1), (1, 0, 0), sc) is None

    def test_shared_edge_watertight(self):
        # Two triangles sharing the edge x in [0,1], y = 0: a ray through the
        # shared edge must report a hit (and exactly one nearest hit).
        t1 = Facet.triangle(1, (0, 0, 0), (1, 0, 0), (0, 1, 0))
        t2 = Facet.triangle(2, (0, 0, 0), (1, -1, 0), (1, 0, 0))
        sc = Scene([t1, t2])
        h = intersect((0.5, 0.0, 1.0), (0, 0, -1), sc)
        assert h is not None
        assert h.t == pytest.approx(1.0, abs=1e-12)

    def test_batch_tracer_matches_scalar(self):
        rng = np.random.default_rng(3)
        sc = random_scene(rng, 30)
        origins = rng.uniform(-2, 2, (200, 3))
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ts, idx = rays_nearest_hit(origins, dirs, sc)
        for i in range(200):
            h = intersect(origins[i], dirs[i], sc)
            if h is None:
                assert not np.isfinite(ts[i])
            else:
                assert ts[i] == pytest.approx(h.t, abs=1e-10)
                assert sc.all_facets[idx[i]].id == h.surface_id


class TestOccluded:
    def test_above_ground_clear(self):
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1))])
        assert not occluded((0, 0, 0.5), (1, 0, 0.6), sc)

    def test_plate_blocks(self):
        plate = Facet.rectangle(1, (-0.5, 0.5, 0.0), (1, 0, 0), (0, 0, 1))
        sc = Scene([plate])
        assert occluded((0, 0, 0.5), (0, 1, 0.5), sc)

    def test_edge_graze_is_clear(self):
        # Segment crossing the plate plane within the edge epsilon is not
        # treated as blocked.
        plate = Facet.rectangle(1, (-0.5, 0.5, 0.0), (1, 0, 0), (0, 0, 1))
        sc = Scene([plate])
        z_edge = 1.0  # top edge of the plate
        assert not occluded((0, 0, z_edge + 1e-8), (0, 1, z_edge - 1e-8), sc)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        sc = random_scene(rng, 40)
        for _ in range(100):
            a = rng.uniform(-2, 2, 3)
            b = rng.uniform(-2, 2, 3)
            assert occluded(a, b, sc) == occluded(b, a, sc)

    def test_ignore_set(self):
        plate = Facet.rectangle(1, (-0.5, 0.5, 0.0), (1, 0, 0), (0, 0, 1))
        sc = Scene([plate])
        assert not occluded((0, 0, 0.5), (0, 1, 0.5), sc, ignore={1})

    def test_identical_endpoints_rejected(self):
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1))])
        with pytest.raises(ValueError):
            occluded((0, 0, 0.5), (0, 0, 0.5), sc)


class TestSceneInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)),
                   Facet.plane(1, (0, 0, 1), (0, 0, 1))])

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(ValueError):
            Facet.triangle(1, (0, 0, 0), (1, 0, 0), (2, 0, 0))

    def test_unknown_occluder_id_rejected(self):
        with pytest.raises(ValueError):
            Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1))], occluder_ids=[7])
