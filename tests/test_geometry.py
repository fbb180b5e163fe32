"""Geometry primitives: mirroring, intersection, occlusion."""

import numpy as np
import pytest

from rtbpa.geometry import (Facet, Scene, intersect, mirror_points,
                            rays_nearest_hit, segments_blocked)


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


class TestMirrorPoint:
    def test_ground_plane(self):
        g = Facet.plane(1, (0, 0, 0), (0, 0, 1))
        assert np.allclose(mirror_points((0, 0, 0.7), g), (0, 0, -0.7))

    def test_fixed_point(self):
        g = Facet.plane(1, (0, 0, 0), (0, 0, 1))
        assert np.allclose(mirror_points((0.3, -0.2, 0.0), g),
                           (0.3, -0.2, 0.0))

    def test_offset_plane(self):
        f = Facet.plane(2, (2, 0, 0), (1, 0, 0))
        assert np.allclose(mirror_points((1, 1, 1), f), (3, 1, 1))

    def test_involution(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            f = Facet.plane(1, rng.uniform(-1, 1, 3), rng.normal(size=3))
            p = rng.uniform(-2, 2, (4, 3))
            back = mirror_points(mirror_points(p, f), f)
            assert np.linalg.norm(back - p, axis=1).max() < 1e-12


class TestIntersect:
    def test_ray_to_ground(self):
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1))])
        t, fi = intersect((0, 0, 1), (0, 0, -1), sc)
        assert t == pytest.approx(1.0, abs=1e-12)
        assert sc.all_facets[fi].id == 1

    def test_parallel_ray_misses(self):
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1))])
        assert intersect((0, 0, 1), (1, 0, 0), sc) == (np.inf, -1)

    def test_shared_edge_watertight(self):
        # Two triangles sharing the edge x in [0,1], y = 0: a ray through the
        # shared edge must report a hit (and exactly one nearest hit).
        t1 = Facet.triangle(1, (0, 0, 0), (1, 0, 0), (0, 1, 0))
        t2 = Facet.triangle(2, (0, 0, 0), (1, -1, 0), (1, 0, 0))
        sc = Scene([t1, t2])
        t, fi = intersect((0.5, 0.0, 1.0), (0, 0, -1), sc)
        assert fi in (0, 1)
        assert t == pytest.approx(1.0, abs=1e-12)

    def test_batch_tracer_matches_scalar(self):
        rng = np.random.default_rng(3)
        sc = random_scene(rng, 30)
        origins = rng.uniform(-2, 2, (200, 3))
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ts, idx = rays_nearest_hit(origins, dirs, sc)
        for i in range(200):
            assert intersect(origins[i], dirs[i], sc) == \
                (pytest.approx(ts[i], abs=1e-10), idx[i])


class TestOccluded:
    def test_above_ground_clear(self):
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1))])
        assert not segments_blocked((0, 0, 0.5), (1, 0, 0.6), sc)

    def test_plate_blocks(self):
        plate = Facet.rectangle(1, (-0.5, 0.5, 0.0), (1, 0, 0), (0, 0, 1))
        sc = Scene([plate])
        assert segments_blocked((0, 0, 0.5), (0, 1, 0.5), sc)

    def test_edge_graze_is_clear(self):
        # Segment crossing the plate plane within the edge epsilon is not
        # treated as blocked.
        plate = Facet.rectangle(1, (-0.5, 0.5, 0.0), (1, 0, 0), (0, 0, 1))
        sc = Scene([plate])
        z_edge = 1.0  # top edge of the plate
        assert not segments_blocked((0, 0, z_edge + 1e-8),
                                    (0, 1, z_edge - 1e-8), sc)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        sc = random_scene(rng, 40)
        a = rng.uniform(-2, 2, (100, 3))
        b = rng.uniform(-2, 2, (100, 3))
        blocked = segments_blocked(a, b, sc)
        assert blocked.any() and not blocked.all()
        assert np.array_equal(blocked, segments_blocked(b, a, sc))

    def test_ignore_set(self):
        plate = Facet.rectangle(1, (-0.5, 0.5, 0.0), (1, 0, 0), (0, 0, 1))
        sc = Scene([plate])
        assert not segments_blocked((0, 0, 0.5), (0, 1, 0.5), sc, ignore={1})


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
