"""Path finding (image method + SBR), hashing, and polarization transport."""

import numpy as np
import pytest

from rtbpa.errors import NonPlanarReflector
from rtbpa.fields import _leg_coefficients, _weighted_legs
from rtbpa.geometry import Facet, Scene
from rtbpa.propagation import (ImagePathTable, SbrConfig, enumerate_sequences,
                               find_paths_images, find_paths_sbr, path_hash,
                               sbr_trace)


def ground_scene():
    return Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1))])


def table_legs(scene, point, antenna, max_order, copol, orientation=None):
    """{sequence: (length, amp, tnorm)} of the valid legs point -> antenna."""
    table = ImagePathTable(scene, [antenna], max_order, copol)
    return {seq: (lengths[0, 0], amp[0, 0], tnorm[0, 0])
            for seq, lengths, amp, tnorm, valid
            in table.eval([point], orientation=orientation) if valid[0, 0]}


def leg_weights(scene, point, antenna, max_order, copol):
    """{sequence: (length, weight)} of the legs the reconstruction keeps."""
    table = ImagePathTable(scene, [antenna], max_order, copol)
    legs = _weighted_legs(table, np.array([point], dtype=float),
                          "phase_only")
    return {seq: (lengths[0, 0], w[0, 0])
            for seq, (lengths, w) in zip(table.sequences, legs) if w[0, 0]}


class TestPathHash:
    def test_empty_is_zero(self):
        assert path_hash([]) == 0

    def test_singletons_distinct(self):
        assert path_hash([3]) != path_hash([7])

    def test_order_sensitive(self):
        assert path_hash([3, 7]) != path_hash([7, 3])

    def test_reversal_differs_unless_palindrome(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            seq = tuple(int(s) for s in rng.integers(0, 6,
                                                     size=rng.integers(1, 6)))
            if seq == seq[::-1]:
                assert path_hash(seq) == path_hash(seq[::-1])
            else:
                assert path_hash(seq) != path_hash(seq[::-1])


class TestTransportPolarization:
    """PEC polarization transport, as ImagePathTable evaluates it: `amp` is
    the co-pol projection of the transported transverse launch field."""

    def test_s_pol_single_bounce_flips(self):
        legs = table_legs(ground_scene(), (0, 0, 0.7), (0.8, 0, 0.7), 1,
                          copol=(0, 1, 0))
        # y is perpendicular to the y=0 bounce plane: the field flips.
        _, amp, tnorm = legs[(1,)]
        assert tnorm == pytest.approx(1.0, abs=1e-12)
        assert amp == pytest.approx(-1.0, abs=1e-12)

    def test_los_identity(self):
        legs = table_legs(ground_scene(), (0, 0, 0.7), (0.8, 0, 0.7), 0,
                          copol=(0, 1, 0))
        assert legs[()][1] == pytest.approx(1.0, abs=1e-12)

    def test_double_bounce_restores_sign(self):
        # Two bounces off parallel planes: the s-pol field flips twice.
        sc = Scene([Facet.plane(1, (-0.5, 0, 0), (1, 0, 0)),
                    Facet.plane(2, (0.5, 0, 0), (1, 0, 0))])
        legs = table_legs(sc, (0, 0, 0.0), (0.2, 2.0, 0.0), 2,
                          copol=(0, 0, 1))
        double = [v for seq, v in legs.items() if len(seq) == 2]
        assert double
        for _, amp, _ in double:
            assert amp == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved_random(self):
        # The transported field has the launch field's norm: its squared
        # projections on three orthonormal co-pol vectors sum to tnorm^2.
        rng = np.random.default_rng(1)
        sc = ground_scene()
        checked = 0
        for _ in range(50):
            a = rng.uniform([-1, -1, 0.2], [1, 1, 1.5])
            b = rng.uniform([-1, -1, 0.2], [1, 1, 1.5])
            ori = rng.normal(size=3)
            per_axis = [table_legs(sc, a, b, 1, copol=c, orientation=ori)
                        for c in np.eye(3)]
            if (1,) not in per_axis[0]:
                continue
            tnorm = per_axis[0][(1,)][2]
            total = sum(legs[(1,)][1] ** 2 for legs in per_axis)
            assert total == pytest.approx(tnorm ** 2, abs=1e-12)
            checked += 1
        assert checked > 10

    def test_non_transverse_e0_rejected(self):
        # A launch field along the first segment has no transverse part, so
        # the bounced leg carries nothing and is dropped.
        point = np.array([0.0, 0.0, 0.7])
        along = np.array([0.4, 0.0, 0.0]) - point  # towards the bounce point
        legs = table_legs(ground_scene(), point, (0.8, 0, 0.7), 1,
                          copol=(1, 0, 0), orientation=along)
        length, amp, tnorm = legs[(1,)]
        assert tnorm < 1e-12
        coeff = _leg_coefficients(1, np.array(amp), np.array(tnorm),
                                  np.array(True), np.array(length),
                                  "phase_only")
        assert coeff == 0.0

    def test_los_always_kept_with_positive_sign(self):
        # The co-pol vector is almost along the LOS leg, which would be
        # cross-polarized; zero-bounce legs are kept with sign +1 anyway.
        legs = leg_weights(ground_scene(), (0, 0, 0.7), (0.9, 0, 0.701), 0,
                           copol=(1, 0, 0))
        assert list(legs) == [()]
        assert legs[()][1] == 1.0


class TestFindPathsImages:
    def test_ground_bounce_lengths(self):
        paths = find_paths_images((0, 0, 0.7), (0.8, 0, 0.7),
                                  ground_scene(), 1)
        assert len(paths) == 2
        assert paths[0].interaction_sequence == ()
        assert paths[0].total_length == pytest.approx(0.8, abs=1e-12)
        assert paths[1].interaction_sequence == (1,)
        assert paths[1].total_length == pytest.approx(
            np.sqrt(0.8 ** 2 + 1.4 ** 2), rel=1e-12)

    def test_blocked_los_leaves_bounce(self):
        plate = Facet.rectangle(2, (0.4, -0.5, 0.3), (0, 1, 0), (0, 0, 1))
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)), plate])
        paths = find_paths_images((0, 0, 0.7), (0.8, 0, 0.7), sc, 1)
        assert [p.interaction_sequence for p in paths] == [(1,)]

    def test_order_zero_is_los_only(self):
        paths = find_paths_images((0, 0, 0.7), (0.8, 0, 0.7),
                                  ground_scene(), 0)
        assert len(paths) == 1
        assert paths[0].order == 0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)),
                    Facet.rectangle(2, (-1, 1.5, 0.0), (2, 0, 0), (0, 0, 2))])
        for _ in range(50):
            a = rng.uniform([-1, -1, 0.1], [1, 1, 1.4])
            b = rng.uniform([-1, -1, 0.1], [1, 1, 1.4])
            for p in find_paths_images(a, b, sc, 2):
                straight = np.linalg.norm(b - a)
                assert p.total_length >= straight - 1e-9
                segs = np.diff(p.points(), axis=0)
                assert p.total_length == pytest.approx(
                    np.linalg.norm(segs, axis=1).sum(), abs=1e-9)
                assert p.vertices.shape[0] == len(p.interaction_sequence)

    def test_max_order_capped(self):
        with pytest.raises(ValueError):
            find_paths_images((0, 0, 1), (1, 0, 1), ground_scene(), 6)

    def test_non_planar_kind_rejected(self):
        bogus = Facet(id=9, kind="disk", point=np.zeros(3),
                      normal=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(NonPlanarReflector):
            enumerate_sequences(Scene([bogus]), 1)


class TestFindPathsSbr:
    def test_matches_image_method_with_refine(self):
        sc = ground_scene()
        cfg = SbrConfig(ray_count=50_000, max_bounces=1, capture_radius=0.05,
                        rng_seed=11)
        sbr = find_paths_sbr((0, 0, 0.7), (0.8, 0, 0.7), sc, cfg)
        exact = find_paths_images((0, 0, 0.7), (0.8, 0, 0.7), sc, 1)
        assert {p.hash for p in sbr} == {p.hash for p in exact}
        for ps, pe in zip(sbr, exact):
            assert ps.total_length == pytest.approx(pe.total_length,
                                                    abs=1e-9)

    def test_trace_returns_sequences_per_antenna(self):
        cfg = SbrConfig(ray_count=50_000, max_bounces=1, capture_radius=0.05,
                        rng_seed=11)
        per_antenna = sbr_trace((0, 0, 0.7), [(0.8, 0, 0.7), (-0.6, 0.3, 0.5)],
                                ground_scene(), cfg)
        assert per_antenna == [{(), (1,)}, {(), (1,)}]

    def test_single_missing_ray_gives_empty(self):
        cfg = SbrConfig(ray_count=1, max_bounces=0, capture_radius=0.01,
                        rng_seed=0)
        assert find_paths_sbr((0, 0, 0.7), (5.0, 0, 0.7), ground_scene(),
                              cfg) == []

    def test_zero_bounce_los_exact(self):
        cfg = SbrConfig(ray_count=20_000, max_bounces=0, capture_radius=0.05,
                        rng_seed=3)
        paths = find_paths_sbr((0, 0, 0.7), (0.8, 0, 0.7), ground_scene(), cfg)
        assert len(paths) == 1
        assert paths[0].total_length == pytest.approx(0.8, abs=1e-12)

    def test_deterministic(self):
        sc = ground_scene()
        cfg = SbrConfig(ray_count=30_000, max_bounces=1, capture_radius=0.05,
                        rng_seed=5)
        a = find_paths_sbr((0, 0, 0.7), (0.8, 0, 0.7), sc, cfg)
        b = find_paths_sbr((0, 0, 0.7), (0.8, 0, 0.7), sc, cfg)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.hash == pb.hash
            assert pa.total_length == pb.total_length  # bit-for-bit

    def test_hash_subset_of_image_method(self):
        # With a modest ray budget the SBR set may be incomplete but never
        # contains a sequence the exact enumeration rejects.
        plate = Facet.rectangle(2, (-1, 1.5, 0.0), (2, 0, 0), (0, 0, 2))
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)), plate])
        exact = {p.hash for p in
                 find_paths_images((0.1, 0, 0.6), (0.5, 0.8, 0.9), sc, 2)}
        cfg = SbrConfig(ray_count=2_000, max_bounces=2, capture_radius=0.05,
                        rng_seed=7)
        sbr = {p.hash for p in
               find_paths_sbr((0.1, 0, 0.6), (0.5, 0.8, 0.9), sc, cfg)}
        assert sbr <= exact

    def test_blocked_los_not_captured(self):
        plate = Facet.rectangle(2, (0.4, -0.5, 0.3), (0, 1, 0), (0, 0, 1))
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)), plate])
        cfg = SbrConfig(ray_count=50_000, max_bounces=1, capture_radius=0.05,
                        rng_seed=9)
        paths = find_paths_sbr((0, 0, 0.7), (0.8, 0, 0.7), sc, cfg)
        assert all(p.order >= 1 for p in paths)


class TestPairWavefronts:
    """A scattering wavefront pairs one tx leg with one rx leg; the sum
    weighs it by the product wt * wr of the two leg weights."""

    def test_product_cardinality(self):
        from rtbpa.fields import (AntennaArray, FrequencySweep, PointScatterer,
                                  synthesize_scattering_data)
        sc = ground_scene()
        target = np.array([0.0, 0.0, 0.7])
        tx, rx = np.array([0.8, 0.1, 0.9]), np.array([-0.5, 0.6, 0.8])
        sweep = FrequencySweep(18e9, 18.5e9, 100e6)
        ms = synthesize_scattering_data(
            [PointScatterer(target)],
            AntennaArray(tx_positions=[tx], rx_positions=[rx],
                         copol=(0, 1, 0)), sc, sweep, max_order=1)
        tx_legs = leg_weights(sc, target, tx, 1, (0, 1, 0))
        rx_legs = leg_weights(sc, target, rx, 1, (0, 1, 0))
        pairs = [(lt + lr, wt * wr) for lt, wt in tx_legs.values()
                 for lr, wr in rx_legs.values()]
        assert len(pairs) == 4
        expected = sum(w * np.exp(-1j * sweep.k_values * length)
                       for length, w in pairs)
        assert np.allclose(ms.samples[0, 0], expected, atol=1e-12)

    def test_los_pair_delta_zero(self):
        sc = ground_scene()
        lt, wt = leg_weights(sc, (0, 0, 0.7), (0.8, 0.1, 0.9), 1,
                             (0, 1, 0))[()]
        lr, wr = leg_weights(sc, (0, 0, 0.7), (-0.5, 0.6, 0.8), 1,
                             (0, 1, 0))[()]
        assert wt * wr == 1.0
        tx = find_paths_images((0, 0, 0.7), (0.8, 0.1, 0.9), sc, 0)
        rx = find_paths_images((0, 0, 0.7), (-0.5, 0.6, 0.8), sc, 0)
        assert lt + lr == pytest.approx(
            tx[0].total_length + rx[0].total_length, abs=1e-12)

    def test_los_times_s_pol_bounce_delta_one(self):
        sc = ground_scene()
        # Geometry in the x=0 plane so that x-polarization is purely s-pol.
        tx = leg_weights(sc, (0, 0, 0.7), (0, 0.9, 0.8), 0, (1, 0, 0))
        rx = leg_weights(sc, (0, 0, 0.7), (0, -0.8, 0.6), 1, (1, 0, 0))
        assert list(tx) == [()]
        assert tx[()][1] * rx[(1,)][1] == -1.0

    def test_cross_polarized_leg_excluded(self):
        sc = ground_scene()
        # The co-pol vector is nearly y: for this geometry the transported
        # transverse field at the ground bounce stays well away from cross-pol.
        tx = leg_weights(sc, (0, 0, 0.7), (0, 0.9, 0.7), 0,
                         (0, 0.9995, 0.0312))
        rx = leg_weights(sc, (0, 0, 0.7), (0, -0.8, 0.6), 1,
                         (0, 0.9995, 0.0312))
        assert tx[()][1] * rx[(1,)][1] != 0.0  # kept: projection is healthy


class TestImagePathTableConsistency:
    def test_fast_eval_matches_reference(self):
        rng = np.random.default_rng(12)
        plate = Facet.rectangle(2, (-0.7, 0.4, 0.41), (1.4, 0, 0),
                                (0, 0, 0.55))
        tri = Facet.triangle(3, (0.6, -0.4, 0.2), (0.6, 0.7, 0.2),
                             (0.6, 0.1, 1.3))
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)), plate, tri])
        ants = rng.uniform([-0.6, 0.9, 0.2], [0.6, 1.1, 1.2], size=(25, 3))
        table = ImagePathTable(sc, ants, 2, copol=(1, 0, 0))
        pts = rng.uniform([-0.6, -0.9, 0.05], [0.6, 0.3, 1.3], size=(30, 3))
        for fast, ref in zip(table.eval(pts), table.eval_reference(pts)):
            assert fast[0] == ref[0]
            assert np.array_equal(fast[4], ref[4])  # valid masks
            assert np.allclose(fast[1], ref[1], atol=1e-9)  # lengths
            assert np.allclose(np.where(fast[4], fast[2], 0.0),
                               np.where(ref[4], ref[2], 0.0), atol=1e-9)

    def test_fast_eval_matches_reference_any_orientation(self):
        # Repeated calls on one table with a fresh orientation each time: no
        # value computed for an earlier orientation may leak into a later one.
        rng = np.random.default_rng(13)
        plate = Facet.rectangle(2, (-0.7, 0.4, 0.41), (1.4, 0, 0),
                                (0, 0, 0.55))
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)), plate])
        ants = rng.uniform([-0.6, 0.9, 0.2], [0.6, 1.1, 1.2], size=(8, 3))
        table = ImagePathTable(sc, ants, 2, copol=(1, 0, 0))
        for _ in range(40):
            pts = rng.uniform([-0.5, -0.5, 0.2], [0.5, 0.3, 1.0], size=(4, 3))
            ori = rng.normal(size=3)
            for fast, ref in zip(table.eval(pts, orientation=ori),
                                 table.eval_reference(pts, orientation=ori)):
                assert np.array_equal(fast[4], ref[4])
                assert np.allclose(np.where(fast[4], fast[2], 0.0),
                                   np.where(ref[4], ref[2], 0.0), atol=1e-9)
                assert np.allclose(fast[3], ref[3], atol=1e-9)  # tnorm
