"""Path finding (image method + SBR) and polarization transport, all asked
of ImagePathTable."""

import numpy as np
import pytest

from rtbpa.errors import NonPlanarReflector
from rtbpa.fields import _leg_coefficients, _path_tables, _weighted_legs
from rtbpa.geometry import Facet, Scene
from rtbpa.propagation import (ImagePathTable, SbrConfig, enumerate_sequences,
                               enumeration_order, sbr_trace)


def ground_scene():
    return Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1))])


def table_legs(scene, point, antenna, max_order, copol, orientation=None):
    """{sequence: (length, amp, tnorm)} of the valid legs point -> antenna."""
    table = ImagePathTable(scene, [antenna], max_order, copol)
    return {seq: (lengths[0, 0], amp[0, 0], tnorm[0, 0])
            for seq, lengths, amp, tnorm, valid
            in table.eval([point], orientation=orientation) if valid[0, 0]}


def sbr_table_legs(scene, point, antenna, cfg, copol=(0, 1, 0)):
    """{sequence: length} of the valid legs point -> antenna among the
    sequences one SBR launch from `point` captured."""
    table = _path_tables(scene, [np.array([antenna], dtype=float)], copol,
                         cfg.max_bounces, "sbr", cfg)([point])[0]
    return {seq: lengths[0, 0] for seq, lengths, _, _, valid
            in table.eval([point]) if valid[0, 0]}


def leg_weights(scene, point, antenna, max_order, copol):
    """{sequence: (length, weight)} of the legs the reconstruction keeps."""
    table = ImagePathTable(scene, [antenna], max_order, copol)
    legs = _weighted_legs(table, np.array([point], dtype=float),
                          "phase_only")
    return {seq: (lengths[0, 0], w[0, 0])
            for seq, (lengths, w) in zip(table.sequences, legs) if w[0, 0]}


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
    """The images engine: the table over every enumerated sequence."""

    def test_ground_bounce_lengths(self):
        legs = table_legs(ground_scene(), (0, 0, 0.7), (0.8, 0, 0.7), 1,
                          copol=(0, 1, 0))
        assert list(legs) == [(), (1,)]
        assert legs[()][0] == pytest.approx(0.8, abs=1e-12)
        assert legs[(1,)][0] == pytest.approx(np.sqrt(0.8 ** 2 + 1.4 ** 2),
                                              rel=1e-12)

    def test_blocked_los_leaves_bounce(self):
        plate = Facet.rectangle(2, (0.4, -0.5, 0.3), (0, 1, 0), (0, 0, 1))
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)), plate])
        legs = table_legs(sc, (0, 0, 0.7), (0.8, 0, 0.7), 1, copol=(0, 1, 0))
        assert list(legs) == [(1,)]

    def test_order_zero_is_los_only(self):
        legs = table_legs(ground_scene(), (0, 0, 0.7), (0.8, 0, 0.7), 0,
                          copol=(0, 1, 0))
        assert list(legs) == [()]

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)),
                    Facet.rectangle(2, (-1, 1.5, 0.0), (2, 0, 0), (0, 0, 2))])
        checked = 0
        for _ in range(50):
            a = rng.uniform([-1, -1, 0.1], [1, 1, 1.4])
            b = rng.uniform([-1, -1, 0.1], [1, 1, 1.4])
            for length, _, _ in table_legs(sc, a, b, 2,
                                           copol=(0, 1, 0)).values():
                assert length >= np.linalg.norm(b - a) - 1e-9
                checked += 1
        assert checked > 100

    def test_max_order_capped(self):
        with pytest.raises(ValueError):
            ImagePathTable(ground_scene(), [(1, 0, 1)], 6, copol=(0, 1, 0))

    def test_non_planar_kind_rejected(self):
        bogus = Facet(id=9, kind="disk", point=np.zeros(3),
                      normal=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(NonPlanarReflector):
            enumerate_sequences(Scene([bogus]), 1)


class TestFindPathsSbr:
    """The SBR engine: `sbr_trace` picks the sequences, the table evaluates
    them."""

    def test_matches_image_method_with_refine(self):
        sc = ground_scene()
        cfg = SbrConfig(ray_count=50_000, max_bounces=1, capture_radius=0.05,
                        rng_seed=11)
        sbr = sbr_table_legs(sc, (0, 0, 0.7), (0.8, 0, 0.7), cfg)
        exact = table_legs(sc, (0, 0, 0.7), (0.8, 0, 0.7), 1, copol=(0, 1, 0))
        assert list(sbr) == list(exact) == [(), (1,)]
        for seq, length in sbr.items():
            assert length == exact[seq][0]

    def test_trace_returns_sequences_per_antenna(self):
        cfg = SbrConfig(ray_count=50_000, max_bounces=1, capture_radius=0.05,
                        rng_seed=11)
        per_antenna = sbr_trace((0, 0, 0.7), [(0.8, 0, 0.7), (-0.6, 0.3, 0.5)],
                                ground_scene(), cfg)
        assert per_antenna == [{(), (1,)}, {(), (1,)}]

    def test_one_point_block_launches_the_point_rays(self):
        # Pinned to the captures of the one-point tracer that predates point
        # blocks: a (1, 3) block and a bare point launch the same rays.
        plate = Facet.rectangle(2, (-1, 1.5, 0.0), (2, 0, 0), (0, 0, 2))
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)), plate])
        cfg = SbrConfig(ray_count=3_000, max_bounces=2, capture_radius=0.1,
                        rng_seed=7)
        antennas = [(0.5, 0.8, 0.9), (-0.4, 0.6, 0.3)]
        expected = [{(), (1,), (2,)}, {(), (1,), (1, 2), (2,), (2, 1)}]
        assert sbr_trace((0.1, 0, 0.6), antennas, sc, cfg) == expected
        assert sbr_trace([[0.1, 0, 0.6]], antennas, sc, cfg) == expected

    @pytest.mark.parametrize("extra", [0, 3, 6])
    def test_block_gives_every_point_a_ray(self, extra):
        # Each point has an antenna 1 cm away, inside the capture radius of
        # every ray it launches; the points are 5 m apart.
        points = np.array([[5.0 * i, 0.0, 0.0] for i in range(7)])
        cfg = SbrConfig(ray_count=len(points) + extra, max_bounces=0,
                        capture_radius=0.05, rng_seed=1)
        per_antenna = sbr_trace(points, points + [0.0, 0.0, 0.01], Scene([]),
                                cfg)
        assert per_antenna == [{()}] * len(points)

    def test_sequences_sorted_as_enumerated(self):
        # Facet positions, not ids, order the sequences of one length.
        sc = Scene([Facet.plane(5, (0, 0, 0), (0, 0, 1)),
                    Facet.plane(2, (0, 2, 0), (0, 1, 0)),
                    Facet.plane(3, (2, 0, 0), (1, 0, 0))])
        every = enumerate_sequences(sc, 2)
        assert every[1:4] == [(5,), (2,), (3,)]
        assert enumeration_order(every[::-1], sc) == every
        some = every[::3]
        assert enumeration_order(set(some), sc) == some

    def test_single_missing_ray_gives_empty(self):
        cfg = SbrConfig(ray_count=1, max_bounces=0, capture_radius=0.01,
                        rng_seed=0)
        assert sbr_trace((0, 0, 0.7), [(5.0, 0, 0.7)], ground_scene(),
                         cfg) == [set()]

    def test_zero_bounce_los_exact(self):
        cfg = SbrConfig(ray_count=20_000, max_bounces=0, capture_radius=0.05,
                        rng_seed=3)
        legs = sbr_table_legs(ground_scene(), (0, 0, 0.7), (0.8, 0, 0.7), cfg)
        assert list(legs) == [()]
        assert legs[()] == pytest.approx(0.8, abs=1e-12)

    def test_deterministic(self):
        sc = ground_scene()
        cfg = SbrConfig(ray_count=30_000, max_bounces=1, capture_radius=0.05,
                        rng_seed=5)
        a = sbr_trace((0, 0, 0.7), [(0.8, 0, 0.7)], sc, cfg)
        b = sbr_trace((0, 0, 0.7), [(0.8, 0, 0.7)], sc, cfg)
        assert a == b
        assert sbr_table_legs(sc, (0, 0, 0.7), (0.8, 0, 0.7), cfg) == \
            sbr_table_legs(sc, (0, 0, 0.7), (0.8, 0, 0.7), cfg)  # bit-for-bit

    def test_hash_subset_of_image_method(self):
        # With a modest ray budget the SBR set may be incomplete but never
        # contains a sequence the exact enumeration rejects.
        plate = Facet.rectangle(2, (-1, 1.5, 0.0), (2, 0, 0), (0, 0, 2))
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)), plate])
        exact = table_legs(sc, (0.1, 0, 0.6), (0.5, 0.8, 0.9), 2,
                           copol=(0, 1, 0))
        cfg = SbrConfig(ray_count=2_000, max_bounces=2, capture_radius=0.05,
                        rng_seed=7)
        sbr = sbr_table_legs(sc, (0.1, 0, 0.6), (0.5, 0.8, 0.9), cfg)
        assert sbr and set(sbr) <= set(exact)

    def test_blocked_los_not_captured(self):
        plate = Facet.rectangle(2, (0.4, -0.5, 0.3), (0, 1, 0), (0, 0, 1))
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)), plate])
        cfg = SbrConfig(ray_count=50_000, max_bounces=1, capture_radius=0.05,
                        rng_seed=9)
        captured = sbr_trace((0, 0, 0.7), [(0.8, 0, 0.7)], sc, cfg)[0]
        assert captured and () not in captured

    def test_nan_capture_radius_rejected(self):
        # A NaN radius would capture nothing, silently.
        with pytest.raises(ValueError, match="capture_radius"):
            SbrConfig(capture_radius=float("nan"))


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
        point = np.array([0, 0, 0.7])
        straight = (np.linalg.norm(np.array([0.8, 0.1, 0.9]) - point)
                    + np.linalg.norm(np.array([-0.5, 0.6, 0.8]) - point))
        assert lt + lr == pytest.approx(straight, abs=1e-12)

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
