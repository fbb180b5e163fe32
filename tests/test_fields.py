"""Dipole fields, image theory, and forward measurement synthesis."""

import numpy as np
import pytest

from rtbpa.errors import EmptyInput, Singular
from rtbpa.fields import (AntennaArray, DipoleSource, FrequencySweep,
                          MeasurementSet, PointScatterer, add_noise,
                          dipole_field, image_dipole,
                          synthesize_radiation_data,
                          synthesize_scattering_data)
from rtbpa.geometry import Facet, Scene
from rtbpa.propagation import ImagePathTable

C0 = 299792458.0
K = 2 * np.pi * 19e9 / C0
GROUND = Facet.plane(1, (0, 0, 0), (0, 0, 1))


def free_space():
    return Scene([])


class TestDipoleField:
    def test_on_axis_null(self):
        src = DipoleSource((0, 0, 0), (0, 0, 1))
        assert np.linalg.norm(dipole_field((0, 0, 1), src, K,
                                           "far_field")) == 0.0

    def test_phase_only_broadside(self):
        src = DipoleSource((0, 0, 0), (0, 0, 1))
        r = 0.83
        v = dipole_field((r, 0, 0), src, K, "phase_only")
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        # Pattern points along the dipole axis at broadside.
        proj = v @ np.array([0, 0, 1.0])
        assert np.angle(proj) == pytest.approx(
            np.angle(np.exp(-1j * K * r)), abs=1e-12)

    def test_far_field_normalization(self):
        src = DipoleSource((0, 0, 0), (0, 0, 1))
        v = dipole_field((1.0, 0, 0), src, K, "far_field")
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_full_vs_far_at_kr_100(self):
        src = DipoleSource((0, 0, 0), (0, 0, 1))
        r = 100.0 / K
        full = np.linalg.norm(dipole_field((r, 0, 0), src, K, "full"))
        far = np.linalg.norm(dipole_field((r, 0, 0), src, K, "far_field"))
        assert abs(full - far) / far < 2e-4

    def test_singular(self):
        src = DipoleSource((0.1, 0.2, 0.3), (0, 0, 1))
        with pytest.raises(Singular):
            dipole_field((0.1, 0.2, 0.3), src, K)


class TestImageDipole:
    def test_vertical_dipole(self):
        img = image_dipole(DipoleSource((0, 0, 0.7), (0, 0, 1)), GROUND)
        assert np.allclose(img.position, (0, 0, -0.7))
        assert np.allclose(img.orientation, (0, 0, 1))

    def test_horizontal_dipole_flips(self):
        img = image_dipole(DipoleSource((0, 0, 0.7), (1, 0, 0)), GROUND)
        assert np.allclose(img.position, (0, 0, -0.7))
        assert np.allclose(img.orientation, (-1, 0, 0))

    def test_in_plane_horizontal_dipole_cancels(self):
        src = DipoleSource((0, 0, 0.0), (1, 0, 0))
        img = image_dipole(src, GROUND)
        p = np.array([0.4, 0.3, 0.0])
        tot = dipole_field(p, src, K, "full") + dipole_field(p, img, K, "full")
        assert np.linalg.norm(tot[:2]) < 1e-12

    def test_tangential_cancellation_random(self):
        rng = np.random.default_rng(5)
        ori = rng.normal(size=3)
        src = DipoleSource((0.1, -0.2, 0.6), ori / np.linalg.norm(ori))
        img = image_dipole(src, GROUND)
        for _ in range(100):
            p = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0])
            tot = (dipole_field(p, src, K, "full")
                   + dipole_field(p, img, K, "full"))
            inc = dipole_field(p, src, K, "full")
            assert np.linalg.norm(tot[:2]) < 1e-9 * np.linalg.norm(inc)


def small_arrays(n_rx=6, y=1.0):
    rng = np.random.default_rng(8)
    rx = rng.uniform([-0.5, y, 0.3], [0.5, y + 0.2, 1.1], size=(n_rx, 3))
    return AntennaArray(tx_positions=np.zeros((0, 3)), rx_positions=rx,
                        copol=(1, 0, 0))


SWEEP = FrequencySweep(18e9, 20e9, 100e6)


class TestSweep:
    def test_count_21(self):
        assert SWEEP.count == 21
        assert SWEEP.frequencies[0] == 18e9
        assert SWEEP.frequencies[-1] == pytest.approx(20e9)

    def test_k_values(self):
        assert SWEEP.k_values[0] == pytest.approx(2 * np.pi * 18e9 / C0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            FrequencySweep(20e9, 18e9, 1e8)
        with pytest.raises(ValueError):
            FrequencySweep(18e9, 20e9, 0.0)


class TestSynthesizeRadiation:
    def test_free_space_los_phase(self):
        arrays = small_arrays()
        src = DipoleSource((0, 0, 0.7), (1, 0, 0))
        ms = synthesize_radiation_data([src], arrays, free_space(), SWEEP)
        assert ms.mode == "radiation"
        assert ms.samples.shape == (1, 6, 21)
        lengths = np.linalg.norm(arrays.rx_positions - src.position, axis=1)
        expected = np.exp(-1j * np.outer(lengths, SWEEP.k_values))
        assert np.allclose(ms.samples[0], expected, atol=1e-12)

    def test_s_pol_bounce_sign(self):
        # Blocked LOS leaves only the ground bounce, whose co-pol sign is -1
        # for x-polarization (tangential to the ground).
        plate = Facet.rectangle(2, (-1.0, 0.5, 0.35), (2, 0, 0), (0, 0, 0.7))
        sc = Scene([GROUND, plate])
        src = DipoleSource((0, 0, 0.7), (1, 0, 0))
        rx = np.array([[0.0, 1.0, 0.75]])
        arrays = AntennaArray(tx_positions=np.zeros((0, 3)), rx_positions=rx,
                              copol=(1, 0, 0))
        ms = synthesize_radiation_data([src], arrays, sc, SWEEP, max_order=1)
        mirror = np.array([0.0, 0.0, -0.7])
        bounce_len = np.linalg.norm(rx[0] - mirror)
        expected = -np.exp(-1j * SWEEP.k_values * bounce_len)
        assert np.allclose(ms.samples[0, 0], expected, atol=1e-12)

    def test_superposition(self):
        arrays = small_arrays()
        sc = Scene([GROUND])
        s1 = DipoleSource((0.1, 0, 0.7), (1, 0, 0))
        s2 = DipoleSource((-0.2, 0.1, 0.5), (1, 0, 0), amplitude=0.5 - 0.25j)
        both = synthesize_radiation_data([s1, s2], arrays, sc, SWEEP)
        one = synthesize_radiation_data([s1], arrays, sc, SWEEP)
        two = synthesize_radiation_data([s2], arrays, sc, SWEEP)
        assert np.allclose(both.samples, one.samples + two.samples,
                           atol=1e-12)

    def test_amplitude_linearity(self):
        arrays = small_arrays()
        sc = Scene([GROUND])
        base = DipoleSource((0.1, 0, 0.7), (1, 0, 0))
        scaled = DipoleSource((0.1, 0, 0.7), (1, 0, 0), amplitude=2.5j)
        a = synthesize_radiation_data([base], arrays, sc, SWEEP)
        b = synthesize_radiation_data([scaled], arrays, sc, SWEEP)
        assert np.allclose(b.samples, 2.5j * a.samples, atol=1e-12)

    def test_empty_sources(self):
        with pytest.raises(EmptyInput):
            synthesize_radiation_data([], small_arrays(), free_space(), SWEEP)

    def test_image_theory_phase_consistency(self):
        # Two independent routes to the ground-bounce field: GO transport of
        # the launch polarization vs the far field of the image dipole.
        rng = np.random.default_rng(11)
        sc = Scene([GROUND])
        copol = np.array([1.0, 0.0, 0.0])
        src = DipoleSource((0.05, -0.1, 0.7), copol)
        rx = rng.uniform([-0.5, 0.8, 0.3], [0.5, 1.3, 1.2], size=(40, 3))
        arrays = AntennaArray(tx_positions=np.zeros((0, 3)),
                              rx_positions=rx, copol=copol)
        sweep = FrequencySweep(19e9, 19e9, 1e8)
        ms = synthesize_radiation_data([src], arrays, sc, sweep, max_order=1,
                                       amplitude="far_field")
        img = image_dipole(src, GROUND)
        kk = sweep.k_values[0]
        ref = np.array([
            (dipole_field(r, src, kk, "far_field")
             + dipole_field(r, img, kk, "far_field")) @ copol for r in rx])
        syn = ms.samples[0, :, 0]
        assert np.abs(np.angle(syn / ref)).max() < 1e-9

    def test_bounce_pol_sign_matches_image_dipole(self):
        sc = Scene([GROUND])
        copol = np.array([1.0, 0.0, 0.0])
        src = DipoleSource((0.05, -0.1, 0.7), copol)
        img = image_dipole(src, GROUND)
        kk = 2 * np.pi * 19e9 / C0
        rng = np.random.default_rng(13)
        for _ in range(20):
            r = rng.uniform([-0.5, 0.8, 0.3], [0.5, 1.3, 1.2])
            table = ImagePathTable(sc, [r], 1, copol)
            (_, length, amp, _, valid), = [
                leg for leg in table.eval(src.position[None], copol)
                if leg[0] == (1,)]
            assert valid[0, 0]
            # Undo the propagation phase; the remaining co-pol amplitude of
            # the image-dipole field is real and carries the bounce sign.
            a_img = (dipole_field(r, img, kk, "far_field") @ copol
                     * np.exp(1j * kk * length[0, 0]))
            assert abs(a_img.imag) < 1e-9 * abs(a_img)
            assert np.sign(a_img.real) == np.sign(amp[0, 0])

    def test_sbr_engine_matches_images(self):
        from rtbpa.propagation import SbrConfig
        arrays = small_arrays(n_rx=3)
        sc = Scene([GROUND])
        src = DipoleSource((0, 0, 0.7), (1, 0, 0))
        ref = synthesize_radiation_data([src], arrays, sc, SWEEP, max_order=1)
        sbr = synthesize_radiation_data(
            [src], arrays, sc, SWEEP, max_order=1, path_engine="sbr",
            sbr=SbrConfig(ray_count=300_000, max_bounces=1,
                          capture_radius=0.05, rng_seed=2))
        assert np.allclose(sbr.samples, ref.samples, atol=1e-9)

    def test_sbr_order_refused_before_launch(self, monkeypatch):
        from rtbpa.propagation import MAX_ORDER, SbrConfig

        def launch(*args, **kwargs):
            raise AssertionError("rays launched")

        monkeypatch.setattr("rtbpa.fields.sbr_trace", launch)
        with pytest.raises(ValueError):
            synthesize_radiation_data(
                [DipoleSource((0, 0, 0.7), (1, 0, 0))], small_arrays(),
                Scene([GROUND]), SWEEP, path_engine="sbr",
                sbr=SbrConfig(ray_count=10, max_bounces=MAX_ORDER + 1))

    @pytest.mark.parametrize("engine", ["images", "sbr"])
    def test_superposition_mixed_orientations(self, engine):
        # Sources of different orientations: each keeps its own launch
        # polarization, whatever the sources before it. SBR source i is
        # launched with rng_seed + i, so the one-source runs shift the seed.
        from dataclasses import replace

        from rtbpa.propagation import SbrConfig
        arrays = small_arrays()
        sc = Scene([GROUND])
        cfg = SbrConfig(ray_count=20_000, max_bounces=1, rng_seed=4)
        rng = np.random.default_rng(21)
        sources = [DipoleSource(rng.uniform([-0.2, -0.2, 0.5],
                                            [0.2, 0.2, 0.9]),
                                rng.normal(size=3), amplitude=1.0 - 0.5j * i)
                   for i in range(8)]
        both = synthesize_radiation_data(sources, arrays, sc, SWEEP,
                                         path_engine=engine, sbr=cfg)
        parts = sum(synthesize_radiation_data(
            [src], arrays, sc, SWEEP, path_engine=engine,
            sbr=replace(cfg, rng_seed=cfg.rng_seed + i)).samples
            for i, src in enumerate(sources))
        assert np.allclose(both.samples, parts, atol=1e-12)


def scattering_arrays():
    tx = np.array([[0.0, -1.0, 0.8], [0.3, -1.0, 0.5]])
    rx = np.array([[0.1, 1.0, 0.9], [-0.4, 1.0, 0.4], [0.5, 1.0, 0.7]])
    return AntennaArray(tx_positions=tx, rx_positions=rx, copol=(1, 0, 0))


class TestSynthesizeScattering:
    def test_monostatic_round_trip_phase(self):
        pos = np.array([[0.0, 0.0, 0.7]])
        arrays = AntennaArray(tx_positions=pos + [0, 1, 0],
                              rx_positions=pos + [0, 1, 0], copol=(1, 0, 0))
        rho = 0.7 - 0.2j
        ms = synthesize_scattering_data([PointScatterer((0, 0, 0.7), rho)],
                                        arrays, free_space(), SWEEP)
        assert np.allclose(ms.samples[0, 0],
                           rho * np.exp(-2j * SWEEP.k_values * 1.0),
                           atol=1e-12)

    def test_zero_reflectivity(self):
        ms = synthesize_scattering_data(
            [PointScatterer((0, 0, 0.7), 0.0)], scattering_arrays(),
            free_space(), SWEEP)
        assert np.all(ms.samples == 0.0)

    def test_reciprocity(self):
        arrays = scattering_arrays()
        sc = Scene([GROUND])
        targets = [PointScatterer((0.1, 0.0, 0.6), 1.0),
                   PointScatterer((-0.2, 0.1, 0.8), 0.5 + 0.5j)]
        fwd = synthesize_scattering_data(targets, arrays, sc, SWEEP,
                                         max_order=1)
        swapped = AntennaArray(tx_positions=arrays.rx_positions,
                               rx_positions=arrays.tx_positions,
                               copol=arrays.copol)
        rev = synthesize_scattering_data(targets, swapped, sc, SWEEP,
                                         max_order=1)
        scale = np.abs(fwd.samples).max()
        assert np.allclose(rev.samples, fwd.samples.transpose(1, 0, 2),
                           atol=1e-12 * scale)

    def test_reflectivity_linearity(self):
        arrays = scattering_arrays()
        sc = Scene([GROUND])
        t1 = [PointScatterer((0.1, 0.0, 0.6), 1.0)]
        t2 = [PointScatterer((0.1, 0.0, 0.6), -1.3 + 0.4j)]
        a = synthesize_scattering_data(t1, arrays, sc, SWEEP, max_order=1)
        b = synthesize_scattering_data(t2, arrays, sc, SWEEP, max_order=1)
        assert np.allclose(b.samples, (-1.3 + 0.4j) * a.samples, atol=1e-12)

    def test_blocked_los_pairs_carry_bounces(self):
        from rtbpa.scenes import scenario_three_spheres
        s = scenario_three_spheres(n_rx_x=6, n_rx_y=5)
        ms = synthesize_scattering_data(s.targets, s.arrays, s.scene, s.sweep,
                                        max_order=1)
        assert np.abs(ms.samples).max() > 0.0
        # The rx leg of every contributing pair is a bounce: LOS is invalid
        # for every (target, rx) pair by scenario construction.
        table = ImagePathTable(s.scene, s.arrays.rx_positions, 1,
                               s.arrays.copol)
        centers = np.array([t.position for t in s.targets])
        for seq, _, _, _, valid in table.eval(centers):
            if seq == ():
                assert not valid.any()


class TestMeasurementSet:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MeasurementSet(tx_positions=np.zeros((1, 3)),
                           rx_positions=np.zeros((2, 3)), copol=(1, 0, 0),
                           sweep=SWEEP, samples=np.zeros((1, 2, 5), complex),
                           mode="radiation")

    def test_nonfinite_rejected(self):
        bad = np.zeros((1, 2, 21), complex)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            MeasurementSet(tx_positions=np.zeros((1, 3)),
                           rx_positions=np.zeros((2, 3)), copol=(1, 0, 0),
                           sweep=SWEEP, samples=bad, mode="radiation")


class TestAddNoise:
    def test_seeded_and_scaled(self):
        arrays = small_arrays()
        src = DipoleSource((0, 0, 0.7), (1, 0, 0))
        ms = synthesize_radiation_data([src], arrays, free_space(), SWEEP)
        n1 = add_noise(ms, sigma=0.1, seed=42)
        n2 = add_noise(ms, sigma=0.1, seed=42)
        assert np.array_equal(n1.samples, n2.samples)
        assert not np.array_equal(n1.samples, ms.samples)
        quiet = add_noise(ms, sigma=0.0, seed=42)
        assert np.array_equal(quiet.samples, ms.samples)
