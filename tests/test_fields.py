"""Dipole fields, image theory, and forward measurement synthesis."""

import numpy as np
import pytest

from rtbpa import fields
from rtbpa.errors import EmptyInput, Singular
from rtbpa.fields import (MAX_SAMPLES, AntennaArray, DipoleSource,
                          FrequencySweep, MeasurementSet, PointScatterer,
                          add_noise, dipole_field, image_dipole,
                          synthesize_radiation_data,
                          synthesize_scattering_data)
from rtbpa.geometry import Facet, Scene
from rtbpa.propagation import CROSS_POL_THRESHOLD, ImagePathTable

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


def libm_cis(x):
    return np.cos(x) + 1j * np.sin(x)


class TestCis:
    """fields._cis, the phasor of every leg, against libm; the suite turns
    any warning (a cast or an overflow) into a failure."""

    def test_within_bound_up_to_reduction_limit(self):
        rng = np.random.default_rng(21)
        node = 2.0 * np.pi / fields._CIS_N
        nodes = node * np.arange(-2 * fields._CIS_N, 2 * fields._CIS_N + 1)
        x = np.concatenate([
            [0.0, -0.0, 0.5 * node, -0.5 * node, fields._CIS_MAX,
             -fields._CIS_MAX, 5e-324],
            nodes, nodes + 0.5 * node, nodes - 0.5 * node,
            # Several blocks, the last one partial.
            *(rng.uniform(-s, s, 12_000) for s in (1.0, 1e3, 1e6))])
        got = fields._cis(x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - libm_cis(x))) <= 1e-15
        assert np.max(np.abs(np.abs(got) - 1.0)) <= 1e-15
        assert np.array_equal(fields._cis(x.reshape(2, -1)),
                              got.reshape(2, -1))

    def test_equals_libm_beyond_reduction_limit(self):
        big = np.array([np.nextafter(fields._CIS_MAX, np.inf), 1e13, -1e13,
                        1e17, -1e17, 1e300, -1e300, np.finfo(float).max])
        small = np.array([0.25, -3.0, 1e6])
        got = fields._cis(np.concatenate([small, big]))
        assert np.array_equal(got[small.size:], libm_cis(big))
        assert np.array_equal(got[:small.size], fields._cis(small))
        assert np.all(np.abs(np.abs(got) - 1.0) <= 1e-15)

    def test_empty(self):
        assert fields._cis(np.zeros((0, 3))).shape == (0, 3)

    def test_sweep_at_the_schema_limit(self):
        # k L near 1e292: the samples are libm's unit phasors, no warning.
        ms = synthesize_radiation_data(
            [DipoleSource((0, 0, 0.7), (1, 0, 0))], small_arrays(),
            free_space(), FrequencySweep(1e300, 1e300, 1.0))
        assert np.all(np.abs(np.abs(ms.samples) - 1.0) <= 1e-15)


class TestPhasors:
    def test_zero_weights_give_zeros_and_leave_other_columns(self):
        # _phasors runs every entry, zero weights included: an all-zero
        # column appended to the same legs must read zero at every k and
        # leave the bits of the other columns as they are.
        rng = np.random.default_rng(23)
        kvals = SWEEP.k_values
        lengths = rng.uniform(0.2, 3.0, size=(7, 9))
        w = rng.choice([-1.0, 1.0], size=(7, 9)) * rng.uniform(0.5, 2.0,
                                                                (7, 9))
        alone = [p.copy() for p in fields._phasors(kvals, lengths, w)]
        padded = [p.copy() for p in fields._phasors(
            kvals, np.hstack([lengths, np.ones((7, 1))]),
            np.hstack([w, np.zeros((7, 1))]))]
        assert len(alone) == len(padded) == kvals.size
        for a, m in zip(alone, padded):
            assert np.array_equal(a, m[:, :-1])
            assert np.all(m[:, -1] == 0)


class TestSampleBudget:
    def test_sweep_above_cap_rejected(self):
        # 18-20 GHz in 2 Hz steps is 10^9 points: refused before any array.
        with pytest.raises(ValueError, match="exceeds the cap"):
            FrequencySweep(18e9, 20e9, 2.0)
        with pytest.raises(ValueError, match="exceeds the cap"):
            FrequencySweep(0.0, float(MAX_SAMPLES), 1.0)

    def test_sweep_at_cap_accepted(self):
        assert FrequencySweep(0.0, float(MAX_SAMPLES - 1),
                              1.0).count == MAX_SAMPLES

    @pytest.mark.parametrize("mode", ["radiation", "scattering"])
    def test_synthesis_above_cap_rejected(self, monkeypatch, mode):
        # 1 or 2 tx rows x 3 rx x 21 wavenumbers, against a cap of 40.
        monkeypatch.setattr(fields, "MAX_SAMPLES", 40)
        rx = [[0.0, 1.0, 0.7], [0.2, 1.0, 0.7], [0.4, 1.0, 0.7]]
        with pytest.raises(ValueError, match="exceed the cap of 40"):
            if mode == "radiation":
                synthesize_radiation_data(
                    [DipoleSource((0, 0, 0.7), (1, 0, 0))],
                    AntennaArray(np.zeros((0, 3)), rx, (1, 0, 0)),
                    free_space(), SWEEP)
            else:
                synthesize_scattering_data(
                    [PointScatterer((0, 0, 0.7))],
                    AntennaArray(rx[:2], rx, (1, 0, 0)), free_space(), SWEEP)


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
            (_, length, amp, _, valid, _), = [
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
        with pytest.raises(ValueError, match=f"0..{MAX_ORDER}"):
            synthesize_radiation_data(
                [DipoleSource((0, 0, 0.7), (1, 0, 0))], small_arrays(),
                Scene([GROUND]), SWEEP, max_order=MAX_ORDER + 1,
                path_engine="sbr",
                sbr=SbrConfig(ray_count=10, max_bounces=MAX_ORDER + 1))

    def test_sbr_order_mismatch_refused_before_launch(self, monkeypatch):
        # SBR once built its tables at max_bounces, whatever max_order said.
        from rtbpa.imaging import ReconstructionConfig, reconstruct_at_points
        from rtbpa.propagation import SbrConfig

        def launch(*args, **kwargs):
            raise AssertionError("rays launched")

        monkeypatch.setattr("rtbpa.fields.sbr_trace", launch)
        src = DipoleSource((0, 0, 0.7), (1, 0, 0))
        sbr = SbrConfig(ray_count=10, max_bounces=2)
        with pytest.raises(ValueError, match="max_bounces 2 .* max_order 3"):
            synthesize_radiation_data([src], small_arrays(), Scene([GROUND]),
                                      SWEEP, max_order=3, path_engine="sbr",
                                      sbr=sbr)
        data = synthesize_radiation_data([src], small_arrays(),
                                         Scene([GROUND]), SWEEP, max_order=1)
        cfg = ReconstructionConfig(max_order=1, path_engine="sbr", sbr=sbr)
        with pytest.raises(ValueError, match="max_bounces 2 .* max_order 1"):
            reconstruct_at_points([src.position], data, Scene([GROUND]), cfg)

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


class TestCornerReflectorImages:
    """A 90-degree PEC corner of infinite planes z = 0 and x = 0 is exact
    under image theory with three image dipoles at order 2 (Balanis,
    Antenna Theory, 4th ed., 2016, corner reflectors): an oracle for
    multi-bounce polarization transport independent of the path engine."""

    FLOOR = Facet.plane(1, (0, 0, 0), (0, 0, 1))
    WALL = Facet.plane(2, (0, 0, 0), (1, 0, 0))

    def trials(self, seed, n=20):
        """(source, copol, rx) inside the wedge x > 0, z > 0."""
        rng = np.random.default_rng(seed)
        for _ in range(n):
            src = DipoleSource(rng.uniform([0.1, -0.5, 0.1], [1.0, 0.5, 1.0]),
                               rng.normal(size=3))
            copol = rng.normal(size=3)
            rx = rng.uniform([0.05, 0.8, 0.05], [1.5, 1.5, 1.5], size=(30, 3))
            yield src, copol / np.linalg.norm(copol), rx

    def images(self, src):
        """{sequence: emitting dipole}: the source and its three images."""
        floor = image_dipole(src, self.FLOOR)
        both = image_dipole(floor, self.WALL)
        return {(): src, (1,): floor, (2,): image_dipole(src, self.WALL),
                (1, 2): both, (2, 1): both}

    def test_far_field_equals_image_sum(self):
        # far_field has no cross-pol cut: every leg counts, as in image
        # theory.
        sc = Scene([self.FLOOR, self.WALL])
        sweep = FrequencySweep(18e9, 20e9, 1e9)
        for src, copol, rx in self.trials(41):
            arrays = AntennaArray(tx_positions=np.zeros((0, 3)),
                                  rx_positions=rx, copol=copol)
            syn = synthesize_radiation_data([src], arrays, sc, sweep,
                                            max_order=2,
                                            amplitude="far_field")
            images = self.images(src)
            dipoles = [images[seq] for seq in [(), (1,), (2,), (1, 2)]]
            ref = np.array([[sum(dipole_field(r, d, k, "far_field") @ copol
                                 for d in dipoles)
                             for k in sweep.k_values] for r in rx])
            err = np.linalg.norm(syn.samples[0] - ref)
            assert err <= 1e-12 * np.linalg.norm(ref)

    def test_far_field_keeps_a_sub_threshold_leg(self):
        # The co-pol vector is turned almost square to the floor bounce's
        # field at one rx: that leg's normalized co-pol projection, 1e-4,
        # is below the phase_only cross-pol threshold, yet far_field keeps
        # its amp / L, as image theory does.
        src = DipoleSource((0.4, 0.0, 0.5), (1.0, 0.2, 0.3))
        rx = np.array([[0.7, 1.1, 0.6]])
        floor = self.images(src)[(1,)]
        e_b = dipole_field(rx[0], floor, K, "far_field")
        e_b = e_b.real / np.linalg.norm(e_b.real)
        away = np.cross(e_b, rx[0] - floor.position)
        copol = away / np.linalg.norm(away) + 1e-4 * e_b
        copol /= np.linalg.norm(copol)
        table = ImagePathTable(Scene([self.FLOOR]), rx, 1, copol)
        (_, _, amp, tnorm, valid, _), = [
            leg for leg in table.eval(src.position[None], src.orientation)
            if leg[0] == (1,)]
        assert valid[0, 0]
        assert 0.0 < abs(amp[0, 0]) < fields.CROSS_POL_THRESHOLD * tnorm[0, 0]
        arrays = AntennaArray(tx_positions=np.zeros((0, 3)),
                              rx_positions=rx, copol=copol)
        sweep = FrequencySweep(18e9, 20e9, 1e9)
        syn = synthesize_radiation_data([src], arrays, Scene([self.FLOOR]),
                                        sweep, max_order=1,
                                        amplitude="far_field")
        ref = np.array([[sum(dipole_field(r, d, k, "far_field") @ copol
                             for d in (src, floor))
                         for k in sweep.k_values] for r in rx])
        err = np.linalg.norm(syn.samples[0] - ref)
        assert err <= 1e-12 * np.linalg.norm(ref)

    def test_phase_only_signs_match_image_dipoles(self, valid_masks):
        sc = Scene([self.FLOOR, self.WALL])
        kept = dict.fromkeys([(), (1,), (2,), (1, 2), (2, 1)], 0)
        for src, copol, rx in self.trials(43):
            table = ImagePathTable(sc, rx, 2, copol)
            valid = valid_masks(table, src.position[None], src.orientation)
            # The two double-bounce orders reach the same image; exactly
            # one of them is a physical path.
            assert np.all(valid[(1, 2)] ^ valid[(2, 1)])
            # _weighted_legs follows the sequences eval yields.
            seqs = [leg[0] for leg
                    in table.eval(src.position[None], src.orientation)]
            weights = fields._weighted_legs(table, src.position[None],
                                            "phase_only", src.orientation)
            assert len(weights) == len(seqs)
            for seq, (lengths, w) in zip(seqs, weights):
                img = self.images(src)[seq]
                for a in np.flatnonzero(w[0]):
                    # Undo the propagation phase: the image dipole's
                    # co-pol amplitude is then real and carries the sign.
                    a_img = (dipole_field(rx[a], img, K, "far_field") @ copol
                             * np.exp(1j * K * lengths[0, a]))
                    assert np.sign(a_img.real) == w[0, a]
                    kept[seq] += 1
        assert min(kept.values()) >= 20


class TestWedgeReflectorImages:
    """A 60-degree PEC wedge, two 20 m x 40 m plates on the apex edge (the y
    axis), is exact under image theory with five image dipoles at order 3
    (Balanis, Antenna Theory, 4th ed., 2016). Its two mirrors do not
    commute, so the order in which a sequence's bounces act is tested too:
    in the polarization transport and in the unfolding of the path table."""

    FLOOR = Facet.rectangle(1, (0, -20, 0), (0, 40, 0), (20, 0, 0))
    SLOPE = Facet.rectangle(2, (0, -20, 0), (0, 40, 0),
                            (10, 0, 10 * np.sqrt(3.0)))

    def trials(self, seed, n=20):
        """(source, copol, rx) inside the wedge 0 < phi < 60 degrees."""
        rng = np.random.default_rng(seed)

        def inside(r_lo, r_hi, y_lo, y_hi, size):
            r = rng.uniform(r_lo, r_hi, size)
            phi = rng.uniform(np.radians(3), np.radians(57), size)
            return np.column_stack([r * np.cos(phi),
                                    rng.uniform(y_lo, y_hi, size),
                                    r * np.sin(phi)])

        for _ in range(n):
            src = DipoleSource(inside(0.2, 1.0, -0.5, 0.5, 1)[0],
                               rng.normal(size=3))
            copol = rng.normal(size=3)
            yield (src, copol / np.linalg.norm(copol),
                   inside(0.3, 1.5, 0.8, 1.5, 30))

    def images(self, src):
        """{sequence: emitting dipole}: each bounce mirrors the dipole of the
        sequence before it; (1, 2, 1) and (2, 1, 2) give one image."""
        out = {(): src}
        for seq in [(1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2)]:
            out[seq] = image_dipole(out[seq[:-1]],
                                    (self.FLOOR, self.SLOPE)[seq[-1] - 1])
        return out

    def test_far_field_equals_image_sum(self, valid_masks):
        sc = Scene([self.FLOOR, self.SLOPE])
        sweep = FrequencySweep(18e9, 20e9, 1e9)
        for src, copol, rx in self.trials(47):
            arrays = AntennaArray(tx_positions=np.zeros((0, 3)),
                                  rx_positions=rx, copol=copol)
            syn = synthesize_radiation_data([src], arrays, sc, sweep,
                                            max_order=3,
                                            amplitude="far_field")
            images = self.images(src)
            dipoles = [images[seq] for seq in
                       [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]]
            ref = np.array([[sum(dipole_field(r, d, k, "far_field") @ copol
                                 for d in dipoles)
                             for k in sweep.k_values] for r in rx])
            err = np.linalg.norm(syn.samples[0] - ref)
            assert err <= 1e-12 * np.linalg.norm(ref)
            table = ImagePathTable(sc, rx, 3, copol)
            valid = valid_masks(table, src.position[None], src.orientation)
            # The two triple-bounce orders reach the same image; exactly
            # one of them is a physical path.
            assert np.all(valid[(1, 2, 1)] ^ valid[(2, 1, 2)])


class TestParallelPlaneImages:
    """Two infinite PEC planes x = -H and x = +H are exact under image
    theory with two image dipoles per order, one for each alternating
    bounce sequence (Balanis, Antenna Theory, 4th ed., 2016): an oracle for
    transport and unfolding up to the deepest order the table admits."""

    H = 0.4
    LEFT = Facet.plane(1, (-H, 0, 0), (1, 0, 0))
    RIGHT = Facet.plane(2, (H, 0, 0), (1, 0, 0))

    def trials(self, seed, n=10):
        """(source, copol, rx) between the planes."""
        rng = np.random.default_rng(seed)
        for _ in range(n):
            src = DipoleSource(rng.uniform([-0.3, -0.2, 0.2], [0.3, 0.2, 0.8]),
                               rng.normal(size=3))
            copol = rng.normal(size=3)
            rx = rng.uniform([-0.35, 0.8, 0.1], [0.35, 1.6, 1.2], size=(30, 3))
            yield src, copol / np.linalg.norm(copol), rx

    def test_far_field_equals_image_sum_at_order_5(self, valid_masks):
        # far_field has no cross-pol cut: every leg counts, as in image
        # theory.
        order = 5
        sc = Scene([self.LEFT, self.RIGHT])
        sweep = FrequencySweep(18e9, 20e9, 1e9)
        for src, copol, rx in self.trials(53):
            arrays = AntennaArray(tx_positions=np.zeros((0, 3)),
                                  rx_positions=rx, copol=copol)
            syn = synthesize_radiation_data([src], arrays, sc, sweep,
                                            max_order=order,
                                            amplitude="far_field")
            # Each bounce mirrors the dipole of the sequence before it.
            dipoles = [src]
            for first in (self.LEFT, self.RIGHT):
                img, facet = src, first
                for _ in range(order):
                    img = image_dipole(img, facet)
                    dipoles.append(img)
                    facet = self.RIGHT if facet is self.LEFT else self.LEFT
            assert len(dipoles) == 1 + 2 * order
            ref = np.array([[sum(dipole_field(r, d, k, "far_field") @ copol
                                 for d in dipoles)
                             for k in sweep.k_values] for r in rx])
            err = np.linalg.norm(syn.samples[0] - ref)
            assert err <= 1e-12 * np.linalg.norm(ref)
            table = ImagePathTable(sc, rx, order, copol)
            # Every one of the 1 + 2 * order sequences reaches every rx.
            assert all(valid.all() for valid in valid_masks(
                table, src.position[None], src.orientation).values())


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

    def test_blocked_los_pairs_carry_bounces(self, valid_masks):
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
        assert not valid_masks(table, centers)[()].any()


WALL = Facet.plane(2, (-1.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def _oracle_spectrum(table, point, orientation, kvals, amplitude):
    """One emitter's (A, K) leg spectrum, sum of w exp(-j k L), the way the
    per-emitter synthesis summed it before forward blocks."""
    acc = np.zeros((kvals.size, table.antennas.shape[0]), dtype=complex)
    for lengths, coeff in fields._weighted_legs(table, point[None, :],
                                                amplitude, orientation):
        if np.any(coeff):
            for i, p in enumerate(fields._phasors(kvals, lengths[0],
                                                  coeff[0])):
                acc[i] += p
    return acc.T.conj()


def oracle_radiation(sources, arrays, scene, sweep, max_order=1,
                     path_engine="images", sbr=None, amplitude="phase_only"):
    """Radiation samples summed one source at a time: a test-only oracle."""
    kvals = sweep.k_values
    rx = arrays.rx_positions
    samples = np.zeros((1, rx.shape[0], kvals.size), dtype=complex)
    tables = fields._path_tables(scene, [rx], arrays.copol, max_order,
                                 path_engine, sbr)
    for i, src in enumerate(sources):
        (table,) = tables(src.position, i)
        samples[0] += src.amplitude * _oracle_spectrum(
            table, src.position, src.orientation, kvals, amplitude)
    return samples


def oracle_scattering(targets, arrays, scene, sweep, max_order=1,
                      path_engine="images", sbr=None, amplitude="phase_only"):
    """Born samples summed one target at a time: a test-only oracle."""
    kvals = sweep.k_values
    tx, rx = arrays.tx_positions, arrays.rx_positions
    samples = np.zeros((tx.shape[0], rx.shape[0], kvals.size), dtype=complex)
    tables = fields._path_tables(scene, [tx, rx], arrays.copol, max_order,
                                 path_engine, sbr)
    for i, tgt in enumerate(targets):
        at, ar = (_oracle_spectrum(table, tgt.position, arrays.copol, kvals,
                                   amplitude)
                  for table in tables(tgt.position, i))
        samples += tgt.reflectivity * at[:, None, :] * ar[None, :, :]
    return samples


def mixed_sources(n, seed, unit=False):
    """n sources over the ground and a wall; about three in four share one
    orientation, the rest another, so a group of 128 or more splits."""
    rng = np.random.default_rng(seed)
    oris = [np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.0, 0.8])]
    return [DipoleSource(rng.uniform([-0.4, -0.3, 0.4], [0.4, 0.3, 0.9]),
                         oris[i % 4 == 3],
                         1.0 if unit else rng.uniform(0.5, 1.5)
                         * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            for i in range(n)]


def within(got, want, bound=2e-13):
    return np.abs(got - want).max() <= bound * np.abs(want).max()


class TestBlockForward:
    """Forward synthesis per block of emitters against the per-emitter sum
    it replaced, kept above as a test-only oracle."""

    def test_blocks_split_by_orientation_and_size(self):
        sources = mixed_sources(300, 1)
        oris = np.array([s.orientation for s in sources])
        blocks = fields._blocks(oris, fields._CHUNK)
        assert [b.size for b in blocks] == [128, 75, 97]
        assert [int(b[0]) for b in blocks] == [0, 3, 170]
        for b in blocks:
            assert np.all(oris[b] == oris[b[0]])
        assert sorted(np.concatenate(blocks).tolist()) == list(range(300))
        ones = fields._blocks(oris, 1)
        assert [int(b[0]) for b in ones] == list(range(300))

    @pytest.mark.parametrize("amplitude", ["phase_only", "far_field"])
    @pytest.mark.parametrize("walls, order", [(1, 1), (2, 2)])
    def test_radiation_matches_per_emitter_sum(self, amplitude, walls, order,
                                               monkeypatch):
        # Ground alone holds two leg classes, summed per emitter before
        # the emitters are contracted.
        arrays = small_arrays(n_rx=200)
        sc = Scene([GROUND, WALL][:walls])
        sources = mixed_sources(300, 2)
        calls = []
        table_eval = ImagePathTable.eval

        def counted(table, points, *args, **kwargs):
            calls.append(len(np.reshape(points, (-1, 3))))
            return table_eval(table, points, *args, **kwargs)

        want = oracle_radiation(sources, arrays, sc, SWEEP, max_order=order,
                                amplitude=amplitude)
        monkeypatch.setattr(ImagePathTable, "eval", counted)
        got = synthesize_radiation_data(sources, arrays, sc, SWEEP,
                                        max_order=order, amplitude=amplitude)
        assert calls == [128, 75, 97]  # one eval per block
        assert np.abs(want).max() > 0
        assert within(got.samples, want)

    def test_scattering_matches_per_target_sum(self):
        arrays = scattering_arrays()
        assert arrays.tx_positions.shape[0] >= 2
        sc = Scene([GROUND, WALL])
        rng = np.random.default_rng(3)
        targets = [PointScatterer(rng.uniform([-0.4, -0.3, 0.4],
                                              [0.4, 0.3, 0.9]),
                                  rng.uniform(0.5, 1.5)
                                  * np.exp(1j * rng.uniform(0, 2 * np.pi)))
                   for _ in range(150)]
        for amplitude in ("phase_only", "far_field"):
            want = oracle_scattering(targets, arrays, sc, SWEEP, max_order=2,
                                     amplitude=amplitude)
            got = synthesize_scattering_data(targets, arrays, sc, SWEEP,
                                             max_order=2, amplitude=amplitude)
            assert np.abs(want).max() > 0
            assert within(got.samples, want)

    def test_split_set_is_the_sum_of_its_halves(self):
        arrays = small_arrays(n_rx=200)
        sc = Scene([GROUND, WALL])
        sources = mixed_sources(300, 4)
        whole = synthesize_radiation_data(sources, arrays, sc, SWEEP,
                                          max_order=2).samples
        halves = sum(synthesize_radiation_data(part, arrays, sc, SWEEP,
                                               max_order=2).samples
                     for part in (sources[:131], sources[131:]))
        assert within(halves, whole)
        targets = [PointScatterer(s.position, s.amplitude)
                   for s in sources[:160]]
        arrays = scattering_arrays()
        whole = synthesize_scattering_data(targets, arrays, sc, SWEEP,
                                           max_order=2).samples
        halves = sum(synthesize_scattering_data(part, arrays, sc, SWEEP,
                                                max_order=2).samples
                     for part in (targets[:70], targets[70:]))
        assert within(halves, whole)

    def test_sbr_matches_per_emitter_sum_bit_for_bit(self):
        # SBR blocks hold one emitter each (launch i seeded rng_seed + i),
        # in input order: with unit amplitudes their classes are summed and
        # weighted exactly as the per-emitter sum does.
        from rtbpa.propagation import SbrConfig
        arrays = small_arrays(n_rx=40)
        sc = Scene([GROUND, WALL])
        cfg = SbrConfig(ray_count=5000, max_bounces=2, rng_seed=9)
        sources = mixed_sources(7, 5, unit=True)
        want = oracle_radiation(sources, arrays, sc, SWEEP, max_order=2,
                                path_engine="sbr", sbr=cfg)
        got = synthesize_radiation_data(sources, arrays, sc, SWEEP,
                                        max_order=2, path_engine="sbr",
                                        sbr=cfg)
        assert np.abs(want).max() > 0
        assert got.samples.tobytes() == want.tobytes()
        # Complex weights are rounded into the phasors by the fold instead:
        # a few ulps of the peak.
        sources = mixed_sources(7, 5)
        want = oracle_radiation(sources, arrays, sc, SWEEP, max_order=2,
                                path_engine="sbr", sbr=cfg)
        got = synthesize_radiation_data(sources, arrays, sc, SWEEP,
                                        max_order=2, path_engine="sbr",
                                        sbr=cfg)
        assert within(got.samples, want, 1e-15)
        targets = [PointScatterer(s.position, s.amplitude) for s in sources]
        want = oracle_scattering(targets, scattering_arrays(), sc, SWEEP,
                                 max_order=2, path_engine="sbr", sbr=cfg)
        got = synthesize_scattering_data(targets, scattering_arrays(), sc,
                                         SWEEP, max_order=2,
                                         path_engine="sbr", sbr=cfg)
        assert within(got.samples, want, 1e-15)

    @pytest.mark.parametrize("amplitude", ["phase_only", "far_field"])
    def test_images_one_emitter_blocks_bit_for_bit(self, amplitude):
        # The images engine puts emitters of distinct orientations in
        # blocks of one, and a Born forward of one target is one block.
        # With unit amplitudes each block adds the per-emitter sum's bits,
        # several leg classes per side and cut columns included.
        arrays = small_arrays(n_rx=40)
        sc = Scene([GROUND, WALL])
        rng = np.random.default_rng(21)
        sources = [DipoleSource(rng.uniform([-0.4, -0.3, 0.4],
                                            [0.4, 0.3, 0.9]),
                                rng.normal(size=3))
                   for _ in range(6)]
        oris = np.array([s.orientation for s in sources])
        assert all(b.size == 1 for b in fields._blocks(oris, fields._CHUNK))
        table = ImagePathTable(sc, arrays.rx_positions, 2, arrays.copol)
        classes = [fields._block_legs(table, s.position[None],
                                      s.orientation, amplitude)[2]
                   for s in sources]
        assert max(len(c) for c in classes) > 1
        assert any(sl.stop - sl.start < 40 for cl in classes for sl, _ in cl)
        want = oracle_radiation(sources, arrays, sc, SWEEP, max_order=2,
                                amplitude=amplitude)
        got = synthesize_radiation_data(sources, arrays, sc, SWEEP,
                                        max_order=2, amplitude=amplitude)
        assert np.abs(want).max() > 0
        assert got.samples.tobytes() == want.tobytes()
        for s in sources[:3]:
            target = [PointScatterer(s.position)]
            want = oracle_scattering(target, scattering_arrays(), sc, SWEEP,
                                     max_order=2, amplitude=amplitude)
            got = synthesize_scattering_data(target, scattering_arrays(),
                                             sc, SWEEP, max_order=2,
                                             amplitude=amplitude)
            assert np.abs(want).max() > 0
            assert got.samples.tobytes() == want.tobytes()

    def test_no_block_sized_spectrum_is_held(self):
        # A (K, N, A) spectrum of one 128-emitter block would take 2.8 GB
        # here; the block forward's peak stays near the samples' own size.
        import tracemalloc

        from rtbpa.scenes import scenario_hidden_dipole
        s = scenario_hidden_dipole()
        assert s.arrays.rx_positions.shape[0] == 1360
        sweep = FrequencySweep(18e9, 19e9, 1e6)
        assert sweep.count == 1001
        src = s.sources[0]
        rng = np.random.default_rng(6)
        many = [DipoleSource(src.position + rng.uniform(-0.05, 0.05, 3),
                             src.orientation)
                for _ in range(300)]
        peaks = []
        for sources in ([src], many):
            tracemalloc.start()
            try:
                data = synthesize_radiation_data(sources, s.arrays, s.scene,
                                                 sweep, max_order=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert np.abs(data.samples).max() > 0
        assert peaks[1] < 2 * peaks[0], peaks

    def test_forward_holds_one_sample_tensor(self, tmp_path):
        # The (K, n_tx, n_rx) accumulator is returned as a transposed view,
        # so the forward never holds a second, C-ordered copy of it; the
        # container and the image read the view as they read a copy.
        import tracemalloc

        from rtbpa import io as rio
        from rtbpa.imaging import ImageGrid, ReconstructionConfig, rt_bpa
        from rtbpa.scenes import scenario_hidden_dipole
        s = scenario_hidden_dipole()
        sweep = FrequencySweep(18e9, 19e9, 1e6)
        tracemalloc.start()
        try:
            view = synthesize_radiation_data(s.sources[:1], s.arrays,
                                             s.scene, sweep, max_order=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert view.samples.shape == (1, 1360, 1001)
        assert not view.samples.flags.c_contiguous
        assert peak <= 1.25 * view.samples.nbytes, peak
        copy = MeasurementSet(view.tx_positions, view.rx_positions,
                              view.copol, sweep,
                              np.ascontiguousarray(view.samples),
                              view.mode)
        for name, data in (("view", view), ("copy", copy)):
            rio.write_measurements(tmp_path / name, data)
        assert (tmp_path / "view").read_bytes() == \
            (tmp_path / "copy").read_bytes()
        back = rio.read_measurements(tmp_path / "view").samples
        assert np.array_equal(back, copy.samples.astype(np.complex64))
        g = s.grid
        grid = ImageGrid(origin=g.voxel_center(62, 62), axes=g.axes,
                         spacing=g.spacing, dims=(4, 4, 1))
        cfg = ReconstructionConfig(max_order=1)
        images = [rt_bpa(data, grid, s.scene, cfg).values
                  for data in (view, copy)]
        assert np.abs(images[0]).max() > 0
        assert images[0].tobytes() == images[1].tobytes()

    def test_blas_thread_count_changes_no_bit(self):
        # The block's products run in OpenBLAS, which splits the larger
        # ones (32 tx rows by 1360 rx here) between its threads. The
        # thread count is read when numpy loads, so each count runs in its
        # own interpreter.
        import os
        import subprocess
        import sys

        import rtbpa
        code = (
            "import hashlib\n"
            "import sys\n"
            "import numpy as np\n"
            "from rtbpa.fields import (AntennaArray, FrequencySweep,\n"
            "                          PointScatterer, DipoleSource,\n"
            "                          synthesize_radiation_data,\n"
            "                          synthesize_scattering_data)\n"
            "from rtbpa.geometry import Facet, Scene\n"
            "rng = np.random.default_rng(54)\n"
            "sweep = FrequencySweep(18e9, 20e9, 100e6)\n"
            "sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1))])\n"
            "arrays = AntennaArray(\n"
            "    rng.uniform([-0.6, 1.0, 0.2], [0.6, 1.0, 1.2], (32, 3)),\n"
            "    rng.uniform([-0.6, 1.0, 0.2], [0.6, 1.0, 1.2], (1360, 3)),\n"
            "    (1, 0, 0))\n"
            "pts = rng.uniform([-0.3, -0.3, 0.4], [0.3, 0.3, 0.9], (40, 3))\n"
            "w = np.exp(1j * rng.uniform(0, 6, 40))\n"
            "rad = synthesize_radiation_data(\n"
            "    [DipoleSource(p, (1, 0, 0), a) for p, a in zip(pts, w)],\n"
            "    arrays, sc, sweep)\n"
            "sca = synthesize_scattering_data(\n"
            "    [PointScatterer(p, a) for p, a in zip(pts, w)],\n"
            "    arrays, sc, sweep)\n"
            "sys.stdout.write(hashlib.sha256(rad.samples.tobytes()\n"
            "                                + sca.samples.tobytes())\n"
            "                 .hexdigest())\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            rtbpa.__file__)))
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            outs.append(run.stdout)
        assert len(outs[0]) == 64
        assert outs[0] == outs[1]


def oracle_coefficients(order, amp, tnorm, valid, lengths, amplitude):
    """The leg weights as np.where formulas on fresh arrays, the form
    `fields._leg_coefficients` had before it worked in place."""
    if amplitude == "phase_only":
        keep = valid
        if order > 0:
            keep = valid & (tnorm > 1e-12) & (
                np.abs(amp) >= CROSS_POL_THRESHOLD * tnorm)
        sign = np.where(amp >= 0.0, 1.0, -1.0)
        return np.where(keep, sign, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = amp / np.where(lengths == 0.0, 1.0, lengths)
    return np.where(valid, w, 0.0)


class TestLegCoefficients:
    """The in-place leg weights against the np.where oracle, bit for bit,
    on the edge cases of the sign and of the cross-pol cut."""

    @staticmethod
    def cases():
        """(amp, tnorm, valid, lengths), each (1, n): the edge cases in
        the order test_sign_cut_and_zeros reads them, then random legs."""
        thr = CROSS_POL_THRESHOLD * 0.5  # exactly the product at tnorm 0.5
        below = np.nextafter(thr, 0.0)
        edges = [  # (amp, tnorm, valid)
            (0.0, 0.5, True), (-0.0, 0.5, True),  # 0, 1: signed zeros
            (0.3, 1e-12, True), (-0.3, 1e-12, True),  # 2, 3: at 1e-12
            (0.3, np.nextafter(1e-12, 0.0), True),  # 4: below it
            (0.3, np.nextafter(1e-12, 1.0), True),  # 5: above it
            (thr, 0.5, True), (-thr, 0.5, True),  # 6, 7: at the cut
            (below, 0.5, True), (-below, 0.5, True),  # 8, 9: below it
            (np.nan, 0.5, True), (np.nan, 0.0, True),  # 10, 11: NaN amp
            (0.3, 0.5, False), (-0.3, 0.5, False),  # 12, 13: invalid
        ]
        rng = np.random.default_rng(60)
        amp = np.concatenate([[e[0] for e in edges],
                              rng.normal(scale=1e-3, size=200)])
        tnorm = np.concatenate([[e[1] for e in edges],
                                rng.uniform(0.0, 1.0, 200)])
        valid = np.concatenate([[e[2] for e in edges],
                                rng.random(200) > 0.3])
        lengths = rng.uniform(0.5, 2.0, amp.size)
        lengths[[1, 20]] = 0.0
        return tuple(a.reshape(1, -1) for a in (amp, tnorm, valid, lengths))

    @pytest.mark.parametrize("amplitude", ["phase_only", "far_field"])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_matches_the_where_formulas(self, order, amplitude):
        amp, tnorm, valid, lengths = self.cases()
        want = oracle_coefficients(order, amp.copy(), tnorm.copy(), valid,
                                   lengths, amplitude)
        given = [a.copy() for a in (amp, tnorm, valid, lengths)]
        got = fields._leg_coefficients(order, *given[:3], given[3],
                                       amplitude)
        assert got.tobytes() == want.tobytes()
        # valid and lengths are never written; amp and tnorm only when the
        # phase_only cut runs (order > 0).
        assert np.array_equal(given[2], valid)
        assert given[3].tobytes() == lengths.tobytes()
        if order == 0 or amplitude == "far_field":
            assert given[0].tobytes() == amp.tobytes()
            assert given[1].tobytes() == tnorm.tobytes()

    def test_sign_cut_and_zeros(self):
        amp, tnorm, valid, lengths = self.cases()
        direct = fields._leg_coefficients(0, amp.copy(), tnorm.copy(), valid,
                                          lengths, "phase_only")[0]
        bounced = fields._leg_coefficients(1, amp.copy(), tnorm.copy(),
                                           valid, lengths, "phase_only")[0]
        assert list(direct[:2]) == [1.0, 1.0]  # +0.0 and -0.0 weigh +1
        assert list(direct[12:14]) == [0.0, 0.0]
        assert list(bounced[:2]) == [0.0, 0.0]  # below the cut
        assert list(bounced[2:6]) == [0.0, 0.0, 0.0, 1.0]
        assert list(bounced[6:10]) == [1.0, -1.0, 0.0, 0.0]
        assert list(bounced[10:14]) == [0.0, 0.0, 0.0, 0.0]
        for w in (direct, bounced):
            dropped = w == 0.0
            assert not np.signbit(w[dropped]).any()  # +0.0, never -0.0


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

    def test_non_contiguous_samples_accepted(self):
        # A transposed view cannot be viewed as floats; its finiteness is
        # checked on the complex values themselves.
        sweep = FrequencySweep(18e9, 18.3e9, 100e6)
        view = np.ones((1, sweep.count, 3), complex).transpose(0, 2, 1)
        assert not view.flags.c_contiguous
        ms = MeasurementSet(tx_positions=np.zeros((1, 3)),
                            rx_positions=np.zeros((3, 3)), copol=(1, 0, 0),
                            sweep=sweep, samples=view, mode="radiation")
        assert np.array_equal(ms.samples, view)
        for bad in (complex(np.nan, 0.0), complex(0.0, np.nan),
                    complex(np.inf, 1.0), complex(1.0, -np.inf)):
            samples = np.ones((1, sweep.count, 3), complex)
            samples[0, 1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                MeasurementSet(tx_positions=np.zeros((1, 3)),
                               rx_positions=np.zeros((3, 3)),
                               copol=(1, 0, 0), sweep=sweep,
                               samples=samples.transpose(0, 2, 1),
                               mode="radiation")


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
