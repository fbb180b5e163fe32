"""Reconstruction operators, adjoint checks, and focus metrics."""

import math

import numpy as np
import pytest

from rtbpa.errors import EmptyImage, EmptyInput, UnresolvedLobe
from rtbpa.fields import (AntennaArray, DipoleSource, FrequencySweep,
                          MeasurementSet, PointScatterer,
                          synthesize_radiation_data,
                          synthesize_scattering_data)
from rtbpa.geometry import Facet, Scene
from rtbpa.imaging import (ImageGrid, ReconstructionConfig,
                           adjoint_pair_check, image_entropy, naive_bpa,
                           peak_locations, psf_metrics, reconstruct_at_points,
                           rt_bpa)
from rtbpa.propagation import ImagePathTable, SbrConfig

SWEEP = FrequencySweep(18e9, 20e9, 100e6)
GROUND = Facet.plane(1, (0, 0, 0), (0, 0, 1))


def monostatic_data(target=(0.0, 0.0, 0.7)):
    pos = np.array([[0.0, 1.0, 0.7], [0.2, 1.0, 0.7], [-0.2, 1.0, 0.9],
                    [0.1, 1.1, 0.5]])
    arrays = AntennaArray(tx_positions=pos, rx_positions=pos, copol=(1, 0, 0))
    ms = synthesize_scattering_data([PointScatterer(target, 1.0)], arrays,
                                    Scene([]), SWEEP)
    return ms


def small_grid(center=(0.0, 0.0, 0.7), n=17, spacing=0.02):
    return ImageGrid.planar(center=center, axis_i=(1, 0, 0),
                            axis_j=(0, 1, 0), spacing_ij=(spacing, spacing),
                            dims_ij=(n, n))


def radiation_data(scene, src=(0.0, 0.0, 0.7), n_rx=24):
    rng = np.random.default_rng(17)
    rx = rng.uniform([-0.5, 1.0, 0.3], [0.5, 1.2, 1.1], size=(n_rx, 3))
    arrays = AntennaArray(tx_positions=np.zeros((0, 3)), rx_positions=rx,
                          copol=(1, 0, 0))
    ms = synthesize_radiation_data([DipoleSource(src, (1, 0, 0))], arrays,
                                   scene, SWEEP, max_order=1)
    return ms


class TestNaiveBpa:
    def test_monostatic_peak_at_target(self):
        ms = monostatic_data()
        grid = small_grid()
        img = naive_bpa(ms, grid)
        assert img.peak_index() == (8, 8, 0)

    def test_zero_data_zero_image(self):
        ms = monostatic_data()
        ms.samples[:] = 0.0
        img = naive_bpa(ms, small_grid())
        assert np.all(img.values == 0.0)

    def test_single_freq_single_rx_constant_magnitude(self):
        arrays = AntennaArray(tx_positions=np.zeros((0, 3)),
                              rx_positions=np.array([[0.0, 1.0, 0.7]]),
                              copol=(1, 0, 0))
        sweep = FrequencySweep(19e9, 19e9, 1e8)
        ms = synthesize_radiation_data([DipoleSource((0, 0, 0.7), (1, 0, 0))],
                                       arrays, Scene([]), sweep)
        img = naive_bpa(ms, small_grid())
        mags = np.abs(img.values)
        assert np.allclose(mags, mags[0, 0, 0], atol=1e-12)

    def test_empty_data_raises(self):
        ms = monostatic_data()
        empty = MeasurementSet(tx_positions=ms.tx_positions,
                               rx_positions=np.zeros((0, 3)),
                               copol=ms.copol, sweep=ms.sweep,
                               samples=np.zeros((4, 0, 21), complex),
                               mode="scattering")
        with pytest.raises(EmptyInput):
            naive_bpa(empty, small_grid())


class TestRtBpaDegeneracy:
    @pytest.mark.parametrize("half_wave", [True, False])
    @pytest.mark.parametrize("mode", ["radiation", "scattering"])
    def test_no_facets_equals_naive_bitwise(self, mode, half_wave):
        ms = (radiation_data(Scene([])) if mode == "radiation"
              else monostatic_data())
        grid = small_grid()
        ref = naive_bpa(ms, grid)
        assert np.any(ref.values)
        for order in (0, 1, 3):
            cfg = ReconstructionConfig(max_order=order,
                                       apply_half_wave=half_wave)
            out = rt_bpa(ms, grid, Scene([]), cfg)
            assert np.array_equal(out.values, ref.values)

    @pytest.mark.parametrize("engine", ["images", "sbr"])
    def test_points_equal_grid_bitwise(self, engine):
        # A point list runs the job of a grid; in flat voxel order the SBR
        # engine launches the same one ray set from the same points, so the
        # values agree bit for bit.
        sc = Scene([GROUND])
        ms = monostatic_data()
        grid = small_grid(n=12, spacing=0.01)  # 144 voxels: two chunks
        sbr = SbrConfig(ray_count=2_000, max_bounces=1, rng_seed=3)
        cfg = ReconstructionConfig(max_order=1, path_engine=engine,
                                   sbr=sbr if engine == "sbr" else None)
        image = rt_bpa(ms, grid, sc, cfg)
        assert np.any(image.values)
        points = reconstruct_at_points(grid.centers_block(0, grid.n_voxels),
                                       ms, sc, cfg)
        assert np.array_equal(points, image.values.ravel())

    def test_linearity(self):
        ms = radiation_data(Scene([GROUND]))
        grid = small_grid()
        cfg = ReconstructionConfig(max_order=1)
        sc = Scene([GROUND])
        a = rt_bpa(ms, grid, sc, cfg)
        ms2 = MeasurementSet(tx_positions=ms.tx_positions,
                             rx_positions=ms.rx_positions, copol=ms.copol,
                             sweep=ms.sweep,
                             samples=(2.0 - 1.5j) * ms.samples,
                             mode="radiation")
        b = rt_bpa(ms2, grid, sc, cfg)
        scale = np.abs(a.values).max()
        assert np.allclose(b.values, (2.0 - 1.5j) * a.values,
                           atol=1e-12 * scale)

    def test_workers_bit_identical(self):
        ms = radiation_data(Scene([GROUND]))
        grid = small_grid(n=21)
        cfg = ReconstructionConfig(max_order=1)
        a = rt_bpa(ms, grid, Scene([GROUND]), cfg, workers=1)
        b = rt_bpa(ms, grid, Scene([GROUND]), cfg, workers=2)
        assert np.array_equal(a.values, b.values)

    def test_pool_size_clamped(self, monkeypatch):
        # The pool never gets more processes than CPUs or chunks. A recording
        # stand-in for the pool context runs the chunks in this process.
        import rtbpa.imaging as imaging
        sizes = []

        class RecordingPool:
            def __init__(self, processes, initializer, initargs):
                sizes.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                imaging._set_job(None)

            def map(self, fn, items, chunksize=1):
                return [fn(item) for item in items]

        class RecordingContext:
            Pool = RecordingPool

        monkeypatch.setattr(imaging.multiprocessing, "get_context",
                            lambda *args: RecordingContext())
        ms = radiation_data(Scene([GROUND]), n_rx=4)
        grid = small_grid(n=18)  # 324 voxels: three chunks
        cfg = ReconstructionConfig(max_order=1)
        ref = rt_bpa(ms, grid, Scene([GROUND]), cfg, workers=1)
        for cpus, want in ((2, 2), (64, 3)):
            monkeypatch.setattr(imaging.os, "cpu_count", lambda: cpus)
            out = rt_bpa(ms, grid, Scene([GROUND]), cfg, workers=10_000)
            assert sizes[-1] == want
            assert np.array_equal(out.values, ref.values)
        monkeypatch.setattr(imaging.os, "cpu_count", lambda: 1)
        rt_bpa(ms, grid, Scene([GROUND]), cfg, workers=8)
        assert len(sizes) == 2  # one CPU: serial, no pool

    def test_prebuilt_path_table_bit_identical(self):
        ms = radiation_data(Scene([GROUND]))
        grid = small_grid()
        sc = Scene([GROUND])
        cfg = ReconstructionConfig(max_order=1)
        fresh = rt_bpa(ms, grid, sc, cfg)
        table = ImagePathTable(sc, ms.rx_positions, 1, ms.copol)
        cached1 = rt_bpa(ms, grid, sc, cfg, rx_table=table)
        cached2 = rt_bpa(ms, grid, sc, cfg, rx_table=table)
        assert np.array_equal(fresh.values, cached1.values)
        assert np.array_equal(cached1.values, cached2.values)

    def test_translation_covariance(self):
        shift = np.array([1.3, -0.7, 0.4])
        rng = np.random.default_rng(23)
        rx = rng.uniform([-0.5, 1.0, 0.3], [0.5, 1.2, 1.1], size=(12, 3))
        src = np.array([0.05, -0.02, 0.7])
        plate = Facet.rectangle(2, (-1.0, 0.5, 0.35), (2, 0, 0),
                                (0, 0, 0.7))

        def run(offset):
            sc = Scene([Facet.plane(1, (0, 0, 0) + offset, (0, 0, 1)),
                        Facet.rectangle(2, plate.point + offset,
                                        plate.edge_u, plate.edge_v)])
            arrays = AntennaArray(tx_positions=np.zeros((0, 3)),
                                  rx_positions=rx + offset, copol=(1, 0, 0))
            ms = synthesize_radiation_data(
                [DipoleSource(src + offset, (1, 0, 0))], arrays, sc, SWEEP,
                max_order=1)
            grid = small_grid(center=src + offset, n=9)
            return rt_bpa(ms, grid, sc, ReconstructionConfig(max_order=1))

        a = run(np.zeros(3))
        b = run(shift)
        scale = np.abs(a.values).max()
        assert np.allclose(np.abs(b.values), np.abs(a.values),
                           atol=1e-9 * scale)

    def test_half_wave_off_lowers_true_peak_on_mixed_data(self):
        # With LOS and ground-bounce classes both present, dropping the pi
        # correction misaligns the bounce contributions at the true location.
        sc = Scene([GROUND])
        src = (0.0, 0.0, 0.7)
        ms = radiation_data(sc, src=src)
        grid = small_grid(center=src, n=9, spacing=0.01)
        on = rt_bpa(ms, grid, sc, ReconstructionConfig(max_order=1,
                                                       apply_half_wave=True))
        off = rt_bpa(ms, grid, sc, ReconstructionConfig(max_order=1,
                                                        apply_half_wave=False))
        assert abs(off.values[4, 4, 0]) < abs(on.values[4, 4, 0])

    def test_sbr_engine_matches_images_engine(self):
        sc = Scene([GROUND])
        ms = radiation_data(sc, n_rx=5)
        grid = small_grid(n=5, spacing=0.03)
        ref = rt_bpa(ms, grid, sc, ReconstructionConfig(max_order=1))
        cfg = ReconstructionConfig(
            max_order=1, path_engine="sbr",
            sbr=SbrConfig(ray_count=400_000, max_bounces=1,
                          capture_radius=0.05, rng_seed=6))
        out = rt_bpa(ms, grid, sc, cfg)
        scale = np.abs(ref.values).max()
        assert np.allclose(out.values, ref.values, atol=1e-9 * scale)

    @pytest.mark.parametrize("mode", ["radiation", "scattering"])
    def test_sbr_engine_bitwise_equals_images_engine(self, mode):
        # One launch over the grid finds every sequence with a valid leg, and
        # the table evaluates each of them at every (voxel, antenna) pair.
        plate = Facet.rectangle(2, (-1, 1.5, 0.0), (2, 0, 0), (0, 0, 2))
        sc = Scene([GROUND, plate])
        ms = (radiation_data(sc, n_rx=6) if mode == "radiation"
              else monostatic_data())
        grid = small_grid(n=12, spacing=0.02)  # 144 voxels: two chunks
        ref = rt_bpa(ms, grid, sc, ReconstructionConfig(max_order=2))
        cfg = ReconstructionConfig(
            max_order=2, path_engine="sbr",
            sbr=SbrConfig(ray_count=20_000, max_bounces=2,
                          capture_radius=0.05, rng_seed=1))
        out = rt_bpa(ms, grid, sc, cfg)
        assert np.any(ref.values)
        assert np.array_equal(out.values, ref.values)

    def test_sbr_engine_workers_bit_identical(self):
        sc = Scene([GROUND])
        ms = radiation_data(sc, n_rx=4)
        grid = small_grid(n=21, spacing=0.01)
        cfg = ReconstructionConfig(
            max_order=1, path_engine="sbr",
            sbr=SbrConfig(ray_count=3_000, max_bounces=1,
                          capture_radius=0.05, rng_seed=6))
        a = rt_bpa(ms, grid, sc, cfg, workers=1)
        b = rt_bpa(ms, grid, sc, cfg, workers=2)
        assert np.array_equal(a.values, b.values)


def random_adjoint_instance(seed):
    rng = np.random.default_rng(seed)
    facets = []
    for fid in range(1, int(rng.integers(1, 4)) + 1):
        kind = rng.choice(["plane", "rectangle", "triangle"])
        if kind == "plane":
            facets.append(Facet.plane(fid, (0, 0, -0.1 * fid), (0, 0, 1)))
        elif kind == "rectangle":
            o = rng.uniform([-1.0, -1.0, -0.2], [-0.4, -0.4, 0.0])
            facets.append(Facet.rectangle(
                fid, o, (rng.uniform(0.8, 1.8), 0, 0),
                (0, rng.uniform(0.8, 1.8), 0)))
        else:
            base = rng.uniform([-0.8, -0.8, 1.4], [0.8, 0.8, 1.8])
            facets.append(Facet.triangle(
                fid, base, base + (rng.uniform(0.6, 1.2), 0, 0),
                base + (0, rng.uniform(0.6, 1.2), 0)))
    scene = Scene(facets)
    targets = [PointScatterer(rng.uniform([-0.3, -0.3, 0.5], [0.3, 0.3, 0.9]))
               for _ in range(int(rng.integers(1, 6)))]
    arrays = AntennaArray(
        tx_positions=rng.uniform([-0.5, -1.5, 0.6], [0.5, -1.2, 1.2], (4, 3)),
        rx_positions=rng.uniform([-0.5, 1.2, 0.6], [0.5, 1.5, 1.2], (4, 3)),
        copol=rng.normal(size=3))
    sweep = FrequencySweep(18e9, 18.2e9, 100e6)
    t = rng.normal(size=(4, 4, 3)) + 1j * rng.normal(size=(4, 4, 3))
    s = (rng.normal(size=len(targets))
         + 1j * rng.normal(size=len(targets)))
    return targets, arrays, scene, sweep, t, s


class TestAdjoint:
    def test_exactness_sample(self):
        for seed in range(10):
            targets, arrays, scene, sweep, t, s = random_adjoint_instance(seed)
            r = adjoint_pair_check(targets, arrays, scene, sweep,
                                   ReconstructionConfig(max_order=2), t, s)
            assert r < 1e-12

    def test_half_wave_mismatch_detected(self):
        targets, arrays, scene, sweep, t, s = random_adjoint_instance(3)
        cfg = ReconstructionConfig(max_order=2, apply_half_wave=False)
        r = adjoint_pair_check(targets, arrays, scene, sweep, cfg, t, s)
        assert r > 1e-3  # the pi term is missing on one side only

    def test_free_space_matches_naive(self):
        targets, arrays, _, sweep, t, s = random_adjoint_instance(5)
        scene = Scene([])
        cfg = ReconstructionConfig(max_order=0)
        r = adjoint_pair_check(targets, arrays, scene, sweep, cfg, t, s)
        assert r < 1e-12
        # reconstruct_at_points with no facets is the naive formula
        data = MeasurementSet(tx_positions=arrays.tx_positions,
                              rx_positions=arrays.rx_positions,
                              copol=arrays.copol, sweep=sweep, samples=t,
                              mode="scattering")
        pts = np.array([tg.position for tg in targets])
        back = reconstruct_at_points(pts, data, scene, cfg)
        grid = ImageGrid(origin=pts[0], axes=np.eye(3), spacing=(1, 1, 1),
                         dims=(1, 1, 1))
        ref = naive_bpa(data, grid)
        assert back[0] == pytest.approx(ref.values[0, 0, 0], rel=1e-12)


class TestPsfMetrics:
    def gaussian_image(self, sigma=0.05, n=81, spacing=0.005):
        grid = small_grid(n=n, spacing=spacing)
        x = (np.arange(n) - n // 2) * spacing
        prof = np.exp(-x ** 2 / (2 * sigma ** 2))
        grid.values[:] = np.outer(prof, prof)[:, :, None]
        return grid

    def test_gaussian_fwhm(self):
        sigma = 0.05
        grid = self.gaussian_image(sigma=sigma)
        m = psf_metrics(grid, (1, 0, 0), grid.peak_index())
        expected = 2.0 * np.sqrt(2.0 * np.log(2.0)) * sigma
        assert abs(m.fwhm - expected) < 0.005  # one voxel spacing

    def test_no_sidelobes_gives_inf(self):
        grid = self.gaussian_image()
        m = psf_metrics(grid, (1, 0, 0), grid.peak_index())
        assert math.isinf(m.pslr_db)

    def test_sidelobe_level(self):
        grid = small_grid(n=41, spacing=0.01)
        x = (np.arange(41) - 20) * 0.01
        prof = np.sinc(x / 0.04)
        grid.values[:] = np.outer(prof, np.ones(41))[:, :, None]
        m = psf_metrics(grid, (1, 0, 0), grid.peak_index())
        assert m.pslr_db == pytest.approx(13.26, abs=0.5)

    def test_unresolved_lobe(self):
        grid = small_grid(n=11)
        grid.values[:] = 1.0
        with pytest.raises(UnresolvedLobe):
            psf_metrics(grid, (1, 0, 0), grid.peak_index())

    def test_off_axis_profile(self):
        grid = self.gaussian_image()
        diag = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        m = psf_metrics(grid, diag, grid.peak_index())
        expected = 2.0 * np.sqrt(2.0 * np.log(2.0)) * 0.05
        assert abs(m.fwhm - expected) < 0.01


class TestPeaksAndEntropy:
    def test_single_voxel(self):
        grid = small_grid(n=9)
        grid.values[3, 4, 0] = 2.0
        locs = peak_locations(grid, n=3, min_separation=0.05)
        assert len(locs) == 1
        assert np.allclose(locs[0], grid.voxel_center(3, 4, 0))
        assert image_entropy(grid) == pytest.approx(0.0, abs=1e-12)

    def test_two_separated_peaks(self):
        grid = small_grid(n=17, spacing=0.02)
        grid.values[2, 8, 0] = 1.0
        grid.values[14, 8, 0] = 1.0
        locs = peak_locations(grid, n=2, min_separation=0.1)
        assert len(locs) == 2

    def test_min_separation_suppresses(self):
        grid = small_grid(n=17, spacing=0.02)
        grid.values[8, 8, 0] = 1.0
        grid.values[9, 8, 0] = 0.9
        locs = peak_locations(grid, n=2, min_separation=0.1)
        assert len(locs) == 1

    def test_uniform_entropy(self):
        grid = small_grid(n=16)
        grid.values[:] = 0.3 + 0.1j
        assert image_entropy(grid) == pytest.approx(np.log(16 * 16),
                                                    abs=1e-12)

    def test_empty_image(self):
        grid = small_grid(n=4)
        with pytest.raises(EmptyImage):
            image_entropy(grid)


class TestCoherentSum:
    def test_horner_matches_direct_sum_on_fine_step(self):
        # A 1 kHz step at 20 GHz: rounding makes the wavenumber steps differ
        # by more than 1e-9 relative, yet the sweep is uniform by
        # construction and the first step's phasor serves every step.
        from rtbpa.imaging import _horner_sum
        kvals = FrequencySweep(20e9, 20e9 + 4e3, 1e3).k_values
        steps = np.diff(kvals)
        assert kvals.size == 5
        assert np.ptp(steps) > 1e-9 * steps[0]
        rng = np.random.default_rng(8)
        lengths = rng.uniform(0.5, 3.0, size=(6, 4))
        w = rng.choice([-1.0, 0.0, 1.0], size=(6, 4))
        t0 = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        direct = sum((w * np.exp(1j * k * lengths) * t0[:, i]).sum(axis=1)
                     for i, k in enumerate(kvals))
        got = _horner_sum(lengths, w, t0, kvals)
        assert np.max(np.abs(got - direct)) <= 1e-9 * np.max(np.abs(direct))


class TestImageGrid:
    def test_voxel_center_layout(self):
        grid = ImageGrid(origin=(1, 2, 3), axes=np.eye(3),
                         spacing=(0.1, 0.2, 0.3), dims=(4, 5, 6))
        assert np.allclose(grid.voxel_center(2, 3, 1), (1.2, 2.6, 3.3))
        centers = grid.centers_block(0, grid.n_voxels)
        flat = 2 * (5 * 6) + 3 * 6 + 1
        assert np.allclose(centers[flat], (1.2, 2.6, 3.3))

    def test_invalid_axes(self):
        with pytest.raises(ValueError):
            ImageGrid(origin=(0, 0, 0), axes=np.ones((3, 3)),
                      spacing=(1, 1, 1), dims=(2, 2, 1))

    @pytest.mark.parametrize("dims", [(0, 2, 1), (2, 2, 0), (3, -1, 1)])
    def test_dims_below_one_rejected(self, dims):
        with pytest.raises(ValueError):
            ImageGrid(origin=(0, 0, 0), axes=np.eye(3), spacing=(1, 1, 1),
                      dims=dims)

    @pytest.mark.parametrize("field, value", [
        ("spacing", (np.nan, 1, 1)), ("spacing", (1, np.inf, 1)),
        ("origin", (np.nan, 0, 0)), ("origin", (0, 0, -np.inf)),
        ("axes", np.diag([np.nan, 1, 1])),
    ], ids=["nan_spacing", "inf_spacing", "nan_origin", "inf_origin",
            "nan_axis"])
    def test_non_finite_geometry_rejected(self, field, value):
        # NaN compares false both ways: every range check must fail on it.
        kwargs = dict(origin=(0, 0, 0), axes=np.eye(3), spacing=(1, 1, 1),
                      dims=(2, 2, 1))
        kwargs[field] = value
        with pytest.raises(ValueError, match=field[:4]):
            ImageGrid(**kwargs)
