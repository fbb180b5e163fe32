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
from rtbpa.imaging import (_CHUNK, ImageGrid, ReconstructionConfig, _chunks,
                           _sum_radiation, _sum_scattering, adjoint_pair_check,
                           image_entropy, naive_bpa, peak_locations,
                           psf_metrics, reconstruct_at_points, rt_bpa)
from rtbpa import propagation
from rtbpa.propagation import ImagePathTable, SbrConfig
from rtbpa.scenes import get_scenario, scenario_hidden_dipole

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


def radiation_data(scene, src=(0.0, 0.0, 0.7), n_rx=24, sweep=SWEEP):
    rng = np.random.default_rng(17)
    rx = rng.uniform([-0.5, 1.0, 0.3], [0.5, 1.2, 1.1], size=(n_rx, 3))
    arrays = AntennaArray(tx_positions=np.zeros((0, 3)), rx_positions=rx,
                          copol=(1, 0, 0))
    ms = synthesize_radiation_data([DipoleSource(src, (1, 0, 0))], arrays,
                                   scene, sweep, max_order=1)
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

    @pytest.mark.parametrize("engine, dims", [
        ("images", (12, 12)), ("sbr", (12, 12)),
        ("images", (18, 11)), ("sbr", (18, 11))],
        ids=["images", "sbr", "images-18x11", "sbr-18x11"])
    def test_points_equal_grid_bitwise(self, engine, dims):
        # A point list runs the job of a grid; in flat voxel order the SBR
        # engine launches the same one ray set from the same points. The
        # chunks differ (the list's are runs of 128 points, the grid's
        # boxes), and a voxel's dots run over its chunk's live antenna
        # columns; over a bare ground plane every column is live in every
        # chunk, so the values agree bit for bit. 12 x 12 is cut into
        # 12 x 10 and 12 x 2 boxes; 18 x 11 into 16 x 8, 16 x 3, 2 x 8 and
        # 2 x 3, partial on both axes, none of a single voxel.
        sc = Scene([GROUND])
        ms = monostatic_data()
        grid = ImageGrid.planar(center=(0.0, 0.0, 0.7), axis_i=(1, 0, 0),
                                axis_j=(0, 1, 0), spacing_ij=(0.01, 0.01),
                                dims_ij=dims)
        sbr = SbrConfig(ray_count=2_000, max_bounces=1, rng_seed=3)
        cfg = ReconstructionConfig(max_order=1, path_engine=engine,
                                   sbr=sbr if engine == "sbr" else None)
        image = rt_bpa(ms, grid, sc, cfg)
        assert np.any(image.values)
        points = reconstruct_at_points(grid.centers_block(0, grid.n_voxels),
                                       ms, sc, cfg)
        assert np.array_equal(points, image.values.ravel())

    def test_points_match_grid_within_layout_bound(self):
        # Behind the hidden-dipole plate a chunk's live antenna columns
        # depend on which voxels share it, and a BLAS dot's rounding on
        # where each term sits, so a point list and a grid agree within a
        # bound only: on this crop, with the source inside it, 256 of 1536
        # voxels differ, by at most 1e-17 of the peak.
        from rtbpa.scenes import scenario_hidden_dipole
        sc = scenario_hidden_dipole(n_rx_x=10, n_rx_y=10)
        ms = synthesize_radiation_data(sc.sources, sc.arrays, sc.scene,
                                       sc.sweep, max_order=1)
        grid = ImageGrid.planar(center=(0.1, 0.0, 0.7), axis_i=(1, 0, 0),
                                axis_j=(0, 1, 0), spacing_ij=(0.01, 0.01),
                                dims_ij=(32, 48))
        cfg = ReconstructionConfig(max_order=1)
        image = rt_bpa(ms, grid, sc.scene, cfg).values.ravel()
        points = reconstruct_at_points(grid.centers_block(0, grid.n_voxels),
                                       ms, sc.scene, cfg)
        assert relative_error(points, image) <= 1e-15

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
        grid = small_grid(n=18)  # 18 x 18: six 16 x 8 boxes, four partial
        cfg = ReconstructionConfig(max_order=1)
        ref = rt_bpa(ms, grid, Scene([GROUND]), cfg, workers=1)
        for cpus, want in ((2, 2), (64, 6)):
            monkeypatch.setattr(imaging, "_usable_cpus", lambda: cpus)
            out = rt_bpa(ms, grid, Scene([GROUND]), cfg, workers=10_000)
            assert sizes[-1] == want
            assert np.array_equal(out.values, ref.values)
        monkeypatch.setattr(imaging, "_usable_cpus", lambda: 1)
        rt_bpa(ms, grid, Scene([GROUND]), cfg, workers=8)
        assert len(sizes) == 2  # one CPU: serial, no pool

    def test_usable_cpus_is_the_affinity_set(self, monkeypatch):
        # A process pinned to 2 of 64 CPUs gets at most 2 workers; without
        # an affinity call every CPU of the machine counts.
        import rtbpa.imaging as imaging
        monkeypatch.setattr(imaging.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(imaging.os, "sched_getaffinity",
                            lambda pid: {3, 9}, raising=False)
        assert imaging._usable_cpus() == 2
        monkeypatch.delattr(imaging.os, "sched_getaffinity")
        assert imaging._usable_cpus() == 64
        monkeypatch.setattr(imaging.os, "cpu_count", lambda: None)
        assert imaging._usable_cpus() == 1

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
        grid = small_grid(n=12, spacing=0.02)  # two chunks: 12 x 10, 12 x 2
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

    @pytest.mark.parametrize("mode", ["radiation", "scattering"])
    def test_sbr_launch_reaching_no_antenna_gives_zero_image(self, mode):
        # One ray and a capture radius far below the antenna spacing: the
        # launch picks no sequence, so no voxel has a path.
        sc = Scene([GROUND])
        ms = radiation_data(sc) if mode == "radiation" else monostatic_data()
        cfg = ReconstructionConfig(
            max_order=1, path_engine="sbr",
            sbr=SbrConfig(ray_count=1, max_bounces=1, capture_radius=1e-9,
                          rng_seed=0))
        img = rt_bpa(ms, small_grid(n=3), sc, cfg)
        assert img.values.shape == (3, 3, 1) and not np.any(img.values)


def _crop(grid, i0, j0, ni, nj):
    """Planar sub-grid from voxel (i0, j0) at the grid's pitch."""
    return ImageGrid(origin=grid.voxel_center(i0, j0), axes=grid.axes,
                     spacing=grid.spacing, dims=(ni, nj, 1))


class TestColumnPass:
    """eval's per-antenna-column pass changes no image bit: `rt_bpa` gives
    the same bytes with it disabled, every per-column `_crossing_box` call
    answering "no bound", so that every column of a live sequence is
    evaluated."""

    @staticmethod
    def disable_column_pass(monkeypatch):
        box = propagation._crossing_box

        def block_only(p_box, i_box, *args):
            if isinstance(i_box[0][0], np.ndarray):
                return False, False, (0.0, 1.0)
            return box(p_box, i_box, *args)

        monkeypatch.setattr(propagation, "_crossing_box", block_only)

    def assert_same_images(self, monkeypatch, s, data, grid, cfgs, workers):
        # The crop has sequences the pass cuts, so the check is not empty.
        table = ImagePathTable(s.scene, s.arrays.rx_positions,
                               max(cfg.max_order for cfg in cfgs),
                               s.arrays.copol)
        assert any(item[5].size < table.antennas.shape[0] for item
                   in table.eval(grid.centers_block(0, _CHUNK)))
        images = [rt_bpa(data, grid, s.scene, cfg, workers).values
                  for cfg in cfgs]
        assert all(np.any(image) for image in images)
        self.disable_column_pass(monkeypatch)
        for cfg, image in zip(cfgs, images):
            full = rt_bpa(data, grid, s.scene, cfg, workers).values
            assert full.tobytes() == image.tobytes(), cfg

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_plates_images_and_sbr(self, monkeypatch, workers):
        s = get_scenario("parallel_plates")
        data = synthesize_radiation_data(s.sources, s.arrays, s.scene,
                                         s.sweep, max_order=3)
        cfgs = [ReconstructionConfig(max_order=m) for m in (1, 2, 3)] + [
            ReconstructionConfig(
                max_order=m, path_engine="sbr",
                sbr=SbrConfig(ray_count=20_000, max_bounces=m, rng_seed=4))
            for m in (1, 2, 3)]
        # 32 x 8 voxels around the dipole: two chunks.
        self.assert_same_images(monkeypatch, s, data,
                                _crop(s.grid, 64, 8, 32, 8), cfgs, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hidden_dipole_wall(self, monkeypatch, workers):
        s = scenario_hidden_dipole(side_wall=True)
        data = synthesize_radiation_data(s.sources, s.arrays, s.scene,
                                         s.sweep, max_order=2)
        self.assert_same_images(monkeypatch, s, data,
                                _crop(s.grid, 58, 55, 32, 8),
                                [ReconstructionConfig(max_order=2)], workers)


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


class TestReconstructionConfig:
    @pytest.mark.parametrize("order", [-1, 6, 9])
    def test_order_outside_range_refused(self, order):
        # Refused at construction, also where prebuilt tables would never
        # check it.
        from rtbpa.propagation import MAX_ORDER
        assert MAX_ORDER == 5
        with pytest.raises(ValueError, match=f"0..{MAX_ORDER}"):
            ReconstructionConfig(max_order=order)

    @pytest.mark.parametrize("order", [0, 5])
    def test_order_in_range_accepted(self, order):
        assert ReconstructionConfig(max_order=order).max_order == order


class TestChunks:
    DIMS = [(1, 1, 1), (7, 3, 1), (12, 12, 1), (18, 11, 1), (128, 128, 1),
            (161, 25, 1), (4, 128, 1), (3, 100, 1), (1, 300, 1), (5, 5, 5),
            (64, 64, 2), (100, 2, 50), (9, 17, 6)]

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    def test_each_voxel_in_one_chunk_of_at_most_128(self, dims):
        chunks = _chunks(dims)
        assert max(c.size for c in chunks) <= _CHUNK == 128
        every = np.sort(np.concatenate(chunks))
        assert np.array_equal(every, np.arange(math.prod(dims)))

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    def test_equal_dims_give_equal_maps(self, dims):
        a, b = _chunks(dims), _chunks(list(np.array(dims)))
        assert len(a) == len(b)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300, 1024])
    def test_point_list_chunks_are_flat_runs(self, n):
        # reconstruct_at_points runs an (N, 1, 1) grid: consecutive runs of
        # 128 points, the last one partial.
        chunks = _chunks((n, 1, 1))
        want = [np.arange(lo, min(lo + 128, n)) for lo in range(0, n, 128)]
        assert len(chunks) == len(want)
        assert all(np.array_equal(c, w) for c, w in zip(chunks, want))

    @pytest.mark.parametrize("dims", [(4, 128, 1), (128, 4, 1), (1, 1024, 1),
                                      (64, 64, 2), (2, 2, 64)], ids=str)
    def test_thin_grids_get_full_chunks(self, dims):
        assert {c.size for c in _chunks(dims)} == {128}

    def test_planar_grid_cut_into_16_by_8_boxes(self):
        flat = np.arange(128 * 128).reshape(128, 128)
        chunks = _chunks((128, 128, 1))
        assert len(chunks) == 128
        assert np.array_equal(chunks[1], flat[:16, 8:16].ravel())


class TestAdjoint:
    def test_exactness_sample(self):
        for seed in range(10):
            targets, arrays, scene, sweep, t, s = random_adjoint_instance(seed)
            r = adjoint_pair_check(targets, arrays, scene, sweep,
                                   ReconstructionConfig(max_order=2), t, s)
            assert r < 1e-12

    def test_radiation_exactness_sample(self):
        # Dipoles along the co-pol vector: forward synthesis and imaging then
        # weigh each leg with the same sign.
        for seed in range(10):
            targets, arrays, scene, sweep, t, s = random_adjoint_instance(seed)
            sources = [DipoleSource(tg.position, arrays.copol, a)
                       for tg, a in zip(targets, s)]
            forward = synthesize_radiation_data(sources, arrays, scene, sweep,
                                                max_order=2)
            data = MeasurementSet(tx_positions=np.zeros((1, 3)),
                                  rx_positions=arrays.rx_positions,
                                  copol=arrays.copol, sweep=sweep,
                                  samples=t[:1], mode="radiation")
            back = reconstruct_at_points(
                [tg.position for tg in targets], data, scene,
                ReconstructionConfig(max_order=2))
            lhs = np.sum(forward.samples * np.conj(t[:1]))
            rhs = np.sum(s * np.conj(back))
            denom = np.linalg.norm(forward.samples) * np.linalg.norm(t[:1])
            assert abs(lhs - rhs) < 1e-12 * denom

    def test_exactness_long_sweep(self):
        # K = 1001: forward samples and back-projection phasors are the same
        # numbers, conjugated, so the residual does not grow with K.
        worst = 0.0
        for seed in range(20):
            targets, arrays, scene, _, _, s = random_adjoint_instance(seed)
            rng = np.random.default_rng(100 + seed)
            shape = (4, 4, LONG_SWEEP.count)
            t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            worst = max(worst, adjoint_pair_check(
                targets, arrays, scene, LONG_SWEEP,
                ReconstructionConfig(max_order=2), t, s))
        assert worst < 1e-12

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
        # Profiles run along grid axes only; an antiparallel axis reads the
        # mirrored profile and so the same metrics, bit for bit.
        grid = self.gaussian_image()
        grid.values[:] *= (1.0 + 0.3 * np.sin(np.arange(81)))[:, None, None]
        diag = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="no grid axis"):
            psf_metrics(grid, diag, grid.peak_index())
        assert (psf_metrics(grid, (-1, 0, 0), grid.peak_index())
                == psf_metrics(grid, (1, 0, 0), grid.peak_index()))

    def test_one_voxel_axis_unresolved(self):
        grid = self.gaussian_image()
        with pytest.raises(UnresolvedLobe):
            psf_metrics(grid, (0, 0, 1), grid.peak_index())


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


def direct_sum(t, kvals, tx_legs, rx_legs):
    """Oracle: sum over (tx class, rx class, tx, rx, k) of t[tx, rx, k]
    * w_tx * w_rx * exp(+j k (L_tx + L_rx)); radiation when tx_legs is
    None."""
    n_v = rx_legs[0][0].shape[0]
    if tx_legs is None:
        tx_legs = [(np.zeros((n_v, 1)), np.ones((n_v, 1)))]
    acc = np.zeros(n_v, dtype=complex)
    for lt, wt in tx_legs:
        for lr, wr in rx_legs:
            lengths = lt[:, :, None] + lr[:, None, :]  # (V, n_tx, n_rx)
            w = wt[:, :, None] * wr[:, None, :]
            for i, k in enumerate(kvals):
                acc += (w * np.exp(1j * k * lengths)
                        * t[None, :, :, i]).sum(axis=(1, 2))
    return acc


def random_legs(rng, n_v, n_ant, n_classes, zero_cols=(), zero_class=None):
    """(lengths, w) per class with +-1/0 weights; the listed antenna
    columns are zero in every class and class `zero_class` is all zero."""
    legs = []
    for c in range(n_classes):
        w = rng.choice([-1.0, 0.0, 1.0], size=(n_v, n_ant))
        w[:, list(zero_cols)] = 0.0
        if c == zero_class:
            w[:] = 0.0
        legs.append((rng.uniform(0.2, 1.5, size=(n_v, n_ant)), w))
    return legs


# Uniform wavenumbers (rad/m) that binary floating point holds exactly, so
# the kernel and the oracle sum over the same k. A real sweep's k values are
# rounded; the phasors step by the span over K - 1, and the fine-step and
# long-sweep tests bound what that rounding costs.
EXACT_K = 377.0 + 0.5 * np.arange(64)

# 18-20 GHz in 2 MHz steps: K = 1001 rounded wavenumbers.
LONG_SWEEP = FrequencySweep(18e9, 20e9, 2e6)


def long_double_phasors(kvals, lengths, w, sign):
    """Oracle: w * exp(sign j k L) in long double on the float64 k values
    as given, (K, V, A)."""
    phase = (sign * np.asarray(kvals, np.longdouble)[:, None, None]
             * np.asarray(lengths, np.longdouble))
    return w * (np.cos(phase) + 1j * np.sin(phase))


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestCoherentSum:
    def test_matches_direct_sum_on_fine_step(self):
        # A 1 kHz step at 20 GHz: rounding makes the wavenumber steps differ
        # by more than 1e-9 relative, yet the sweep is uniform by
        # construction and the span's step phasor serves every step.
        kvals = FrequencySweep(20e9, 20e9 + 4e3, 1e3).k_values
        steps = np.diff(kvals)
        assert kvals.size == 5
        assert np.ptp(steps) > 1e-9 * steps[0]
        rng = np.random.default_rng(8)
        legs = [(rng.uniform(0.5, 3.0, size=(6, 4)),
                 rng.choice([-1.0, 0.0, 1.0], size=(6, 4)))]
        t0 = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        got = _sum_radiation(t0, kvals, legs)
        assert relative_error(got, direct_sum(t0[None], kvals, None,
                                              legs)) <= 1e-9

    @pytest.mark.parametrize("n_k", [1, 64])
    def test_scattering_matches_direct_sum(self, n_k):
        rng = np.random.default_rng(40 + n_k)
        kvals = EXACT_K[:n_k]
        n_v, n_tx, n_rx = 7, 3, 5
        tx_legs = random_legs(rng, n_v, n_tx, 2, zero_cols=[1])
        rx_legs = random_legs(rng, n_v, n_rx, 3, zero_cols=[0, 3],
                              zero_class=1)
        t = (rng.normal(size=(n_tx, n_rx, n_k))
             + 1j * rng.normal(size=(n_tx, n_rx, n_k)))
        got = _sum_scattering(t, kvals, tx_legs, rx_legs, n_v)
        assert relative_error(got, direct_sum(t, kvals, tx_legs,
                                              rx_legs)) <= 1e-12

    def test_radiation_matches_direct_sum(self):
        rng = np.random.default_rng(44)
        kvals = EXACT_K[:21]
        n_v, n_rx = 9, 6
        legs = random_legs(rng, n_v, n_rx, 3, zero_cols=[2], zero_class=0)
        t0 = (rng.normal(size=(n_rx, kvals.size))
              + 1j * rng.normal(size=(n_rx, kvals.size)))
        got = _sum_radiation(t0, kvals, legs)
        assert relative_error(got, direct_sum(t0[None], kvals, None,
                                              legs)) <= 1e-12

    def test_long_sweep_matches_long_double_sum(self):
        # Stepping by kvals[1] - kvals[0] carries k0's rounding into every
        # step, about 5e-11 relative after 1000 of them on 3 m legs. Forward
        # samples are the conjugate phasors of the same recurrence.
        from rtbpa.fields import _weighted_legs
        kvals = LONG_SWEEP.k_values
        assert kvals.size == 1001
        rng = np.random.default_rng(46)
        lengths = rng.uniform(0.5, 3.0, size=(4, 6))
        w = rng.choice([-1.0, 0.0, 1.0], size=(4, 6))
        t0 = (rng.normal(size=(6, kvals.size))
              + 1j * rng.normal(size=(6, kvals.size)))
        got = _sum_radiation(t0, kvals, [(lengths, w)])
        want = (long_double_phasors(kvals, lengths, w, +1)
                * t0.T[:, None, :]).sum(axis=(0, 2))
        assert relative_error(got, want) <= 1e-12

        sc = Scene([GROUND])
        ms = radiation_data(sc, n_rx=6, sweep=LONG_SWEEP)
        src = DipoleSource((0.0, 0.0, 0.7), (1, 0, 0))
        table = ImagePathTable(sc, ms.rx_positions, 1, ms.copol)
        want = sum(long_double_phasors(kvals, lengths, w, -1)[:, 0].T
                   for lengths, w in _weighted_legs(
                       table, src.position[None], "phase_only",
                       src.orientation))
        assert relative_error(ms.samples[0], want) <= 1e-12

    @pytest.mark.parametrize("mode", ["radiation", "scattering"])
    def test_cut_columns_keep_the_bits(self, mode):
        # The kernel cuts a class to its live antenna columns and passes a
        # class whose columns are all live through uncopied: removing the
        # all-zero columns (and their samples) before the call must not
        # change one bit of the sum.
        rng = np.random.default_rng(48)
        kvals = SWEEP.k_values
        n_v, n_tx, n_rx = 128, 5, 40

        def side(n_ant, zero_cols, n_classes, zero_class=None):
            legs = random_legs(rng, n_v, n_ant, n_classes, zero_cols,
                               zero_class)
            live = np.setdiff1d(np.arange(n_ant), zero_cols)
            return legs, live, [(np.take(L, live, axis=1),
                                 np.take(w, live, axis=1)) for L, w in legs]

        rx_legs, rx_live, rx_cut = side(n_rx, [0, 7, 8, 39], 3, zero_class=2)
        if mode == "radiation":
            t0 = (rng.normal(size=(n_rx, kvals.size))
                  + 1j * rng.normal(size=(n_rx, kvals.size)))
            got = _sum_radiation(t0, kvals, rx_legs)
            want = _sum_radiation(t0[rx_live], kvals, rx_cut)
        else:
            tx_legs, tx_live, tx_cut = side(n_tx, [2], 2)
            t = (rng.normal(size=(n_tx, n_rx, kvals.size))
                 + 1j * rng.normal(size=(n_tx, n_rx, kvals.size)))
            got = _sum_scattering(t, kvals, tx_legs, rx_legs, n_v)
            want = _sum_scattering(t[tx_live][:, rx_live], kvals, tx_cut,
                                   rx_cut, n_v)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", ["radiation", "scattering"])
    def test_row_blocks_keep_the_bits(self, mode, monkeypatch):
        # Each class runs in row blocks of about imaging._CIS_BLOCK elements.
        # One row, blocks with a partial last one (rx 36 live columns: 27
        # rows at 1000 elements; tx 4: 25 rows at 100) and one block for the
        # whole chunk must give the same bits.
        from rtbpa import imaging
        rng = np.random.default_rng(49)
        kvals = SWEEP.k_values
        n_v, n_tx, n_rx = 128, 5, 40
        rx_legs = random_legs(rng, n_v, n_rx, 3, [0, 7, 8, 39], zero_class=2)
        tx_legs = random_legs(rng, n_v, n_tx, 2, [2])
        t = (rng.normal(size=(n_tx, n_rx, kvals.size))
             + 1j * rng.normal(size=(n_tx, n_rx, kvals.size)))
        got = []
        for block in [1, 100, 1000, 1 << 30]:
            monkeypatch.setattr(imaging, "_CIS_BLOCK", block)
            if mode == "radiation":
                got.append(_sum_radiation(t[0], kvals, rx_legs))
            else:
                got.append(_sum_scattering(t, kvals, tx_legs, rx_legs, n_v))
        assert np.any(got[0])
        for g in got[1:]:
            assert np.array_equal(g, got[0])

    @pytest.mark.parametrize("mode", ["radiation", "scattering"])
    def test_column_pieces_match_direct_sum(self, mode, monkeypatch):
        # A class runs in pieces of at most imaging._DOT_COLS live columns.
        # At 7, rx class 0 (40 live of 44) runs as five full pieces and a
        # partial one, the tx classes (9 live of 10) as 7 + 2.
        from rtbpa import imaging
        monkeypatch.setattr(imaging, "_DOT_COLS", 7)
        rng = np.random.default_rng(52)
        kvals = EXACT_K[:21]
        n_v, n_tx, n_rx = 9, 10, 44
        rx_legs = random_legs(rng, n_v, n_rx, 3, zero_cols=[0, 5, 17, 43],
                              zero_class=1)
        assert np.count_nonzero(np.any(rx_legs[0][1], axis=0)) == 40
        t = (rng.normal(size=(n_tx, n_rx, kvals.size))
             + 1j * rng.normal(size=(n_tx, n_rx, kvals.size)))
        if mode == "radiation":
            got = _sum_radiation(t[0], kvals, rx_legs)
            want = direct_sum(t[:1], kvals, None, rx_legs)
        else:
            tx_legs = random_legs(rng, n_v, n_tx, 2, zero_cols=[4])
            got = _sum_scattering(t, kvals, tx_legs, rx_legs, n_v)
            want = direct_sum(t, kvals, tx_legs, rx_legs)
        assert relative_error(got, want) <= 1e-12

    def test_blas_threads_change_no_bit(self):
        # OpenBLAS splits a dot of over 10,000 elements between its threads,
        # which changes its rounding; pieces of at most imaging._DOT_COLS
        # columns keep every dot on one thread. The thread count is read
        # when numpy loads, so each count runs in its own interpreter.
        import os
        import subprocess
        import sys

        import rtbpa
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from rtbpa.fields import FrequencySweep\n"
            "from rtbpa.imaging import _sum_radiation\n"
            "rng = np.random.default_rng(53)\n"
            "n_v, n_rx = 4, 20_000\n"
            "kvals = FrequencySweep(18e9, 20e9, 100e6).k_values\n"
            "lengths = rng.uniform(0.2, 1.5, size=(2, n_v, n_rx))\n"
            "w = rng.choice([-1.0, 1.0], size=(2, n_v, n_rx))\n"
            "w[1, :, 1360:] = 0.0\n"
            "t0 = (rng.normal(size=(n_rx, kvals.size))\n"
            "      + 1j * rng.normal(size=(n_rx, kvals.size)))\n"
            "out = _sum_radiation(t0, kvals, list(zip(lengths, w)))\n"
            "sys.stdout.write(out.tobytes().hex())\n")
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
        assert len(outs[0]) == 2 * 4 * 16
        assert outs[0] == outs[1]

    def test_dense_class_stays_below_one_class_array(self):
        # A whole dense class's phasor and step, (V, A) complex each, would
        # not fit in L2; the row blocks keep the sum's peak allocation below
        # one such array.
        import tracemalloc
        rng = np.random.default_rng(50)
        kvals = SWEEP.k_values
        n_v, n_rx = 128, 4096
        assert kvals.size == 21
        legs = [(rng.uniform(0.2, 1.5, size=(n_v, n_rx)),
                 rng.choice([-1.0, 1.0], size=(n_v, n_rx)))]
        t0 = (rng.normal(size=(n_rx, kvals.size))
              + 1j * rng.normal(size=(n_rx, kvals.size)))
        tracemalloc.start()
        try:
            _sum_radiation(t0, kvals, legs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_v * n_rx * 16, peak

    def test_all_zero_side_gives_zero(self):
        rng = np.random.default_rng(45)
        kvals = SWEEP.k_values[:4]
        rx_legs = random_legs(rng, 3, 2, 2)
        tx_legs = random_legs(rng, 3, 2, 1, zero_class=0)
        t = np.ones((2, 2, 4), dtype=complex)
        got = _sum_scattering(t, kvals, tx_legs, rx_legs, 3)
        assert got.shape == (3,) and np.all(got == 0)


class TestChunkWorkingSet:
    def test_chunk_peak_is_bounded_by_its_legs(self):
        # eval builds its arrays in place and hands them over, the leg
        # weights take |amp| and the cut on them, and the sum cuts dead
        # columns per row block, so a chunk's peak stays within a small
        # multiple of the legs it keeps (it was 4.2x on this chunk).
        import tracemalloc

        from rtbpa import imaging
        from rtbpa.fields import _weighted_legs
        sc = get_scenario("tum_logo")
        data = synthesize_radiation_data(sc.sources, sc.arrays, sc.scene,
                                         sc.sweep, max_order=2)
        points = sc.grid.centers_block(0, sc.grid.n_voxels)
        job = imaging._build_job(data, points, sc.scene,
                                 ReconstructionConfig(max_order=2))
        chunk = _chunks(sc.grid.dims)[11]  # voxels i 0-15, j 88-95
        assert chunk.size == _CHUNK and data.n_rx == 1360
        imaging._set_job(job)
        try:
            imaging._compute_chunk(chunk)  # fills the tables' caches
            tracemalloc.start()
            try:
                imaging._compute_chunk(chunk)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            imaging._set_job(None)
        legs = _weighted_legs(job.rx_table, points[chunk], "phase_only")
        assert legs
        legs_bytes = sum(L.nbytes + w.nbytes for L, w in legs)
        assert peak <= 2.5 * legs_bytes, (peak, legs_bytes)


class TestHeapReuse:
    def test_second_run_faults_in_no_fresh_pages(self):
        # glibc would hand a chunk's freed arrays back to the system and
        # fault them in again for the next chunk, thousands of pages each;
        # _run_job makes it keep them, so a repeated job reuses its pages.
        import resource

        from rtbpa import imaging
        from rtbpa.scenes import get_scenario
        if not imaging._keep_heap():
            pytest.skip("no glibc mallopt")
        sc = get_scenario("parallel_plates")
        data = synthesize_radiation_data(sc.sources, sc.arrays, sc.scene,
                                         sc.sweep, max_order=2)
        g = sc.grid
        grid = ImageGrid(origin=g.origin, axes=g.axes, spacing=g.spacing,
                         dims=(4, 128, 1))  # four 4 x 32 chunks
        cfg = ReconstructionConfig(max_order=2)
        faults = []
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            rt_bpa(data, grid, sc.scene, cfg)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)
        one_array = 128 * data.n_rx * 8 // resource.getpagesize()
        assert faults[1] < one_array, faults


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

    def test_dims_above_cap_rejected(self):
        # 10^10 voxels would be 149 GiB of values: refused before allocating.
        with pytest.raises(ValueError, match="exceeds the cap"):
            ImageGrid(origin=(0, 0, 0), axes=np.eye(3), spacing=(1, 1, 1),
                      dims=(100_000, 100_000, 1))

    def test_read_image_above_cap_rejected(self, tmp_path, monkeypatch):
        from rtbpa import imaging, io as rio
        from rtbpa.errors import ScenarioError
        path = tmp_path / "image.rtbpa"
        rio.write_image(path, ImageGrid(origin=(0, 0, 0), axes=np.eye(3),
                                        spacing=(1, 1, 1), dims=(3, 3, 1)))
        monkeypatch.setattr(imaging, "MAX_VOXELS", 8)
        with pytest.raises(ScenarioError, match="exceeds the cap of 8"):
            rio.read_image(path)

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
