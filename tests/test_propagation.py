"""Path finding (image method + SBR) and polarization transport, all asked
of ImagePathTable."""

import numpy as np
import pytest

from rtbpa import propagation
from rtbpa.errors import ScenarioError
from rtbpa.fields import _leg_coefficients, _path_tables, _weighted_legs
from rtbpa.geometry import (EDGE_MARGIN, GRAZING_TOL, Facet, Scene,
                            rays_nearest_hit)
from rtbpa.imaging import ImageGrid
from rtbpa.propagation import (ImagePathTable, SbrConfig, enumerate_sequences,
                               enumeration_order, sbr_trace)
from rtbpa.scenes import PLATE_ID, get_scenario, scenario_hidden_dipole


def ground_scene():
    return Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1))])


def table_legs(scene, point, antenna, max_order, copol, orientation=None):
    """{sequence: (length, amp, tnorm)} of the valid legs point -> antenna."""
    table = ImagePathTable(scene, [antenna], max_order, copol)
    return {seq: (lengths[0, 0], amp[0, 0], tnorm[0, 0])
            for seq, lengths, amp, tnorm, valid, _
            in table.eval([point], orientation=orientation) if valid[0, 0]}


def sbr_table_legs(scene, point, antenna, cfg, copol=(0, 1, 0)):
    """{sequence: length} of the valid legs point -> antenna among the
    sequences one SBR launch from `point` captured."""
    table = _path_tables(scene, [np.array([antenna], dtype=float)], copol,
                         cfg.max_bounces, "sbr", cfg)([point])[0]
    return {seq: lengths[0, 0] for seq, lengths, _, _, valid, _
            in table.eval([point]) if valid[0, 0]}


def eval_against_reference(table, pts, orientation=None):
    """[(eval item, eval_reference item)] per sequence eval yields, once eval
    is shown to yield exactly, in table order, the sequences for which the
    reference finds a valid leg, and to drop only columns that hold none.
    The reference item is cut to eval's kept columns."""
    ref = {item[0]: item for item
           in table.eval_reference(pts, orientation=orientation)}
    fast = list(table.eval(pts, orientation=orientation))
    assert [item[0] for item in fast] == [
        seq for seq, item in ref.items() if item[4].any()]
    pairs = []
    for item in fast:
        cols = item[5]
        want = ref[item[0]]
        dropped = np.ones(table.antennas.shape[0], bool)
        dropped[cols] = False
        assert not want[4][:, dropped].any()
        pairs.append((item, (want[0],) + tuple(a[:, cols] for a in want[1:])))
    return pairs


def reference_trace(points, antennas, scene, cfg):
    """The SBR launch with one capture pass per antenna over all live rays:
    the oracle of `sbr_trace`'s prefiltered, blocked capture test."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    antennas = np.asarray(antennas, dtype=float).reshape(-1, 3)
    rng = np.random.default_rng(cfg.rng_seed)
    n = cfg.ray_count
    dirs = propagation._uniform_sphere(rng, n)
    origins = points[np.arange(n) * points.shape[0] // n]
    alive = np.ones(n, dtype=bool)
    seqs = np.full((n, cfg.max_bounces), -1, dtype=np.int64)
    captured = [set() for _ in antennas]
    facet_ids = np.array([f.id for f in scene.all_facets], dtype=np.int64)
    facet_normals = (np.array([f.normal for f in scene.all_facets])
                     if scene.all_facets else np.empty((0, 3)))
    for bounce in range(cfg.max_bounces + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        o = origins[idx]
        d = dirs[idx]
        t_hit, hit_fi = rays_nearest_hit(o, d, scene)
        for ai, antenna in enumerate(antennas):
            tc = np.einsum("ij,ij->i", antenna - o, d)
            tc = np.clip(tc, 0.0, np.where(np.isfinite(t_hit), t_hit, np.inf))
            closest = o + tc[:, None] * d
            d2 = np.einsum("ij,ij->i", closest - antenna, closest - antenna)
            hits = idx[d2 <= cfg.capture_radius ** 2]
            captured[ai].update(map(tuple, seqs[hits, :bounce].tolist()))
        if bounce == cfg.max_bounces:
            break
        hit_ok = np.isfinite(t_hit)
        if np.any(hit_ok):
            cosines = np.abs(np.einsum("ij,ij->i", d, facet_normals[
                np.where(hit_ok, hit_fi, 0)]))
            hit_ok &= cosines > GRAZING_TOL
        alive[idx] = hit_ok
        keep = np.flatnonzero(hit_ok)
        if keep.size == 0:
            break
        rays = idx[keep]
        nrm = facet_normals[hit_fi[keep]]
        dn = np.einsum("ij,ij->i", d[keep], nrm)
        dirs[rays] = d[keep] - 2.0 * dn[:, None] * nrm
        origins[rays] = o[keep] + t_hit[keep, None] * d[keep]
        seqs[rays, bounce] = facet_ids[hit_fi[keep]]
    return captured


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
        with pytest.raises(ValueError, match="disk"):
            Facet(id=9, kind="disk", point=np.zeros(3),
                  normal=np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("n_facets", [0, 1, 2, 5])
    def test_sequence_count_matches_enumeration(self, n_facets):
        sc = Scene([Facet.plane(i + 1, (0, 0, -i), (0, 0, 1))
                    for i in range(n_facets)])
        for order in range(4):
            assert (propagation._sequence_count(n_facets, order)
                    == len(enumerate_sequences(sc, order)))

    def test_table_above_leg_cap_rejected(self, monkeypatch):
        # Two sequences (LOS, ground) x 6 antennas = 12 legs; refused before
        # any antenna image is built, for either engine's sequence list.
        def mirror(*args):
            raise AssertionError("antenna images built")

        monkeypatch.setattr(propagation, "MAX_TABLE_LEGS", 10)
        ants = np.ones((6, 3))
        assert len(ImagePathTable(ground_scene(), ants[:5], 1,
                                  (0, 1, 0)).sequences) == 2  # at the cap
        monkeypatch.setattr(propagation, "mirror_points", mirror)
        for seqs in (None, [(), (1,)]):
            with pytest.raises(ScenarioError,
                               match="2 sequences x 6 antennas = 12 .* 10"):
                ImagePathTable(ground_scene(), ants, 1, (0, 1, 0), seqs)

    def test_built_in_scenarios_fit_the_leg_cap(self):
        from rtbpa.scenes import SCENARIOS, scenario_hidden_dipole
        for s in ([build() for build in SCENARIOS.values()]
                  + [scenario_hidden_dipole(side_wall=True)]):
            n_seq = propagation._sequence_count(len(s.scene.all_facets),
                                                propagation.MAX_ORDER)
            n_ant = max(len(s.arrays.tx_positions),
                        len(s.arrays.rx_positions))
            assert n_seq * n_ant <= propagation.MAX_TABLE_LEGS, s.name


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
        antennas = [(0.8, 0, 0.7), (-0.6, 0.3, 0.5)]
        per_antenna = sbr_trace((0, 0, 0.7), [[a] for a in antennas],
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
        sets = [[a] for a in antennas]
        assert sbr_trace((0.1, 0, 0.6), sets, sc, cfg) == expected
        assert sbr_trace([[0.1, 0, 0.6]], sets, sc, cfg) == expected

    @pytest.mark.parametrize("extra", [0, 3, 6])
    def test_block_gives_every_point_a_ray(self, extra):
        # Each point has an antenna 1 cm away, inside the capture radius of
        # every ray it launches; the points are 5 m apart.
        points = np.array([[5.0 * i, 0.0, 0.0] for i in range(7)])
        cfg = SbrConfig(ray_count=len(points) + extra, max_bounces=0,
                        capture_radius=0.05, rng_seed=1)
        per_antenna = sbr_trace(points, [[a] for a in points + [0, 0, 0.01]],
                                Scene([]), cfg)
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
        assert sbr_trace((0, 0, 0.7), [[(5.0, 0, 0.7)]], ground_scene(),
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
        a = sbr_trace((0, 0, 0.7), [[(0.8, 0, 0.7)]], sc, cfg)
        b = sbr_trace((0, 0, 0.7), [[(0.8, 0, 0.7)]], sc, cfg)
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
        captured = sbr_trace((0, 0, 0.7), [[(0.8, 0, 0.7)]], sc, cfg)[0]
        assert captured and () not in captured

    def test_sbr_run_does_not_load_numpy_ma(self):
        # np.unique(..., axis=0) imports numpy.ma on its first call, in the
        # middle of a run, and the per-antenna capture sets need no dedupe.
        # A fresh interpreter shows what an SBR forward and reconstruction
        # load.
        import os
        import subprocess
        import sys
        import textwrap

        import rtbpa
        code = textwrap.dedent("""
            import sys
            from rtbpa.fields import synthesize_radiation_data
            from rtbpa.imaging import ImageGrid, ReconstructionConfig, rt_bpa
            from rtbpa.propagation import SbrConfig
            from rtbpa.scenes import scenario_parallel_plates
            s = scenario_parallel_plates(n_rx_x=6, n_rx_y=5)
            sbr = SbrConfig(ray_count=2_000, max_bounces=1, rng_seed=4)
            ms = synthesize_radiation_data(s.sources, s.arrays, s.scene,
                                           s.sweep, path_engine="sbr", sbr=sbr)
            grid = ImageGrid.planar(center=(0.0, -0.3, 0.7), axis_i=(1, 0, 0),
                                    axis_j=(0, 1, 0), spacing_ij=(0.01, 0.01),
                                    dims_ij=(4, 4))
            rt_bpa(ms, grid, s.scene,
                   ReconstructionConfig(path_engine="sbr", sbr=sbr), workers=1)
            sys.stdout.write(str("numpy.ma" in sys.modules))
            """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            rtbpa.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout == "False"

    def test_ray_count_above_cap_rejected(self):
        # Refused before any ray array is built.
        with pytest.raises(ValueError, match="ray_count"):
            SbrConfig(ray_count=propagation.MAX_RAYS + 1)
        assert SbrConfig(ray_count=propagation.MAX_RAYS).ray_count == \
            propagation.MAX_RAYS

    def test_nan_capture_radius_rejected(self):
        # A NaN radius would capture nothing, silently.
        with pytest.raises(ValueError, match="capture_radius"):
            SbrConfig(capture_radius=float("nan"))

    def test_negative_seed_rejected(self):
        # numpy's generator refuses it only at launch, as a traceback.
        with pytest.raises(ValueError, match="rng_seed"):
            SbrConfig(rng_seed=-1)

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"),
                                        float("inf"), 1e308, 2e154])
    def test_capture_radius_with_no_finite_square_rejected(self, radius):
        # sbr_trace squares the radius: 1e308 ** 2 raised OverflowError.
        with pytest.raises(ValueError, match="capture_radius"):
            SbrConfig(capture_radius=radius)

    def test_largest_capture_radius_accepted(self):
        assert SbrConfig(capture_radius=1e154).capture_radius == 1e154

    @pytest.mark.parametrize("field", ["ray_count", "max_bounces",
                                       "rng_seed"])
    @pytest.mark.parametrize("value", [1e3, 2.5, 1.0, True, False,
                                       np.float64(3.0), np.bool_(True), "3",
                                       None])
    def test_non_integer_counts_rejected(self, field, value):
        # They passed the range checks, then failed inside the launch with
        # a numpy TypeError; max_bounces=True ran as 1.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SbrConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        ints = SbrConfig(ray_count=20_000, max_bounces=1, rng_seed=4)
        numpy_ints = SbrConfig(ray_count=np.int32(20_000),
                               max_bounces=np.int64(1), rng_seed=np.uint8(4))
        args = (0, 0, 0.7), [[(0.8, 0, 0.7)]], ground_scene()
        assert sbr_trace(*args, numpy_ints) == sbr_trace(*args, ints) == [
            {(), (1,)}]


def _packed_case():
    """100 antennas within 5 cm of a source 10 cm over a ground plane, with
    a 20 cm capture radius: every pair of a first segment and an antenna
    passes the prefilter and is captured, and bounced rays are captured
    too."""
    rng = np.random.default_rng(21)
    source = np.array([0.0, 0.0, 0.1])
    offsets = rng.normal(size=(100, 3))
    offsets *= rng.uniform(0.0, 0.05, (100, 1)) / np.linalg.norm(
        offsets, axis=1, keepdims=True)
    return (source, source + offsets, ground_scene(),
            SbrConfig(ray_count=1_000, max_bounces=2, capture_radius=0.2,
                      rng_seed=4))


def _capture_cases():
    plates = get_scenario("parallel_plates")
    for seed in range(4):
        yield (f"plates_seed{seed}", plates.sources[0].position,
               plates.arrays.rx_positions, plates.scene,
               SbrConfig(ray_count=20_000, max_bounces=2, capture_radius=0.05,
                         rng_seed=seed))
    hidden = get_scenario("hidden_dipole")
    flat = np.array([0, 4000, 8256, 12000, 16383])
    points = hidden.grid.centers_block(0, hidden.grid.n_voxels)[flat]
    yield ("hidden_grid_points", points, hidden.arrays.rx_positions,
           hidden.scene, SbrConfig(ray_count=10_000, max_bounces=2,
                                   capture_radius=0.05, rng_seed=2))
    spheres = get_scenario("three_spheres")
    yield ("spheres_tx_rx", [t.position for t in spheres.targets],
           np.concatenate([spheres.arrays.tx_positions,
                           spheres.arrays.rx_positions]),
           spheres.scene, SbrConfig(ray_count=10_000, max_bounces=1,
                                    capture_radius=0.05, rng_seed=3))
    plate = Facet.rectangle(2, (-1, 1.5, 0.0), (2, 0, 0), (0, 0, 2))
    two = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)), plate])
    cfg = SbrConfig(ray_count=3_000, max_bounces=2, capture_radius=0.1,
                    rng_seed=7)
    yield "no_antennas", (0.1, 0, 0.6), np.zeros((0, 3)), two, cfg
    yield "one_antenna", (0.1, 0, 0.6), [(0.5, 0.8, 0.9)], two, cfg
    yield ("antennas_at_one_point", (0.1, 0, 0.6),
           np.tile([0.5, 0.8, 0.9], (100, 1)), two, cfg)
    yield ("no_facets", (0.1, 0, 0.6),
           np.random.default_rng(5).uniform(-1, 1, (150, 3)), Scene([]),
           cfg)
    yield ("packed_at_source",) + _packed_case()


def union(per_antenna):
    return set().union(*per_antenna)


class TestCaptureOracle:
    """`sbr_trace` captures exactly what one pass per antenna captures: a
    set holds the union of the oracle over its antennas."""

    @pytest.mark.parametrize("case", list(_capture_cases()),
                             ids=lambda case: case[0])
    def test_matches_per_antenna_loop(self, case):
        _, points, antennas, scene, cfg = case
        antennas = np.asarray(antennas, dtype=float).reshape(-1, 3)
        expected = reference_trace(points, antennas, scene, cfg)
        assert sbr_trace(points, [[a] for a in antennas], scene,
                         cfg) == expected
        if len(expected) > 1 and scene.all_facets:
            assert any(len(seqs) > 1 for seqs in expected)
        half = len(antennas) // 2
        assert sbr_trace(points, [antennas], scene, cfg) == [union(expected)]
        assert sbr_trace(points, [antennas[:half], antennas[half:]], scene,
                         cfg) == [union(expected[:half]),
                                  union(expected[half:])]

    def test_packed_antennas_over_small_pair_blocks(self, monkeypatch):
        # As one set in one batch, each block holds one ray's pairs with a
        # group (two groups of 50), so every bounce flushes hundreds of
        # blocks; one antenna per set, each block holds 64 rays' pairs.
        source, antennas, scene, cfg = _packed_case()
        expected = reference_trace(source, antennas, scene, cfg)
        assert expected == [{(), (1,)}] * len(antennas)
        monkeypatch.setattr(propagation, "PAIR_BLOCK", 64)
        assert sbr_trace(source, [[a] for a in antennas], scene,
                         cfg) == expected
        monkeypatch.setattr(propagation, "FIRST_BATCH", cfg.ray_count)
        assert sbr_trace(source, [antennas], scene, cfg) == [{(), (1,)}]


class TestCaptureSets:
    """The batches of a set's capture test: a ray is dropped only when its
    sequence is in the set already."""

    @pytest.mark.parametrize("name", ["plates_seed0", "hidden_grid_points"])
    def test_any_first_batch_matches_the_oracle(self, name, monkeypatch):
        _, points, antennas, scene, cfg = next(
            case for case in _capture_cases() if case[0] == name)
        expected = union(reference_trace(points, antennas, scene, cfg))
        assert len(expected) > 1
        for size in (1, 7, cfg.ray_count, 10 * cfg.ray_count):
            monkeypatch.setattr(propagation, "FIRST_BATCH", size)
            assert sbr_trace(points, [antennas], scene,
                             cfg) == [expected], size

    def test_set_that_misses_a_code_does_not_hide_it(self):
        # three_spheres from its targets: the one tx antenna captures a
        # sequence that none of the 1360 rx antennas does. Each set keeps
        # its own captures, in either order.
        spheres = get_scenario("three_spheres")
        tx, rx = spheres.arrays.tx_positions, spheres.arrays.rx_positions
        _, points, antennas, scene, cfg = next(
            case for case in _capture_cases() if case[0] == "spheres_tx_rx")
        expected = reference_trace(points, antennas, scene, cfg)
        want = [union(expected[:len(tx)]), union(expected[len(tx):])]
        assert want[0] - want[1]
        assert sbr_trace(points, [tx, rx], scene, cfg) == want
        assert sbr_trace(points, [rx, tx], scene, cfg) == want[::-1]


def tree_nodes(node):
    """Every node of an `_antenna_clusters` tree, parents before children."""
    yield node
    for child in node[3]:
        yield from tree_nodes(child)


class TestAntennaTree:
    """The capture test's bounding-sphere tree: every node is conservative,
    so neither its depth nor its leaves change a capture."""

    @pytest.mark.parametrize("name", ["plates_seed0", "hidden_grid_points"])
    def test_any_leaf_size_matches_the_oracle(self, name, monkeypatch):
        _, points, antennas, scene, cfg = next(
            case for case in _capture_cases() if case[0] == name)
        expected = reference_trace(points, antennas, scene, cfg)
        for size in (1, 7):  # trees of 10-12 and 8-9 levels, not 4-6
            monkeypatch.setattr(propagation, "CLUSTER_SIZE", size)
            assert sbr_trace(points, [[a] for a in antennas], scene,
                             cfg) == expected, size
            # One set in one batch: every live ray walks the deep tree.
            monkeypatch.setattr(propagation, "FIRST_BATCH", cfg.ray_count)
            assert sbr_trace(points, [antennas], scene,
                             cfg) == [union(expected)], size

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_spheres_hold_their_members(self, size, monkeypatch):
        monkeypatch.setattr(propagation, "CLUSTER_SIZE", size)
        rng = np.random.default_rng(8)
        for antennas in (scenario_hidden_dipole().arrays.rx_positions,
                         rng.uniform(-2.0, 2.0, (300, 3)),
                         np.tile([0.5, 0.8, 0.9], (100, 1))):
            root = propagation._antenna_clusters(antennas)
            assert np.array_equal(root[0], np.arange(len(antennas)))
            for members, center, radius, children in tree_nodes(root):
                dist = np.linalg.norm(antennas[members] - center, axis=1)
                assert dist.max() <= radius + 1e-12
                if not children:
                    assert 1 <= members.size <= size
                    continue
                assert members.size > size and len(children) == 2
                parts = np.concatenate([child[0] for child in children])
                assert np.array_equal(np.sort(parts), np.sort(members))

    @pytest.mark.parametrize("size", [1, 4, 64])
    def test_capture_just_inside_the_radius_of_a_leaf_edge(self, size,
                                                           monkeypatch):
        # One ray from the origin, unobstructed. Ten antennas on a line
        # perpendicular to it: antenna 0, an end of every leaf that holds
        # it and so its outermost antenna, lies 1e-6 of the capture radius
        # inside the radius from the ray. The leaf's center lies that far
        # plus the leaf's radius from the ray, just inside its prefilter.
        monkeypatch.setattr(propagation, "CLUSTER_SIZE", size)
        cfg = SbrConfig(ray_count=1, max_bounces=0, capture_radius=0.05,
                        rng_seed=3)
        u = propagation._uniform_sphere(np.random.default_rng(3), 1)[0]
        e = np.cross(u, (0.0, 0.0, 1.0))
        e /= np.linalg.norm(e)
        gap = cfg.capture_radius * (1.0 - 1e-6)
        antennas = 5.0 * u + np.outer(gap + 0.3 * np.arange(10), e)
        leaf = next(node for node in tree_nodes(
            propagation._antenna_clusters(antennas))
            if not node[3] and 0 in node[0])
        assert np.isclose(np.linalg.norm(antennas[0] - leaf[1]), leaf[2])
        expected = [{()}] + [set()] * 9
        assert reference_trace((0, 0, 0), antennas, Scene([]), cfg) == expected
        assert sbr_trace((0, 0, 0), [[a] for a in antennas], Scene([]),
                         cfg) == expected
        assert sbr_trace((0, 0, 0), [antennas], Scene([]), cfg) == [{()}]

    @pytest.mark.parametrize("size", [1, 4, 64])
    def test_ray_between_the_antennas_of_a_leaf_not_captured(self, size,
                                                            monkeypatch):
        # One ray from the origin crosses a line of ten antennas 0.3 m
        # apart, midway between two of them: inside the sphere of every leaf
        # that spans them, 0.15 m from the nearest antenna.
        monkeypatch.setattr(propagation, "CLUSTER_SIZE", size)
        cfg = SbrConfig(ray_count=1, max_bounces=0, capture_radius=0.05,
                        rng_seed=3)
        u = propagation._uniform_sphere(np.random.default_rng(3), 1)[0]
        e = np.cross(u, (0.0, 0.0, 1.0))
        e /= np.linalg.norm(e)
        antennas = 5.0 * u + np.outer(0.3 * np.arange(10) - 1.35, e)
        assert reference_trace((0, 0, 0), antennas, Scene([]),
                               cfg) == [set()] * 10
        assert sbr_trace((0, 0, 0), [antennas], Scene([]), cfg) == [set()]


class TestBounds:
    """`_bounds` against the axis-0 reductions it replaced: min and max
    pick an element, so the boxes are the same numbers."""

    def test_builtin_antennas_and_images_bit_for_bit(self):
        arrays = []
        for name in ("tum_logo", "three_spheres", "hidden_dipole",
                     "parallel_plates"):
            s = get_scenario(name)
            for ants in (s.arrays.tx_positions, s.arrays.rx_positions):
                if ants.shape[0]:
                    table = ImagePathTable(s.scene, ants, 3, s.arrays.copol)
                    arrays += [e["images"][0] for e in table._entries]
        rng = np.random.default_rng(12)
        arrays += [rng.normal(size=(n, 3)) for n in (1, 2, 7, 16, 37, 1360)]
        arrays.append(np.tile([0.5, -0.8, 0.9], (100, 1)))  # ties
        for pts in arrays:
            lo, hi = propagation._bounds(pts)
            assert lo.tobytes() == pts.min(axis=0).tobytes()
            assert hi.tobytes() == pts.max(axis=0).tobytes()

    def test_signed_zeros_tie_by_value(self):
        # Where +0.0 and -0.0 tie, either may be picked; the boxes are only
        # compared and subtracted, where the two are the same number.
        pts = np.zeros((40, 3))
        pts[::3] = -0.0
        pts[5] = (1.0, -1.0, 0.0)
        lo, hi = propagation._bounds(pts)
        assert np.array_equal(lo, pts.min(axis=0))
        assert np.array_equal(hi, pts.max(axis=0))


def dist2_scalar(o, d, t_hit, target):
    """`_segment_dist2` of one segment in Python floats, in its order."""
    tc = ((target[0] - o[0]) * d[0] + (target[1] - o[1]) * d[1]
          + (target[2] - o[2]) * d[2])
    tc = min(max(tc, 0.0), t_hit)
    c = [o[k] + tc * d[k] - target[k] for k in range(3)]
    return c[0] * c[0] + c[1] * c[1] + c[2] * c[2]


class TestSegmentDist2:
    """The capture distance sums x, then y, then z, in every layout: the
    captures do not depend on how a numpy build orders a reduction."""

    def segments(self, n=10_000):
        rng = np.random.default_rng(17)
        o = rng.uniform(-3.0, 3.0, (3, n))
        d = propagation._uniform_sphere(rng, n).T.copy()
        t_hit = rng.uniform(0.0, 4.0, n)
        t_hit[::7] = np.inf
        return rng, o, d, t_hit

    def test_shared_target_matches_a_scalar_loop(self):
        _, o, d, t_hit = self.segments()
        target = np.array([0.3, -1.2, 2.1])
        got = propagation._segment_dist2(o, d, t_hit, target)
        want = [dist2_scalar(o[:, i].tolist(), d[:, i].tolist(),
                             float(t_hit[i]), target.tolist())
                for i in range(t_hit.size)]
        assert got.tolist() == want

    def test_target_per_segment_matches_a_scalar_loop(self):
        rng, o, d, t_hit = self.segments()
        target = rng.uniform(-3.0, 3.0, o.shape)
        got = propagation._segment_dist2(o, d, t_hit, target)
        want = [dist2_scalar(o[:, i].tolist(), d[:, i].tolist(),
                             float(t_hit[i]), target[:, i].tolist())
                for i in range(t_hit.size)]
        assert got.tolist() == want
        # A leaf's (rays x antennas) broadcast gives each pair the same bits.
        pairs = propagation._segment_dist2(
            o[:, :100, None], d[:, :100, None], t_hit[:100, None],
            target[:, None, :50])
        ray, ant = np.divmod(np.arange(5000), 50)
        assert np.array_equal(pairs.ravel(), propagation._segment_dist2(
            o[:, ray], d[:, ray], t_hit[ray], target[:, ant]))


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
        for fast, ref in eval_against_reference(table, pts):
            assert np.array_equal(fast[4], ref[4])  # valid masks
            assert np.allclose(fast[1], ref[1], atol=1e-9)  # lengths
            assert np.allclose(np.where(fast[4], fast[2], 0.0),
                               np.where(ref[4], ref[2], 0.0), atol=1e-9)

    def test_repeated_eval_matches_a_fresh_table(self):
        # The images' side of each sequence is computed on its first eval
        # and kept: later evals, of other blocks too, yield the same arrays
        # as a table that never evaluated before.
        rng = np.random.default_rng(14)
        plate = Facet.rectangle(2, (-0.7, 0.4, 0.41), (1.4, 0, 0),
                                (0, 0, 0.55))
        sc = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)), plate])
        ants = rng.uniform([-0.6, 0.9, 0.2], [0.6, 1.1, 1.2], size=(16, 3))
        blocks = [rng.uniform([-0.6, -0.9, 0.05], [0.6, 0.3, 1.3],
                              size=(n, 3)) for n in (20, 7)]
        table = ImagePathTable(sc, ants, 2, copol=(1, 0, 0))
        first = [list(table.eval(pts)) for pts in blocks]
        assert all(first)
        assert all("image_side" in e for e in table._entries)
        for pts, before in zip(blocks, first):
            fresh = ImagePathTable(sc, ants, 2, copol=(1, 0, 0))
            for items in (list(table.eval(pts)), list(fresh.eval(pts))):
                assert [i[0] for i in items] == [i[0] for i in before]
                for got, want in zip(items, before):
                    for a, b in zip(got[1:], want[1:]):
                        assert np.array_equal(a, b)

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
            for fast, ref in eval_against_reference(table, pts, ori):
                assert np.array_equal(fast[4], ref[4])
                assert np.allclose(np.where(fast[4], fast[2], 0.0),
                                   np.where(ref[4], ref[2], 0.0), atol=1e-9)
                # tnorm on every leg, valid or not.
                assert np.allclose(fast[3], ref[3], atol=1e-9)

    def test_fast_eval_matches_reference_on_builtin_wall_scene(self):
        # Grid row i = 94 (x = 0.305 m) of hidden_dipole_wall: the (1, 3)
        # bounce points land on the wall's bottom edge, where an in-extent
        # coordinate is zero up to rounding against a margin of 0.
        s = scenario_hidden_dipole(side_wall=True)
        nj = s.grid.dims[1]
        row = s.grid.centers_block(94 * nj, 95 * nj)
        # A block on the plate's plane (s_p = 0 for the plate on each
        # sequence's first leg) cannot be culled by sign: it takes the full
        # test.
        plate = s.scene.by_id[PLATE_ID]
        on_plate = plate.point + np.linspace(-0.5, 1.5, 16)[:, None] * (
            plate.edge_u + plate.edge_v)
        table = ImagePathTable(s.scene, s.arrays.rx_positions, 2,
                               s.arrays.copol)
        for pts in (row, on_plate):
            for fast, ref in eval_against_reference(table, pts):
                assert np.array_equal(fast[4], ref[4])


def _builtin_blocks():
    """(name, table, points): 128-voxel blocks of built-in scenes."""
    logo = get_scenario("tum_logo")
    # The first block of the letters strip (rows 48.. of the 1 cm grid),
    # which lies wholly in the plate's shadow.
    strip = ImageGrid(origin=logo.grid.voxel_center(0, 48),
                      axes=logo.grid.axes, spacing=logo.grid.spacing,
                      dims=(128, 32, 1))
    cases = [("tum_logo", logo, 2, [strip.centers_block(0, 128)]),
             ("three_spheres", get_scenario("three_spheres"), 1, []),
             ("hidden_dipole_wall", scenario_hidden_dipole(side_wall=True),
              2, []),
             ("parallel_plates", get_scenario("parallel_plates"), 3, [])]
    for name, s, order, extra in cases:
        n = s.grid.n_voxels
        blocks = extra + [s.grid.centers_block(lo, lo + 128)
                          for lo in (0, n // 2 - 64, n - 128)]
        ants = s.arrays.rx_positions
        table = ImagePathTable(s.scene, ants, order, s.arrays.copol)
        for k, pts in enumerate(blocks):
            yield f"{name}_{k}", table, pts


def _adversarial_blocks():
    """(name, table, points) whose crossings sit on a rectangle's edge, at
    EDGE_MARGIN from it, on a facet's plane, or on both sides of a shadow.

    The plate x, z in [0, 1] at y = 1 stands over the ground. Points at
    y = 0 and antennas at y = 2, all with one x, cross it at that x; with
    both at y = 0.5 they reflect off it (sequence (2,)) at that x."""
    plate = Facet.rectangle(2, (0, 1, 0), (1, 0, 0), (0, 0, 1))
    scene = Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)), plate])
    z_pts = np.linspace(0.2, 0.8, 8)
    z_ants = np.linspace(0.1, 0.9, 6)

    def line(x, y, z):
        return np.column_stack([np.full(z.size, x), np.full(z.size, y), z])

    for x in (0.0, EDGE_MARGIN, 1.0 - EDGE_MARGIN, 1.0, 0.5):
        for y_pts, y_ants in ((0.0, 2.0), (0.5, 0.5)):
            table = ImagePathTable(scene, line(x, y_ants, z_ants), 2,
                                   (1, 0, 0))
            yield (f"x{x:g}_y{y_pts:g}_{y_ants:g}", table,
                   line(x, y_pts, z_pts))
    ants = np.column_stack([np.linspace(-0.5, 1.5, 9), np.full(9, 2.0),
                            np.full(9, 0.5)])
    table = ImagePathTable(scene, ants, 2, (1, 0, 0))
    shadow = np.column_stack([np.linspace(-0.5, 1.5, 40), np.zeros(40),
                              np.full(40, 0.5)])
    yield "shadow_straddle", table, shadow
    on_plane = plate.point + np.linspace(-0.5, 1.5, 16)[:, None] * (
        plate.edge_u + plate.edge_v)
    yield "on_plate_plane", table, on_plane
    yield "on_ground_plane", table, on_plane * [1, 1, 0]


def no_bound(*args):
    """`_crossing_box` reduced to "no bound": every test stays undecided."""
    return False, False, (0.0, 1.0)


def assert_cut_of(got, want, n_ant, label=None):
    """`got`, an eval item, is `want`, an eval item of every column, cut to
    got's kept columns, bit for bit; want holds no valid leg on the others."""
    assert got[0] == want[0]
    assert np.array_equal(want[5], np.arange(n_ant))
    cols = got[5]
    assert np.all(np.diff(cols) > 0)
    dropped = np.ones(n_ant, bool)
    dropped[cols] = False
    assert not want[4][:, dropped].any(), (label, got[0])
    for k in range(1, 5):  # lengths, amp, tnorm, valid
        assert np.array_equal(got[k], want[k][:, cols]), (label, got[0], k)


def _random_cull_scenes():
    """(name, table, points) on seeded random scenes: a ground plane, two
    rectangles and a triangle, every facet an occluder, with 480 antennas
    spread far enough in x that many columns die, and point blocks of 1, 7
    and 40 voxels. At this width a BLAS product of the kept columns alone
    would round some columns differently from the full-width one."""
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        facets = [Facet.plane(1, (0, 0, 0), (0, 0, 1))]
        for fid in (2, 3):
            u = rng.normal(size=3)
            v = np.cross(u, rng.normal(size=3))
            facets.append(Facet.rectangle(
                fid, rng.uniform([-1.0, 0.3, 0.1], [0.5, 0.9, 0.6]),
                u / np.linalg.norm(u) * rng.uniform(0.3, 1.0),
                v / np.linalg.norm(v) * rng.uniform(0.3, 1.0)))
        corner = rng.uniform([0.4, -0.6, 0.1], [0.8, 0.2, 0.5])
        facets.append(Facet.triangle(4, corner, corner + rng.uniform(
            -0.6, 0.6, 3), corner + rng.uniform(-0.6, 0.6, 3)))
        ants = rng.uniform([-2.5, 1.0, 0.2], [2.5, 1.6, 1.4], size=(480, 3))
        table = ImagePathTable(Scene(facets), ants, 2, (1, 0, 0))
        for n in (1, 7, 40):
            pts = rng.uniform([-0.3, -0.5, 0.1], [0.3, 0.1, 1.0], size=(n, 3))
            yield f"seed{seed}_v{n}", table, pts
    # A plate at y = 1 over the ground, points and antennas near y = 0.5:
    # the plate bounce (2,) reaches it inside x in [0, 1] only from the
    # antenna near x = 0.5, so exactly one column survives (numpy's gemv
    # case). The coordinates are random, so that a product of that column
    # alone would round differently from the full-width one.
    rng = np.random.default_rng(310)
    plate = Facet.rectangle(2, (0, 1, 0), (1, 0, 0), (0, 0, 1))
    ants = rng.uniform(-0.05, 0.05, size=(5, 3)) + np.column_stack(
        [[-3.0, -2.0, 0.5, 2.5, 3.5], np.full(5, 0.5), np.full(5, 0.5)])
    table = ImagePathTable(Scene([Facet.plane(1, (0, 0, 0), (0, 0, 1)),
                                  plate]), ants, 1, (1, 0, 0))
    pts = rng.uniform([0.45, 0.45, 0.4], [0.55, 0.55, 0.6], size=(8, 3))
    yield "one_column", table, pts


class TestColumnCull:
    """The per-column pass drops only antenna columns that hold no valid
    leg, and on the columns it keeps eval yields, bit for bit, what an eval
    without any bound yields there. A one-point block skips it and keeps
    every column."""

    def test_dropped_columns_hold_no_valid_leg(self):
        for name, table, pts in _random_cull_scenes():
            # eval_against_reference asserts it for every yielded sequence.
            for fast, ref in eval_against_reference(table, pts):
                assert np.array_equal(fast[4], ref[4]), (name, fast[0])

    def test_kept_columns_match_an_unbounded_eval(self, monkeypatch):
        cut = one_column = one_point = 0
        for name, table, pts in _random_cull_scenes():
            culled = list(table.eval(pts))
            with monkeypatch.context() as m:
                m.setattr(propagation, "_crossing_box", no_bound)
                dense = list(table.eval(pts))
            assert [item[0] for item in culled] == [
                item[0] for item in dense]
            n_ant = table.antennas.shape[0]
            for got, want in zip(culled, dense):
                assert_cut_of(got, want, n_ant, name)
                cut += got[5].size < n_ant
                one_column += got[5].size == 1 and pts.shape[0] > 1
                if pts.shape[0] == 1:  # no column pass: every column kept
                    assert got[5].size == n_ant, (name, got[0])
                    one_point += 1
        assert cut >= 20 and one_column and one_point


class TestCrossingBoxCull:
    """The crossing-box cull skips only facet tests and antenna columns
    whose result it has proven: with `_crossing_box` reduced to "no bound",
    every facet takes the dense test on every column, and eval yields the
    same arrays on the kept columns bit for bit."""

    def test_cull_changes_no_yielded_array(self, monkeypatch):
        outcomes = set()
        box = propagation._crossing_box

        def spy(*args):
            miss, sure, t_box = box(*args)
            kind = ("column" if isinstance(args[1][0][0], np.ndarray)
                    else "block")
            for name, mask in (("missed", miss), ("hit", sure),
                               ("no bound", np.logical_not(miss | sure))):
                if np.any(mask):
                    outcomes.add((kind, name))
            return miss, sure, t_box

        cases = list(_builtin_blocks()) + list(_adversarial_blocks())
        for name, table, pts in cases:
            monkeypatch.setattr(propagation, "_crossing_box", spy)
            culled = list(table.eval(pts))
            monkeypatch.setattr(propagation, "_crossing_box", no_bound)
            dense = list(table.eval(pts))
            assert len(culled) == len(dense)
            for got, want in zip(culled, dense):
                assert_cut_of(got, want, table.antennas.shape[0], name)
        # Each branch fired in both passes: proven missed, proven hit and
        # no bound.
        assert outcomes == {(kind, name) for kind in ("block", "column")
                            for name in ("missed", "hit", "no bound")}

    def test_yields_exactly_the_sequences_with_a_valid_leg(self):
        cases = list(_builtin_blocks()) + list(_adversarial_blocks())
        for name, table, pts in cases:
            live = [seq for seq, _, _, _, valid in table.eval_reference(pts)
                    if valid.any()]
            assert [item[0] for item in table.eval(pts)] == live, name

    def test_strip_yields_only_the_ground_bounce(self, monkeypatch):
        # tum_logo's letters strip: LOS, (2,), (2, 1) and (1, 2) carry no
        # valid leg there. The box proves each of them dead from the
        # per-side values, before any (V, A) array of it exists, and decides
        # every test of (1,), so no dense facet test runs at all.
        _, table, pts = next(c for c in _builtin_blocks()
                             if c[0] == "tum_logo_0")
        decided, dense = [], []
        box = propagation._box_decisions

        def spy(*args):
            decided.append(box(*args))
            return decided[-1]

        monkeypatch.setattr(propagation, "_box_decisions", spy)
        monkeypatch.setattr(propagation, "_facet_hit",
                            lambda *args: dense.append(args))
        assert [item[0] for item in table.eval(pts)] == [(1,)]
        assert sum(boxes is None for boxes in decided) == 4
        assert dense == []

    def test_dead_order_3_plate_sequences_reach_no_dense_test(
            self, monkeypatch):
        # parallel_plates admits no (1, 2, 1) or (2, 1, 2) leg anywhere on
        # its grid. Whole blocks leave some of their tests undecided, but
        # per antenna column every column is proven dead, so neither
        # sequence reaches `_facet_hit` or builds a (V, A) array.
        s = get_scenario("parallel_plates")
        table = ImagePathTable(s.scene, s.arrays.rx_positions, 3,
                               s.arrays.copol)
        events = []
        box, hit = propagation._box_decisions, propagation._facet_hit

        def box_spy(*args):
            events.append(("box", box(*args)))
            return events[-1][1]

        def hit_spy(*args):
            events.append(("hit", None))
            return hit(*args)

        monkeypatch.setattr(propagation, "_box_decisions", box_spy)
        monkeypatch.setattr(propagation, "_facet_hit", hit_spy)
        dead = [(1, 2, 1), (2, 1, 2)]
        n = s.grid.n_voxels
        for lo in range(0, n, 128):
            events.clear()
            items = list(table.eval(s.grid.centers_block(lo, lo + 128)))
            assert not [item for item in items if item[0] in dead]
            seqs = iter(table.sequences)
            for kind, out in events:
                if kind == "box":
                    seq = next(seqs)
                    if seq in dead:
                        assert out is None, (lo, seq)
                else:
                    assert seq not in dead, (lo, seq)
