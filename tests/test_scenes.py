"""Built-in scenario builders and the scenario file schema."""

import hashlib
import re

import numpy as np
import pytest

from rtbpa.errors import ScenarioError
from rtbpa.fields import (AntennaArray, DipoleSource, FrequencySweep,
                          PointScatterer)
from rtbpa.geometry import Facet, Scene, segments_blocked
from rtbpa.imaging import ImageGrid
from rtbpa.propagation import ImagePathTable
from rtbpa.scenes import (GROUND_ID, PLATE_ID, SCENARIOS, Scenario,
                          _assert_hidden, _solve_occluder, load_scenario,
                          save_scenario, scenario_hidden_dipole,
                          scenario_parallel_plates, scenario_three_spheres,
                          scenario_tum_logo, scenario_text)


class TestTumLogo:
    def test_counts(self):
        s = scenario_tum_logo()
        assert len(s.sources) == 37
        assert s.sweep.count == 21
        assert s.arrays.rx_positions.shape == (40 * 34, 3)

    def test_aperture_extent(self):
        s = scenario_tum_logo()
        rx = s.arrays.rx_positions
        assert rx[:, 0].max() - rx[:, 0].min() == pytest.approx(1.2)
        assert rx[:, 2].max() - rx[:, 2].min() == pytest.approx(1.0)

    def test_all_los_blocked(self):
        s = scenario_tum_logo(n_rx_x=12, n_rx_y=10)
        emitters = np.array([src.position for src in s.sources])
        blocked = segments_blocked(emitters[:, None, :],
                                   s.arrays.rx_positions[None, :, :], s.scene)
        assert blocked.all()

    def test_sample_segment_occluded(self):
        s = scenario_tum_logo(n_rx_x=12, n_rx_y=10)
        assert segments_blocked(s.sources[0].position,
                                s.arrays.rx_positions[57], s.scene)

    def test_every_pair_has_ground_bounce(self, valid_masks):
        s = scenario_tum_logo(n_rx_x=12, n_rx_y=10)
        table = ImagePathTable(s.scene, s.arrays.rx_positions, 1,
                               s.arrays.copol)
        emitters = np.array([src.position for src in s.sources])
        found = valid_masks(table, emitters)
        assert found[(GROUND_ID,)].all()
        assert not found[()].any()

    def test_blocked_ground_bounce_refused(self):
        # The plate hides the rx from the emitter, and the ground bounce
        # passes under it. A mat just above the ground between them blocks
        # that bounce, so eval yields no ground sequence at all.
        ground = Facet.plane(GROUND_ID, (0, 0, 0), (0, 0, 1))
        plate = Facet.rectangle(PLATE_ID, (-1, 0.5, 0.3), (2, 0, 0),
                                (0, 0, 1.5))
        mat = Facet.rectangle(3, (-1, 0.2, 0.05), (2, 0, 0), (0, 0.6, 0))
        emitters = np.array([[0.0, 0.0, 0.7]])
        rx = np.array([[0.0, 1.0, 0.7], [0.2, 1.0, 0.6]])
        _assert_hidden(Scene([ground, plate]), emitters, rx, (1, 0, 0))
        with pytest.raises(ScenarioError, match="ground-bounce"):
            _assert_hidden(Scene([ground, plate, mat]), emitters, rx,
                           (1, 0, 0))

    def test_visible_emitter_refused(self):
        # Without the plate every direct segment is open.
        ground = Facet.plane(GROUND_ID, (0, 0, 0), (0, 0, 1))
        with pytest.raises(ScenarioError, match="does not block every direct"):
            _assert_hidden(Scene([ground]), np.array([[0.0, 0.0, 0.7]]),
                           np.array([[0.0, 1.0, 0.7]]), (1, 0, 0))

    def test_sources_above_ground(self):
        s = scenario_tum_logo()
        for src in s.sources:
            assert src.position[2] == pytest.approx(0.7)

    def test_min_rx_count_enforced(self):
        with pytest.raises(ValueError):
            scenario_tum_logo(n_rx_x=5, n_rx_y=5)

    def test_deterministic(self):
        assert scenario_text(scenario_tum_logo()) == \
            scenario_text(scenario_tum_logo())


class TestThreeSpheres:
    def test_cited_coordinates(self):
        s = scenario_three_spheres()
        centers = np.array([t.position for t in s.targets])
        assert np.allclose(centers, [[0.0, -0.25, 0.7], [0.2, -0.25, 0.7],
                                     [0.4, -0.25, 0.7]])
        assert np.allclose(np.diff(centers[:, 0]), 0.2)
        assert np.allclose(s.arrays.tx_positions, [[0.2, 0.4, 0.7]])

    def test_default_reflectivity(self):
        s = scenario_three_spheres()
        assert all(t.reflectivity == 1.0 + 0.0j for t in s.targets)

    def test_mode(self):
        assert scenario_three_spheres().mode == "scattering"

    def test_tx_sees_targets(self):
        s = scenario_three_spheres(n_rx_x=10, n_rx_y=10)
        targets = np.array([t.position for t in s.targets])
        assert not segments_blocked(s.arrays.tx_positions[0], targets,
                                    s.scene).any()


class TestParallelPlates:
    def test_defaults(self):
        s = scenario_parallel_plates()
        plates = s.scene.facets
        assert len(plates) == 2
        gap = plates[1].point[0] - plates[0].point[0]
        assert gap == pytest.approx(0.6)

    def test_los_unobstructed(self):
        s = scenario_parallel_plates(n_rx_x=10, n_rx_y=8)
        src = s.sources[0].position
        blocked = segments_blocked(src[None, None, :],
                                   s.arrays.rx_positions[None, :, :], s.scene)
        assert not blocked.any()

    def test_blocked_los_refused(self):
        # At a 0.1 m gap the plates stand across most direct segments.
        with pytest.raises(ScenarioError, match="LOS must be unobstructed"):
            scenario_parallel_plates(plate_gap=0.1)

    def test_central_voxel_three_legs(self):
        s = scenario_parallel_plates()
        center = s.sources[0].position
        rx_mid = np.array([0.0, 1.0, 0.7])
        table = ImagePathTable(s.scene, [rx_mid], 1, s.arrays.copol)
        valid = [seq for seq, _, _, _, ok, _ in table.eval([center])
                 if ok[0, 0]]
        # LOS plus one bounce off each plate
        assert sorted(len(seq) for seq in valid) == [0, 1, 1]

    def test_grid_first_axis_is_x(self):
        s = scenario_parallel_plates()
        assert np.allclose(s.grid.axes[0], (1, 0, 0))


@pytest.mark.parametrize("build, digest", [
    (scenario_tum_logo,
     "ab03193f4a4425ebd1cea47941568a6879cf47d13904e050ac7532a581d4e58a"),
    (scenario_three_spheres,
     "6b618b4abe84a016007daffc75694b2ee387b061dd59fe416e0e82f392707048"),
    (scenario_parallel_plates,
     "b7a3a6156048858e529a5a5b03a0f821a4b03539dd1f2d4b7a4677825229ae99"),
    (scenario_hidden_dipole,
     "053e95e5782ad6050bf3d2a38fd542dbaffb35eab13f54fdc98a14a3c62d6bd0"),
    (lambda: scenario_hidden_dipole(side_wall=True),
     "fb69871b0939c69c8b0d1ccd668a616be2f63edd09faa9128d9ded2a6f98aded"),
], ids=["tum_logo", "three_spheres", "parallel_plates", "hidden_dipole",
        "hidden_dipole_wall"])
def test_built_scene_bytes_pinned(build, digest):
    text = scenario_text(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _solve_occluder_loop(emitters, rx, y_front, y_rx, margin=0.02,
                         min_width=1.4, min_clearance=0.04):
    """Reference for `_solve_occluder`: every candidate y in turn over every
    emitter-rx pair, keeping the first of equal clearances."""
    ye = emitters[:, 1][:, None]
    ze = emitters[:, 2][:, None]
    xe = emitters[:, 0][:, None]
    yr = rx[:, 1][None, :]
    zr = rx[:, 2][None, :]
    xr = rx[:, 0][None, :]
    fq = ze / (ze + zr)
    best = None
    for yp in np.linspace(y_front + 0.03, y_rx - 0.03, 121):
        f = (yp - ye) / (yr - ye)
        direct_z = ze + f * (zr - ze)
        with np.errstate(invalid="ignore", divide="ignore"):
            down = ze * (1.0 - f / fq)
            up = zr * (f - fq) / (1.0 - fq)
        bounce_z = np.where(f <= fq, down, up)
        clearance = float(direct_z.min() - bounce_z.max())
        if best is None or clearance > best[0]:
            best = (clearance, yp, direct_z, f)
    clearance, yp, direct_z, f = best
    if clearance < min_clearance + 2.0 * margin:
        raise ScenarioError(
            f"cannot place an occluder: best clearance {clearance:.3f} m")
    z_lo = float(direct_z.min()) - margin
    z_hi = float(direct_z.max()) + margin
    x_cross = xe + f * (xr - xe)
    x_lo = float(x_cross.min()) - margin
    x_hi = float(x_cross.max()) + margin
    if x_hi - x_lo < min_width:
        pad = 0.5 * (min_width - (x_hi - x_lo))
        x_lo -= pad
        x_hi += pad
    return Facet.rectangle(PLATE_ID, origin=(x_lo, yp, z_lo),
                           edge_u=(x_hi - x_lo, 0.0, 0.0),
                           edge_v=(0.0, 0.0, z_hi - z_lo))


def _builder_occluder_inputs(name, n_rx_x, n_rx_y):
    """The (emitters, rx, keyword arguments) each builder solves with."""
    if name == "tum_logo":
        s = scenario_tum_logo(n_rx_x, n_rx_y)
        return (np.array([src.position for src in s.sources]),
                s.arrays.rx_positions, dict(y_front=0.0, y_rx=1.0))
    if name == "three_spheres":
        s = scenario_three_spheres(n_rx_x, n_rx_y)
        return (np.array([t.position for t in s.targets]),
                s.arrays.rx_positions, dict(y_front=0.4, y_rx=1.4))
    side_wall = name == "hidden_dipole_wall"
    s = scenario_hidden_dipole(n_rx_x, n_rx_y, side_wall=side_wall)
    position = s.sources[0].position
    return (position[None, :], s.arrays.rx_positions,
            dict(y_front=float(position[1]), y_rx=1.0,
                 min_width=0.0 if side_wall else 1.4))


def _assert_same_plate(a: Facet, b: Facet):
    assert a.id == b.id
    for field in ("point", "edge_u", "edge_v"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestOccluderSolve:
    """`_solve_occluder` searches the distinct (y, z) rows; the per-pair
    loop over every candidate must give the same plate to the bit."""

    @pytest.mark.parametrize("name", ["tum_logo", "three_spheres",
                                      "hidden_dipole", "hidden_dipole_wall"])
    @pytest.mark.parametrize("n_rx", [(40, 34), (12, 10)])
    def test_builders_match_loop(self, name, n_rx):
        emitters, rx, kw = _builder_occluder_inputs(name, *n_rx)
        _assert_same_plate(_solve_occluder(emitters, rx, **kw),
                           _solve_occluder_loop(emitters, rx, **kw))

    def test_repeated_heights_match_loop(self):
        # Emitters and rx repeat their (y, z) rows at different x, so the
        # distinct rows are fewer than the pairs, and the x extent must
        # still come from every pair (no min_width pad hides it).
        rng = np.random.default_rng(18)
        e_yz = np.column_stack([rng.uniform(-0.4, -0.1, 4),
                                rng.uniform(0.6, 0.8, 4)])
        r_yz = np.column_stack([rng.choice([1.0, 1.05], 16),
                                rng.uniform(0.3, 1.2, 16)])
        emitters = np.column_stack([rng.uniform(-0.5, 0.5, 12),
                                    np.repeat(e_yz, 3, axis=0)])
        rx = np.column_stack([rng.uniform(-0.6, 0.6, 80),
                              np.repeat(r_yz, 5, axis=0)])
        emitters = emitters[rng.permutation(12)]
        rx = rx[rng.permutation(80)]
        kw = dict(y_front=-0.1, y_rx=1.0, min_width=0.0)
        _assert_same_plate(_solve_occluder(emitters, rx, **kw),
                           _solve_occluder_loop(emitters, rx, **kw))

    def test_unmet_clearance_refused(self):
        emitters, rx, kw = _builder_occluder_inputs("hidden_dipole", 12, 10)
        with pytest.raises(ScenarioError,
                           match="cannot place an occluder: best clearance"):
            _solve_occluder(emitters, rx, min_clearance=10.0, **kw)


class TestAntennaGuard:
    """`Scenario` refuses an antenna on a facet, naming the first antenna in
    list order (tx before rx) and, for it, the first facet it lies on."""

    WALL = Facet.rectangle(5, (-1.0, 1.0, 0.0), (2.0, 0.0, 0.0),
                           (0.0, 0.0, 2.0))  # the y = 1 plane, |x| <= 1
    SHELF = Facet.rectangle(7, (-1.0, 0.0, 0.5), (2.0, 0.0, 0.0),
                            (0.0, 2.0, 0.0))  # the z = 0.5 plane, y in 0..2

    @staticmethod
    def _scenario(rx, tx=()):
        tx = np.array(tx, float).reshape(-1, 3)
        grid = ImageGrid.planar(center=(0.0, -0.5, 0.7), axis_i=(1, 0, 0),
                                axis_j=(0, 1, 0), spacing_ij=(0.1, 0.1),
                                dims_ij=(2, 2))
        kw = (dict(sources=[], targets=[PointScatterer((0.0, -0.5, 0.7))])
              if tx.size else
              dict(sources=[DipoleSource((0.0, -0.5, 0.7), (1, 0, 0))],
                   targets=[]))
        return Scenario(
            name="guard", scene=Scene([TestAntennaGuard.WALL,
                                       TestAntennaGuard.SHELF]),
            arrays=AntennaArray(tx_positions=tx, rx_positions=np.array(rx),
                                copol=(1, 0, 0)),
            sweep=FrequencySweep(18e9, 18.2e9, 100e6), grid=grid, **kw)

    @pytest.mark.parametrize("rx, tx, named, facet", [
        # On the wall's plane but outside it, then on the shelf, then on
        # both: the shelf antenna comes first in the list.
        ([(1.5, 1.0, 0.7), (0.3, 0.5, 0.5), (0.1, 1.0, 0.5)], (),
         (0.3, 0.5, 0.5), 7),
        # The first antenna on a facet lies on both: the wall is listed
        # first in the scene.
        ([(0.0, 1.5, 0.7), (0.1, 1.0, 0.5), (0.2, 1.0, 0.9)], (),
         (0.1, 1.0, 0.5), 5),
        # On the wall's edge (edge-inclusive).
        ([(0.0, 1.5, 0.7), (1.0, 1.0, 0.9)], (), (1.0, 1.0, 0.9), 5),
        # A tx precedes every rx.
        ([(0.2, 1.0, 0.9)], [(0.0, 1.5, 0.5)], (0.0, 1.5, 0.5), 7),
    ])
    def test_first_antenna_on_facet_named(self, rx, tx, named, facet):
        message = f"antenna at {np.array(named)} lies on facet {facet}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            self._scenario(rx, tx)

    def test_off_facet_antennas_accepted(self):
        self._scenario([(0.0, 1.5, 0.7), (0.0, 1.0 + 1e-6, 0.7),
                        (1.0 + 1e-6, 1.0, 0.7)])


class TestScenarioFile:
    def test_round_trip_bytes(self, tmp_path):
        s = scenario_three_spheres(n_rx_x=10, n_rx_y=10)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_scenario(s, p1)
        loaded = load_scenario(p1)
        save_scenario(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_fields(self, tmp_path):
        s = scenario_tum_logo(n_rx_x=11, n_rx_y=10)
        p = tmp_path / "s.json"
        save_scenario(s, p)
        loaded = load_scenario(p)
        assert loaded.name == s.name
        assert np.array_equal(loaded.arrays.rx_positions,
                              s.arrays.rx_positions)
        assert np.array_equal(loaded.grid.origin, s.grid.origin)
        assert loaded.sweep == s.sweep
        assert [f.id for f in loaded.scene.all_facets] == \
            [f.id for f in s.scene.all_facets]
        assert np.array_equal(
            np.array([x.position for x in loaded.sources]),
            np.array([x.position for x in s.sources]))

    def test_missing_field_named(self, tmp_path):
        s = scenario_parallel_plates(n_rx_x=10, n_rx_y=8)
        import json
        doc = json.loads(scenario_text(s))
        del doc["sweep"]["step_hz"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="step_hz"):
            load_scenario(p)

    def test_unknown_field_rejected(self, tmp_path):
        s = scenario_parallel_plates(n_rx_x=10, n_rx_y=8)
        import json
        doc = json.loads(scenario_text(s))
        doc["grid"]["extra_knob"] = 3
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="extra_knob"):
            load_scenario(p)

    def test_invalid_json_reports_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(p)

    def test_registry_contains_builtins(self):
        for name in ("tum_logo", "three_spheres", "parallel_plates"):
            assert name in SCENARIOS
