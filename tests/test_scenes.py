"""Built-in scenario builders and the scenario file schema."""

import numpy as np
import pytest

from rtbpa.errors import ScenarioError
from rtbpa.geometry import segments_blocked
from rtbpa.propagation import ImagePathTable
from rtbpa.scenes import (GROUND_ID, SCENARIOS, load_scenario, save_scenario,
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

    def test_every_pair_has_ground_bounce(self):
        s = scenario_tum_logo(n_rx_x=12, n_rx_y=10)
        table = ImagePathTable(s.scene, s.arrays.rx_positions, 1,
                               s.arrays.copol)
        emitters = np.array([src.position for src in s.sources])
        found = {seq: valid for seq, _, _, _, valid in table.eval(emitters)}
        assert found[(GROUND_ID,)].all()
        assert not found[()].any()

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

    def test_central_voxel_three_legs(self):
        s = scenario_parallel_plates()
        center = s.sources[0].position
        rx_mid = np.array([0.0, 1.0, 0.7])
        table = ImagePathTable(s.scene, [rx_mid], 1, s.arrays.copol)
        valid = [seq for seq, _, _, _, ok in table.eval([center]) if ok[0, 0]]
        # LOS plus one bounce off each plate
        assert sorted(len(seq) for seq in valid) == [0, 1, 1]

    def test_grid_first_axis_is_x(self):
        s = scenario_parallel_plates()
        assert np.allclose(s.grid.axes[0], (1, 0, 0))


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
