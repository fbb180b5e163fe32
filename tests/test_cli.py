"""Command-line interface: file formats, exit codes, determinism."""

import json
import struct

import numpy as np
import pytest

from rtbpa import io as rio
from rtbpa.cli import main
from rtbpa.fields import (AntennaArray, DipoleSource, FrequencySweep,
                          PointScatterer)
from rtbpa.imaging import ImageGrid
from rtbpa.scenes import Scenario, save_scenario
from rtbpa.geometry import Scene


@pytest.fixture()
def free_space_file(tmp_path):
    """A small free-space radiation scenario saved to disk."""
    rng = np.random.default_rng(30)
    rx = rng.uniform([-0.4, 1.0, 0.4], [0.4, 1.1, 1.0], size=(18, 3))
    grid = ImageGrid.planar(center=(0.0, 0.0, 0.7), axis_i=(1, 0, 0),
                            axis_j=(0, 1, 0), spacing_ij=(0.02, 0.02),
                            dims_ij=(15, 15))
    scenario = Scenario(
        name="free_dipole", scene=Scene([]),
        sources=[DipoleSource((0.0, 0.0, 0.7), (1, 0, 0))], targets=[],
        arrays=AntennaArray(tx_positions=np.zeros((0, 3)), rx_positions=rx,
                            copol=(1, 0, 0)),
        sweep=FrequencySweep(18e9, 20e9, 100e6), grid=grid)
    path = tmp_path / "free_dipole.json"
    save_scenario(scenario, path)
    return path


@pytest.fixture()
def scattering_file(tmp_path):
    """A small free-space scattering scenario saved to disk."""
    tx = np.array([[0.0, 1.0, 0.7], [0.2, 1.0, 0.6]])
    rx = np.array([[-0.2, 1.0, 0.8], [0.1, 1.1, 0.5], [0.3, 1.0, 0.9]])
    grid = ImageGrid.planar(center=(0.0, 0.0, 0.7), axis_i=(1, 0, 0),
                            axis_j=(0, 1, 0), spacing_ij=(0.05, 0.05),
                            dims_ij=(5, 5))
    scenario = Scenario(
        name="free_target", scene=Scene([]), sources=[],
        targets=[PointScatterer((0.0, 0.0, 0.7))],
        arrays=AntennaArray(tx_positions=tx, rx_positions=rx,
                            copol=(1, 0, 0)),
        sweep=FrequencySweep(18e9, 18.5e9, 100e6), grid=grid)
    path = tmp_path / "free_target.json"
    save_scenario(scenario, path)
    return path


def test_scenes_list(capsys):
    assert main(["scenes", "list"]) == 0
    out = capsys.readouterr().out.split()
    for name in ("tum_logo", "three_spheres", "parallel_plates"):
        assert name in out


def test_scenes_show_round_trips(capsys, tmp_path):
    out_file = tmp_path / "plates.json"
    assert main(["scenes", "show", "parallel_plates",
                 "--out", str(out_file)]) == 0
    from rtbpa.scenes import load_scenario
    assert load_scenario(out_file).name == "parallel_plates"


def test_scenes_show_unknown_exits_4(capsys):
    assert main(["scenes", "show", "no_such_scene"]) == 4


def test_forward_reconstruct_roundtrip(free_space_file, tmp_path, capsys):
    out = tmp_path / "fwd"
    assert main(["forward", "--scenario", str(free_space_file),
                 "--out", str(out)]) == 0
    data_file = out / "measurements.rtbpa"
    ms = rio.read_measurements(data_file)
    assert ms.samples.shape == (1, 18, 21)

    # Rerun is byte-identical.
    out2 = tmp_path / "fwd2"
    assert main(["forward", "--scenario", str(free_space_file),
                 "--out", str(out2)]) == 0
    assert data_file.read_bytes() == (out2 / "measurements.rtbpa").read_bytes()

    # Naive equals RT-BPA at order 0 on free-space data: CSV byte-identical.
    run_n = tmp_path / "run_naive"
    run_r = tmp_path / "run_rt0"
    assert main(["reconstruct", "--scenario", str(free_space_file),
                 "--data", str(data_file), "--algorithm", "naive",
                 "--out", str(run_n)]) == 0
    assert main(["reconstruct", "--scenario", str(free_space_file),
                 "--data", str(data_file), "--algorithm", "rtbpa",
                 "--max-order", "0", "--out", str(run_r)]) == 0
    assert (run_n / "image_db.csv").read_bytes() == \
        (run_r / "image_db.csv").read_bytes()

    metrics = json.loads((run_r / "metrics.json").read_text())
    assert metrics["wall_clock_seconds"] > 0

    # Self-comparison: all deltas zero.
    assert main(["compare", "--run-a", str(run_n), "--run-b", str(run_r),
                 "--out", str(tmp_path / "delta.json")]) == 0
    report = json.loads((tmp_path / "delta.json").read_text())
    assert report["peak_displacement_m"] == 0.0
    assert report["deltas"]["entropy"] == 0.0

    # Outputs exist and the heatmap is a valid PGM header.
    pgm = (run_r / "image.pgm").read_bytes()
    assert pgm.startswith(b"P5\n15 15\n255\n")

    img = rio.read_image(run_r / "image.rtbpa")
    assert img.dims == (15, 15, 1)


def test_grid_override(free_space_file, tmp_path):
    out = tmp_path / "fwd"
    main(["forward", "--scenario", str(free_space_file), "--out", str(out)])
    run = tmp_path / "run"
    assert main(["reconstruct", "--scenario", str(free_space_file),
                 "--data", str(out / "measurements.rtbpa"),
                 "--grid", "9", "7", "--out", str(run)]) == 0
    img = rio.read_image(run / "image.rtbpa")
    assert img.dims == (9, 7, 1)


def test_corrupt_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1')
    assert main(["forward", "--scenario", str(bad),
                 "--out", str(tmp_path / "o")]) == 2


def test_unknown_scenario_exits_4(tmp_path):
    assert main(["forward", "--scenario", "does_not_exist",
                 "--out", str(tmp_path / "o")]) == 4


def test_data_scenario_mismatch_exits_3(free_space_file, tmp_path):
    out = tmp_path / "fwd"
    main(["forward", "--scenario", str(free_space_file), "--out", str(out)])
    # Mutate the saved scenario's rx grid so the data no longer matches.
    from rtbpa.scenes import load_scenario
    scenario = load_scenario(free_space_file)
    moved = Scenario(name=scenario.name, scene=scenario.scene,
                     sources=scenario.sources, targets=[],
                     arrays=AntennaArray(
                         tx_positions=np.zeros((0, 3)),
                         rx_positions=scenario.arrays.rx_positions + 0.05,
                         copol=scenario.arrays.copol),
                     sweep=scenario.sweep, grid=scenario.grid)
    other = tmp_path / "moved.json"
    save_scenario(moved, other)
    assert main(["reconstruct", "--scenario", str(other),
                 "--data", str(out / "measurements.rtbpa"),
                 "--out", str(tmp_path / "r")]) == 3


def test_compare_grid_mismatch_exits_3(free_space_file, tmp_path):
    out = tmp_path / "fwd"
    main(["forward", "--scenario", str(free_space_file), "--out", str(out)])
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    main(["reconstruct", "--scenario", str(free_space_file),
          "--data", str(out / "measurements.rtbpa"), "--out", str(run_a)])
    main(["reconstruct", "--scenario", str(free_space_file),
          "--data", str(out / "measurements.rtbpa"), "--grid", "9", "9",
          "--out", str(run_b)])
    assert main(["compare", "--run-a", str(run_a),
                 "--run-b", str(run_b)]) == 3


def test_measurement_container_round_trip(free_space_file, tmp_path):
    out = tmp_path / "fwd"
    main(["forward", "--scenario", str(free_space_file), "--out", str(out)])
    ms = rio.read_measurements(out / "measurements.rtbpa")
    again = tmp_path / "again.rtbpa"
    rio.write_measurements(again, ms)
    assert again.read_bytes() == (out / "measurements.rtbpa").read_bytes()


def test_truncated_container_rejected(free_space_file, tmp_path):
    out = tmp_path / "fwd"
    main(["forward", "--scenario", str(free_space_file), "--out", str(out)])
    raw = (out / "measurements.rtbpa").read_bytes()
    clipped = tmp_path / "clip.rtbpa"
    clipped.write_bytes(raw[:-7])
    from rtbpa.errors import ScenarioError
    with pytest.raises(ScenarioError, match="truncated"):
        rio.read_measurements(clipped)


def _saved_variant(scenario_file, out, **changes):
    from rtbpa.scenes import load_scenario
    s = load_scenario(scenario_file)
    fields = dict(name=s.name, scene=s.scene, sources=s.sources,
                  targets=s.targets, arrays=s.arrays, sweep=s.sweep,
                  grid=s.grid)
    fields.update(changes)
    save_scenario(Scenario(**fields), out)
    return out


def test_tx_axis_mismatch_exits_3(scattering_file, tmp_path, capsys):
    out = tmp_path / "fwd"
    assert main(["forward", "--scenario", str(scattering_file),
                 "--out", str(out)]) == 0
    from rtbpa.scenes import load_scenario
    arrays = load_scenario(scattering_file).arrays
    moved = _saved_variant(scattering_file, tmp_path / "moved.json",
                           arrays=AntennaArray(
                               tx_positions=arrays.tx_positions + 0.05,
                               rx_positions=arrays.rx_positions,
                               copol=arrays.copol))
    assert main(["reconstruct", "--scenario", str(moved),
                 "--data", str(out / "measurements.rtbpa"),
                 "--out", str(tmp_path / "r")]) == 3
    assert "tx axis" in capsys.readouterr().err


def test_mode_mismatch_exits_3(scattering_file, tmp_path, capsys):
    # Same antennas, but the scenario radiates instead of scattering.
    out = tmp_path / "fwd"
    assert main(["forward", "--scenario", str(scattering_file),
                 "--out", str(out)]) == 0
    radiating = _saved_variant(
        scattering_file, tmp_path / "radiating.json", targets=[],
        sources=[DipoleSource((0.0, 0.0, 0.7), (1, 0, 0))])
    assert main(["reconstruct", "--scenario", str(radiating),
                 "--data", str(out / "measurements.rtbpa"),
                 "--out", str(tmp_path / "r")]) == 3
    assert "mode" in capsys.readouterr().err


def test_oversized_header_exits_2(free_space_file, tmp_path, capsys):
    # ~100 bytes whose header claims n_k = 2**31: rejected before any read
    # of that size is attempted.
    bogus = tmp_path / "bogus.rtbpa"
    bogus.write_bytes(rio.MAGIC + struct.pack("<BB", rio.KIND_MEASUREMENT, 0)
                      + struct.pack("<III", 1, 1, 2 ** 31)
                      + struct.pack("<ddd", 18e9, 20e9, 1e8)
                      + bytes(24 + 24 + 24))
    assert len(bogus.read_bytes()) < 150
    assert main(["reconstruct", "--scenario", str(free_space_file),
                 "--data", str(bogus), "--out", str(tmp_path / "r")]) == 2
    assert "header implies" in capsys.readouterr().err


def test_oversized_image_header_exits_2(tmp_path, capsys):
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        (tmp_path / run / "image.rtbpa").write_bytes(
            rio.MAGIC + struct.pack("<B", rio.KIND_IMAGE)
            + struct.pack("<III", 2 ** 31, 1, 1) + bytes(24 + 72 + 24 + 8))
    assert main(["compare", "--run-a", str(tmp_path / "a"),
                 "--run-b", str(tmp_path / "b")]) == 2
    assert "header implies" in capsys.readouterr().err


def test_trailing_bytes_rejected(free_space_file, tmp_path):
    out = tmp_path / "fwd"
    main(["forward", "--scenario", str(free_space_file), "--out", str(out)])
    padded = tmp_path / "pad.rtbpa"
    padded.write_bytes((out / "measurements.rtbpa").read_bytes() + b"\0")
    from rtbpa.errors import ScenarioError
    with pytest.raises(ScenarioError, match="trailing bytes"):
        rio.read_measurements(padded)


def test_bad_workers_env_exits_2(free_space_file, tmp_path, monkeypatch,
                                 capsys):
    monkeypatch.setenv("RTBPA_WORKERS", "abc")
    assert main(["forward", "--scenario", str(free_space_file),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "RTBPA_WORKERS" in err
    # An explicit flag does not consult the environment.
    assert main(["forward", "--scenario", str(free_space_file),
                 "--workers", "1", "--out", str(tmp_path / "o")]) == 0


@pytest.fixture(scope="module")
def plates_container(tmp_path_factory):
    """A parallel_plates measurement container (order 0)."""
    out = tmp_path_factory.mktemp("plates")
    assert main(["forward", "--scenario", "parallel_plates",
                 "--max-order", "0", "--out", str(out)]) == 0
    return (out / "measurements.rtbpa").read_bytes()


def _patched(raw, offset, values):
    """Container bytes with little-endian doubles written from `offset`
    (header: 20 bytes, sweep at 20, copol at 44, tx at 68, rx from 92)."""
    patch = struct.pack(f"<{len(values)}d", *values)
    return raw[:offset] + patch + raw[offset + len(patch):]


@pytest.mark.parametrize("offset, values, field", [
    (44, [float("nan")], "copol"),
    (44, [0.0, 0.0, 0.0], "copol"),
    (92, [float("inf")], "rx positions"),
    (20, [20e9, 18e9], "sweep"),
], ids=["nan_copol", "zero_copol", "inf_position", "reversed_sweep"])
def test_bad_container_field_exits_2(plates_container, tmp_path, capsys,
                                     offset, values, field):
    bad = tmp_path / "bad.rtbpa"
    bad.write_bytes(_patched(plates_container, offset, values))
    assert main(["reconstruct", "--scenario", "parallel_plates",
                 "--data", str(bad), "--max-order", "0", "--grid", "1", "1",
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flags", [
    ["--max-order", "-1"], ["--max-order", "6"], ["--rays", "0"],
    ["--capture-radius", "0"], ["--grid", "0", "4"], ["--workers", "0"],
], ids=lambda flags: "_".join(flags).lstrip("-"))
def test_flag_out_of_range_exits_2(free_space_file, tmp_path, capsys, flags):
    out = tmp_path / "o"
    assert main(["forward", "--scenario", str(free_space_file),
                 "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flags[0] in err
    assert not out.exists()


@pytest.mark.parametrize("edit", ["reversed_sweep", "text_rx_coordinate",
                                  "zero_grid_dim", "nan_grid_spacing",
                                  "nan_source_position",
                                  "overflow_source_position",
                                  "huge_int_step"])
def test_bad_scenario_value_exits_2(free_space_file, tmp_path, capsys, edit):
    doc = json.loads(free_space_file.read_text())
    if edit == "reversed_sweep":
        doc["sweep"]["f_start_hz"], doc["sweep"]["f_stop_hz"] = 20e9, 18e9
    elif edit == "zero_grid_dim":
        doc["grid"]["dims"][0] = 0
    elif edit == "nan_grid_spacing":
        doc["grid"]["spacing"][0] = float("nan")  # written as the NaN token
    elif edit == "nan_source_position":
        doc["sources"][0]["position"][0] = float("nan")
    elif edit == "overflow_source_position":
        doc["sources"][0]["position"][0] = 1e308  # made 1e999 below
    elif edit == "huge_int_step":
        doc["sweep"]["step_hz"] = 10 ** 400  # no double holds it
    else:
        doc["arrays"]["rx_positions"][0][1] = "one"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace("1e+308", "1e999"))
    assert main(["forward", "--scenario", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_internal_lookup_error_not_an_exit_code(free_space_file, tmp_path,
                                                monkeypatch):
    # Only the package's own error types map to exit codes; a KeyError from
    # inside the forward path is a bug and surfaces as one.
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("rtbpa.cli.synthesize_radiation_data", broken)
    with pytest.raises(KeyError):
        main(["forward", "--scenario", str(free_space_file),
              "--out", str(tmp_path / "o")])


def test_public_names_resolve():
    import rtbpa
    for name in rtbpa.__all__:
        assert getattr(rtbpa, name) is not None, name
