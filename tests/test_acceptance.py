"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (run with
`pytest tests/test_acceptance.py -v -s` to see them live). Expensive forward
data and reconstructions are shared through module-scoped fixtures.
"""

import os
import time

import numpy as np
import pytest

from rtbpa.fields import (AntennaArray, DipoleSource, FrequencySweep,
                          PointScatterer, _path_tables, dipole_field,
                          image_dipole, synthesize_radiation_data,
                          synthesize_scattering_data)
from rtbpa.geometry import Facet, Scene
from rtbpa.imaging import (ImageGrid, ReconstructionConfig,
                           adjoint_pair_check, image_entropy, naive_bpa,
                           peak_locations, psf_metrics, rt_bpa)
from rtbpa.propagation import ImagePathTable, SbrConfig
from rtbpa.scenes import (scenario_hidden_dipole, scenario_parallel_plates,
                          scenario_three_spheres, scenario_tum_logo)

WORKERS = 8  # the performance criteria are stated for an 8-core desktop


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _grid_indices(grid: ImageGrid, point: np.ndarray):
    rel = point - grid.origin
    return tuple(int(round((rel @ grid.axes[d]) / grid.spacing[d]))
                 for d in range(3))


def _peaks_above(grid: ImageGrid, n: int, min_separation: float,
                 floor_db: float):
    """NMS peaks whose magnitude clears `floor_db` relative to the maximum."""
    centers = peak_locations(grid, n=n, min_separation=min_separation)
    mag = np.abs(grid.values)
    peak = mag.max()
    out = []
    for c in centers:
        i, j, l = _grid_indices(grid, c)
        if 20.0 * np.log10(mag[i, j, l] / peak) >= floor_db:
            out.append(c)
    return out


# ---------------------------------------------------------------------------
# Criterion 1: adjoint exactness on randomized small instances


def _random_adjoint_instance(seed):
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
    s = rng.normal(size=len(targets)) + 1j * rng.normal(size=len(targets))
    return targets, arrays, scene, sweep, t, s


def test_criterion_1_adjoint_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        targets, arrays, scene, sweep, t, s = _random_adjoint_instance(seed)
        cfg = ReconstructionConfig(max_order=2)
        worst = max(worst, adjoint_pair_check(targets, arrays, scene, sweep,
                                              cfg, t, s))
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-12 and elapsed < 10.0,
            f"100 instances, worst residual {worst:.2e} "
            f"(< 1e-12), {elapsed:.1f} s (< 10 s)")


# ---------------------------------------------------------------------------
# Criterion 2: SBR / image-method equivalence on the built-in scenes


def _valid_legs(scene, voxel, antenna, copol, engine, cfg):
    """{sequence: length} of the valid legs voxel -> antenna that the path
    table of `engine` finds."""
    table = _path_tables(scene, [antenna[None, :]], copol, 2, engine,
                         cfg)(voxel[None, :])[0]
    return {seq: lengths[0, 0] for seq, lengths, _, _, valid, _
            in table.eval(voxel[None, :]) if valid[0, 0]}


def test_criterion_2_sbr_image_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250810)
    pair_count = 0
    path_count = 0
    worst_len = 0.0
    for build in (scenario_tum_logo, scenario_three_spheres,
                  scenario_parallel_plates):
        s = build()
        for _ in range(50):
            flat = int(rng.integers(0, s.grid.n_voxels))
            i, rem = divmod(flat, s.grid.dims[1] * s.grid.dims[2])
            j, l = divmod(rem, s.grid.dims[2])
            voxel = s.grid.voxel_center(i, j, l)
            antenna = s.arrays.rx_positions[
                int(rng.integers(0, len(s.arrays.rx_positions)))]
            cfg = SbrConfig(ray_count=100_000, max_bounces=2,
                            capture_radius=0.05,
                            rng_seed=int(rng.integers(0, 2 ** 31)))
            exact, sbr = (_valid_legs(s.scene, voxel, antenna,
                                      s.arrays.copol, engine, cfg)
                          for engine in ("images", "sbr"))
            assert set(sbr) == set(exact), \
                f"sequence sets differ on {s.name}: {len(sbr)} vs {len(exact)}"
            for seq in exact:
                worst_len = max(worst_len, abs(exact[seq] - sbr[seq]))
            pair_count += 1
            path_count += len(exact)
    elapsed = time.perf_counter() - t0
    _report(2, worst_len <= 1e-6 and elapsed < 60.0,
            f"{pair_count} pairs / {path_count} paths, max length error "
            f"{worst_len:.1e} (<= 1e-6 m), {elapsed:.1f} s (< 60 s)")


# ---------------------------------------------------------------------------
# Criteria 3 and 7 share the hidden-dipole forward data


@pytest.fixture(scope="module")
def hidden():
    scenario = scenario_hidden_dipole()
    data = synthesize_radiation_data(scenario.sources, scenario.arrays,
                                     scenario.scene, scenario.sweep,
                                     max_order=1)
    return scenario, data


def test_criterion_3_hidden_source_imaging(hidden):
    scenario, data = hidden
    truth = scenario.sources[0].position
    t0 = time.perf_counter()
    rt = rt_bpa(data, scenario.grid, scenario.scene,
                ReconstructionConfig(max_order=1), workers=WORKERS)
    elapsed = time.perf_counter() - t0
    naive = naive_bpa(data, scenario.grid, workers=WORKERS)

    truth_idx = _grid_indices(scenario.grid, truth)
    rt_idx = rt.peak_index()
    rt_err = max(abs(rt_idx[d] - truth_idx[d]) for d in range(3))
    nv_idx = naive.peak_index()
    nv_err = max(abs(nv_idx[d] - truth_idx[d]) for d in range(3))
    e_rt = image_entropy(rt)
    e_nv = image_entropy(naive)
    naive_fails = (nv_err > 3) or (e_nv >= 1.10 * e_rt)
    ok = (rt_err <= 1) and naive_fails and elapsed < 60.0
    _report(3, ok,
            f"RT-BPA peak off by {rt_err} voxel(s) (<= 1); naive off by "
            f"{nv_err} voxels, entropy {e_nv:.3f} vs {e_rt:.3f} "
            f"(+{(e_nv / e_rt - 1) * 100:.0f}%); RT-BPA {elapsed:.1f} s "
            f"(< 60 s)")


# ---------------------------------------------------------------------------
# Criterion 4: three-target recovery


def test_criterion_4_three_target_recovery():
    scenario = scenario_three_spheres()
    centers = np.array([t.position for t in scenario.targets])
    data = synthesize_scattering_data(scenario.targets, scenario.arrays,
                                      scenario.scene, scenario.sweep,
                                      max_order=1)
    rt = rt_bpa(data, scenario.grid, scenario.scene,
                ReconstructionConfig(max_order=1), workers=WORKERS)
    naive = naive_bpa(data, scenario.grid, workers=WORKERS)

    def recover(img):
        peaks = _peaks_above(img, n=10, min_separation=0.1, floor_db=-6.0)
        if len(peaks) != 3:
            return False, f"{len(peaks)} peaks above -6 dB"
        errs = [min(np.linalg.norm(p - c) for p in peaks) for c in centers]
        if max(errs) > 0.02:
            return False, f"worst center error {max(errs) * 100:.1f} cm"
        return True, f"3 peaks, worst center error {max(errs) * 100:.1f} cm"

    rt_ok, rt_msg = recover(rt)
    nv_ok, nv_msg = recover(naive)
    _report(4, rt_ok and not nv_ok,
            f"RT-BPA: {rt_msg}; naive fails as required ({nv_msg})")


# ---------------------------------------------------------------------------
# Criterion 5: half-wave-loss necessity
#
# The 5% margin suggested upstream was to be derived from the pipeline before
# freezing. Derived margins on this deterministic pipeline: the true-location
# peak magnitude drops by 99.9% (frozen floor: 50%) while the global image
# entropy rises by 0.56% (frozen floor: 0.4%); both strict inequalities hold.


def test_criterion_5_half_wave_necessity(valid_masks):
    scenario = scenario_hidden_dipole(side_wall=True)
    data = synthesize_radiation_data(scenario.sources, scenario.arrays,
                                     scenario.scene, scenario.sweep,
                                     max_order=1)
    # The regenerated geometry must carry two LOS-free bounce classes of
    # opposite parity: the s-pol ground bounce and the co-pol-preserving
    # side-wall bounce.
    table = ImagePathTable(scenario.scene, scenario.arrays.rx_positions, 1,
                           scenario.arrays.copol)
    coverage = {seq: int(valid.sum()) for seq, valid in valid_masks(
        table, scenario.sources[0].position[None, :]).items()}
    assert coverage[()] == 0, "LOS must be blocked"
    bounce_classes = [seq for seq, n in coverage.items() if len(seq) == 1
                      and n > 0]
    assert len(bounce_classes) >= 2, "need two bounce classes"

    on = rt_bpa(data, scenario.grid, scenario.scene,
                ReconstructionConfig(max_order=1, apply_half_wave=True),
                workers=WORKERS)
    off = rt_bpa(data, scenario.grid, scenario.scene,
                 ReconstructionConfig(max_order=1, apply_half_wave=False),
                 workers=WORKERS)
    i, j, l = _grid_indices(scenario.grid, scenario.sources[0].position)
    peak_on = abs(on.values[i, j, l])
    peak_off = abs(off.values[i, j, l])
    e_on = image_entropy(on)
    e_off = image_entropy(off)
    peak_drop = (peak_on - peak_off) / peak_on
    entropy_rise = (e_off - e_on) / e_on
    ok = (e_off > e_on and peak_off < peak_on
          and peak_drop >= 0.50 and entropy_rise >= 0.004)
    _report(5, ok,
            f"without the pi correction: true-location peak -{peak_drop * 100:.1f}% "
            f"(floor 50%), entropy +{entropy_rise * 100:.2f}% (floor 0.4%)")


# ---------------------------------------------------------------------------
# Criterion 6: virtual-aperture resolution monotonicity


def test_criterion_6_virtual_aperture_resolution():
    scenario = scenario_parallel_plates()
    data = synthesize_radiation_data(scenario.sources, scenario.arrays,
                                     scenario.scene, scenario.sweep,
                                     max_order=3)
    fwhm = []
    for order in range(4):
        img = rt_bpa(data, scenario.grid, scenario.scene,
                     ReconstructionConfig(max_order=order), workers=WORKERS)
        m = psf_metrics(img, img.axes[0], img.peak_index())
        fwhm.append(m.fwhm)
    fwhm = np.array(fwhm)

    # Image-aperture oracle: the mirrored rx positions widen the effective
    # aperture, which is what the 0.7 shrink factor was frozen from.
    table = ImagePathTable(scenario.scene, scenario.arrays.rx_positions, 3,
                           scenario.arrays.copol)
    center = scenario.sources[0].position
    width = {}
    for order in (0, 3):
        xs = []
        for seq, _, _, _, valid, cols in table.eval(center[None, :]):
            if len(seq) > order:
                continue
            entry = table._entries[table.sequences.index(seq)]
            images = entry["images"][0] if seq else table.antennas
            xs.extend(images[cols[valid[0]], 0].tolist())
        width[order] = max(xs) - min(xs)
    # The grid's valid legs per sequence length. This scene admits no valid
    # order-3 leg anywhere on its grid, so the order-3 step of the
    # monotonicity holds trivially; the report shows it, and
    # test_order_3_chain_narrows_psf checks order 3 on wider plates.
    legs = [0] * 4
    n = scenario.grid.n_voxels
    for lo in range(0, n, 128):
        for seq, _, _, _, valid, _ in table.eval(
                scenario.grid.centers_block(lo, min(n, lo + 128))):
            legs[len(seq)] += int(np.count_nonzero(valid))
    ratio = fwhm[3] / fwhm[0]
    ok = bool(np.all(np.diff(fwhm) <= 1e-12) and ratio <= 0.7)
    _report(6, ok,
            "FWHM_x by order [mm]: "
            + ", ".join(f"{f * 1000:.2f}" for f in fwhm)
            + f"; ratio {ratio:.2f} (<= 0.7); aperture oracle "
            f"{width[0]:.2f} m -> {width[3]:.2f} m; valid grid legs by "
            "sequence length 0-3: " + ", ".join(map(str, legs)))


def test_order_3_chain_narrows_psf(valid_masks):
    # Criterion 6's frozen scene admits no order-3 leg. Plates twice as far
    # apart that run on to y = 0.95, just short of the rx plane, let
    # (1, 2, 1) and (2, 1, 2) reach it, so each order, the third too, must
    # narrow the main lobe along x.
    plates = [Facet.rectangle(fid, (x, -0.8, 0.2), (0, 1.75, 0), (0, 0, 1.0))
              for fid, x in ((1, -0.6), (2, 0.6))]
    scene = Scene(plates)
    src = DipoleSource((0.0, -0.3, 0.7), (0, 0, 1))
    xs, zs = np.meshgrid(np.linspace(-0.48, 0.48, 24),
                         np.linspace(0.2, 1.2, 20), indexing="ij")
    rx = np.column_stack([xs.ravel(), np.full(xs.size, 1.0), zs.ravel()])
    arrays = AntennaArray(np.zeros((0, 3)), rx, (0, 0, 1))
    grid = ImageGrid.planar(src.position, (1, 0, 0), (0, 1, 0),
                            (0.0015, 0.01), (161, 1))
    table = ImagePathTable(scene, rx, 3, arrays.copol)
    valid = {seq: int(np.count_nonzero(v)) for seq, v in valid_masks(
        table, grid.centers_block(0, grid.n_voxels)).items()}
    assert valid[(1, 2, 1)] > 0 and valid[(2, 1, 2)] > 0
    data = synthesize_radiation_data([src], arrays, scene,
                                     FrequencySweep(18e9, 20e9, 100e6),
                                     max_order=3)
    fwhm = []
    for order in range(4):
        img = rt_bpa(data, grid, scene, ReconstructionConfig(max_order=order))
        fwhm.append(psf_metrics(img, img.axes[0], img.peak_index()).fwhm)
    assert np.all(np.diff(fwhm) < 0), fwhm


# ---------------------------------------------------------------------------
# Criterion 7: CPU performance envelope


def test_criterion_7_performance_envelope(hidden):
    scenario, data = hidden
    cfg = ReconstructionConfig(max_order=2)
    t0 = time.perf_counter()
    img8 = rt_bpa(data, scenario.grid, scenario.scene, cfg, workers=WORKERS)
    t8 = time.perf_counter() - t0
    t0 = time.perf_counter()
    img1 = rt_bpa(data, scenario.grid, scenario.scene, cfg, workers=1)
    t1 = time.perf_counter() - t0
    identical = bool(np.array_equal(img1.values, img8.values))
    ok = t8 < 60.0 and identical
    _report(7, ok,
            f"128x128 order 2: {t8:.1f} s with {WORKERS} workers (< 60 s), "
            f"{t1:.1f} s with 1 worker, output bit-identical={identical}, "
            f"measured speedup {t1 / t8:.2f}x on {os.cpu_count()} CPUs")
    global _SPEEDUP
    _SPEEDUP = t1 / t8


_SPEEDUP = None


def test_criterion_7_speedup_on_8_cores():
    if (os.cpu_count() or 1) < 8:
        pytest.skip(
            f"criterion 7's >= 4x speedup is stated for an 8-core desktop; "
            f"this host exposes {os.cpu_count()} CPUs (measured speedup "
            f"{_SPEEDUP:.2f}x), so the precondition cannot be met here")
    assert _SPEEDUP is not None
    _report(7, _SPEEDUP >= 4.0,
            f"1 -> {WORKERS} workers speedup {_SPEEDUP:.2f}x (>= 4x)")


# ---------------------------------------------------------------------------
# Criterion 8: physics oracles


def test_criterion_8_oracle_physics():
    rng = np.random.default_rng(88)
    ground = Facet.plane(1, (0, 0, 0), (0, 0, 1))
    k = 2 * np.pi * 19e9 / 299792458.0
    ori = rng.normal(size=3)
    src = DipoleSource((0.1, -0.05, 0.7), ori / np.linalg.norm(ori))
    img = image_dipole(src, ground)
    worst_tan = 0.0
    for _ in range(100):
        p = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0])
        tot = dipole_field(p, src, k, "full") + dipole_field(p, img, k, "full")
        inc = dipole_field(p, src, k, "full")
        worst_tan = max(worst_tan,
                        np.linalg.norm(tot[:2]) / np.linalg.norm(inc))
    axial = DipoleSource((0, 0, 0), (0, 0, 1))
    r = 100.0 / k
    full = np.linalg.norm(dipole_field((r, 0, 0), axial, k, "full"))
    far = np.linalg.norm(dipole_field((r, 0, 0), axial, k, "far_field"))
    rel = abs(full - far) / far
    ok = worst_tan < 1e-9 and rel < 2e-4
    _report(8, ok,
            f"tangential residual {worst_tan:.1e} (< 1e-9) at 100 plane "
            f"points; far/full deviation {rel:.1e} (< 2e-4) at kR=100")
