"""Command-line front end: forward synthesis, reconstruction, comparison.

Exit codes: 0 success, 2 input/parse error, 3 shape mismatch, 4 unknown
reference, 5 internal numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import io as rio
from .errors import (EmptyImage, RtbpaError, ScenarioError, ShapeMismatch,
                     UnknownReference, UnresolvedLobe)
from .imaging import (MAX_VOXELS, ImageGrid, ReconstructionConfig,
                      image_entropy, naive_bpa, peak_locations, psf_metrics,
                      rt_bpa)
from .propagation import MAX_ORDER, MAX_RAYS, SbrConfig
from .scenes import (SCENARIOS, Scenario, get_scenario, save_scenario,
                     scenario_text)
from .fields import synthesize_radiation_data, synthesize_scattering_data

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_UNKNOWN = 4
EXIT_NUMERIC = 5


@dataclass
class RunManifest:
    """Everything needed to reproduce one forward or reconstruction run."""

    scenario: str
    engine: str = "images"
    max_order: int = 1
    rays: int = 100_000
    capture_radius: float = 0.05
    apply_half_wave: bool = True
    grid_dims: Optional[tuple] = None
    seed: int = 0
    workers: int = 1
    out_dir: str = "."

    def to_doc(self) -> dict:
        doc = dict(self.__dict__)
        doc["grid_dims"] = list(self.grid_dims) if self.grid_dims else None
        return doc


def _workers_from_args(args) -> int:
    """--workers, else the RTBPA_WORKERS environment variable, else 1."""
    if args.workers is not None:
        return args.workers
    raw = os.environ.get("RTBPA_WORKERS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ScenarioError(
            f"RTBPA_WORKERS must be an integer >= 1, got {raw!r}")
    return int(raw)


def _check_flag_ranges(args) -> None:
    """Reject an out-of-range flag before any work starts."""
    if not 0 <= args.max_order <= MAX_ORDER:
        raise ScenarioError(f"--max-order must be in 0..{MAX_ORDER}, "
                            f"got {args.max_order}")
    if not 1 <= args.rays <= MAX_RAYS:
        raise ScenarioError(f"--rays must be in 1..{MAX_RAYS}, got {args.rays}")
    radius = args.capture_radius
    if not (radius > 0 and math.isfinite(radius * radius)):
        raise ScenarioError("--capture-radius must be > 0 with a finite "
                            f"square, got {radius}")
    if args.grid and min(args.grid) < 1:
        raise ScenarioError(f"--grid must be >= 1, got {args.grid}")
    if args.grid and math.prod(args.grid) > MAX_VOXELS:
        raise ScenarioError(f"--grid of {math.prod(args.grid)} voxels exceeds "
                            f"the cap of {MAX_VOXELS}")
    if args.seed < 0:
        raise ScenarioError(f"--seed must be >= 0, got {args.seed}")
    if args.workers is not None and args.workers < 1:
        raise ScenarioError(f"--workers must be >= 1, got {args.workers}")


def _manifest_from_args(args) -> RunManifest:
    _check_flag_ranges(args)
    return RunManifest(
        scenario=args.scenario,
        engine=args.engine,
        max_order=args.max_order,
        rays=args.rays,
        capture_radius=args.capture_radius,
        apply_half_wave=not args.no_half_wave,
        grid_dims=tuple(args.grid) if args.grid else None,
        seed=args.seed,
        workers=_workers_from_args(args),
        out_dir=args.out,
    )


def _grid_for(manifest: RunManifest, scenario: Scenario) -> ImageGrid:
    grid = scenario.grid
    if manifest.grid_dims is None:
        return grid
    nx, ny = manifest.grid_dims
    center = grid.voxel_center((grid.dims[0] - 1) / 2.0,
                               (grid.dims[1] - 1) / 2.0,
                               (grid.dims[2] - 1) / 2.0)
    origin = (center - 0.5 * (nx - 1) * grid.spacing[0] * grid.axes[0]
              - 0.5 * (ny - 1) * grid.spacing[1] * grid.axes[1])
    return ImageGrid(origin=origin, axes=grid.axes, spacing=grid.spacing,
                     dims=(int(nx), int(ny), 1))


def _sbr_config(manifest: RunManifest) -> SbrConfig:
    return SbrConfig(ray_count=manifest.rays, max_bounces=manifest.max_order,
                     capture_radius=manifest.capture_radius,
                     rng_seed=manifest.seed)


def cmd_forward(manifest: RunManifest) -> int:
    scenario = get_scenario(manifest.scenario)
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sbr = _sbr_config(manifest)  # the images engine ignores it
    if scenario.mode == "radiation":
        data = synthesize_radiation_data(
            scenario.sources, scenario.arrays, scenario.scene, scenario.sweep,
            max_order=manifest.max_order, path_engine=manifest.engine,
            sbr=sbr)
    else:
        data = synthesize_scattering_data(
            scenario.targets, scenario.arrays, scenario.scene, scenario.sweep,
            max_order=manifest.max_order, path_engine=manifest.engine,
            sbr=sbr)
    data_path = out / "measurements.rtbpa"
    rio.write_measurements(data_path, data)
    meta = {
        "kind": "measurements",
        "scenario": scenario.name,
        "mode": scenario.mode,
        "manifest": manifest.to_doc(),
        "shape": list(data.samples.shape),
    }
    (out / "measurements.meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")
    print(f"wrote {data_path} with dims "
          f"{data.samples.shape[0]}x{data.samples.shape[1]}"
          f"x{data.samples.shape[2]}")
    return EXIT_OK


def _metrics_for(grid: ImageGrid, wall_clock: float, algorithm: str) -> dict:
    peak = grid.peak_index()
    peaks = peak_locations(grid, n=3, min_separation=0.1)
    metrics = {
        "algorithm": algorithm,
        "peak_voxel": list(peak),
        "peak_position_m": [float(v) for v in grid.voxel_center(*peak)],
        "peaks_m": [[float(v) for v in p] for p in peaks],
        "wall_clock_seconds": wall_clock,
    }
    try:
        metrics["entropy"] = image_entropy(grid)
    except EmptyImage:
        metrics["entropy"] = None
    for label, axis_index in (("fwhm_x_m", 0), ("fwhm_y_m", 1)):
        try:
            m = psf_metrics(grid, grid.axes[axis_index], peak)
            metrics[label] = m.fwhm
            metrics[label.replace("fwhm", "pslr").replace("_m", "_db")] = (
                m.pslr_db if math.isfinite(m.pslr_db) else "inf")
        except (UnresolvedLobe, EmptyImage):
            metrics[label] = None
    return metrics


def cmd_reconstruct(manifest: RunManifest, data_file: str,
                    algorithm: str) -> int:
    scenario = get_scenario(manifest.scenario)
    data = rio.read_measurements(data_file)
    if data.mode != scenario.mode:
        raise ShapeMismatch(f"measurement mode {data.mode} does not match "
                            f"the {scenario.mode} scenario")
    axes = [("rx", data.rx_positions, scenario.arrays.rx_positions)]
    if data.mode == "scattering":
        axes.append(("tx", data.tx_positions, scenario.arrays.tx_positions))
    for name, got, want in axes:
        if got.shape != want.shape or not np.allclose(got, want):
            raise ShapeMismatch(
                f"measurement {name} axis does not match the scenario")
    grid = _grid_for(manifest, scenario)
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    if algorithm == "naive":
        image = naive_bpa(data, grid, workers=manifest.workers)
    else:
        cfg = ReconstructionConfig(
            max_order=manifest.max_order, path_engine=manifest.engine,
            sbr=_sbr_config(manifest),
            apply_half_wave=manifest.apply_half_wave)
        image = rt_bpa(data, grid, scenario.scene, cfg,
                       workers=manifest.workers)
    wall = time.perf_counter() - t0
    rio.write_image(out / "image.rtbpa", image)
    rio.write_csv_db(out / "image_db.csv", image)
    rio.write_pgm(out / "image.pgm", image)
    metrics = _metrics_for(image, wall, algorithm)
    metrics["manifest"] = manifest.to_doc()
    (out / "metrics.json").write_text(
        json.dumps(metrics, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out / 'image.rtbpa'} ({grid.dims[0]}x{grid.dims[1]}), "
          f"wall clock {wall:.2f} s")
    return EXIT_OK


def _finite(v) -> bool:
    """True for a JSON number that converts to a finite double."""
    try:
        return not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):
        return False


def _read_metrics(run: str) -> dict:
    """The fields `compare` reads from a run's metrics.json, checked."""
    path = Path(run) / "metrics.json"
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(
            f"{path}: cannot read: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: expected a JSON object")
    peak = doc.get("peak_position_m")
    if not (isinstance(peak, list) and len(peak) == 3
            and all(_finite(v) for v in peak)):
        raise ScenarioError(
            f"{path}: field 'peak_position_m': expected 3 finite numbers")
    for key in ("entropy", "fwhm_x_m", "fwhm_y_m"):
        if not (doc.get(key) is None or _finite(doc[key])):
            raise ScenarioError(
                f"{path}: field '{key}': expected a finite number or null")
    return doc


def cmd_compare(run_a: str, run_b: str, out_file: Optional[str]) -> int:
    grid_a = rio.read_image(Path(run_a) / "image.rtbpa")
    grid_b = rio.read_image(Path(run_b) / "image.rtbpa")
    same = (grid_a.dims == grid_b.dims
            and np.array_equal(grid_a.origin, grid_b.origin)
            and np.array_equal(grid_a.axes, grid_b.axes)
            and np.array_equal(grid_a.spacing, grid_b.spacing))
    if not same:
        raise ShapeMismatch("runs use different grids")
    metrics_a = _read_metrics(run_a)
    metrics_b = _read_metrics(run_b)
    report = {"run_a": str(run_a), "run_b": str(run_b), "deltas": {}}
    for key in ("entropy", "fwhm_x_m", "fwhm_y_m"):
        va, vb = metrics_a.get(key), metrics_b.get(key)
        report["deltas"][key] = (None if va is None or vb is None
                                 else vb - va)
    pa = np.array(metrics_a["peak_position_m"])
    pb = np.array(metrics_b["peak_position_m"])
    report["peak_displacement_m"] = float(np.linalg.norm(pb - pa))
    report["max_abs_image_delta"] = float(
        np.max(np.abs(grid_b.values - grid_a.values)))
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_file:
        Path(out_file).write_text(text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_scenes(action: str, name: Optional[str],
               out_file: Optional[str]) -> int:
    if action == "list":
        for key in sorted(SCENARIOS):
            print(key)
        return EXIT_OK
    if name not in SCENARIOS:
        raise UnknownReference(f"unknown scenario {name!r}")
    scenario = SCENARIOS[name]()
    if out_file:
        save_scenario(scenario, out_file)
    else:
        sys.stdout.write(scenario_text(scenario))
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True,
                   help="built-in scenario name or scenario file path")
    p.add_argument("--engine", choices=("images", "sbr"), default="images")
    p.add_argument("--max-order", type=int, default=1, dest="max_order")
    p.add_argument("--rays", type=int, default=100_000)
    p.add_argument("--capture-radius", type=float, default=0.05,
                   dest="capture_radius")
    p.add_argument("--no-half-wave", action="store_true", dest="no_half_wave")
    p.add_argument("--grid", type=int, nargs=2, metavar=("NX", "NY"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: $RTBPA_WORKERS or 1)")
    p.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtbpa",
        description="Multipath back-projection imaging toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fwd = sub.add_parser("forward", help="synthesize measurement data")
    _add_common(p_fwd)

    p_rec = sub.add_parser("reconstruct", help="run a reconstruction")
    _add_common(p_rec)
    p_rec.add_argument("--data", required=True, help="measurement file")
    p_rec.add_argument("--algorithm", choices=("naive", "rtbpa"),
                       default="rtbpa")

    p_cmp = sub.add_parser("compare", help="delta report between two runs")
    p_cmp.add_argument("--run-a", required=True)
    p_cmp.add_argument("--run-b", required=True)
    p_cmp.add_argument("--out", default=None, help="optional report file")

    p_sc = sub.add_parser("scenes", help="list or show built-in scenarios")
    p_sc.add_argument("action", choices=("list", "show"))
    p_sc.add_argument("name", nargs="?", default=None)
    p_sc.add_argument("--out", default=None, help="optional scenario file")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "forward":
            return cmd_forward(_manifest_from_args(args))
        if args.command == "reconstruct":
            return cmd_reconstruct(_manifest_from_args(args), args.data,
                                   args.algorithm)
        if args.command == "compare":
            return cmd_compare(args.run_a, args.run_b, args.out)
        if args.command == "scenes":
            if args.action == "show" and args.name is None:
                parser.error("scenes show requires a scenario name")
            return cmd_scenes(args.action, args.name, args.out)
        parser.error(f"unknown command {args.command!r}")
    except (RtbpaError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {ScenarioError: EXIT_PARSE, ShapeMismatch: EXIT_SHAPE,
                UnknownReference: EXIT_UNKNOWN}.get(type(exc), EXIT_NUMERIC)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
