"""One pass of a workload through the steps the ``rtbpa`` command takes.

For each part of the workload: scenario build -> path tables -> forward
synthesis -> RTBPA1 write/read -> reconstruction at one worker -> exports
(container, CSV, PGM, metrics.json), then the same reconstructions at the
parallel worker count, then the output checks. Only the steps up to the
exports count toward ``total_s``; a pass's timings sum over its parts.

Between two steps the pass calls a `between(part)` hook, which the timed run
uses to sample set-up times over the whole run. The hook's time is left out
of the pass's timings.

An operation is one forward or one reconstruction call. It fails when it
raises or when a check on its output fails.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from rtbpa import io as rio
from rtbpa.cli import _metrics_for
from rtbpa.imaging import ImageGrid, rt_bpa
from rtbpa.propagation import ImagePathTable
from rtbpa.scenes import Scenario

from tracing import Tracer
from workloads import Part, ReconSpec, add_noise


@dataclass
class Pass:
    """Timings, counts and operation outcomes of one pipeline pass."""

    setup_s: float = 0.0
    forward_s: float = 0.0
    recon_s: float = 0.0
    recon_par_s: float = 0.0
    total_s: float = 0.0
    voxels: int = 0
    bytes_written: int = 0
    image_sha256: str = ""
    # operation name -> failure messages (empty list: the operation passed)
    ops: Dict[str, List[str]] = field(default_factory=dict)
    complete: bool = False
    part_total_s: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for fails in self.ops.values() if fails)


def build_tables(scenario: Scenario, spec: ReconSpec) -> dict:
    """The path tables `rt_bpa` would build itself, built ahead of voxels."""
    if spec.cfg.path_engine != "images":
        return {}
    arrays = scenario.arrays
    tables = {"rx_table": ImagePathTable(scenario.scene, arrays.rx_positions,
                                         spec.cfg.max_order, arrays.copol)}
    if scenario.mode == "scattering":
        tables["tx_table"] = ImagePathTable(
            scenario.scene, arrays.tx_positions, spec.cfg.max_order,
            arrays.copol)
    return tables


def setup(part: Part, seed: int, tracer: Tracer):
    """Scenario build plus path-table construction: everything before the
    first voxel."""
    with tracer.span("scenes.build"):
        scenario = part.scenario()
    specs = part.recons(scenario, seed)
    tables = [build_tables(scenario, spec) for spec in specs]
    return scenario, specs, tables


def warm_up(part: Part, seed: int, tracer: Tracer) -> Scenario:
    """Run set-up, forward synthesis and one chunk-sized reconstruction per
    images-engine spec, untimed.

    Without it the first pass of a process is markedly slower than later
    ones: set-up and forward synthesis by up to 1.7x on a 2-CPU Xeon host.
    Timing starts after this.
    """
    scenario, specs, tables = setup(part, seed, tracer)
    data = add_noise(part.synthesize(scenario, seed), seed)
    for spec, tabs in zip(specs, tables):
        if not tabs:
            continue  # SBR: forward synthesis already ran sbr_trace
        ni, nj, _ = spec.grid.dims
        chunk_grid = ImageGrid(origin=spec.grid.origin, axes=spec.grid.axes,
                               spacing=spec.grid.spacing,
                               dims=(max(1, min(ni, 128 // nj)), nj, 1))
        rt_bpa(data, chunk_grid, scenario.scene, spec.cfg, workers=1, **tabs)
    return scenario


def _export(image: ImageGrid, wall: float, workdir: Path, label: str,
            tracer: Tracer) -> int:
    """The exports of the reconstruct command: image, CSV, PGM and
    metrics.json (peaks, PSF and entropy)."""
    paths = [workdir / f"{label}.rtbpa", workdir / f"{label}_db.csv",
             workdir / f"{label}.pgm", workdir / f"{label}_metrics.json"]
    with tracer.span("io.write"):
        rio.write_image(paths[0], image)
        rio.write_csv_db(paths[1], image)
        rio.write_pgm(paths[2], image)
    with tracer.span("imaging.metrics"):
        metrics = _metrics_for(image, wall, "rt_bpa")
    with tracer.span("io.write"):
        paths[3].write_text(json.dumps(metrics, sort_keys=True, indent=2)
                            + "\n")
    # metrics.json holds the wall-clock time, so its size is no exact count.
    return sum(p.stat().st_size for p in paths[:3])


def _check_container(sent, received) -> List[str]:
    fails = []
    if not np.all(np.isfinite(sent.samples)) or not np.any(sent.samples):
        fails.append("forward samples are not finite or all zero")
    stored = sent.samples.astype(np.complex64).astype(np.complex128)
    if not np.array_equal(stored, received.samples):
        fails.append("container round trip changed the samples")
    if not np.array_equal(sent.rx_positions, received.rx_positions):
        fails.append("container round trip changed the rx positions")
    return fails


def _no_hook(part: Part) -> None:
    pass


def run_pass(parts: List[Part], seed: int, workdir: Path, tracer: Tracer,
             par_workers: Optional[int],
             between: Callable[[Part], None] = _no_hook) -> Pass:
    """Run every step of every part once; `par_workers=None` skips the
    parallel repeat."""
    res = Pass(complete=True)
    digest = hashlib.sha256()
    for part in parts:
        with tracer.part(part.name):
            one = _run_part(part, seed, workdir, tracer, par_workers,
                            between)
        for name in ("setup_s", "forward_s", "recon_s", "recon_par_s",
                     "total_s", "voxels", "bytes_written"):
            setattr(res, name, getattr(res, name) + getattr(one, name))
        res.ops.update({f"{part.name}:{op}": fails
                        for op, fails in one.ops.items()})
        res.complete &= one.complete
        res.part_total_s[part.name] = one.total_s
        digest.update(one.image_sha256.encode())
    res.image_sha256 = digest.hexdigest()
    return res


def _run_part(part: Part, seed: int, workdir: Path, tracer: Tracer,
              par_workers: Optional[int],
              between: Callable[[Part], None]) -> Pass:
    res = Pass()
    specs: List[ReconSpec] = []
    hook_s = 0.0

    def gap():
        nonlocal hook_s
        t = time.perf_counter()
        between(part)
        hook_s += time.perf_counter() - t

    try:
        t0 = time.perf_counter()
        scenario, specs, tables = setup(part, seed, tracer)
        t1 = time.perf_counter()
        gap()
        res.ops["forward"] = []
        t2 = time.perf_counter()
        with tracer.span("fields.synth"):
            clean = part.synthesize(scenario, seed)
            sent = add_noise(clean, seed)
        t3 = time.perf_counter()
        gap()
        path = workdir / "measurements.rtbpa"
        with tracer.span("io.write"):
            rio.write_measurements(path, sent)
        with tracer.span("io.read"):
            data = rio.read_measurements(path)
        res.bytes_written = path.stat().st_size
        gap()
        images = {}
        for spec, tabs in zip(specs, tables):
            res.ops[f"recon:{spec.label}"] = []
            t = time.perf_counter()
            with tracer.span("imaging.rt_bpa"):
                images[spec.label] = rt_bpa(data, spec.grid, scenario.scene,
                                            spec.cfg, workers=1, **tabs)
            wall = time.perf_counter() - t
            res.recon_s += wall
            res.voxels += spec.n_voxels
            res.bytes_written += _export(images[spec.label], wall, workdir,
                                         spec.label, tracer)
            gap()
        res.total_s = time.perf_counter() - t0 - hook_s
        res.setup_s = t1 - t0
        res.forward_s = t3 - t2
        digest = hashlib.sha256()
        for spec in specs:
            digest.update(images[spec.label].values.tobytes())
        res.image_sha256 = digest.hexdigest()

        if par_workers is not None:
            for spec, tabs in zip(specs, tables):
                op = f"recon_par:{spec.label}"
                res.ops[op] = []
                t = time.perf_counter()
                par = rt_bpa(data, spec.grid, scenario.scene, spec.cfg,
                             workers=par_workers, **tabs)
                res.recon_par_s += time.perf_counter() - t
                if not np.array_equal(par.values, images[spec.label].values):
                    res.ops[op].append(f"{par_workers}-worker image differs "
                                       f"from the 1-worker image")
                gap()

        res.ops["forward"] += _check_container(sent, data)
        with tracer.paused():
            res.ops["forward"] += part.check_forward(scenario, clean, seed)
            checks = part.check_images(scenario, data, images, specs)
        for label, fails in checks.items():
            res.ops[f"recon:{label}"] += fails
        gap()
        res.complete = True
    except Exception:  # the pass is the unit that must keep running
        # An exception fails every operation of its part.
        msg = traceback.format_exc(limit=-3)
        planned = ["forward"] + [f"recon:{s.label}" for s in specs]
        if par_workers is not None:
            planned += [f"recon_par:{s.label}" for s in specs]
        res.ops = {op: [msg] for op in planned}
    return res
