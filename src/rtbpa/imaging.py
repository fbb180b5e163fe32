"""Reconstruction operators: the ray-traced multipath adjoint (RT-BPA), the
naive free-space BPA as its special case, and focus/resolution metrics.

The naive BPA is the RT-BPA on a scene with no reflectors, and a point list is
reconstructed by the same job as a grid. The voxel loop is chunked; chunks are
independent, which makes the output identical for any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyImage, EmptyInput, UnresolvedLobe
from .fields import (AntennaArray, FrequencySweep, MeasurementSet,
                     PointScatterer, _path_tables, _unit_phasor,
                     _weighted_legs, synthesize_scattering_data)
from .geometry import Scene, as_vec3, unit
from .propagation import ImagePathTable, SbrConfig

_CHUNK = 128  # voxels per task; fixed so results do not depend on worker count


@dataclass
class ImageGrid:
    """Regular voxel grid holding complex reconstruction values.

    `origin` is the center of voxel (0, 0, 0); voxel (i, j, l) is centered at
    origin + i*dx*ax + j*dy*ay + l*dz*az.
    """

    origin: np.ndarray
    axes: np.ndarray  # (3, 3) orthonormal rows
    spacing: np.ndarray  # (3,)
    dims: Tuple[int, int, int]
    values: np.ndarray = None

    def __post_init__(self):
        # Every check is written as `not (ok)` so that NaN fails it.
        self.origin = as_vec3(self.origin)
        if not np.all(np.isfinite(self.origin)):
            raise ValueError("grid origin must be finite")
        self.axes = np.asarray(self.axes, dtype=float).reshape(3, 3)
        for row in self.axes:
            if not (abs(np.linalg.norm(row) - 1.0) <= 1e-9):
                raise ValueError("grid axes must be unit vectors")
        if not (abs(self.axes[0] @ self.axes[1]) <= 1e-9 and
                abs(self.axes[0] @ self.axes[2]) <= 1e-9 and
                abs(self.axes[1] @ self.axes[2]) <= 1e-9):
            raise ValueError("grid axes must be orthogonal")
        self.spacing = np.asarray(self.spacing, dtype=float).reshape(3)
        if not np.all((self.spacing > 0) & np.isfinite(self.spacing)):
            raise ValueError("spacing must be positive and finite")
        self.dims = tuple(int(d) for d in self.dims)
        if min(self.dims) < 1:
            raise ValueError(f"grid dims must be >= 1, got {self.dims}")
        if self.values is None:
            self.values = np.zeros(self.dims, dtype=np.complex128)
        else:
            self.values = np.asarray(self.values, dtype=np.complex128)
            if self.values.shape != self.dims:
                raise ValueError("values shape does not match dims")

    @staticmethod
    def planar(center, axis_i, axis_j, spacing_ij, dims_ij,
               normal=None) -> "ImageGrid":
        """Planar (nz = 1) grid centered on `center`."""
        ai = unit(axis_i)
        aj = unit(axis_j)
        an = unit(np.cross(ai, aj)) if normal is None else unit(normal)
        ni, nj = int(dims_ij[0]), int(dims_ij[1])
        si, sj = float(spacing_ij[0]), float(spacing_ij[1])
        origin = (as_vec3(center) - 0.5 * (ni - 1) * si * ai
                  - 0.5 * (nj - 1) * sj * aj)
        return ImageGrid(origin=origin, axes=np.array([ai, aj, an]),
                         spacing=np.array([si, sj, 1.0]), dims=(ni, nj, 1))

    @property
    def n_voxels(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    def voxel_center(self, i: int, j: int, l: int = 0) -> np.ndarray:
        return (self.origin + i * self.spacing[0] * self.axes[0]
                + j * self.spacing[1] * self.axes[1]
                + l * self.spacing[2] * self.axes[2])

    def centers_block(self, lo: int, hi: int) -> np.ndarray:
        """Voxel centers for flat indices [lo, hi) in C order over dims."""
        idx = np.arange(lo, hi)
        ny, nz = self.dims[1], self.dims[2]
        i = idx // (ny * nz)
        rem = idx % (ny * nz)
        j = rem // nz
        l = rem % nz
        return (self.origin
                + i[:, None] * (self.spacing[0] * self.axes[0])
                + j[:, None] * (self.spacing[1] * self.axes[1])
                + l[:, None] * (self.spacing[2] * self.axes[2]))

    def peak_index(self) -> Tuple[int, int, int]:
        flat = int(np.argmax(np.abs(self.values)))
        return tuple(int(v) for v in np.unravel_index(flat, self.dims))

    def with_values(self, values: np.ndarray) -> "ImageGrid":
        return ImageGrid(origin=self.origin, axes=self.axes,
                         spacing=self.spacing, dims=self.dims,
                         values=np.asarray(values, np.complex128).reshape(self.dims))


@dataclass
class ReconstructionConfig:
    max_order: int = 1
    path_engine: str = "images"  # "images" | "sbr"
    sbr: Optional[SbrConfig] = None
    apply_half_wave: bool = True

    def __post_init__(self):
        if self.max_order < 0:
            raise ValueError("max_order must be >= 0")
        if self.path_engine not in ("images", "sbr"):
            raise ValueError(f"unknown path engine {self.path_engine!r}")


def _horner_sum(lengths: np.ndarray, w: np.ndarray, t0: np.ndarray,
                kvals: np.ndarray) -> np.ndarray:
    """sum_rx sum_k T[rx, k] * w * exp(+j k L) over one leg class.

    A `FrequencySweep` is uniform, so exp(+j k_i L) = base * step^i and the
    sum over k is a polynomial in the step phasor evaluated by Horner's rule:
    the whole class costs two trigonometric passes plus K fused
    multiply-adds.
    """
    base = w * _unit_phasor(kvals[0] * lengths)
    n_k = kvals.size
    if n_k == 1:
        return (base * t0[:, 0]).sum(axis=1)
    step = _unit_phasor((kvals[1] - kvals[0]) * lengths)
    h = np.empty_like(base)
    h[:] = t0[:, n_k - 1]
    for i in range(n_k - 2, -1, -1):
        h *= step
        h += t0[:, i]
    h *= base
    return h.sum(axis=1)


def _sum_radiation(t0: np.ndarray, kvals: np.ndarray,
                   legs: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Sum_legs sum_rx sum_k T[rx, k] * w * exp(+j k L) for a voxel block."""
    if not legs:
        return np.zeros(0, dtype=np.complex128)
    n_v = legs[0][0].shape[0]
    acc = np.zeros(n_v, dtype=np.complex128)
    for lengths, w in legs:
        if not np.any(w):
            continue
        acc += _horner_sum(lengths, w, t0, kvals)
    return acc


def _sum_scattering(t: np.ndarray, kvals: np.ndarray,
                    tx_legs: Sequence[Tuple[np.ndarray, np.ndarray]],
                    rx_legs: Sequence[Tuple[np.ndarray, np.ndarray]],
                    n_v: int) -> np.ndarray:
    """Sum over (tx leg, rx leg) wavefront pairs.

    Each class pair reduces to the radiation kernel with the summed leg
    lengths and the product of the leg weights (which carries the
    polarization parity of the pair).
    """
    acc = np.zeros(n_v, dtype=np.complex128)
    tx_legs = [(L, w) for (L, w) in tx_legs if np.any(w)]
    rx_legs = [(L, w) for (L, w) in rx_legs if np.any(w)]
    if not tx_legs or not rx_legs:
        return acc
    n_tx = t.shape[0]
    for lt, wt in tx_legs:
        for lr, wr in rx_legs:
            for ti in range(n_tx):
                w = wt[:, ti:ti + 1] * wr
                if not np.any(w):
                    continue
                acc += _horner_sum(lt[:, ti:ti + 1] + lr, w, t[ti], kvals)
    return acc


# ---------------------------------------------------------------------------
# Chunked evaluation (shared by serial and multiprocessing execution)


@dataclass(frozen=True)
class _Job:
    """One reconstruction over a point array; chunks index into `points`."""

    points: np.ndarray  # (N, 3)
    kvals: np.ndarray
    samples: np.ndarray
    half_wave: bool
    rx_table: ImagePathTable
    tx_table: Optional[ImagePathTable]  # None for radiation data


_job: Optional[_Job] = None


def _set_job(job: Optional[_Job]) -> None:
    global _job
    _job = job


def _build_job(data: MeasurementSet, points: np.ndarray, scene: Scene,
               cfg: ReconstructionConfig,
               rx_table: Optional[ImagePathTable] = None,
               tx_table: Optional[ImagePathTable] = None) -> _Job:
    if data.samples.size == 0:
        raise EmptyInput("measurement set holds no samples")
    if points.shape[0] == 0:
        raise EmptyInput("no voxels to reconstruct")
    tables = {"rx": rx_table}
    if data.mode == "scattering":
        tables["tx"] = tx_table
    antennas = {"rx": data.rx_positions, "tx": data.tx_positions}
    missing = [key for key, table in tables.items() if table is None]
    if missing:
        # The SBR engine launches its one ray set here, before any chunk.
        tables.update(zip(missing, _path_tables(
            scene, [antennas[key] for key in missing], data.copol,
            cfg.max_order, cfg.path_engine, cfg.sbr)(points)))
    return _Job(points=points, kvals=data.sweep.k_values,
                samples=data.samples, half_wave=cfg.apply_half_wave,
                rx_table=tables["rx"], tx_table=tables.get("tx"))


def _compute_chunk(bounds: Tuple[int, int]) -> np.ndarray:
    lo, hi = bounds
    job = _job
    points = job.points[lo:hi]

    def legs(table: ImagePathTable):
        # Unit-amplitude weights 0 or +-1: the -1 realizes the pi phase of
        # odd polarization parity, which the half-wave correction keeps.
        out = _weighted_legs(table, points, "phase_only")
        return out if job.half_wave else [(L, np.abs(w)) for L, w in out]

    rx_legs = legs(job.rx_table)
    if job.tx_table is None:
        return _sum_radiation(job.samples[0], job.kvals, rx_legs)
    return _sum_scattering(job.samples, job.kvals, legs(job.tx_table),
                           rx_legs, points.shape[0])


def _run_job(job: _Job, workers: int) -> np.ndarray:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = job.points.shape[0]
    ranges = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    # More processes than CPUs or chunks only add start-up cost.
    workers = min(workers, os.cpu_count() or 1, len(ranges))
    if workers == 1:
        _set_job(job)
        try:
            parts = [_compute_chunk(r) for r in ranges]
        finally:
            _set_job(None)
        return np.concatenate(parts)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    with ctx.Pool(processes=workers, initializer=_set_job,
                  initargs=(job,)) as pool:
        parts = pool.map(_compute_chunk, ranges, chunksize=1)
    return np.concatenate(parts)


def naive_bpa(data: MeasurementSet, grid: ImageGrid,
              workers: int = 1) -> ImageGrid:
    """Free-space back-projection: RT-BPA on a scene without reflectors."""
    return rt_bpa(data, grid, Scene([]), ReconstructionConfig(max_order=0),
                  workers)


def rt_bpa(data: MeasurementSet, grid: ImageGrid, scene: Scene,
           cfg: ReconstructionConfig, workers: int = 1,
           rx_table: Optional[ImagePathTable] = None,
           tx_table: Optional[ImagePathTable] = None) -> ImageGrid:
    """Multipath adjoint: per-voxel sum over ray-traced wavefronts.

    Voxels with no surviving propagation path are left at zero. Prebuilt path
    tables may be passed in; they must match the scene, antennas, order, and
    co-pol vector of the configuration, and they are used as they are: a
    table's sequence list is its path engine's choice.
    """
    job = _build_job(data, grid.centers_block(0, grid.n_voxels), scene, cfg,
                     rx_table, tx_table)
    return grid.with_values(_run_job(job, workers))


def reconstruct_at_points(points, data: MeasurementSet, scene: Scene,
                          cfg: ReconstructionConfig) -> np.ndarray:
    """RT-BPA at an arbitrary point list, run serially by the job `rt_bpa`
    runs: point i is treated (and the SBR engine launches from it) as
    voxel i."""
    job = _build_job(data, np.asarray(points, dtype=float).reshape(-1, 3),
                     scene, cfg)
    return _run_job(job, 1)


def adjoint_pair_check(targets: Sequence[PointScatterer],
                       arrays: AntennaArray, scene: Scene,
                       sweep: FrequencySweep, cfg: ReconstructionConfig,
                       random_t: np.ndarray,
                       random_s: np.ndarray) -> float:
    """Normalized adjoint residual |<F s, T> - <s, F' T>| / (|F s| |T|)."""
    random_t = np.asarray(random_t, dtype=np.complex128)
    random_s = np.asarray(random_s, dtype=np.complex128).reshape(-1)
    if len(targets) != random_s.size:
        raise ValueError("random_s must have one entry per target")
    probes = [PointScatterer(t.position, s)
              for t, s in zip(targets, random_s)]
    forward = synthesize_scattering_data(
        probes, arrays, scene, sweep, max_order=cfg.max_order,
        path_engine="images", amplitude="phase_only")
    lhs = np.sum(forward.samples * np.conj(random_t))
    data = MeasurementSet(tx_positions=arrays.tx_positions,
                          rx_positions=arrays.rx_positions,
                          copol=arrays.copol, sweep=sweep, samples=random_t,
                          mode="scattering")
    back = reconstruct_at_points([t.position for t in targets], data, scene,
                                 cfg)
    rhs = np.sum(random_s * np.conj(back))
    denom = np.linalg.norm(forward.samples) * np.linalg.norm(random_t)
    if denom == 0.0:
        return 0.0
    return float(abs(lhs - rhs) / denom)


# ---------------------------------------------------------------------------
# Focus and resolution metrics


@dataclass(frozen=True)
class PsfMetrics:
    fwhm: float  # meters
    pslr_db: float  # +inf when no sidelobe rises above the -40 dB floor


def _profile_along(image: ImageGrid, axis: np.ndarray,
                   peak: Tuple[int, int, int]):
    """|values| sampled along `axis` through the peak voxel.

    Returns (positions_m, magnitudes, peak_sample_index).
    """
    axis = unit(axis)
    mag = np.abs(image.values)
    for d in range(3):
        a = float(axis @ image.axes[d])
        if abs(abs(a) - 1.0) < 1e-9 and image.dims[d] > 1:
            sl = [peak[0], peak[1], peak[2]]
            sl[d] = slice(None)
            prof = mag[tuple(sl)]
            pos = (np.arange(image.dims[d]) - peak[d]) * image.spacing[d]
            if a < 0:
                prof = prof[::-1]
                pos = -pos[::-1]
            p_idx = int(np.nonzero(pos == 0.0)[0][0])
            return pos, prof, p_idx
    # General axis: trilinear sampling at the finest in-plane spacing.
    live = [d for d in range(3) if image.dims[d] > 1]
    step = float(np.min(image.spacing[live])) if live else float(
        image.spacing[0])
    center = image.voxel_center(*peak)
    offsets = []
    for sgn in (-1, 1):
        s = 0.0
        while True:
            s += step
            p = center + sgn * s * axis
            if not _inside(image, p):
                break
            offsets.append(sgn * s)
    offsets = np.array(sorted(offsets + [0.0]))
    vals = np.array([_trilinear(image, center + s * axis) for s in offsets])
    p_idx = int(np.nonzero(offsets == 0.0)[0][0])
    return offsets, vals, p_idx


def _grid_coords(image: ImageGrid, p: np.ndarray) -> np.ndarray:
    rel = p - image.origin
    return np.array([(rel @ image.axes[d]) / image.spacing[d]
                     for d in range(3)])


def _inside(image: ImageGrid, p: np.ndarray) -> bool:
    c = _grid_coords(image, p)
    for d in range(3):
        if image.dims[d] == 1:
            if abs(c[d]) > 1e-6:
                return False
        elif not (0.0 <= c[d] <= image.dims[d] - 1):
            return False
    return True


def _trilinear(image: ImageGrid, p: np.ndarray) -> float:
    c = _grid_coords(image, p)
    mag = np.abs(image.values)
    i0 = np.floor(c).astype(int)
    out = 0.0
    for corner in range(8):
        w = 1.0
        idx = [0, 0, 0]
        skip = False
        for d in range(3):
            bit = (corner >> d) & 1
            if image.dims[d] == 1:
                if bit:
                    skip = True
                    break
                idx[d] = 0
                continue
            base = min(max(i0[d], 0), image.dims[d] - 2)
            frac = c[d] - base
            idx[d] = base + bit
            w *= frac if bit else (1.0 - frac)
        if skip or w == 0.0:
            continue
        out += w * mag[idx[0], idx[1], idx[2]]
    return out


def psf_metrics(image: ImageGrid, axis, peak: Tuple[int, int, int]) -> PsfMetrics:
    """FWHM (linear interpolation) and peak-to-sidelobe ratio along an axis.

    The main lobe is bounded by the first local minima on each side of the
    peak; sidelobes below the -40 dB display floor are ignored.
    """
    pos, prof, p = _profile_along(image, as_vec3(axis), peak)
    peak_val = prof[p]
    if peak_val <= 0.0:
        raise EmptyImage("peak magnitude is zero")
    half = 0.5 * peak_val

    def crossing(direction: int) -> float:
        i = p
        while True:
            ni = i + direction
            if ni < 0 or ni >= prof.size:
                raise UnresolvedLobe(
                    "profile does not fall below half maximum inside the grid")
            if prof[ni] < half:
                f = (prof[i] - half) / (prof[i] - prof[ni])
                return pos[i] + f * (pos[ni] - pos[i])
            i = ni

    fwhm = crossing(+1) - crossing(-1)

    def lobe_edge(direction: int) -> int:
        i = p
        while 0 <= i + direction < prof.size and prof[i + direction] <= prof[i]:
            i += direction
        return i

    left = lobe_edge(-1)
    right = lobe_edge(+1)
    side = np.concatenate([prof[:left], prof[right + 1:]])
    floor = peak_val * 10.0 ** (-40.0 / 20.0)
    side = side[side > floor]
    if side.size == 0:
        return PsfMetrics(fwhm=float(fwhm), pslr_db=math.inf)
    return PsfMetrics(fwhm=float(fwhm),
                      pslr_db=float(20.0 * np.log10(peak_val / side.max())))


def peak_locations(image: ImageGrid, n: int,
                   min_separation: float) -> List[np.ndarray]:
    """Greedy non-maximum suppression on |values|: up to n voxel centers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mag = np.abs(image.values).ravel()
    order = np.argsort(mag, kind="stable")[::-1]
    accepted: List[np.ndarray] = []
    for flat in order:
        if mag[flat] == 0.0:
            break
        i, j, l = np.unravel_index(int(flat), image.dims)
        c = image.voxel_center(int(i), int(j), int(l))
        if all(np.linalg.norm(c - a) >= min_separation for a in accepted):
            accepted.append(c)
            if len(accepted) == n:
                break
    return accepted


def image_entropy(image: ImageGrid) -> float:
    """Shannon entropy of the normalized |s|^2 distribution (lower = sharper)."""
    p = np.abs(image.values.ravel()) ** 2
    total = p.sum()
    if total == 0.0:
        raise EmptyImage("image is identically zero")
    q = p / total
    nz = q[q > 0.0]
    return float(-np.sum(nz * np.log(nz)))
