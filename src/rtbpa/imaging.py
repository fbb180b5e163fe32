"""Reconstruction operators: the ray-traced multipath adjoint (RT-BPA), the
naive free-space BPA as its special case, and focus/resolution metrics.

The naive BPA is the RT-BPA on a scene with no reflectors; a point list and a
grid run the same job, and both data modes one coherent sum. Voxel chunks are
boxes fixed by the grid dims, so the output is the same for any worker count.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyImage, EmptyInput, UnresolvedLobe
from .fields import (_CHUNK, _CIS_BLOCK, AntennaArray, FrequencySweep,
                     MeasurementSet, PointScatterer, _path_tables, _phasors,
                     _weighted_legs, synthesize_scattering_data)
from .geometry import Scene, as_vec3, unit
from .propagation import ImagePathTable, SbrConfig, _check_order

_DOT_COLS = 8192  # columns per BLAS dot at most: OpenBLAS threads above 10k
# Largest grid: its complex values alone take 16 bytes a voxel (256 MiB here),
# and every voxel costs a path-table evaluation.
MAX_VOXELS = 1 << 24
Legs = Sequence[Tuple[np.ndarray, np.ndarray]]  # (lengths, w) per leg class
# glibc mallopt parameters (malloc.h) and the values _keep_heap sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 1 << 30
_MMAP_THRESHOLD = 32 << 20  # glibc's largest


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
        if math.prod(self.dims) > MAX_VOXELS:
            raise ValueError(f"grid of {math.prod(self.dims)} voxels exceeds "
                             f"the cap of {MAX_VOXELS}")
        if self.values is None:
            self.values = np.zeros(self.dims, dtype=np.complex128)
        else:
            self.values = np.asarray(self.values, dtype=np.complex128)
            if self.values.shape != self.dims:
                raise ValueError("values shape does not match dims")

    @staticmethod
    def planar(center, axis_i, axis_j, spacing_ij, dims_ij) -> "ImageGrid":
        """Planar (nz = 1) grid centered on `center`."""
        ai = unit(axis_i)
        aj = unit(axis_j)
        an = unit(np.cross(ai, aj))
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
        _check_order(self.max_order)
        if self.path_engine not in ("images", "sbr"):
            raise ValueError(f"unknown path engine {self.path_engine!r}")


def _coherent_sum(t: np.ndarray, kvals: np.ndarray, tx_legs: Optional[Legs],
                  rx_legs: Legs, n_v: int) -> np.ndarray:
    """S[v] = sum_k sum_tx sum_rx A_tx[v, tx, k] t[tx, rx, k] A_rx[v, rx, k],
    with A[v, a, k] the sum of w * exp(+j k L) over a side's leg classes.

    No wavefront pair is formed: each rx class is contracted with the samples
    into conj(u[k]) (V, n_tx), then each tx class with it; radiation data
    (`tx_legs` None) have one tx row and A_tx = 1. Each contraction is one
    BLAS dot (`np.vecdot`, which conjugates its first argument) per (voxel,
    tx) output, so no side needs a conjugate pass: the rx side dots the
    phasors with the conjugated samples, the tx side conj(u) with the
    phasors. Columns zero over the whole chunk are skipped, and the rest run
    dense, zeros included, in pieces of at most _DOT_COLS columns: OpenBLAS
    threads a dot only above 10,000 elements, so no BLAS thread count can
    change a bit. A piece runs in row blocks of about _CIS_BLOCK elements,
    all K steps of one block before the next, so that its phasor, the step
    phasor and the _cis temporaries stay in L2. Each row block cuts the
    dead columns from its own rows, so no class is copied whole. An rx
    block of R rows costs R A_rx n_tx per k and a tx block R A_tx, so the
    work is (C_rx V A_rx n_tx + C_tx V A_tx) K for C classes per side. The
    row blocks change no dot, so no bit of the result depends on their
    size; a dot's rounding does depend on where each term sits in it, so a
    voxel's bits depend on its chunk's live columns.
    """
    def live(legs):  # (lengths, w, cols) per piece of the nonzero columns
        out = []
        for L, w in legs:
            c = np.flatnonzero(np.any(w, axis=0))
            if c.size == w.shape[1] <= _DOT_COLS:  # all live: no cut
                out.append((L, w, slice(None)))
                continue
            out.extend((L, w, c[lo:lo + _DOT_COLS])
                       for lo in range(0, c.size, _DOT_COLS))
        return out

    def blocks(lengths, w, cols):  # (rows, k index, phasor) per row block
        whole = isinstance(cols, slice)
        n_rows = max(1, _CIS_BLOCK // (w.shape[1] if whole else cols.size))
        for lo in range(0, n_v, n_rows):
            rows = slice(lo, lo + n_rows)
            L, wb = lengths[rows], w[rows]
            if not whole:  # np.take keeps C order
                L, wb = np.take(L, cols, axis=1), np.take(wb, cols, axis=1)
            for i, p in enumerate(_phasors(kvals, L, wb)):
                yield rows, i, p

    acc = np.zeros(n_v, dtype=np.complex128)
    rx, tx = live(rx_legs), None if tx_legs is None else live(tx_legs)
    if not rx or tx == []:
        return acc
    conj_t = np.conj(t.transpose(2, 0, 1), order="C")  # (K, n_tx, A_rx)
    uc = np.zeros((kvals.size, n_v, t.shape[0]), dtype=np.complex128)
    for lengths, w, cols in rx:
        s = conj_t if isinstance(cols, slice) else np.take(conj_t, cols, 2)
        for rows, i, p in blocks(lengths, w, cols):
            uc[i, rows] += np.vecdot(p[:, None, :], s[i])
    if tx is None:
        return np.conj(uc[:, :, 0].sum(axis=0))
    for lengths, w, cols in tx:
        for rows, i, p in blocks(lengths, w, cols):
            acc[rows] += np.vecdot(uc[i, rows][:, cols], p)
    return acc


# Per-mode entry points; the bench trace wraps each by name: no cross-calls.
def _sum_radiation(t0: np.ndarray, kvals: np.ndarray,
                   legs: Legs) -> np.ndarray:
    return _coherent_sum(t0[None], kvals, None, legs, len(legs[0][0]))


def _sum_scattering(t: np.ndarray, kvals: np.ndarray, tx_legs: Legs,
                    rx_legs: Legs, n_v: int) -> np.ndarray:
    return _coherent_sum(t, kvals, tx_legs, rx_legs, n_v)


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


def _chunks(dims: Sequence[int]) -> List[np.ndarray]:
    """Flat voxel indices per chunk: 16 x 8 x 1 boxes (8 x 4 x 4 if nz > 1)
    clipped to the grid, each axis then grown in turn to at most _CHUNK
    voxels, so (N, 1, 1) grids get 128-voxel runs. Edge boxes are partial."""
    start = (16, 8, 1) if dims[2] == 1 else (8, 4, 4)
    box = [min(d, b) for d, b in zip(dims, start)]
    for a in range(3):
        box[a] = min(dims[a], _CHUNK * box[a] // math.prod(box))
    flat = np.arange(math.prod(dims)).reshape(dims)
    return [flat[i:i + box[0], j:j + box[1], l:l + box[2]].ravel()
            for i in range(0, dims[0], box[0])
            for j in range(0, dims[1], box[1])
            for l in range(0, dims[2], box[2])]


def _compute_chunk(voxels: np.ndarray) -> np.ndarray:
    job = _job
    points = job.points[voxels]

    def legs(table: ImagePathTable):
        # Unit-amplitude weights 0 or +-1: the -1 realizes the pi phase of
        # odd polarization parity, which the half-wave correction keeps.
        out = _weighted_legs(table, points, "phase_only")
        return out if job.half_wave else [(L, np.abs(w)) for L, w in out]

    rx_legs = legs(job.rx_table)
    if not rx_legs:  # no rx sequence has a valid leg in the chunk
        return np.zeros(points.shape[0], dtype=np.complex128)
    if job.tx_table is None:
        return _sum_radiation(job.samples[0], job.kvals, rx_legs)
    return _sum_scattering(job.samples, job.kvals, legs(job.tx_table),
                           rx_legs, points.shape[0])


def _keep_heap() -> bool:
    """Make glibc keep freed memory in this process, and in the workers it
    forks: blocks below 32 MiB come from the heap, which is trimmed only
    above 1 GiB of free top. A chunk frees about as much as the next one
    allocates, so the next chunk reuses those pages instead of faulting
    them in again; the cost is that the heap is not returned after a
    reconstruction. True when glibc's mallopt took both settings; where
    there is no mallopt the allocator is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1,
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1])


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_job(job: _Job, workers: int, dims: Sequence[int]) -> np.ndarray:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    _keep_heap()
    chunks = _chunks(dims)
    # More processes than CPUs or chunks only add start-up cost.
    workers = min(workers, _usable_cpus(), len(chunks))
    if workers == 1:
        _set_job(job)
        try:
            parts = [_compute_chunk(c) for c in chunks]
        finally:
            _set_job(None)
    else:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        with ctx.Pool(processes=workers, initializer=_set_job,
                      initargs=(job,)) as pool:
            parts = pool.map(_compute_chunk, chunks, chunksize=1)
    out = np.empty(job.points.shape[0], dtype=np.complex128)
    out[np.concatenate(chunks)] = np.concatenate(parts)
    return out


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
    return grid.with_values(_run_job(job, workers, grid.dims))


def reconstruct_at_points(points, data: MeasurementSet, scene: Scene,
                          cfg: ReconstructionConfig) -> np.ndarray:
    """RT-BPA at an arbitrary point list, run serially by the job `rt_bpa`
    runs on an (N, 1, 1) grid: point i is treated (and the SBR engine
    launches from it) as voxel i, and chunks are runs of _CHUNK points."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    job = _build_job(data, points, scene, cfg)
    return _run_job(job, 1, (points.shape[0], 1, 1))


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
    """|values| along the grid axis parallel to `axis`, through the peak
    voxel: (positions_m, magnitudes, peak_sample_index).

    The profile runs in the grid axis's own direction; an antiparallel
    `axis` gives its mirror image, and so the same FWHM and PSLR.
    """
    axis = unit(axis)
    for d in range(3):
        if abs(abs(float(axis @ image.axes[d])) - 1.0) < 1e-9:
            sl = list(peak)
            sl[d] = slice(None)
            pos = (np.arange(image.dims[d]) - peak[d]) * image.spacing[d]
            return pos, np.abs(image.values[tuple(sl)]), peak[d]
    raise ValueError(f"axis {axis} is parallel to no grid axis")


def psf_metrics(image: ImageGrid, axis, peak: Tuple[int, int, int]) -> PsfMetrics:
    """FWHM (linear interpolation) and peak-to-sidelobe ratio along a grid
    axis (ValueError for any other axis).

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
