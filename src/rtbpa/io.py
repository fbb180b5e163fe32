"""Bit-exact binary containers for measurement sets and image grids.

Layout (little-endian throughout):
    magic   6 bytes  b"RTBPA1"
    kind    u8       1 = measurement set, 2 = image grid
measurement set:
    mode    u8       0 = radiation, 1 = scattering
    dims    3 x u4   n_tx, n_rx, n_k
    sweep   3 x f8   f_start, f_stop, step (Hz)
    copol   3 x f8
    tx      n_tx x 3 f8
    rx      n_rx x 3 f8
    k       n_k x f8 (derived axis, stored for self-description)
    samples n_tx*n_rx*n_k complex64, row-major tx -> rx -> k
image grid:
    dims    3 x u4
    origin  3 x f8
    axes    9 x f8
    spacing 3 x f8
    values  nx*ny*nz complex64, C order

The 2-D magnitude export is a CSV of dB values (normalized to the image
maximum, floored at -40 dB) and a PGM grayscale heatmap with a linear ramp
mapping -40..0 dB to 0..255.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ScenarioError
from .fields import FrequencySweep, MeasurementSet, _check_sample_count
from .imaging import ImageGrid

MAGIC = b"RTBPA1"
KIND_MEASUREMENT = 1
KIND_IMAGE = 2

DB_FLOOR = -40.0


def write_measurements(path, data: MeasurementSet) -> None:
    n_tx, n_rx, n_k = data.samples.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BB", KIND_MEASUREMENT,
                             0 if data.mode == "radiation" else 1))
        fh.write(struct.pack("<III", n_tx, n_rx, n_k))
        fh.write(struct.pack("<ddd", data.sweep.f_start, data.sweep.f_stop,
                             data.sweep.step))
        fh.write(np.asarray(data.copol, "<f8").tobytes())
        fh.write(np.ascontiguousarray(data.tx_positions, "<f8").tobytes())
        fh.write(np.ascontiguousarray(data.rx_positions, "<f8").tobytes())
        fh.write(np.ascontiguousarray(data.sweep.k_values, "<f8").tobytes())
        fh.write(np.ascontiguousarray(data.samples, "<c8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ScenarioError(f"truncated container while reading {what}")
    return buf


def _open(path):
    """The file opened for reading; an unreadable path is an input error."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ScenarioError(
            f"{path}: cannot read: {exc.strerror or exc}") from exc


def _check_magic(fh, expect_kind: int, path) -> None:
    magic = _read_exact(fh, 6, "magic")
    if magic != MAGIC:
        raise ScenarioError(f"{path}: not an RTBPA1 container")
    kind = _read_exact(fh, 1, "kind")[0]
    if kind != expect_kind:
        raise ScenarioError(f"{path}: container kind {kind} does not match "
                            f"expected {expect_kind}")


def _check_size(fh, path, payload: int) -> None:
    """Reject a file whose size differs from what its header implies, before
    any header-sized read allocates."""
    expected = fh.tell() + payload
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        problem = ("truncated container" if size < expected
                   else "trailing bytes")
        raise ScenarioError(f"{path}: {problem}: the header implies "
                            f"{expected} bytes, the file holds {size}")


def read_measurements(path) -> MeasurementSet:
    with _open(path) as fh:
        _check_magic(fh, KIND_MEASUREMENT, path)
        mode = _read_exact(fh, 1, "mode")[0]
        n_tx, n_rx, n_k = struct.unpack("<III", _read_exact(fh, 12, "dims"))
        f_start, f_stop, step = struct.unpack("<ddd",
                                              _read_exact(fh, 24, "sweep"))
        copol = np.frombuffer(_read_exact(fh, 24, "copol"), "<f8").copy()
        _check_size(fh, path, 24 * n_tx + 24 * n_rx + 8 * n_k
                    + 8 * n_tx * n_rx * n_k)
        try:
            _check_sample_count(n_tx, n_rx, n_k)
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
        tx = np.frombuffer(_read_exact(fh, 24 * n_tx, "tx positions"),
                           "<f8").reshape(n_tx, 3).copy()
        rx = np.frombuffer(_read_exact(fh, 24 * n_rx, "rx positions"),
                           "<f8").reshape(n_rx, 3).copy()
        _read_exact(fh, 8 * n_k, "wavenumber table")
        samples = np.frombuffer(
            _read_exact(fh, 8 * n_tx * n_rx * n_k, "samples"),
            "<c8").reshape(n_tx, n_rx, n_k).astype(np.complex128)
    if mode not in (0, 1):
        raise ScenarioError(f"{path}: mode byte {mode} is neither 0 nor 1")
    if n_tx == 0 or n_rx == 0:
        raise ScenarioError(f"{path}: empty antenna axis ({n_tx} tx, {n_rx} "
                            f"rx)")
    if not np.all(np.isfinite(copol)) or not np.any(copol):
        raise ScenarioError(f"{path}: copol must be finite and nonzero")
    for name, pos in (("tx positions", tx), ("rx positions", rx)):
        if not np.all(np.isfinite(pos)):
            raise ScenarioError(f"{path}: {name} must be finite")
    try:
        sweep = FrequencySweep(f_start=f_start, f_stop=f_stop, step=step)
        if sweep.count != n_k:
            raise ScenarioError(f"{path}: sweep count {sweep.count} does not "
                                f"match stored n_k {n_k}")
        return MeasurementSet(tx_positions=tx, rx_positions=rx, copol=copol,
                              sweep=sweep, samples=samples,
                              mode="radiation" if mode == 0 else "scattering")
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def write_image(path, grid: ImageGrid) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", KIND_IMAGE))
        fh.write(struct.pack("<III", *grid.dims))
        fh.write(np.asarray(grid.origin, "<f8").tobytes())
        fh.write(np.ascontiguousarray(grid.axes, "<f8").tobytes())
        fh.write(np.asarray(grid.spacing, "<f8").tobytes())
        fh.write(np.ascontiguousarray(grid.values, "<c8").tobytes())


def read_image(path) -> ImageGrid:
    with _open(path) as fh:
        _check_magic(fh, KIND_IMAGE, path)
        dims = struct.unpack("<III", _read_exact(fh, 12, "dims"))
        origin = np.frombuffer(_read_exact(fh, 24, "origin"), "<f8").copy()
        axes = np.frombuffer(_read_exact(fh, 72, "axes"),
                             "<f8").reshape(3, 3).copy()
        spacing = np.frombuffer(_read_exact(fh, 24, "spacing"), "<f8").copy()
        n = dims[0] * dims[1] * dims[2]
        _check_size(fh, path, 8 * n)
        values = np.frombuffer(_read_exact(fh, 8 * n, "values"),
                               "<c8").reshape(dims).astype(np.complex128)
    try:
        return ImageGrid(origin=origin, axes=axes, spacing=spacing, dims=dims,
                         values=values)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def magnitude_db(grid: ImageGrid) -> np.ndarray:
    """Planar |s| in dB, normalized to the image maximum, floored at -40 dB."""
    mag = np.abs(grid.values[:, :, 0])
    peak = mag.max()
    if peak == 0.0:
        return np.full(mag.shape, DB_FLOOR)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / peak)
    return np.maximum(db, DB_FLOOR)


def write_csv_db(path, grid: ImageGrid) -> None:
    """CSV of the planar dB cut: one row per j index, one column per i index."""
    np.savetxt(path, magnitude_db(grid).T, fmt="%.6f", delimiter=",")


def write_pgm(path, grid: ImageGrid) -> None:
    """8-bit PGM heatmap: -40 dB -> 0, 0 dB -> 255, row per j index."""
    db = magnitude_db(grid)
    pix = np.round((db - DB_FLOOR) / (-DB_FLOOR) * 255.0).astype(np.uint8)
    header = f"P5\n{pix.shape[0]} {pix.shape[1]}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(pix.T).tobytes())
