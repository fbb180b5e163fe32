"""Synthetic forward models: Hertzian dipole fields, PEC image theory, and
multipath measurement synthesis for radiation and Born point-scatterer data.

The default propagation amplitude convention is unit magnitude (phase_only):
every wavefront contributes sign * exp(-j k L), which makes the multipath
back-projection operator an exact transpose of the synthesizer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Literal, Optional, Sequence

import numpy as np

from .errors import EmptyInput, Singular
from .geometry import Facet, Scene, as_vec3, unit
from .propagation import (CROSS_POL_THRESHOLD, ImagePathTable, SbrConfig,
                          _check_scene, enumeration_order, sbr_trace)

C0 = 299792458.0  # m/s

AmplitudeMode = Literal["phase_only", "far_field"]


@dataclass(frozen=True)
class DipoleSource:
    position: np.ndarray
    orientation: np.ndarray  # unit current direction
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        object.__setattr__(self, "orientation", unit(self.orientation))
        object.__setattr__(self, "amplitude", complex(self.amplitude))


@dataclass(frozen=True)
class PointScatterer:
    position: np.ndarray
    reflectivity: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        object.__setattr__(self, "reflectivity", complex(self.reflectivity))
        if not np.isfinite(self.reflectivity):
            raise ValueError("reflectivity must be finite")


@dataclass(frozen=True)
class FrequencySweep:
    f_start: float
    f_stop: float
    step: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.f_start, self.f_stop, self.step])):
            raise ValueError("sweep frequencies and step must be finite")
        if self.f_start > self.f_stop:
            raise ValueError("sweep f_start must be <= f_stop")
        if self.step <= 0:
            raise ValueError("sweep step must be > 0")
        if (self.f_stop - self.f_start) / self.step >= 2 ** 32:
            raise ValueError("sweep must have fewer than 2**32 points")

    @property
    def count(self) -> int:
        return int(np.floor((self.f_stop - self.f_start) / self.step + 1e-9)) + 1

    @property
    def frequencies(self) -> np.ndarray:
        return self.f_start + self.step * np.arange(self.count)

    @property
    def k_values(self) -> np.ndarray:
        return 2.0 * np.pi * self.frequencies / C0


@dataclass(frozen=True)
class AntennaArray:
    """Tx/Rx position lists sharing one co-polarization unit vector."""

    tx_positions: np.ndarray  # (n_tx, 3)
    rx_positions: np.ndarray  # (n_rx, 3)
    copol: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tx_positions",
                           np.asarray(self.tx_positions, float).reshape(-1, 3))
        object.__setattr__(self, "rx_positions",
                           np.asarray(self.rx_positions, float).reshape(-1, 3))
        object.__setattr__(self, "copol", unit(self.copol))


@dataclass
class MeasurementSet:
    """Complex samples indexed by (tx, rx, wavenumber)."""

    tx_positions: np.ndarray
    rx_positions: np.ndarray
    copol: np.ndarray
    sweep: FrequencySweep
    samples: np.ndarray  # (n_tx, n_rx, n_k) complex
    mode: Literal["radiation", "scattering"]

    def __post_init__(self):
        self.tx_positions = np.asarray(self.tx_positions, float).reshape(-1, 3)
        self.rx_positions = np.asarray(self.rx_positions, float).reshape(-1, 3)
        self.copol = unit(self.copol)
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        expected = (self.tx_positions.shape[0], self.rx_positions.shape[0],
                    self.sweep.count)
        if self.samples.shape != expected:
            raise ValueError(f"sample tensor shape {self.samples.shape} does "
                             f"not match axes {expected}")
        if self.mode == "radiation" and self.tx_positions.shape[0] != 1:
            raise ValueError("radiation mode uses a single dummy tx axis")
        if not np.all(np.isfinite(self.samples.view(float))):
            raise ValueError("samples must be finite")

    @property
    def n_rx(self) -> int:
        return self.rx_positions.shape[0]

    @property
    def n_tx(self) -> int:
        return self.tx_positions.shape[0]


def _unit_phasor(phi: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(phi), dtype=np.complex128)
    out.real = np.cos(phi)
    out.imag = np.sin(phi)
    return out


def dipole_field(obs, src: DipoleSource, k: float,
                 mode: str = "full") -> np.ndarray:
    """Electric field vector of an infinitesimal dipole at an observation point.

    Normalization: the far-field amplitude at R = 1 m broadside equals 1.
    Modes: "full" keeps the 1/R, 1/R^2, 1/R^3 terms; "far_field" keeps the
    transverse sin(theta)/R pattern; "phase_only" forces unit amplitude.
    """
    obs = as_vec3(obs)
    if k <= 0:
        raise ValueError("k must be > 0")
    rel = obs - src.position
    dist = float(np.linalg.norm(rel))
    if dist < 1e-12:
        raise Singular("observation point coincides with the dipole")
    rhat = rel / dist
    p = src.orientation
    cos_t = float(np.dot(rhat, p))
    # Transverse projection of the current direction; the overall sign of the
    # normalization is chosen so this (not theta_hat) carries the pattern,
    # matching the transported-polarization convention of the path engines.
    e_trans = p - cos_t * rhat
    phase = _unit_phasor(np.array(-k * dist))[()]
    if mode == "far_field":
        return src.amplitude * e_trans / dist * phase
    if mode == "phase_only":
        n = float(np.linalg.norm(e_trans))
        if n < 1e-12:
            return np.zeros(3, dtype=complex)
        return src.amplitude * (e_trans / n) * phase
    if mode == "full":
        x = 1.0 / (1j * k * dist)
        e = (e_trans * (1.0 + x + x * x) / dist
             - rhat * cos_t * (2.0 / dist) * (x + x * x))
        return src.amplitude * e * phase
    raise ValueError(f"unknown mode {mode!r}")


def image_dipole(src: DipoleSource, ground_plane: Facet) -> DipoleSource:
    """Image-theory equivalent of a dipole above an infinite PEC plane.

    Position mirrored; orientation components tangential to the plane negated,
    normal component preserved; amplitude unchanged.
    """
    n = ground_plane.normal
    pos = src.position - 2.0 * float(
        np.dot(src.position - ground_plane.point, n)) * n
    ori = 2.0 * float(np.dot(src.orientation, n)) * n - src.orientation
    return DipoleSource(position=pos, orientation=ori, amplitude=src.amplitude)


def _leg_coefficients(order: int, amp: np.ndarray, tnorm: np.ndarray,
                      valid: np.ndarray, lengths: np.ndarray,
                      amplitude: AmplitudeMode) -> np.ndarray:
    """Per-(point, antenna) leg weights under the selected amplitude convention.

    Zero-bounce legs are always kept; bounced legs whose normalized co-pol
    projection falls below the cross-pol threshold are dropped.
    """
    if order > 0:
        keep = valid & (tnorm > 1e-12) & (np.abs(amp) >= CROSS_POL_THRESHOLD * tnorm)
    else:
        keep = valid
    if amplitude == "phase_only":
        sign = np.where(amp >= 0.0, 1.0, -1.0)
        return np.where(keep, sign, 0.0)
    if amplitude == "far_field":
        with np.errstate(divide="ignore", invalid="ignore"):
            w = amp / np.where(lengths == 0.0, 1.0, lengths)
        return np.where(keep, w, 0.0)
    raise ValueError(f"unknown amplitude mode {amplitude!r}")


def _path_tables(scene: Scene, antenna_sets: Sequence[np.ndarray], copol,
                 max_order: int, path_engine: str, sbr: Optional[SbrConfig]
                 ) -> Callable[..., List[ImagePathTable]]:
    """`tables(points, launch=0)`: one ImagePathTable per antenna set, over
    the reflector sequences the path engine picks for a point block.

    `images` picks every sequence up to `max_order`, whatever the points.
    `sbr` picks the sequences that one `sbr_trace` launch from the points,
    seeded `sbr.rng_seed + launch`, captured at any antenna of the set, up to
    `sbr.max_bounces` (default: an `SbrConfig` with `max_order` bounces).
    """
    if path_engine == "images":
        fixed = [ImagePathTable(scene, ants, max_order, copol)
                 for ants in antenna_sets]
        return lambda points, launch=0: fixed
    if path_engine != "sbr":
        raise ValueError(f"unknown path engine {path_engine!r}")
    cfg = sbr if sbr is not None else SbrConfig(max_bounces=max_order)
    _check_scene(scene, cfg.max_bounces)  # refuse before any launch

    def tables(points, launch=0):
        per_antenna = sbr_trace(points, np.concatenate(antenna_sets), scene,
                                replace(cfg, rng_seed=cfg.rng_seed + launch))
        out, start = [], 0
        for ants in antenna_sets:
            seqs = set().union(*per_antenna[start:start + len(ants)])
            start += len(ants)
            out.append(ImagePathTable(scene, ants, cfg.max_bounces, copol,
                                      enumeration_order(seqs, scene)))
        return out
    return tables


def _weighted_legs(table: ImagePathTable, points: np.ndarray,
                   amplitude: AmplitudeMode, orientation=None) -> list:
    """(lengths, coeff) per sequence of `table` for a point block, each
    (V, A)."""
    return [(lengths, _leg_coefficients(len(seq), amp, tnorm, valid, lengths,
                                        amplitude))
            for seq, lengths, amp, tnorm, valid
            in table.eval(points, orientation=orientation)]


def _leg_spectrum(table: ImagePathTable, point: np.ndarray,
                  orientation: np.ndarray, kvals: np.ndarray,
                  amplitude: AmplitudeMode) -> np.ndarray:
    """Sum of coeff * exp(-j k L) over all legs of `table` from `point`,
    shape (A, K)."""
    acc = np.zeros((table.antennas.shape[0], kvals.size), dtype=np.complex128)
    for lengths, coeff in _weighted_legs(table, point[None, :], amplitude,
                                         orientation):
        if np.any(coeff):
            acc += coeff[0][:, None] * _unit_phasor(-lengths[0][:, None]
                                                    * kvals)
    return acc


def synthesize_radiation_data(sources: Sequence[DipoleSource],
                              arrays: AntennaArray, scene: Scene,
                              sweep: FrequencySweep, max_order: int = 1,
                              path_engine: str = "images",
                              sbr: Optional[SbrConfig] = None,
                              amplitude: AmplitudeMode = "phase_only",
                              ) -> MeasurementSet:
    """Multipath radiation data T[rx, k] for a set of dipole sources."""
    if not sources:
        raise EmptyInput("no sources")
    kvals = sweep.k_values
    rx = arrays.rx_positions
    samples = np.zeros((1, rx.shape[0], kvals.size), dtype=np.complex128)
    tables = _path_tables(scene, [rx], arrays.copol, max_order, path_engine,
                          sbr)
    for i, src in enumerate(sources):
        (table,) = tables(src.position, i)
        samples[0] += src.amplitude * _leg_spectrum(
            table, src.position, src.orientation, kvals, amplitude)
    return MeasurementSet(tx_positions=np.zeros((1, 3)), rx_positions=rx,
                          copol=arrays.copol, sweep=sweep, samples=samples,
                          mode="radiation")


def synthesize_scattering_data(targets: Sequence[PointScatterer],
                               arrays: AntennaArray, scene: Scene,
                               sweep: FrequencySweep, max_order: int = 1,
                               path_engine: str = "images",
                               sbr: Optional[SbrConfig] = None,
                               amplitude: AmplitudeMode = "phase_only",
                               ) -> MeasurementSet:
    """First-order Born scattering data T[tx, rx, k] for point targets.

    Each target contributes reflectivity * (sum over tx legs) * (sum over rx
    legs); the product expands into every (tx leg, rx leg) wavefront pair with
    the polarization-sign product carried by the per-leg weights.
    """
    if not targets:
        raise EmptyInput("no targets")
    kvals = sweep.k_values
    tx = arrays.tx_positions
    rx = arrays.rx_positions
    if tx.shape[0] == 0 or rx.shape[0] == 0:
        raise EmptyInput("empty antenna array")
    samples = np.zeros((tx.shape[0], rx.shape[0], kvals.size),
                       dtype=np.complex128)
    tables = _path_tables(scene, [tx, rx], arrays.copol, max_order,
                          path_engine, sbr)
    for i, tgt in enumerate(targets):
        at, ar = (_leg_spectrum(table, tgt.position, arrays.copol, kvals,
                                amplitude)
                  for table in tables(tgt.position, i))
        samples += tgt.reflectivity * at[:, None, :] * ar[None, :, :]
    return MeasurementSet(tx_positions=tx, rx_positions=rx,
                          copol=arrays.copol, sweep=sweep, samples=samples,
                          mode="scattering")


def add_noise(data: MeasurementSet, sigma: float, seed: int) -> MeasurementSet:
    """Additive complex Gaussian noise with total per-sample std `sigma`."""
    rng = np.random.default_rng(seed)
    scale = sigma / np.sqrt(2.0)
    noise = (rng.normal(scale=scale, size=data.samples.shape)
             + 1j * rng.normal(scale=scale, size=data.samples.shape))
    return MeasurementSet(tx_positions=data.tx_positions,
                          rx_positions=data.rx_positions, copol=data.copol,
                          sweep=data.sweep, samples=data.samples + noise,
                          mode=data.mode)
