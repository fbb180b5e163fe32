"""Synthetic forward models: Hertzian dipole fields, PEC image theory, and
multipath measurement synthesis for radiation and Born point-scatterer data.

The default propagation amplitude convention is unit magnitude (phase_only):
every wavefront contributes sign * exp(-j k L), which makes the multipath
back-projection operator an exact transpose of the synthesizer.

Synthesis runs per block of emitters: the images engine evaluates each path
table once per block of up to _CHUNK emitters that share one orientation;
the SBR engine launches once per emitter, so its blocks hold one emitter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Literal, Optional, Sequence

import numpy as np

from .errors import EmptyInput, Singular
from .geometry import Facet, Scene, as_vec3, unit
from .propagation import (CROSS_POL_THRESHOLD, ImagePathTable, SbrConfig,
                          _check_order, enumeration_order, sbr_trace)

C0 = 299792458.0  # m/s

AmplitudeMode = Literal["phase_only", "far_field"]

# Largest sample tensor n_tx * n_rx * n_k, and so also the largest sweep:
# 1 GiB of complex128 samples, of which forward synthesis holds one (its
# accumulator, returned as a view). Checked from the sizes before any array
# is built.
MAX_SAMPLES = 1 << 26
# Points per forward block and per reconstruction chunk at most: fixed, so
# no bit depends on the worker count.
_CHUNK = 128


def _check_sample_count(n_tx: int, n_rx: int, n_k: int) -> None:
    """Raise ValueError if an (n_tx, n_rx, n_k) sample tensor exceeds
    MAX_SAMPLES."""
    n = n_tx * n_rx * n_k
    if n > MAX_SAMPLES:
        raise ValueError(f"{n_tx} x {n_rx} x {n_k} = {n} samples (tx x rx x "
                         f"wavenumber) exceed the cap of {MAX_SAMPLES}")


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
        if self.count > MAX_SAMPLES:
            raise ValueError(f"sweep of {self.count} points exceeds the cap "
                             f"of {MAX_SAMPLES} samples")

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
        if not np.all(np.isfinite(self.samples)):  # any layout
            raise ValueError("samples must be finite")

    @property
    def n_rx(self) -> int:
        return self.rx_positions.shape[0]

    @property
    def n_tx(self) -> int:
        return self.tx_positions.shape[0]


# exp(jx) without libm: x = 2 pi n / _CIS_N + r with |r| <= pi / _CIS_N, a
# table of the _CIS_N roots of unity, and a Taylor series in r whose first
# omitted terms, r^6 / 720 and r^7 / 5040, are below 2e-18. 2 pi / _CIS_N is
# split Cody-Waite style into a 24-bit head of np.pi (so n * head is exact
# for |n| < 2^29), the rest of np.pi, and pi - np.pi, each scaled by the
# power of two 2 / _CIS_N. Up to |x| = _CIS_MAX (|n| < 2^29) the result is
# a few ulps from libm's cos + j sin (at most 1.6e-16 over 2^21 uniform
# arguments at each scale from 1 to _CIS_MAX; the tests hold it to 1e-15);
# above it, it is libm's.
_CIS_N = 1024
_CIS_BLOCK = 1 << 14  # elements per pass: a pass's temporaries stay in L2
_CIS_MAX = float(1 << 21)
_CIS_HEAD = float(np.float32(np.pi))
_CIS_C1 = _CIS_HEAD * (2.0 / _CIS_N)
_CIS_C2 = (np.pi - _CIS_HEAD) * (2.0 / _CIS_N)
_CIS_C3 = 1.2246467991473532e-16 * (2.0 / _CIS_N)  # (pi - np.pi) * 2 / N


def _roots_of_unity() -> np.ndarray:
    """exp(2 pi j i / _CIS_N), i < _CIS_N: libm at a = fl(2 pi i / _CIS_N),
    corrected to first order by the rounding 2 pi i / _CIS_N - a."""
    i = np.arange(_CIS_N, dtype=float)
    a = i * _CIS_C1 + i * _CIS_C2
    eps = ((i * _CIS_C1 - a) + i * _CIS_C2) + i * _CIS_C3
    cos, sin = np.cos(a), np.sin(a)
    return (cos - eps * sin) + 1j * (sin + eps * cos)


_CIS_TABLE = _roots_of_unity()


def _cis_reduced(x: np.ndarray, out: np.ndarray) -> None:
    """out = exp(jx) for a 1-D x with |x| <= _CIS_MAX, block by block."""
    for lo in range(0, x.size, _CIS_BLOCK):
        xb, ob = x[lo:lo + _CIS_BLOCK], out[lo:lo + _CIS_BLOCK]
        n = xb * (_CIS_N / (2.0 * np.pi))
        np.rint(n, out=n)
        i = n.astype(np.intp)
        i &= _CIS_N - 1
        r = xb - n * _CIS_C1
        r -= n * _CIS_C2
        r -= n * _CIS_C3
        r2 = r * r
        # ob = exp(jr) - 1: cos r - 1 and sin r, then ob = T + T ob.
        t = r2 * (-1.0 / 720.0)
        t += 1.0 / 24.0
        t *= r2
        t -= 0.5
        np.multiply(t, r2, out=ob.real)
        t = r2 * (1.0 / 120.0)
        t -= 1.0 / 6.0
        t *= r2
        t *= r
        np.add(t, r, out=ob.imag)
        roots = _CIS_TABLE.take(i)
        ob *= roots
        ob += roots


def _cis(x) -> np.ndarray:
    """exp(jx) for any finite float array x: a unit phasor a few ulps from
    libm's cos(x) + j sin(x) for |x| <= _CIS_MAX, libm's own above."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=np.complex128)
    flat_x, flat = x.reshape(-1), out.reshape(-1)
    if not flat_x.size or max(flat_x.max(), -flat_x.min()) <= _CIS_MAX:
        _cis_reduced(flat_x, flat)
        return out
    small = np.abs(flat_x) <= _CIS_MAX
    part = np.empty(np.count_nonzero(small), dtype=np.complex128)
    _cis_reduced(flat_x[small], part)
    flat[small] = part
    big = flat_x[~small]
    flat[~small] = np.cos(big) + 1j * np.sin(big)
    return out


def _phasors(kvals: np.ndarray, lengths: np.ndarray, w: np.ndarray):
    """Yield w * exp(+j k L) for each k of a uniform sweep, in place: `_cis`
    of every entry at k[0] and at the span's step (k[-1] - k[0]) / (K - 1),
    whose rounding does not grow with K, then one multiply per k by the step
    phasor. The one leg-phase formula: back-projection uses these phasors
    and forward synthesis their conjugate, for real w: the leg weights
    before `_synthesize` folds the emitter amplitudes into them."""
    p = _cis(kvals[0] * lengths)
    p *= w
    step = (_cis((kvals[-1] - kvals[0]) / (kvals.size - 1) * lengths)
            if kvals.size > 1 else None)
    for i in range(kvals.size):
        if i:
            p *= step
        yield p


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
    phase = np.exp(-1j * k * dist)
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

    `far_field` keeps every valid leg: its weight amp / L is continuous in
    the co-pol projection. `phase_only` keeps every zero-bounce leg, but
    drops a bounced leg whose normalized co-pol projection falls below the
    cross-pol threshold, where the sign of its +-1 weight is not reliable:
    a kept leg weighs +1 where amp >= 0 (-0.0 included) and -1 elsewhere, a
    dropped one +0.0.

    `phase_only` consumes `amp` and `tnorm` when order > 0: it takes |amp|
    and the threshold product in place on them, so that its result is the
    one float array it allocates. `valid` and `lengths` are never written.
    """
    if amplitude == "phase_only":
        coeff = np.where(amp >= 0.0, 1.0, -1.0)
        keep = valid
        if order > 0:
            keep = valid & (tnorm > 1e-12)
            tnorm *= CROSS_POL_THRESHOLD
            keep &= np.abs(amp, out=amp) >= tnorm
        np.copyto(coeff, 0.0, where=~keep)
        return coeff
    if amplitude == "far_field":
        with np.errstate(divide="ignore", invalid="ignore"):
            w = amp / np.where(lengths == 0.0, 1.0, lengths)
        return np.where(valid, w, 0.0)
    raise ValueError(f"unknown amplitude mode {amplitude!r}")


def _path_tables(scene: Scene, antenna_sets: Sequence[np.ndarray], copol,
                 max_order: int, path_engine: str, sbr: Optional[SbrConfig]
                 ) -> Callable[..., List[ImagePathTable]]:
    """`tables(points, launch=0)`: one ImagePathTable per antenna set, over
    the reflector sequences the path engine picks for a point block.

    `images` picks every sequence up to `max_order`, whatever the points.
    `sbr` picks, for each set, the sequences that one `sbr_trace` launch
    from the points over all the sets, seeded `sbr.rng_seed + launch`,
    captured at some antenna of the set, up to `max_order` bounces (default:
    an `SbrConfig` with `max_order` bounces; one with any other
    `max_bounces` is refused).
    """
    if path_engine == "images":
        fixed = [ImagePathTable(scene, ants, max_order, copol)
                 for ants in antenna_sets]
        return lambda points, launch=0: fixed
    if path_engine != "sbr":
        raise ValueError(f"unknown path engine {path_engine!r}")
    cfg = sbr if sbr is not None else SbrConfig(max_bounces=max_order)
    if cfg.max_bounces != max_order:
        raise ValueError(f"SBR max_bounces {cfg.max_bounces} does not match "
                         f"max_order {max_order}")
    _check_order(max_order)  # refuse before any launch

    def tables(points, launch=0):
        found = sbr_trace(points, antenna_sets, scene,
                          replace(cfg, rng_seed=cfg.rng_seed + launch))
        return [ImagePathTable(scene, ants, max_order, copol,
                               enumeration_order(seqs, scene))
                for ants, seqs in zip(antenna_sets, found)]
    return tables


def _weighted_legs(table: ImagePathTable, points: np.ndarray,
                   amplitude: AmplitudeMode, orientation=None) -> list:
    """(lengths, coeff) per sequence of `table` with a valid leg in a point
    block, each (V, A): zero on the antenna columns eval dropped, which
    hold no valid leg. Eval's amp, tnorm and valid are dropped as soon as
    the weights exist."""
    out = []
    for seq, lengths, amp, tnorm, valid, cols in table.eval(
            points, orientation=orientation):
        coeff = _leg_coefficients(len(seq), amp, tnorm, valid, lengths,
                                  amplitude)
        del amp, tnorm, valid
        if cols.size < table.antennas.shape[0]:
            full = np.zeros((2, lengths.shape[0], table.antennas.shape[0]))
            full[0][:, cols], full[1][:, cols] = lengths, coeff
            lengths, coeff = full
        out.append((lengths, coeff))
    return out


def _blocks(orientations: np.ndarray, size: int) -> List[np.ndarray]:
    """Emitter indices per forward block: runs of at most `size` emitters
    that share one orientation, each in input order, the blocks ordered by
    their first emitter (so one-emitter blocks keep the input order)."""
    groups: dict = {}
    for i, ori in enumerate(orientations):
        groups.setdefault(ori.tobytes(), []).append(i)
    return sorted((np.array(g[lo:lo + size]) for g in groups.values()
                   for lo in range(0, len(g), size)), key=lambda b: b[0])


def _block_legs(table: ImagePathTable, points: np.ndarray, orientation,
                amplitude: AmplitudeMode):
    """(lengths, w, classes) of a point block: the columns of its leg
    classes that hold a nonzero weight at some point, side by side in table
    order, each (N, live); `classes` holds each class's (slice of those
    columns, its antennas: a slice if they run without a gap, else an
    index array). None if no column is live."""
    lengths, w, classes, lo = [], [], [], 0
    for L, c in _weighted_legs(table, points, amplitude, orientation):
        cols = np.flatnonzero(np.any(c, axis=0))
        n = cols.size
        if not n:
            continue
        if cols[-1] - cols[0] == n - 1:
            cols = slice(int(cols[0]), int(cols[0]) + n)
        lengths.append(L[:, cols])
        w.append(c[:, cols])
        classes.append((slice(lo, lo + n), cols))
        lo += n
    if not classes:
        return None
    return np.hstack(lengths), np.hstack(w), classes


def _to_antennas(x: np.ndarray, classes, n_ant: int) -> np.ndarray:
    """The classes of x's stacked columns summed into n_ant antenna
    columns, each added at its antennas into zeros in table order; x itself
    when one class holds every antenna."""
    if len(classes) == 1 and x.shape[-1] == n_ant:
        return x
    out = np.zeros(x.shape[:-1] + (n_ant,), dtype=np.complex128)
    for sl, cols in classes:
        out[..., cols] += x[..., sl]
    return out


def _synthesize(points: np.ndarray, orientations: np.ndarray,
                weights: np.ndarray, tables, n_ant: Sequence[int],
                kvals: np.ndarray, amplitude: AmplitudeMode,
                path_engine: str) -> np.ndarray:
    """samples[tx, rx, k] = sum over emitters n of weights[n] *
    conj(T[n, tx, k] R[n, rx, k]), (n_tx, n_rx, K) for n_ant = (n_tx,
    n_rx), where a side's leg spectrum T or R sums w exp(+j k L) over its
    leg classes: for real leg weights w, the conjugate of the
    back-projection's phasors. `tables(points, launch)` gives a block's
    [tx, rx] path tables, or [rx] alone for radiation data, whose one tx
    row has T = 1.

    A block (`_blocks`) holds up to _CHUNK emitters of one orientation, or
    one emitter under the SBR engine, which launches once per emitter. Each
    runs one eval per table and one phasor recurrence per side over the
    columns that hold a nonzero weight in the block (`_block_legs`).
    conj(weights) is folded into the first side's leg weights (rx for
    radiation data, tx for Born data) once per block, so that a sum over
    emitters is a plain sum: samples = conj(sum over n of T' R), with T'
    the folded side. The recurrence runs in row blocks of about _CIS_BLOCK
    elements, all K steps of one before the next, so that its phasors stay
    in L2. At each k, radiation data reduce the phasors over their rows,
    one sum per stacked column, and add each class's sums into a zeroed
    n_rx row at its antennas in table order (`_to_antennas`). Born data
    add each side's classes into a zeroed (rows, antennas) spectrum the
    same way and contract the emitters by one BLAS product, T'^T R, or on
    one row by their outer product. No class sum is made of a side that
    is one class over every antenna. The conjugate of the result is added
    into a (K, n_tx, n_rx) accumulator, which is returned as a transposed
    view, not copied. No (K, N, A) array is built. A one-emitter block of
    unit weight sums its classes as a per-emitter sum does, and its fold
    and outer product are exact, so it adds that emitter's data bit for
    bit.
    """
    acc = np.zeros((kvals.size,) + tuple(n_ant), dtype=np.complex128)
    block = 1 if path_engine == "sbr" else _CHUNK
    for idx in _blocks(orientations, block):
        sides = [_block_legs(table, points[idx], orientations[idx[0]],
                             amplitude)
                 for table in tables(points[idx], int(idx[0]))]
        if any(side is None for side in sides):
            continue  # a side without a leg: the block adds nothing
        lengths, w, classes = sides[0]  # the fold
        sides[0] = lengths, w * np.conj(weights[idx])[:, None], classes
        n_rows = max(1, _CIS_BLOCK // max(s[0].shape[1] for s in sides))
        for lo in range(0, idx.size, n_rows):
            rows = slice(lo, lo + n_rows)
            steps = [_phasors(kvals, L[rows], wb[rows]) for L, wb, _ in sides]
            for i, ps in enumerate(zip(*steps)):
                if len(ps) == 1:  # radiation data: rows reduced first
                    out = _to_antennas(ps[0].sum(axis=0), sides[0][2],
                                       n_ant[1])
                else:
                    t, r = (_to_antennas(p, s[2], n)
                            for p, s, n in zip(ps, sides, n_ant))
                    out = t.T * r if t.shape[0] == 1 else t.T @ r
                acc[i] += np.conj(out, out=out)
    return acc.transpose(1, 2, 0)  # a view: one sample tensor is held


def synthesize_radiation_data(sources: Sequence[DipoleSource],
                              arrays: AntennaArray, scene: Scene,
                              sweep: FrequencySweep, max_order: int = 1,
                              path_engine: str = "images",
                              sbr: Optional[SbrConfig] = None,
                              amplitude: AmplitudeMode = "phase_only",
                              ) -> MeasurementSet:
    """Multipath radiation data T[rx, k] for a set of dipole sources.

    The images engine evaluates its path table once per block of up to
    _CHUNK sources that share one orientation; the SBR engine launches once
    per source (source i seeded `sbr.rng_seed + i`), so its blocks hold one
    source each, through the same code. The samples differ from the sum of
    the sources' one-source runs by rounding alone, at most 2e-13 of the
    peak sample: a block's lengths come from one BLAS product over its
    points instead of one per point, and its sources are summed by one
    reduction. One-source blocks of unit amplitude add their source's
    samples bit for bit, so SBR data of such sources, and images-engine
    data of sources of distinct orientations, equal the per-source sum.
    """
    if not sources:
        raise EmptyInput("no sources")
    rx = arrays.rx_positions
    _check_sample_count(1, rx.shape[0], sweep.count)
    tables = _path_tables(scene, [rx], arrays.copol, max_order, path_engine,
                          sbr)
    samples = _synthesize(
        np.array([src.position for src in sources]),
        np.array([src.orientation for src in sources]),
        np.array([src.amplitude for src in sources]), tables,
        (1, rx.shape[0]), sweep.k_values, amplitude, path_engine)
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
    the polarization-sign product carried by the per-leg weights. Targets
    run in blocks as the sources of `synthesize_radiation_data` do, within
    the same 2e-13 of the per-target sum. A one-target block forms its tx x
    rx product elementwise, as the per-target sum does, so with unit
    reflectivities it adds that sum's bits; a complex reflectivity, folded
    into the tx leg weights, moves them by a few ulps.
    """
    if not targets:
        raise EmptyInput("no targets")
    tx = arrays.tx_positions
    rx = arrays.rx_positions
    if tx.shape[0] == 0 or rx.shape[0] == 0:
        raise EmptyInput("empty antenna array")
    _check_sample_count(tx.shape[0], rx.shape[0], sweep.count)
    tables = _path_tables(scene, [tx, rx], arrays.copol, max_order,
                          path_engine, sbr)
    samples = _synthesize(
        np.array([tgt.position for tgt in targets]),
        np.tile(arrays.copol, (len(targets), 1)),
        np.array([tgt.reflectivity for tgt in targets]), tables,
        (tx.shape[0], rx.shape[0]), sweep.k_values, amplitude, path_engine)
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
