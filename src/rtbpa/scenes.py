"""Built-in measurement scenarios and the scenario file schema.

All builders are deterministic. The occluding plate of the non-line-of-sight
scenes is not hard-coded: its position along the standoff axis is chosen to
maximize the clearance between the band of direct-segment crossings (which the
plate must cover) and the band of ground-bounce crossings (which must pass
under it), and its extent is then sized to the direct band plus a margin.
Each hidden scene's claims are checked through the order-1 `ImagePathTable`
that images it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from .errors import ScenarioError, UnknownReference
from .fields import (AntennaArray, DipoleSource, FrequencySweep,
                     PointScatterer, _check_sample_count)
from .geometry import Facet, Scene, segments_blocked
from .imaging import ImageGrid
from .propagation import ImagePathTable

SCHEMA_VERSION = 1

GROUND_ID = 1
PLATE_ID = 2
WALL_ID = 3
LEFT_PLATE_ID = 1
RIGHT_PLATE_ID = 2
# The co-pol axis of the hidden scenes: their dipoles point along x.
HIDDEN_COPOL = (1.0, 0.0, 0.0)


@dataclass
class Scenario:
    """A complete simulation setup: scene, emitters, antennas, sweep, grid."""

    name: str
    scene: Scene
    sources: List[DipoleSource]
    targets: List[PointScatterer]
    arrays: AntennaArray
    sweep: FrequencySweep
    grid: ImageGrid

    def __post_init__(self):
        if bool(self.sources) == bool(self.targets):
            raise ValueError("exactly one of sources/targets must be set")
        pos = np.vstack([self.arrays.tx_positions, self.arrays.rx_positions])
        first = None  # (antenna index, facet) of the first antenna on a facet
        for f in self.scene.all_facets:
            on = np.flatnonzero((np.abs((pos - f.point) @ f.normal) < 1e-9)
                                & f.contains(pos, margin=-1e-9))
            if on.size and (first is None or on[0] < first[0]):
                first = (on[0], f)
        if first is not None:
            raise ValueError(f"antenna at {pos[first[0]]} lies on facet "
                             f"{first[1].id}")

    @property
    def mode(self) -> str:
        return "radiation" if self.sources else "scattering"


def _default_sweep() -> FrequencySweep:
    return FrequencySweep(f_start=18e9, f_stop=20e9, step=100e6)


def _rx_plane(y: float, x_lo: float, x_hi: float, z_lo: float, z_hi: float,
              nx: int, nz: int) -> np.ndarray:
    xs = np.linspace(x_lo, x_hi, nx)
    zs = np.linspace(z_lo, z_hi, nz)
    gx, gz = np.meshgrid(xs, zs, indexing="ij")
    out = np.empty((nx * nz, 3))
    out[:, 0] = gx.ravel()
    out[:, 1] = y
    out[:, 2] = gz.ravel()
    return out


def _solve_occluder(emitters: np.ndarray, rx: np.ndarray, y_front: float,
                    y_rx: float, margin: float = 0.02,
                    min_width: float = 1.4,
                    min_clearance: float = 0.04) -> Facet:
    """Place a vertical blocking plate between the emitters and the rx plane.

    Every direct emitter->rx segment must cross the plate while every
    ground-bounce path passes under its lower edge. Because the horizontal
    track of a bounce path is the same straight line as the direct segment,
    only the crossing heights differ, which reduces the problem to a 1-D
    clearance search along the standoff axis.
    """
    emitters = np.asarray(emitters, float).reshape(-1, 3)
    rx = np.asarray(rx, float).reshape(-1, 3)
    # The crossing heights depend on (y, z) only, and a min or max over
    # repeated pairs equals the one over the distinct pairs, so the search
    # runs on the distinct rows: 7 x 34 pairs instead of 37 x 1360 on the
    # logo scene. They are taken with a set, since np.unique imports
    # numpy.ma on its first call, which costs more than the search.
    e_yz = np.array(list(set(map(tuple, emitters[:, 1:].tolist()))))
    r_yz = np.array(list(set(map(tuple, rx[:, 1:].tolist()))))
    ye = e_yz[:, 0][:, None]
    ze = e_yz[:, 1][:, None]
    yr = r_yz[:, 0][None, :]
    zr = r_yz[:, 1][None, :]
    fq = ze / (ze + zr)  # ground-bounce point fraction along the track

    ys = np.linspace(y_front + 0.03, y_rx - 0.03, 121)
    f = (ys[:, None, None] - ye) / (yr - ye)
    direct_z = ze + f * (zr - ze)
    with np.errstate(invalid="ignore", divide="ignore"):
        down = ze * (1.0 - f / fq)
        up = zr * (f - fq) / (1.0 - fq)
    bounce_z = np.where(f <= fq, down, up)
    clearances = direct_z.min(axis=(1, 2)) - bounce_z.max(axis=(1, 2))
    # argmax keeps the first of equal clearances, the one nearest y_front.
    best = int(np.argmax(clearances))
    clearance = float(clearances[best])
    yp = ys[best]
    direct_z = direct_z[best]
    if clearance < min_clearance + 2.0 * margin:
        raise ScenarioError(
            f"cannot place an occluder: best clearance {clearance:.3f} m")
    z_lo = float(direct_z.min()) - margin
    z_hi = float(direct_z.max()) + margin
    # The x extent needs every pair, at the chosen y only.
    xe = emitters[:, 0][:, None]
    ye = emitters[:, 1][:, None]
    f = (yp - ye) / (rx[:, 1][None, :] - ye)
    x_cross = xe + f * (rx[:, 0][None, :] - xe)
    x_lo = float(x_cross.min()) - margin
    x_hi = float(x_cross.max()) + margin
    if x_hi - x_lo < min_width:
        pad = 0.5 * (min_width - (x_hi - x_lo))
        x_lo -= pad
        x_hi += pad
    return Facet.rectangle(PLATE_ID, origin=(x_lo, yp, z_lo),
                           edge_u=(x_hi - x_lo, 0.0, 0.0),
                           edge_v=(0.0, 0.0, z_hi - z_lo))


def _assert_hidden(scene: Scene, emitters: np.ndarray, rx: np.ndarray,
                   copol) -> None:
    """Check the construction claims: no LOS, one ground bounce per pair.
    Both come from one eval; it yields only sequences with a valid leg, on
    the antenna columns that can hold one."""
    table = ImagePathTable(scene, rx, 1, copol)
    valid = {seq: (ok, cols) for seq, _, _, _, ok, cols
             in table.eval(emitters)}
    if () in valid:
        raise ScenarioError("occluder does not block every direct segment")
    ground = valid.get((GROUND_ID,))
    if ground is None or len(ground[1]) < len(rx) or not ground[0].all():
        raise ScenarioError("a ground-bounce path is blocked or invalid")


def _behind_plate(emitters: np.ndarray, rx: np.ndarray, y_front: float,
                  y_rx: float, min_width: float = 1.4, extra=()) -> Scene:
    """The PEC ground, the plate that hides `emitters` from `rx` and the
    `extra` facets, checked by `_assert_hidden`."""
    ground = Facet.plane(GROUND_ID, point=(0, 0, 0), normal=(0, 0, 1))
    plate = _solve_occluder(emitters, rx, y_front, y_rx, min_width=min_width)
    scene = Scene([ground, plate, *extra])
    _assert_hidden(scene, emitters, rx, HIDDEN_COPOL)
    return scene


_LOGO_COLUMNS = {
    # (column, row) cells on a 21 x 7 raster, 0.05 m pitch: 37 points total.
    "T": [(c, 6) for c in range(5)] + [(2, r) for r in range(1, 6)],
    "U": [(8, r) for r in range(1, 6)] + [(12, r) for r in range(1, 6)]
         + [(9, 0), (11, 0)],
    "M": [(16, r) for r in range(7)] + [(20, r) for r in range(7)]
         + [(18, 5)],
}


def logo_points() -> np.ndarray:
    """37 stroke points spelling T-U-M in a 1.0 m x 0.3 m box at z = 0.7."""
    cells = _LOGO_COLUMNS["T"] + _LOGO_COLUMNS["U"] + _LOGO_COLUMNS["M"]
    pts = np.array([(-0.5 + c * 0.05, -0.3 + r * 0.05, 0.7)
                    for c, r in cells])
    assert pts.shape[0] == 37
    return pts


def _letters_grid() -> ImageGrid:
    return ImageGrid.planar(center=(0.0, -0.15, 0.7), axis_i=(1, 0, 0),
                            axis_j=(0, 1, 0), spacing_ij=(0.01, 0.01),
                            dims_ij=(128, 128))


def scenario_tum_logo(n_rx_x: int = 40, n_rx_y: int = 34) -> Scenario:
    """37 co-polarized dipoles on a letter raster, hidden behind a PEC plate.

    The dipoles sit 0.7 m above an infinite PEC ground plane; the vertical
    measurement plane (1.2 m x 1.0 m) stands 1.0 m from the source region and
    the plate blocks every direct source->rx segment while all ground-bounce
    paths pass under it.
    """
    if n_rx_x * n_rx_y < 100:
        raise ValueError("need at least 100 rx positions")
    sources = [DipoleSource(position=p, orientation=(1, 0, 0))
               for p in logo_points()]
    rx = _rx_plane(y=1.0, x_lo=-0.6, x_hi=0.6, z_lo=0.2, z_hi=1.2,
                   nx=n_rx_x, nz=n_rx_y)
    scene = _behind_plate([s.position for s in sources], rx, y_front=0.0,
                          y_rx=1.0)
    arrays = AntennaArray(tx_positions=np.zeros((0, 3)), rx_positions=rx,
                          copol=HIDDEN_COPOL)
    return Scenario(name="tum_logo", scene=scene, sources=sources, targets=[],
                    arrays=arrays, sweep=_default_sweep(),
                    grid=_letters_grid())


def scenario_hidden_dipole(n_rx_x: int = 40, n_rx_y: int = 34,
                           side_wall: bool = False) -> Scenario:
    """Single hidden dipole over the PEC ground with its LOS blocked.

    With `side_wall` a vertical PEC wall is added beside the scene; its
    bounces keep the co-pol component (normal incidence on the polarization
    axis), giving the data a second wavefront class with even parity next to
    the odd-parity ground bounce.
    """
    if n_rx_x * n_rx_y < 100:
        raise ValueError("need at least 100 rx positions")
    grid = _letters_grid()
    position = grid.voxel_center(74, 59)  # on-grid truth: (0.105, -0.195, 0.7)
    sources = [DipoleSource(position=position, orientation=(1, 0, 0))]
    rx = _rx_plane(y=1.0, x_lo=-0.6, x_hi=0.6, z_lo=0.2, z_hi=1.2,
                   nx=n_rx_x, nz=n_rx_y)
    wall = Facet.rectangle(WALL_ID, origin=(0.8, -0.5, 0.2),
                           edge_u=(0.0, 1.45, 0.0), edge_v=(0.0, 0.0, 1.0))
    scene = _behind_plate(position, rx, y_front=float(position[1]), y_rx=1.0,
                          min_width=0.0 if side_wall else 1.4,
                          extra=[wall] if side_wall else ())
    arrays = AntennaArray(tx_positions=np.zeros((0, 3)), rx_positions=rx,
                          copol=HIDDEN_COPOL)
    name = "hidden_dipole_wall" if side_wall else "hidden_dipole"
    return Scenario(name=name, scene=scene, sources=sources, targets=[],
                    arrays=arrays, sweep=_default_sweep(), grid=grid)


def scenario_three_spheres(n_rx_x: int = 40, n_rx_y: int = 34) -> Scenario:
    """Three unit point scatterers in a line along x, illuminated by one dipole.

    Target centers (0, -0.25, 0.7), (0.2, -0.25, 0.7), (0.4, -0.25, 0.7) m and
    the tx dipole at (0.2, 0.4, 0.7) m; ground plane, blocking plate, and sweep
    follow the hidden-source construction.
    """
    centers = np.array([[0.0, -0.25, 0.7], [0.2, -0.25, 0.7],
                        [0.4, -0.25, 0.7]])
    targets = [PointScatterer(position=c, reflectivity=1.0 + 0.0j)
               for c in centers]
    tx = np.array([[0.2, 0.4, 0.7]])
    rx = _rx_plane(y=1.4, x_lo=-0.4, x_hi=0.8, z_lo=0.2, z_hi=1.2,
                   nx=n_rx_x, nz=n_rx_y)
    scene = _behind_plate(centers, rx, y_front=float(tx[0, 1]), y_rx=1.4)
    grid = ImageGrid.planar(center=(0.2, -0.25, 0.7), axis_i=(1, 0, 0),
                            axis_j=(0, 1, 0), spacing_ij=(0.01, 0.01),
                            dims_ij=(129, 129))
    arrays = AntennaArray(tx_positions=tx, rx_positions=rx, copol=HIDDEN_COPOL)
    return Scenario(name="three_spheres", scene=scene, sources=[],
                    targets=targets, arrays=arrays, sweep=_default_sweep(),
                    grid=grid)


def scenario_parallel_plates(plate_gap: float = 0.6,
                             plate_size: float = 1.0,
                             n_rx_x: int = 24, n_rx_y: int = 20) -> Scenario:
    """Single vertical dipole between two parallel PEC plates, open LOS.

    Plate reflections mirror the measurement plane sideways, so higher
    reflection orders widen the effective aperture along x.
    """
    if plate_gap <= 0:
        raise ValueError("plate_gap must be > 0")
    half = 0.5 * plate_gap
    dipole_y = -0.3
    y_lo = dipole_y - 0.3 * plate_size
    plates = [
        Facet.rectangle(LEFT_PLATE_ID, origin=(-half, y_lo, 0.2),
                        edge_u=(0.0, plate_size, 0.0),
                        edge_v=(0.0, 0.0, plate_size)),
        Facet.rectangle(RIGHT_PLATE_ID, origin=(half, y_lo, 0.2),
                        edge_u=(0.0, plate_size, 0.0),
                        edge_v=(0.0, 0.0, plate_size)),
    ]
    scene = Scene(plates)
    sources = [DipoleSource(position=(0.0, dipole_y, 0.7),
                            orientation=(0, 0, 1))]
    rx = _rx_plane(y=1.0, x_lo=-0.5, x_hi=0.5, z_lo=0.2, z_hi=1.2,
                   nx=n_rx_x, nz=n_rx_y)
    copol = np.array([0.0, 0.0, 1.0])
    blocked = segments_blocked(sources[0].position[None, None, :],
                               rx[None, :, :], scene)
    if blocked.any():
        raise ScenarioError("parallel-plate LOS must be unobstructed")
    grid = ImageGrid.planar(center=(0.0, dipole_y, 0.7), axis_i=(1, 0, 0),
                            axis_j=(0, 1, 0), spacing_ij=(0.0015, 0.01),
                            dims_ij=(161, 25))
    arrays = AntennaArray(tx_positions=np.zeros((0, 3)), rx_positions=rx,
                          copol=copol)
    return Scenario(name="parallel_plates", scene=scene, sources=sources,
                    targets=[], arrays=arrays, sweep=_default_sweep(),
                    grid=grid)


SCENARIOS = {
    "tum_logo": scenario_tum_logo,
    "three_spheres": scenario_three_spheres,
    "parallel_plates": scenario_parallel_plates,
    "hidden_dipole": scenario_hidden_dipole,
}


def get_scenario(ref: str) -> Scenario:
    """Resolve a scenario by built-in name or by file path."""
    if ref in SCENARIOS:
        return SCENARIOS[ref]()
    path = Path(ref)
    if path.exists():
        return load_scenario(path)
    raise UnknownReference(f"unknown scenario {ref!r}")


# ---------------------------------------------------------------------------
# Scenario file schema (strict JSON)


def _vec_list(v) -> list:
    return [float(x) for x in np.asarray(v, float).reshape(-1)]


def _facet_to_doc(f: Facet) -> dict:
    doc = {"id": int(f.id), "kind": f.kind}
    if f.kind == "triangle":
        doc["vertices"] = [_vec_list(v) for v in f.vertices]
    elif f.kind == "rectangle":
        doc["origin"] = _vec_list(f.point)
        doc["edge_u"] = _vec_list(f.edge_u)
        doc["edge_v"] = _vec_list(f.edge_v)
    else:
        doc["point"] = _vec_list(f.point)
        doc["normal"] = _vec_list(f.normal)
    return doc


def scenario_to_doc(s: Scenario) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": s.name,
        "mode": s.mode,
        "scene": {
            "facets": [_facet_to_doc(f) for f in s.scene.all_facets],
            "occluder_ids": sorted(int(i) for i in s.scene.occluder_ids),
        },
        "arrays": {
            "tx_positions": [_vec_list(p) for p in s.arrays.tx_positions],
            "rx_positions": [_vec_list(p) for p in s.arrays.rx_positions],
            "copol": _vec_list(s.arrays.copol),
        },
        "sweep": {
            "f_start_hz": float(s.sweep.f_start),
            "f_stop_hz": float(s.sweep.f_stop),
            "step_hz": float(s.sweep.step),
        },
        "grid": {
            "origin": _vec_list(s.grid.origin),
            "axes": [_vec_list(a) for a in s.grid.axes],
            "spacing": _vec_list(s.grid.spacing),
            "dims": [int(d) for d in s.grid.dims],
        },
    }
    if s.sources:
        doc["sources"] = [{
            "position": _vec_list(src.position),
            "orientation": _vec_list(src.orientation),
            "amplitude": [src.amplitude.real, src.amplitude.imag],
        } for src in s.sources]
    else:
        doc["targets"] = [{
            "position": _vec_list(t.position),
            "reflectivity": [t.reflectivity.real, t.reflectivity.imag],
        } for t in s.targets]
    return doc


def scenario_text(s: Scenario) -> str:
    return json.dumps(scenario_to_doc(s), sort_keys=True, indent=2) + "\n"


def save_scenario(s: Scenario, path) -> None:
    Path(path).write_text(scenario_text(s))


class _Reader:
    """Strict schema walker producing errors that name the offending field."""

    def __init__(self, doc, where="scenario"):
        if not isinstance(doc, dict):
            raise ScenarioError(f"field '{where}': expected an object")
        self.doc = doc
        self.where = where
        self.seen = set()

    def get(self, key, kind):
        self.seen.add(key)
        if key not in self.doc:
            raise ScenarioError(f"missing required field "
                                f"'{self.where}.{key}'")
        val = self.doc[key]
        if kind is float and type(val) is int:
            val = float(val)
        # JSON true/false load as bool, a subclass of int.
        if not isinstance(val, kind) or isinstance(val, bool):
            raise ScenarioError(
                f"field '{self.where}.{key}': expected {kind.__name__}, "
                f"got {type(val).__name__}")
        return val

    def sub(self, key) -> "_Reader":
        return _Reader(self.get(key, dict), where=f"{self.where}.{key}")

    def finish(self):
        extra = set(self.doc) - self.seen
        if extra:
            raise ScenarioError(
                f"unknown field '{self.where}.{sorted(extra)[0]}' "
                f"(strict schema)")


def _vec(raw, where: str, length=3) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != length or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in raw):
        raise ScenarioError(f"field '{where}': expected {length} numbers")
    return np.array([float(x) for x in raw])


def _read_vec(r: _Reader, key: str, length=3) -> np.ndarray:
    return _vec(r.get(key, list), f"{r.where}.{key}", length)


def _read_vecs(r: _Reader, key: str, count=None) -> np.ndarray:
    """A list of 3-vectors (`count` of them, if given) as an (N, 3) array."""
    raw = r.get(key, list)
    if count is not None and len(raw) != count:
        raise ScenarioError(f"field '{r.where}.{key}': expected {count} "
                            f"vectors")
    return np.array([_vec(v, f"{r.where}.{key}[{i}]")
                     for i, v in enumerate(raw)]).reshape(-1, 3)


def _read_ints(r: _Reader, key: str, count=None) -> list:
    raw = r.get(key, list)
    if (count is not None and len(raw) != count) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in raw):
        raise ScenarioError(f"field '{r.where}.{key}': expected "
                            f"{count or 'only'} integers")
    return raw


def _read_complex(r: _Reader, key: str) -> complex:
    raw = _read_vec(r, key, length=2)
    return complex(raw[0], raw[1])


def _facet_from_doc(doc, where) -> Facet:
    r = _Reader(doc, where)
    fid = r.get("id", int)
    kind = r.get("kind", str)
    try:
        if kind == "triangle":
            facet = Facet.triangle(fid, *_read_vecs(r, "vertices", 3))
        elif kind == "rectangle":
            facet = Facet.rectangle(fid, _read_vec(r, "origin"),
                                    _read_vec(r, "edge_u"),
                                    _read_vec(r, "edge_v"))
        elif kind == "plane":
            facet = Facet.plane(fid, _read_vec(r, "point"),
                                _read_vec(r, "normal"))
        else:
            raise ScenarioError(f"field '{where}.kind': unknown kind {kind!r}")
    except ValueError as exc:
        raise ScenarioError(f"field '{where}': {exc}") from exc
    r.finish()
    return facet


def _finite_number(token: str) -> float:
    """JSON number hook: strict JSON has no NaN or Infinity token, and a
    literal beyond the double range would parse as an infinity."""
    value = float(token)
    if not math.isfinite(value):
        raise ScenarioError(f"non-finite number {token!r} (strict JSON)")
    return value


def load_scenario(path) -> Scenario:
    """Read a scenario file; any fault of its content raises ScenarioError."""
    try:
        return _scenario_from_doc(json.loads(
            Path(path).read_text(), parse_constant=_finite_number,
            parse_float=_finite_number))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column "
                            f"{exc.colno}: {exc.msg}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _scenario_from_doc(doc) -> Scenario:
    r = _Reader(doc)
    version = r.get("schema_version", int)
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"field 'scenario.schema_version': unsupported "
                            f"version {version}")
    name = r.get("name", str)
    mode = r.get("mode", str)
    if mode not in ("radiation", "scattering"):
        raise ScenarioError(f"field 'scenario.mode': expected 'radiation' or "
                            f"'scattering', got {mode!r}")
    rs = r.sub("scene")
    facet_docs = rs.get("facets", list)
    facets = [_facet_from_doc(d, f"scenario.scene.facets[{i}]")
              for i, d in enumerate(facet_docs)]
    occ = _read_ints(rs, "occluder_ids")
    rs.finish()
    scene = Scene(facets, occluder_ids=occ)

    ra = r.sub("arrays")
    tx = _read_vecs(ra, "tx_positions")
    rx = _read_vecs(ra, "rx_positions")
    copol = _read_vec(ra, "copol")
    ra.finish()
    if rx.shape[0] == 0:
        raise ScenarioError(f"field '{ra.where}.rx_positions': no antenna")
    if mode == "scattering" and tx.shape[0] == 0:
        raise ScenarioError(f"field '{ra.where}.tx_positions': no antenna")

    rw = r.sub("sweep")
    sweep = FrequencySweep(f_start=rw.get("f_start_hz", float),
                           f_stop=rw.get("f_stop_hz", float),
                           step=rw.get("step_hz", float))
    rw.finish()
    _check_sample_count(tx.shape[0] if mode == "scattering" else 1,
                        rx.shape[0], sweep.count)

    rg = r.sub("grid")
    grid = ImageGrid(origin=_read_vec(rg, "origin"),
                     axes=_read_vecs(rg, "axes", 3),
                     spacing=_read_vec(rg, "spacing"),
                     dims=_read_ints(rg, "dims", 3))
    rg.finish()

    sources: List[DipoleSource] = []
    targets: List[PointScatterer] = []
    if mode == "radiation":
        docs = r.get("sources", list)
        for i, d in enumerate(docs):
            rr = _Reader(d, f"scenario.sources[{i}]")
            sources.append(DipoleSource(position=_read_vec(rr, "position"),
                                        orientation=_read_vec(rr,
                                                              "orientation"),
                                        amplitude=_read_complex(rr,
                                                                "amplitude")))
            rr.finish()
    else:
        docs = r.get("targets", list)
        for i, d in enumerate(docs):
            rr = _Reader(d, f"scenario.targets[{i}]")
            targets.append(PointScatterer(
                position=_read_vec(rr, "position"),
                reflectivity=_read_complex(rr, "reflectivity")))
            rr.finish()
    r.finish()
    arrays = AntennaArray(tx_positions=tx, rx_positions=rx, copol=copol)
    return Scenario(name=name, scene=scene, sources=sources, targets=targets,
                    arrays=arrays, sweep=sweep, grid=grid)
