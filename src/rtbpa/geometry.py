"""Planar PEC scene geometry: facets, intersection, occlusion, mirror transforms.

All positions are in meters. Facets are perfect electric conductors; they both
reflect rays and block line-of-sight segments. Every query tests the facets
linearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

# Self-intersection guard along a ray/segment, meters.
EPS_SELF = 1e-7
# |d.n| at or below this counts as grazing incidence: SBR drops the ray.
GRAZING_TOL = 1e-9
# Interior margin for occlusion tests: a segment grazing a facet edge within
# this distance does not block.
EDGE_MARGIN = 1e-7

_MIN_AREA = 1e-12


def as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3)
    return a


def unit(v) -> np.ndarray:
    a = as_vec3(v)
    n = float(np.linalg.norm(a))
    if n < 1e-300:
        raise ValueError("cannot normalize zero-length vector")
    return a / n


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the trailing axis (faster than np.linalg.norm)."""
    return np.sqrt(np.einsum("...i,...i->...", v, v))


@dataclass(frozen=True, eq=False)
class Facet:
    """One PEC surface element: triangle, finite rectangle, or infinite plane."""

    id: int
    kind: str  # "triangle" | "rectangle" | "plane"
    point: np.ndarray  # reference point on the supporting plane
    normal: np.ndarray  # unit normal
    vertices: Optional[np.ndarray] = None  # (3,3) for triangles
    edge_u: Optional[np.ndarray] = None  # rectangle edges from `point`
    edge_v: Optional[np.ndarray] = None
    # Derived quantities cached at construction (hot-path use).
    frame: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("triangle", "rectangle", "plane"):
            raise ValueError(f"facet {self.id} has unknown kind "
                             f"{self.kind!r}")

    @staticmethod
    def triangle(fid: int, v0, v1, v2) -> "Facet":
        verts = np.array([as_vec3(v0), as_vec3(v1), as_vec3(v2)], dtype=float)
        e1 = verts[1] - verts[0]
        e2 = verts[2] - verts[0]
        cross = np.cross(e1, e2)
        area = 0.5 * float(np.linalg.norm(cross))
        if area <= _MIN_AREA:
            raise ValueError(f"degenerate triangle (area {area:g} m^2)")
        d00 = float(e1 @ e1)
        d01 = float(e1 @ e2)
        d11 = float(e2 @ e2)
        frame = (e1, e2, d00, d01, d11, 1.0 / (d00 * d11 - d01 * d01),
                 max(np.sqrt(d00), np.sqrt(d11)))
        return Facet(id=int(fid), kind="triangle", point=verts[0],
                     normal=cross / np.linalg.norm(cross), vertices=verts,
                     frame=frame)

    @staticmethod
    def rectangle(fid: int, origin, edge_u, edge_v) -> "Facet":
        o = as_vec3(origin)
        u = as_vec3(edge_u)
        v = as_vec3(edge_v)
        cross = np.cross(u, v)
        area = float(np.linalg.norm(cross))
        if area <= _MIN_AREA:
            raise ValueError(f"degenerate rectangle (area {area:g} m^2)")
        ulen = float(np.linalg.norm(u))
        vlen = float(np.linalg.norm(v))
        if abs(float(np.dot(u, v))) > 1e-9 * ulen * vlen:
            raise ValueError("rectangle edges must be orthogonal")
        frame = (u / ulen, v / vlen, ulen, vlen)
        return Facet(id=int(fid), kind="rectangle", point=o,
                     normal=cross / area, edge_u=u, edge_v=v, frame=frame)

    @staticmethod
    def plane(fid: int, point, normal) -> "Facet":
        return Facet(id=int(fid), kind="plane", point=as_vec3(point),
                     normal=unit(normal))

    @property
    def is_finite(self) -> bool:
        return self.kind != "plane"

    def contains(self, pts: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """In-extent test for points known to lie on the supporting plane.

        `margin` > 0 requires the point to be interior by that distance (meters);
        a small negative margin makes the test edge-inclusive.
        """
        pts = np.asarray(pts, dtype=float)
        if self.kind == "plane":
            return np.ones(pts.shape[:-1], dtype=bool)
        rel = pts - self.point
        if self.kind == "rectangle":
            u_hat, v_hat, ulen, vlen = self.frame
            cu = rel @ u_hat
            cv = rel @ v_hat
            return ((cu >= margin) & (cu <= ulen - margin)
                    & (cv >= margin) & (cv <= vlen - margin))
        # Triangle: barycentric test with the margin converted to a relative
        # tolerance through the longest edge.
        e1, e2, d00, d01, d11, inv_denom, scale = self.frame
        d20 = rel @ e1
        d21 = rel @ e2
        bv = (d11 * d20 - d01 * d21) * inv_denom
        bw = (d00 * d21 - d01 * d20) * inv_denom
        bu = 1.0 - bv - bw
        eps = margin / scale
        return (bu >= eps) & (bv >= eps) & (bw >= eps)


def mirror_points(pts: np.ndarray, plane: Facet) -> np.ndarray:
    """Reflection of the points `pts` (trailing axis of 3) across the
    facet's supporting plane."""
    pts = np.asarray(pts, dtype=float)
    n = plane.normal
    dist = (pts - plane.point) @ n
    return pts - 2.0 * dist[..., None] * n


class Scene:
    """Immutable collection of PEC facets with unique surface ids.

    `occluder_ids` lists facets treated as opaque blockers in occlusion tests
    (by default all of them: a thin PEC plate both reflects and blocks).
    """

    def __init__(self, facets: Iterable[Facet],
                 occluder_ids: Optional[Iterable[int]] = None):
        facets = tuple(facets)
        ids = [f.id for f in facets]
        if len(set(ids)) != len(ids):
            raise ValueError("facet ids must be unique within a scene")
        self.facets = tuple(f for f in facets if f.is_finite)
        self.infinite_planes = tuple(f for f in facets if not f.is_finite)
        self.all_facets = self.facets + self.infinite_planes
        if occluder_ids is None:
            occluder_ids = ids
        unknown = set(occluder_ids) - set(ids)
        if unknown:
            raise ValueError(f"occluder ids {sorted(unknown)} not in scene")
        self.occluder_ids = frozenset(int(i) for i in occluder_ids)
        self.by_id = {f.id: f for f in self.all_facets}

    def __repr__(self) -> str:
        return (f"Scene({len(self.facets)} finite facets, "
                f"{len(self.infinite_planes)} infinite planes)")


def _ray_plane_t(facet: Facet, o: np.ndarray, d: np.ndarray) -> float:
    denom = float(np.dot(d, facet.normal))
    if abs(denom) < 1e-15:
        return np.inf
    return float(np.dot(facet.point - o, facet.normal)) / denom


def _ray_facet_t(facet: Facet, o: np.ndarray, d: np.ndarray,
                 t_max: float) -> float:
    """Nearest-hit parameter for a single ray against one facet (inf on miss).

    Edge-inclusive, so shared triangle edges do not leak.
    """
    if facet.kind == "triangle":
        v0, v1, v2 = facet.vertices
        e1 = v1 - v0
        e2 = v2 - v0
        pvec = np.cross(d, e2)
        det = float(np.dot(e1, pvec))
        if abs(det) < 1e-15:
            return np.inf
        inv = 1.0 / det
        tvec = o - v0
        u = float(np.dot(tvec, pvec)) * inv
        if u < -1e-12 or u > 1.0 + 1e-12:
            return np.inf
        qvec = np.cross(tvec, e1)
        v = float(np.dot(d, qvec)) * inv
        if v < -1e-12 or u + v > 1.0 + 1e-12:
            return np.inf
        t = float(np.dot(e2, qvec)) * inv
        return t if EPS_SELF < t < t_max else np.inf
    t = _ray_plane_t(facet, o, d)
    if not (EPS_SELF < t < t_max):
        return np.inf
    if facet.kind == "plane":
        return t
    x = o + t * d
    return t if bool(facet.contains(x, margin=-1e-12)) else np.inf


def intersect(origin, direction, scene: Scene):
    """(t, facet_index) of the nearest hit beyond EPS_SELF of one ray,
    (inf, -1) on a miss, with the index into `scene.all_facets`; the scalar
    oracle that the batched `rays_nearest_hit` is tested against."""
    o = as_vec3(origin)
    d = as_vec3(direction)
    best_t, best_i = np.inf, -1
    for i, f in enumerate(scene.all_facets):
        t = _ray_facet_t(f, o, d, best_t)
        if t < best_t:
            best_t, best_i = t, i
    return best_t, best_i


def _segment_cross_mask(facet: Facet, a: np.ndarray, b: np.ndarray,
                        margin: float, seg=None, seg_len=None) -> np.ndarray:
    """True where the open segment a->b crosses the facet.

    `a`, `b` broadcast against each other with a trailing axis of 3. Endpoint
    epsilon EPS_SELF (meters) is applied along the segment; `margin` is the
    lateral interior requirement for finite facets. `seg`/`seg_len` may be
    precomputed by callers testing several facets on the same segments.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = facet.normal
    sa = (a - facet.point) @ n
    sb = (b - facet.point) @ n
    crossing = (sa * sb) < 0.0
    if not np.any(crossing):
        return np.zeros(np.broadcast(sa, sb).shape, dtype=bool)
    denom = sa - sb
    with np.errstate(divide="ignore", invalid="ignore"):
        t_rel = np.where(crossing, sa / np.where(denom == 0.0, 1.0, denom), 0.0)
    if seg is None:
        seg = b - a
        seg_len = _norms(seg)
    t_m = t_rel * seg_len
    crossing = crossing & (t_m > EPS_SELF) & (t_m < seg_len - EPS_SELF)
    if facet.kind == "plane":
        return crossing
    x = a + t_rel[..., None] * seg
    return crossing & facet.contains(x, margin=margin)


def segments_blocked(a, b, scene: Scene,
                     ignore: Sequence[int] = ()) -> np.ndarray:
    """Vectorized occlusion: True where any occluder facet crosses segment a->b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = np.broadcast(a[..., 0], b[..., 0]).shape
    blocked = np.zeros(shape, dtype=bool)
    ignore = set(int(i) for i in ignore)
    seg = None
    seg_len = None
    for f in scene.all_facets:
        if f.id in ignore or f.id not in scene.occluder_ids:
            continue
        if seg is None:
            seg = b - a
            seg_len = _norms(seg)
        blocked |= _segment_cross_mask(f, a, b, margin=EDGE_MARGIN,
                                       seg=seg, seg_len=seg_len)
        if blocked.all():
            break
    return blocked


def rays_nearest_hit(origins: np.ndarray, dirs: np.ndarray, scene: Scene):
    """Batch nearest-hit query beyond EPS_SELF for N rays against the full
    scene.

    Returns (t, facet_index) with t = inf and index = -1 on miss; the index
    refers to `scene.all_facets`.
    """
    origins = np.asarray(origins, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    n = origins.shape[0]
    best_t = np.full(n, np.inf)
    best_idx = np.full(n, -1, dtype=np.int64)
    for fi, f in enumerate(scene.all_facets):
        if f.kind == "triangle":
            v0, v1, v2 = f.vertices
            e1 = v1 - v0
            e2 = v2 - v0
            pvec = np.cross(dirs, e2)
            det = pvec @ e1
            ok = np.abs(det) > 1e-15
            inv = np.where(ok, 1.0 / np.where(det == 0.0, 1.0, det), 0.0)
            tvec = origins - v0
            u = np.einsum("ij,ij->i", tvec, pvec) * inv
            qvec = np.cross(tvec, e1)
            v = np.einsum("ij,ij->i", dirs, qvec) * inv
            t = (qvec @ e2) * inv
            ok &= (u >= -1e-12) & (u <= 1.0 + 1e-12)
            ok &= (v >= -1e-12) & (u + v <= 1.0 + 1e-12)
        else:
            denom = dirs @ f.normal
            ok = np.abs(denom) > 1e-15
            t = np.where(ok, ((f.point - origins) @ f.normal)
                         / np.where(denom == 0.0, 1.0, denom), np.inf)
            if f.kind == "rectangle":
                x = origins + t[:, None] * dirs
                ok &= f.contains(x, margin=-1e-12)
        ok &= (t > EPS_SELF) & (t < best_t)
        best_t = np.where(ok, t, best_t)
        best_idx = np.where(ok, fi, best_idx)
    return best_t, best_idx
