"""Geometrical-optics propagation paths between image-domain points and antennas.

Two engines find the same reflector sequences on all-planar scenes: the exact
image method enumerates every admissible sequence, and a stochastic
shooting-and-bouncing-rays tracer keeps the sequences its rays carry to each
antenna. Either way the exact specular path of a sequence is computed by the
image method: one path at a time by `_trace_sequence`, or for whole voxel
blocks by `ImagePathTable`, which is also the only place that transports the
polarization through the PEC bounces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import NonPlanarReflector
from .geometry import (EDGE_MARGIN, EPS_SELF, Scene, as_vec3,
                       mirror_point, mirror_points, rays_nearest_hit,
                       segments_blocked, unit)

# Paths whose normalized co-pol projection falls below this are discarded.
CROSS_POL_THRESHOLD = 1e-3
# Sequence count grows as ~facets**order; deeper orders are refused.
MAX_ORDER = 5

_PLANAR_KINDS = {"triangle", "rectangle", "plane"}


def path_hash(interaction_sequence: Sequence[int]) -> int:
    """Deterministic, order-sensitive 64-bit hash of a surface-id sequence."""
    seq = tuple(int(s) for s in interaction_sequence)
    if not seq:
        return 0
    h = hashlib.blake2b(digest_size=8)
    for s in seq:
        h.update(s.to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True, eq=False)
class PropagationPath:
    """One GO leg between an image-domain point and an antenna."""

    endpoint_a: np.ndarray  # image-domain point
    endpoint_b: np.ndarray  # antenna position
    vertices: np.ndarray  # (m, 3) bounce points, possibly empty
    interaction_sequence: Tuple[int, ...]
    total_length: float
    hash: int = 0

    @property
    def order(self) -> int:
        return len(self.interaction_sequence)

    def points(self) -> np.ndarray:
        """Full polyline a -> bounces -> b, shape (m+2, 3)."""
        return np.vstack([self.endpoint_a, self.vertices, self.endpoint_b])


def _make_path(a, b, vertices, seq, total_length) -> PropagationPath:
    vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
    return PropagationPath(
        endpoint_a=as_vec3(a), endpoint_b=as_vec3(b), vertices=vertices,
        interaction_sequence=tuple(int(s) for s in seq),
        total_length=float(total_length), hash=path_hash(seq))


@dataclass
class SbrConfig:
    ray_count: int = 100_000
    max_bounces: int = 2
    capture_radius: float = 0.05
    rng_seed: int = 0

    def __post_init__(self):
        if self.ray_count < 1:
            raise ValueError("ray_count must be >= 1")
        if self.max_bounces < 0:
            raise ValueError("max_bounces must be >= 0")
        if self.capture_radius <= 0:
            raise ValueError("capture_radius must be > 0")


def enumerate_sequences(scene: Scene, max_order: int) -> List[Tuple[int, ...]]:
    """All reflector-id sequences up to max_order without immediate repeats."""
    if not 0 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be in 0..{MAX_ORDER}")
    for f in scene.all_facets:
        if f.kind not in _PLANAR_KINDS:
            raise NonPlanarReflector(f"facet {f.id} has kind {f.kind!r}")
    ids = [f.id for f in scene.all_facets]
    seqs: List[Tuple[int, ...]] = [()]
    frontier: List[Tuple[int, ...]] = [()]
    for _ in range(max_order):
        nxt = []
        for seq in frontier:
            for fid in ids:
                if seq and seq[-1] == fid:
                    continue
                nxt.append(seq + (fid,))
        seqs.extend(nxt)
        frontier = nxt
    return seqs


def _image_chain(antenna: np.ndarray, seq: Sequence[int],
                 scene: Scene) -> List[np.ndarray]:
    """Antenna images for a reflector sequence: images[j] aims bounce j+1.

    images[0] is the deepest image (mirrored through the whole sequence);
    images[m] is the antenna itself.
    """
    chain = [antenna]
    for fid in reversed(tuple(seq)):
        chain.append(mirror_point(chain[-1], scene.by_id[fid]))
    return chain[::-1]


def _trace_sequence(point: np.ndarray, antenna: np.ndarray,
                    seq: Tuple[int, ...], scene: Scene) -> Optional[PropagationPath]:
    """Exact specular path for one reflector sequence, or None if invalid."""
    if not seq:
        if segments_blocked(point, antenna, scene):
            return None
        return _make_path(point, antenna, np.empty((0, 3)), (),
                          float(np.linalg.norm(antenna - point)))
    images = _image_chain(antenna, seq, scene)
    total = float(np.linalg.norm(images[0] - point))
    cur = point
    verts = []
    prev_id: Optional[int] = None
    for j, fid in enumerate(seq):
        facet = scene.by_id[fid]
        target = images[j]
        n = facet.normal
        sa = float(np.dot(cur - facet.point, n))
        sb = float(np.dot(target - facet.point, n))
        if sa * sb >= 0.0:
            return None
        t_rel = sa / (sa - sb)
        seg_len = float(np.linalg.norm(target - cur))
        if not (EPS_SELF < t_rel * seg_len < seg_len - EPS_SELF):
            return None
        q = cur + t_rel * (target - cur)
        if not bool(facet.contains(q, margin=0.0)):
            return None
        ignore = {fid} if prev_id is None else {prev_id, fid}
        if segments_blocked(cur, q, scene, ignore=ignore):
            return None
        verts.append(q)
        cur = q
        prev_id = fid
    if segments_blocked(cur, antenna, scene, ignore={seq[-1]}):
        return None
    return _make_path(point, antenna, np.array(verts), seq, total)


def _exact_paths(point, antenna, sequences: Iterable[Tuple[int, ...]],
                 scene: Scene) -> List[PropagationPath]:
    """Valid exact paths of the given sequences, sorted by (length, hash)."""
    point = as_vec3(point)
    antenna = as_vec3(antenna)
    paths = [p for p in (_trace_sequence(point, antenna, seq, scene)
                         for seq in sequences) if p is not None]
    paths.sort(key=lambda p: (p.total_length, p.hash))
    return paths


def find_paths_images(point, antenna, scene: Scene,
                      max_order: int) -> List[PropagationPath]:
    """All specular paths up to max_order via the exact image method."""
    return _exact_paths(point, antenna, enumerate_sequences(scene, max_order),
                        scene)


def _uniform_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sbr_trace(point, antennas, scene: Scene,
              cfg: SbrConfig) -> List[Set[Tuple[int, ...]]]:
    """Shoot cfg.ray_count rays from `point`; return, per antenna, the set of
    interaction sequences its rays captured.

    A ray is captured by an antenna when its current free segment passes within
    cfg.capture_radius of it. A captured sequence is only a candidate: the
    exact path of each one (and whether it exists) comes from the image method.
    """
    point = as_vec3(point)
    antennas = np.asarray(antennas, dtype=float).reshape(-1, 3)
    rng = np.random.default_rng(cfg.rng_seed)
    n = cfg.ray_count
    dirs = _uniform_sphere(rng, n)
    origins = np.broadcast_to(point, (n, 3)).copy()
    alive = np.ones(n, dtype=bool)
    seqs = np.full((n, cfg.max_bounces), -1, dtype=np.int64)
    captured: List[Set[Tuple[int, ...]]] = [set() for _ in antennas]
    facet_ids = np.array([f.id for f in scene.all_facets], dtype=np.int64)
    facet_normals = (np.array([f.normal for f in scene.all_facets])
                     if scene.all_facets else np.empty((0, 3)))

    for bounce in range(cfg.max_bounces + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        o = origins[idx]
        d = dirs[idx]
        t_hit, hit_fi = rays_nearest_hit(o, d, scene)
        for ai, antenna in enumerate(antennas):
            tc = np.einsum("ij,ij->i", antenna - o, d)
            tc = np.clip(tc, 0.0, np.where(np.isfinite(t_hit), t_hit, np.inf))
            closest = o + tc[:, None] * d
            d2 = np.einsum("ij,ij->i", closest - antenna, closest - antenna)
            hits = idx[d2 <= cfg.capture_radius ** 2]
            captured[ai].update(map(tuple, seqs[hits, :bounce].tolist()))
        if bounce == cfg.max_bounces:
            break
        hit_ok = np.isfinite(t_hit)
        # Kill grazing rays instead of raising: they carry no usable bounce.
        if np.any(hit_ok):
            cosines = np.abs(np.einsum("ij,ij->i", d, facet_normals[
                np.where(hit_ok, hit_fi, 0)]))
            hit_ok &= cosines > 1e-9
        alive[idx] = hit_ok
        keep = np.flatnonzero(hit_ok)
        if keep.size == 0:
            break
        rays = idx[keep]
        nrm = facet_normals[hit_fi[keep]]
        dn = np.einsum("ij,ij->i", d[keep], nrm)
        dirs[rays] = d[keep] - 2.0 * dn[:, None] * nrm
        origins[rays] = o[keep] + t_hit[keep, None] * d[keep]
        seqs[rays, bounce] = facet_ids[hit_fi[keep]]
    return captured


def capture_masks(captures: Sequence[Sequence[Set[Tuple[int, ...]]]]
                  ) -> Dict[Tuple[int, ...], np.ndarray]:
    """(points, antennas) boolean mask per captured sequence.

    `captures[v]` is the `sbr_trace` result of point v. A sequence missing
    from the result was captured nowhere.
    """
    shape = (len(captures), len(captures[0]))
    masks: Dict[Tuple[int, ...], np.ndarray] = {}
    for v, per_antenna in enumerate(captures):
        for a, seqs in enumerate(per_antenna):
            for seq in seqs:
                if seq not in masks:
                    masks[seq] = np.zeros(shape, dtype=bool)
                masks[seq][v, a] = True
    return masks


def find_paths_sbr(point, antenna, scene: Scene,
                   cfg: SbrConfig) -> List[PropagationPath]:
    """SBR path search between one point and one antenna: the exact paths of
    the captured sequences."""
    captured = sbr_trace(point, [as_vec3(antenna)], scene, cfg)[0]
    return _exact_paths(point, antenna, captured, scene)


class ImagePathTable:
    """Precomputed image-method machinery for one antenna list.

    For every admissible reflector sequence the antenna mirror images and the
    composite PEC field dyadic are frequency- and voxel-independent, so they
    are built once and evaluated for whole voxel blocks at a time. Both path
    engines evaluate their legs here; the SBR engine then keeps only the
    legs whose sequence its rays captured.
    """

    def __init__(self, scene: Scene, antennas, max_order: int, copol):
        self.scene = scene
        self.antennas = np.asarray(antennas, dtype=float).reshape(-1, 3)
        self.copol = unit(copol)
        self.max_order = int(max_order)
        self.sequences = enumerate_sequences(scene, self.max_order)
        self._entries = []
        for seq in self.sequences:
            pts = self.antennas
            rev = []
            for fid in reversed(seq):
                pts = mirror_points(pts, scene.by_id[fid])
                rev.append(pts)
            chains = rev[::-1]  # images[j] per bounce, (A, 3); [0] deepest
            m = np.eye(3)
            for fid in seq:
                n = scene.by_id[fid].normal
                m = (2.0 * np.outer(n, n) - np.eye(3)) @ m
            self._entries.append({
                "seq": seq,
                "images": chains,
                "w": m.T @ self.copol,
                "facets": [scene.by_id[fid] for fid in seq],
            })

    def eval(self, points: np.ndarray, orientation=None):
        """Yield (seq, lengths, amp, tnorm, valid) per sequence for a point block.

        lengths/amp/tnorm/valid have shape (V, A). `amp` is the signed,
        unnormalized co-pol amplitude after PEC transport of the transverse
        part of `orientation` (default: the co-pol vector); `tnorm` is the
        launch transverse magnitude used by the cross-pol test.

        Every point of the unfolded specular chain is an affine combination of
        the voxel block and fixed antenna-image sets, and every physical
        segment length is a fraction of the unfolded total, so the whole
        validity computation runs on (V, A) scalar fields.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        ori = self.copol if orientation is None else unit(orientation)
        ants = self.antennas
        # Keyed by object identity, so it must not outlive this call: `ori`
        # is a fresh array on every call.
        cache: dict = {}

        def dot(base: np.ndarray, vec: np.ndarray) -> np.ndarray:
            key = (id(base), id(vec))
            out = cache.get(key)
            if out is None:
                out = cache[key] = base @ vec
            return out

        def term_dot(terms, vec):
            acc = None
            for coeff, base, axis in terms:
                d = dot(base, vec)
                d = d[:, None] if axis == 0 else d[None, :]
                x = d if coeff is None else coeff * d
                acc = x if acc is None else acc + x
            return acc

        def cross_blocked(facet, a_terms, b_terms, seg_len, margin):
            """True where the open physical segment crosses `facet`."""
            n = facet.normal
            off = float(facet.point @ n)
            sa = term_dot(a_terms, n) - off
            sb = term_dot(b_terms, n) - off
            crossing = (sa * sb) < 0.0
            if not crossing.any():
                return None
            denom = np.where(sa == sb, 1.0, sa - sb)
            tau = np.where(crossing, sa / denom, 0.5)
            t_m = tau * seg_len
            crossing &= (t_m > EPS_SELF) & (t_m < seg_len - EPS_SELF)
            if facet.kind == "plane":
                return crossing

            def xdot(vec):
                ad = term_dot(a_terms, vec)
                bd = term_dot(b_terms, vec)
                return ad + tau * (bd - ad)

            if facet.kind == "rectangle":
                u_hat, v_hat, ulen, vlen = facet.frame
                cu = xdot(u_hat) - float(facet.point @ u_hat)
                crossing &= (cu >= margin) & (cu <= ulen - margin)
                cv = xdot(v_hat) - float(facet.point @ v_hat)
                crossing &= (cv >= margin) & (cv <= vlen - margin)
                return crossing
            e1, e2, d00, d01, d11, inv_denom, scale = facet.frame
            d20 = xdot(e1) - float(facet.point @ e1)
            d21 = xdot(e2) - float(facet.point @ e2)
            bv = (d11 * d20 - d01 * d21) * inv_denom
            bw = (d00 * d21 - d01 * d20) * inv_denom
            eps = margin / scale
            crossing &= (bv >= eps) & (bw >= eps) & (1.0 - bv - bw >= eps)
            return crossing

        def occlusion(valid, a_terms, b_terms, seg_len, ignore):
            for f in self.scene.all_facets:
                if f.id in ignore or f.id not in self.scene.occluder_ids:
                    continue
                blocked = cross_blocked(f, a_terms, b_terms, seg_len,
                                        EDGE_MARGIN)
                if blocked is not None:
                    valid &= ~blocked
            return valid

        pp = np.einsum("vi,vi->v", points, points)
        p_ori = dot(points, ori)
        point_terms = [(None, points, 0)]
        ant_terms = [(None, ants, 1)]
        for entry in self._entries:
            seq = entry["seq"]
            target0 = entry["images"][0] if seq else ants
            # |target - point| via the expanded square, no (V, A, 3) tensor.
            tt = np.einsum("ai,ai->a", target0, target0)
            lengths = pp[:, None] - 2.0 * (points @ target0.T) + tt[None, :]
            np.sqrt(np.maximum(lengths, 0.0, out=lengths), out=lengths)
            valid = lengths > 1e-9
            safe = np.where(valid, lengths, 1.0)
            os_dot = (dot(target0, ori)[None, :] - p_ori[:, None]) / safe
            w = entry["w"]
            s_w = (dot(target0, w)[None, :] - dot(points, w)[:, None]) / safe
            amp = float(ori @ w) - os_dot * s_w
            tnorm = np.sqrt(np.maximum(0.0, 1.0 - os_dot ** 2))
            if not seq:
                valid = occlusion(valid, point_terms, ant_terms, lengths, ())
                yield seq, lengths, amp, tnorm, valid
                continue
            cur_terms = point_terms
            rem = lengths
            prev_id = None
            dead = False
            for j, facet in enumerate(entry["facets"]):
                image_j = entry["images"][j]
                n = facet.normal
                off = float(facet.point @ n)
                sa = term_dot(cur_terms, n) - off
                sb = dot(image_j, n)[None, :] - off
                crossing = (sa * sb) < 0.0
                valid &= crossing
                if not valid.any():
                    dead = True
                    break
                denom = np.where(sa == sb, 1.0, sa - sb)
                tau = np.where(crossing, sa / denom, 0.5)
                t_m = tau * rem
                valid &= (t_m > EPS_SELF) & (t_m < rem - EPS_SELF)
                # scale existing terms by (1 - tau), then add tau * image_j
                q_terms = [((1.0 - tau) if c is None else c * (1.0 - tau),
                            b, ax) for c, b, ax in cur_terms]
                q_terms.append((tau, image_j, 1))
                if facet.kind == "rectangle":
                    u_hat, v_hat, ulen, vlen = facet.frame
                    cu = term_dot(q_terms, u_hat) - float(facet.point @ u_hat)
                    valid &= (cu >= 0.0) & (cu <= ulen)
                    cv = term_dot(q_terms, v_hat) - float(facet.point @ v_hat)
                    valid &= (cv >= 0.0) & (cv <= vlen)
                elif facet.kind == "triangle":
                    e1, e2, d00, d01, d11, inv_denom, scale = facet.frame
                    d20 = term_dot(q_terms, e1) - float(facet.point @ e1)
                    d21 = term_dot(q_terms, e2) - float(facet.point @ e2)
                    bv = (d11 * d20 - d01 * d21) * inv_denom
                    bw = (d00 * d21 - d01 * d20) * inv_denom
                    valid &= (bv >= 0.0) & (bw >= 0.0) & (1.0 - bv - bw >= 0.0)
                ignore = {facet.id} if prev_id is None else {prev_id, facet.id}
                valid = occlusion(valid, cur_terms, q_terms, tau * rem, ignore)
                rem = (1.0 - tau) * rem
                cur_terms = q_terms
                prev_id = facet.id
            if not dead:
                valid = occlusion(valid, cur_terms, ant_terms, rem,
                                  {seq[-1]})
            yield seq, lengths, amp, tnorm, valid

    def eval_reference(self, points: np.ndarray, orientation=None):
        """Straightforward per-sequence walk kept as an oracle for eval()."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        ori = self.copol if orientation is None else unit(orientation)
        ants = self.antennas
        from .geometry import _norms

        for entry in self._entries:
            seq = entry["seq"]
            if seq:
                diff = entry["images"][0][None, :, :] - points[:, None, :]
            else:
                diff = ants[None, :, :] - points[:, None, :]
            lengths = _norms(diff)
            valid = lengths > 1e-9
            with np.errstate(invalid="ignore", divide="ignore"):
                s = diff / np.where(lengths[..., None] == 0.0, 1.0,
                                    lengths[..., None])
            os_dot = s @ ori
            w = entry["w"]
            amp = float(ori @ w) - os_dot * (s @ w)
            tnorm = np.sqrt(np.maximum(0.0, 1.0 - os_dot ** 2))
            if not seq:
                valid &= ~segments_blocked(points[:, None, :],
                                           ants[None, :, :], self.scene)
                yield seq, lengths, amp, tnorm, valid
                continue
            cur = np.broadcast_to(points[:, None, :],
                                  (points.shape[0], ants.shape[0], 3)).copy()
            prev_id = None
            for j, facet in enumerate(entry["facets"]):
                target = entry["images"][j][None, :, :]
                n = facet.normal
                sa = (cur - facet.point) @ n
                sb = (target - facet.point) @ n
                crossing = (sa * sb) < 0.0
                denom = np.where(sa == sb, 1.0, sa - sb)
                t_rel = np.where(crossing, sa / denom, 0.5)
                seg = target - cur
                seg_len = _norms(seg)
                t_m = t_rel * seg_len
                q = cur + t_rel[..., None] * seg
                valid &= crossing & (t_m > EPS_SELF) & (t_m < seg_len - EPS_SELF)
                valid &= facet.contains(q, margin=0.0)
                ignore = {facet.id} if prev_id is None else {prev_id, facet.id}
                valid &= ~segments_blocked(cur, q, self.scene, ignore=ignore)
                cur = q
                prev_id = facet.id
            valid &= ~segments_blocked(cur, ants[None, :, :], self.scene,
                                       ignore={seq[-1]})
            yield seq, lengths, amp, tnorm, valid
