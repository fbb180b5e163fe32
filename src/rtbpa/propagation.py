"""Geometrical-optics propagation paths between image-domain points and antennas.

Two engines find the same reflector sequences on all-planar scenes: the exact
image method enumerates every admissible sequence, and a stochastic
shooting-and-bouncing-rays tracer keeps the sequences its rays carry to the
antennas. Either way `ImagePathTable` computes the exact specular path of
each sequence by the image method, for whole voxel blocks and every antenna
at once; it is also the only place that transports the polarization through
the PEC bounces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import ScenarioError
from .geometry import (EDGE_MARGIN, EPS_SELF, GRAZING_TOL, Scene,
                       mirror_points, rays_nearest_hit, segments_blocked, unit)

# Paths whose normalized co-pol projection falls below this are discarded.
CROSS_POL_THRESHOLD = 1e-3
# Sequence count grows as ~facets**order; deeper orders are refused.
MAX_ORDER = 5
# Most (sequence, antenna) pairs one path table holds: every table eval keeps a
# (V, A) lengths and weight array per sequence for a 128-voxel chunk, about
# 2 KiB a pair, so 2^19 pairs stay near 1 GiB.
MAX_TABLE_LEGS = 1 << 19
# Largest SBR launch: each ray holds ~100-200 bytes of launch state (start,
# direction, sequence, per-bounce copies), so 10^7 rays stay near 2 GB.
MAX_RAYS = 10_000_000
# Antennas per bounding sphere of the SBR capture prefilter.
CLUSTER_SIZE = 64
# Most (ray, antenna) pairs one exact SBR capture test holds at a time.
PAIR_BLOCK = 1 << 16


@dataclass
class SbrConfig:
    ray_count: int = 100_000
    max_bounces: int = 2
    capture_radius: float = 0.05
    rng_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.ray_count <= MAX_RAYS:
            raise ValueError(f"ray_count must be in 1..{MAX_RAYS}")
        if self.max_bounces < 0:
            raise ValueError("max_bounces must be >= 0")
        if not (self.capture_radius > 0):  # NaN fails it too
            raise ValueError("capture_radius must be > 0")


def _check_order(max_order: int) -> None:
    if not 0 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be in 0..{MAX_ORDER}")


def _sequence_count(n_facets: int, max_order: int) -> int:
    """len(enumerate_sequences(...)) without building the list:
    1 + F * sum_{j=1..o} (F - 1)^(j - 1)."""
    return 1 + n_facets * sum((n_facets - 1) ** (j - 1)
                              for j in range(1, max_order + 1))


def enumerate_sequences(scene: Scene, max_order: int) -> List[Tuple[int, ...]]:
    """All reflector-id sequences up to max_order without immediate repeats,
    by length, then by facet position in `scene.all_facets`."""
    _check_order(max_order)
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


def enumeration_order(sequences: Iterable[Tuple[int, ...]],
                      scene: Scene) -> List[Tuple[int, ...]]:
    """`sequences` in the order `enumerate_sequences` lists them."""
    position = {f.id: i for i, f in enumerate(scene.all_facets)}
    return sorted(sequences,
                  key=lambda seq: (len(seq), [position[f] for f in seq]))


def _uniform_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _antenna_clusters(antennas: np.ndarray):
    """Split the antennas into groups of at most CLUSTER_SIZE by recursive
    median splits along the widest axis; yield (members, center, radius) of
    each group's bounding sphere."""
    stack = [np.arange(antennas.shape[0])]
    while stack:
        members = stack.pop()
        if members.size == 0:
            continue
        pts = antennas[members]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        if members.size > CLUSTER_SIZE:
            order = np.argsort(pts[:, np.argmax(hi - lo)], kind="stable")
            half = members.size // 2
            stack += [members[order[:half]], members[order[half:]]]
            continue
        center = 0.5 * (lo + hi)
        yield members, center, float(np.sqrt(
            np.einsum("ij,ij->i", pts - center, pts - center).max()))


def _segment_dist2(o: np.ndarray, d: np.ndarray, t_hit: np.ndarray,
                   target: np.ndarray) -> np.ndarray:
    """Squared distance from each ray segment o + t d, 0 <= t <= t_hit, to
    its target point (one point, or one per segment)."""
    tc = np.clip(np.einsum("ij,ij->i", target - o, d), 0.0, t_hit)
    closest = o + tc[:, None] * d
    return np.einsum("ij,ij->i", closest - target, closest - target)


def sbr_trace(points, antennas, scene: Scene,
              cfg: SbrConfig) -> List[Set[Tuple[int, ...]]]:
    """Shoot cfg.ray_count rays from a point or an (N, 3) point block; return,
    per antenna, the set of interaction sequences its rays captured.

    Ray r starts at point floor(r * N / ray_count), so a one-point block
    launches the rays of the point itself and every point gets a ray when
    ray_count >= N. A ray is captured by an antenna when its current free
    segment passes within cfg.capture_radius of it. A captured sequence is
    only a candidate: the exact path of each one (and whether it exists)
    comes from the image method.

    The capture test runs in two steps. The antennas are grouped into
    bounding spheres once per launch, and a (segment, group) pair is dropped
    when the segment passes farther than the sphere's radius plus the capture
    radius (plus a rounding margin) from its center, so that no antenna of
    the group can capture it. The surviving (segment, antenna) pairs are
    then tested exactly, in flat
    blocks of at most PAIR_BLOCK pairs, with the per-pair arithmetic of
    `_segment_dist2`; the capture sets therefore do not depend on the
    grouping or the blocks.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    antennas = np.asarray(antennas, dtype=float).reshape(-1, 3)
    rng = np.random.default_rng(cfg.rng_seed)
    n = cfg.ray_count
    dirs = _uniform_sphere(rng, n)
    origins = points[np.arange(n) * points.shape[0] // n]
    alive = np.ones(n, dtype=bool)
    seqs = np.full((n, cfg.max_bounces), -1, dtype=np.int64)
    captured: List[Set[Tuple[int, ...]]] = [set() for _ in antennas]
    facet_ids = np.array([f.id for f in scene.all_facets], dtype=np.int64)
    facet_normals = (np.array([f.normal for f in scene.all_facets])
                     if scene.all_facets else np.empty((0, 3)))
    clusters = list(_antenna_clusters(antennas))
    r2 = cfg.capture_radius ** 2
    # The computed distances of a captured pair and of its group's center
    # each err by a few ulps of the coordinates involved; this margin is
    # orders of magnitude above that.
    scale = 1.0 + (float(np.abs(antennas).max()) if antennas.size else 0.0)

    for bounce in range(cfg.max_bounces + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        o = origins[idx]
        d = dirs[idx]
        t_hit, hit_fi = rays_nearest_hit(o, d, scene)
        margin = 1e-9 * (scale + np.abs(o).max(axis=1))
        for members, center, radius in clusters:
            near = np.flatnonzero(_segment_dist2(o, d, t_hit, center) <= (
                radius + cfg.capture_radius + margin) ** 2)
            step = max(1, PAIR_BLOCK // members.size)
            for lo in range(0, near.size, step):
                ray = np.repeat(near[lo:lo + step], members.size)
                ant = np.tile(members, min(step, near.size - lo))
                hits = _segment_dist2(o[ray], d[ray], t_hit[ray],
                                      antennas[ant]) <= r2
                if not hits.any():
                    continue
                rows = np.unique(np.column_stack(
                    [ant[hits], seqs[idx[ray[hits]], :bounce]]), axis=0)
                for ai, *seq in rows.tolist():
                    captured[ai].add(tuple(seq))
        if bounce == cfg.max_bounces:
            break
        hit_ok = np.isfinite(t_hit)
        # Kill grazing rays instead of raising: they carry no usable bounce.
        if np.any(hit_ok):
            cosines = np.abs(np.einsum("ij,ij->i", d, facet_normals[
                np.where(hit_ok, hit_fi, 0)]))
            hit_ok &= cosines > GRAZING_TOL
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


class ImagePathTable:
    """Precomputed image-method machinery for one antenna list.

    For every reflector sequence of the table the antenna mirror images and
    the composite PEC field dyadic are frequency- and voxel-independent, so
    they are built once and evaluated for whole voxel blocks at a time. The
    sequences are all those up to `max_order` (the images engine) unless a
    list is given (the SBR engine passes the sequences its rays captured).
    """

    def __init__(self, scene: Scene, antennas, max_order: int, copol,
                 sequences: Optional[Sequence[Tuple[int, ...]]] = None):
        self.scene = scene
        self.antennas = np.asarray(antennas, dtype=float).reshape(-1, 3)
        self.copol = unit(copol)
        self.max_order = int(max_order)
        _check_order(self.max_order)
        if sequences is not None:
            sequences = list(sequences)
        n_seq = (_sequence_count(len(scene.all_facets), self.max_order)
                 if sequences is None else len(sequences))
        n_ant = self.antennas.shape[0]
        if n_seq * n_ant > MAX_TABLE_LEGS:
            raise ScenarioError(
                f"{n_seq} sequences x {n_ant} antennas = {n_seq * n_ant} "
                f"path legs exceed the cap of {MAX_TABLE_LEGS}")
        self.sequences = (enumerate_sequences(scene, self.max_order)
                          if sequences is None else sequences)
        self._entries = []
        for seq in self.sequences:
            pts = self.antennas
            chain = [pts]
            for fid in reversed(seq):
                pts = mirror_points(pts, scene.by_id[fid])
                chain.append(pts)
            # images[j] (A, 3) is the target of leg j: the antenna images of
            # the remaining bounces, [0] deepest, [-1] the antennas.
            chain.reverse()
            m = np.eye(3)
            for fid in seq:
                n = scene.by_id[fid].normal
                m = (2.0 * np.outer(n, n) - np.eye(3)) @ m
            self._entries.append({
                "seq": seq,
                "images": chain,
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

        def cross(facet, a_terms, b_terms, seg_len, margin):
            """(mask, tau) of the open physical segment a -> b crossing
            `facet` at least `margin` inside its edges, with tau the crossing
            fraction along the segment; None if it crosses nowhere."""
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
                return crossing, tau

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
                return crossing, tau
            e1, e2, d00, d01, d11, inv_denom, scale = facet.frame
            d20 = xdot(e1) - float(facet.point @ e1)
            d21 = xdot(e2) - float(facet.point @ e2)
            bv = (d11 * d20 - d01 * d21) * inv_denom
            bw = (d00 * d21 - d01 * d20) * inv_denom
            eps = margin / scale
            crossing &= (bv >= eps) & (bw >= eps) & (1.0 - bv - bw >= eps)
            return crossing, tau

        def occlusion(valid, a_terms, b_terms, seg_len, ignore):
            for f in self.scene.all_facets:
                if f.id in ignore or f.id not in self.scene.occluder_ids:
                    continue
                blocked = cross(f, a_terms, b_terms, seg_len, EDGE_MARGIN)
                if blocked is not None:
                    valid &= ~blocked[0]
            return valid

        pp = np.einsum("vi,vi->v", points, points)
        p_ori = dot(points, ori)
        point_terms = [(None, points, 0)]
        ant_terms = [(None, ants, 1)]
        for entry in self._entries:
            seq = entry["seq"]
            target0 = entry["images"][0]
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
            # A line-of-sight sequence is a chain of zero bounces.
            cur_terms = point_terms
            rem = lengths
            prev_id = None
            for facet, image_j in zip(entry["facets"], entry["images"]):
                # The bounce point is where the segment towards the next
                # antenna image crosses the facet, inside its edges.
                hit = cross(facet, cur_terms, [(None, image_j, 1)], rem, 0.0)
                valid &= False if hit is None else hit[0]
                if not valid.any():
                    break
                tau = hit[1]
                # scale existing terms by (1 - tau), then add tau * image_j
                q_terms = [((1.0 - tau) if c is None else c * (1.0 - tau),
                            b, ax) for c, b, ax in cur_terms]
                q_terms.append((tau, image_j, 1))
                ignore = {facet.id} if prev_id is None else {prev_id, facet.id}
                valid = occlusion(valid, cur_terms, q_terms, tau * rem, ignore)
                rem = (1.0 - tau) * rem
                cur_terms = q_terms
                prev_id = facet.id
            if valid.any():
                valid = occlusion(valid, cur_terms, ant_terms, rem,
                                  set(seq[-1:]))
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
