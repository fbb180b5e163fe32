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

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import ScenarioError
from .geometry import (EDGE_MARGIN, EPS_SELF, GRAZING_TOL, Scene,
                       mirror_points, rays_nearest_hit, segments_blocked, unit)

# phase_only weights drop bounced legs whose normalized co-pol projection
# falls below this; far_field weights keep every valid leg.
CROSS_POL_THRESHOLD = 1e-3
# Sequence count grows as ~facets**order; deeper orders are refused.
MAX_ORDER = 5
# Most (sequence, antenna) pairs one path table holds: a 128-voxel chunk keeps
# a (V, A) lengths and weight array per sequence, 2 KiB a pair, plus the
# working set of the one sequence in flight, so 2^19 pairs stay near 1 GiB.
MAX_TABLE_LEGS = 1 << 19
# Largest SBR launch: each ray holds ~100-200 bytes of launch state (start,
# direction, sequence, per-bounce copies), so 10^7 rays stay near 2 GB.
MAX_RAYS = 10_000_000
# Most antennas in a leaf of the SBR capture test's bounding-sphere tree.
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
        # NaN fails it too; sbr_trace squares the radius.
        if not (self.capture_radius > 0
                and math.isfinite(self.capture_radius * self.capture_radius)):
            raise ValueError("capture_radius must be > 0 with a finite "
                             f"square, got {self.capture_radius}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


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


def _bounds(pts: np.ndarray):
    """(minima, maxima) over the rows of an (n, 3) array: taken along the
    rows of its contiguous transpose, several times faster than a reduction
    over axis 0 from about ten rows up, and exact all the same."""
    t = np.ascontiguousarray(pts.T)
    return t.min(axis=1), t.max(axis=1)


def _antenna_clusters(antennas: np.ndarray, members=None):
    """The bounding-sphere tree of the antennas (or of `members`, indices
    into them): a node is (members, center, radius, children), and a node
    of more than CLUSTER_SIZE antennas has two children, its halves by a
    median split along its widest axis. None when there is no antenna."""
    if members is None:
        members = np.arange(antennas.shape[0])
    if members.size == 0:
        return None
    pts = antennas[members]
    lo, hi = _bounds(pts)
    center = 0.5 * (lo + hi)
    radius = float(np.sqrt(
        np.einsum("ij,ij->i", pts - center, pts - center).max()))
    children = []
    if members.size > CLUSTER_SIZE:
        order = np.argsort(pts[:, np.argmax(hi - lo)], kind="stable")
        half = members.size // 2
        children = [_antenna_clusters(antennas, members[order[:half]]),
                    _antenna_clusters(antennas, members[order[half:]])]
    return members, center, radius, children


def _segment_dist2(o, d, t_hit, target):
    """Squared distance from each ray segment o + t d, 0 <= t <= t_hit, to
    its target point. o, d and target are coordinate rows (3, ...) that
    broadcast together, and t_hit broadcasts against each row. Each 3-term
    sum runs x, then y, then z, whatever the shapes."""
    (ox, oy, oz), (dx, dy, dz), (tx, ty, tz) = o, d, target
    tc = np.clip((tx - ox) * dx + (ty - oy) * dy + (tz - oz) * dz,
                 0.0, t_hit)
    cx, cy, cz = ox + tc * dx - tx, oy + tc * dy - ty, oz + tc * dz - tz
    return cx * cx + cy * cy + cz * cz


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

    At every bounce the capture test walks the antennas' bounding-sphere
    tree (`_antenna_clusters`) top down, with the live rays held as
    coordinate rows. A node drops the rays, among those its parent kept,
    whose segment passes farther than the node's radius plus the capture
    radius (plus a rounding margin) from its center, so that none of its
    antennas can capture them. A leaf then tests its kept rays against each
    of its antennas exactly, in dense blocks of at most PAIR_BLOCK pairs,
    with the per-pair arithmetic of `_segment_dist2`. Every node is
    conservative and the exact test of a pair does not depend on its block,
    so the capture sets do not depend on the tree or the blocks.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    antennas = np.asarray(antennas, dtype=float).reshape(-1, 3)
    rng = np.random.default_rng(cfg.rng_seed)
    n = cfg.ray_count
    dirs = _uniform_sphere(rng, n)
    origins = points[np.arange(n) * points.shape[0] // n]
    alive = np.ones(n, dtype=bool)
    # Live rays that hit the same facets share a code; seq_of[code] holds
    # their sequence.
    codes, seq_of = np.zeros(n, dtype=np.int64), [()]
    captured: List[Set[Tuple[int, ...]]] = [set() for _ in antennas]
    facet_ids = [f.id for f in scene.all_facets]
    facet_normals = (np.array([f.normal for f in scene.all_facets])
                     if scene.all_facets else np.empty((0, 3)))
    tree = _antenna_clusters(antennas)
    r2 = cfg.capture_radius ** 2
    # The computed distances of a captured pair and of its node's center
    # each err by a few ulps of the coordinates involved; this margin is
    # orders of magnitude above that.
    scale = 1.0 + (float(np.abs(antennas).max()) if antennas.size else 0.0)

    def walk(node, rows):
        """Arrays of capture keys, antenna * len(seq_of) + code, under
        `node` of the rays in rows (9, k): origin, direction, t_hit, margin
        and code."""
        members, center, radius, children = node
        rows = rows[:, _segment_dist2(rows[0:3], rows[3:6], rows[6], center)
                    <= (radius + cfg.capture_radius + rows[7]) ** 2]
        if not rows.shape[1]:
            return []
        if children:
            return [key for child in children for key in walk(child, rows)]
        keys, ants = [], antennas.T[:, None, members]
        step = max(1, PAIR_BLOCK // members.size)
        for lo in range(0, rows.shape[1], step):
            blk = rows[:, lo:lo + step, None]
            ray, ant = np.nonzero(
                _segment_dist2(blk[0:3], blk[3:6], blk[6], ants) <= r2)
            keys.append(members[ant] * len(seq_of)
                        + blk[8, ray, 0].astype(np.int64))
        return keys

    for bounce in range(cfg.max_bounces + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        o = origins[idx]
        d = dirs[idx]
        t_hit, hit_fi = rays_nearest_hit(o, d, scene)
        if tree is not None:
            ax, ay, az = np.abs(o.T)  # 10x faster than a reduce over axis 1
            margin = 1e-9 * (scale + np.maximum(np.maximum(ax, ay), az))
            keys = walk(tree, np.vstack((o.T, d.T, t_hit, margin, codes[idx])))
            # One key per (antenna, sequence) before any set is touched;
            # return_index keeps np.unique from importing numpy.ma.
            keys = np.concatenate(keys or [np.empty(0, np.int64)])
            for key in np.unique(keys, return_index=True)[0].tolist():
                ant, code = divmod(key, len(seq_of))
                captured[ant].add(seq_of[code])
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
        # Renumber the live rays' sequences, each one bounce longer.
        nf = len(facet_ids)
        extended, codes[rays] = np.unique(codes[rays] * nf + hit_fi[keep],
                                          return_inverse=True)
        seq_of = [seq_of[c // nf] + (facet_ids[c % nf],)
                  for c in extended.tolist()]
    return captured


def _crossing_box(p_box, i_box, f, margin: float, t_lo, t_hi, l_min: float):
    """Decide one facet test of `ImagePathTable.eval` from per-side bounds,
    before any (V, A) array of the sequence exists.

    p_box is (minima, maxima) of the facet's s and in-plane coordinates over
    the points. i_box is the same over the deepest images: floats, for the
    whole block, or arrays of the exact values at each image (minima and
    maxima both), for which every bound below holds per antenna column by
    broadcasting. t_lo is an upper bound on the leg's start t, t_hi a lower
    bound on its end t (floats, or per column) and l_min a lower bound on L,
    each over the legs that can still be valid.

    Returns (miss, sure, t_box). miss holds where no leg crosses the facet
    inside its extent less `margin`, sure where every valid leg does with
    t - t_lo and t_hi - t above EPS_SELF / L; where neither holds the dense
    test decides. t_box bounds the crossing t of every valid leg. Only where
    every s_p has one strict sign and every s_I the other is
    t = |s_p| / (|s_p| + |s_I|) bounded by the box; elsewhere t_box is
    (0, 1), which holds on a valid leg. Either way each coordinate
    a = (1 - t) a_p + t a_I is bounded by its values at the ends of t_box;
    a whole block that does not cross strictly skips that extent check and
    is decided by sign alone. Each decision keeps a slack far above the
    rounding of the dense test, so that test would return the same mask.
    """
    p_lo, p_hi, i_lo, i_hi = p_box[0][0], p_box[1][0], i_box[0][0], i_box[1][0]
    if p_lo > 0.0:
        near, far = (p_lo, p_hi), (-i_hi, -i_lo)
    elif p_hi < 0.0:
        near, far = (-p_hi, -p_lo), (i_lo, i_hi)
    else:
        return False, False, (0.0, 1.0)  # the points straddle: t is unbounded
    per_column = isinstance(i_lo, np.ndarray)
    lesser, greater = (np.minimum, np.maximum) if per_column else (min, max)
    # |s_I| lies in far where far[0] > 0. Where far[1] < 0 the images sit on
    # the points' side, so t lies outside [0, 1].
    miss = far[1] < 0.0
    cross = far[0] > 0.0
    if not (per_column or cross):
        return miss, False, (0.0, 1.0)  # a block decided by sign alone
    # t rises with |s_p| and falls with |s_I|; (0, 1) where not `cross`.
    t_box = (cross * (near[0] / (near[0] + greater(far[1], 0.0))),
             near[1] / (near[1] + greater(far[0], 0.0)))
    if f.kind == "triangle":
        return miss, False, t_box
    sure = True
    if f.kind == "rectangle":
        for k, extent in ((1, f.frame[2]), (2, f.frame[3])):
            a_p = (p_box[0][k], p_box[1][k])
            a_i = (i_box[0][k], i_box[1][k])
            # a = a_p + t (a_I - a_p) with weights 1 - t, t >= 0: its
            # extremes sit at the extremes of a_p and a_I, and of t.
            slope = (a_i[0] - a_p[0], a_i[1] - a_p[1])
            a_lo = a_p[0] + lesser(t_box[0] * slope[0], t_box[1] * slope[0])
            a_hi = a_p[1] + greater(t_box[0] * slope[1], t_box[1] * slope[1])
            # The largest |a| over a range [lo, hi] is max(hi, -lo).
            tol = 1e-9 * (1.0 + extent + greater(max(a_p[1], -a_p[0]),
                                                 greater(a_i[1], -a_i[0])))
            miss = miss | (a_hi < margin - tol) | (
                a_lo > extent - margin + tol)
            sure = sure & (a_lo > margin + tol) & (
                a_hi < extent - margin - tol)
    clear = lesser(t_box[0] - t_lo, t_hi - t_box[1]) - 1e-9
    return miss, sure & (clear * l_min > EPS_SELF * (1.0 + 1e-9)), t_box


def _facet_hit(f, margin: float, t: np.ndarray, t_lo, t_hi,
               lengths: np.ndarray, p_rows: np.ndarray,
               i_rows: np.ndarray) -> np.ndarray:
    """The dense facet test of `ImagePathTable.eval`: the (V, A) mask of the
    legs whose line crosses facet f at t with (t - t_lo) L and (t_hi - t) L
    above EPS_SELF, inside its extent less `margin`. p_rows (2, V) and
    i_rows (2, A) are its in-plane coordinates at the points and at the
    deepest images."""
    hit = ((t - t_lo) * lengths > EPS_SELF) & (
        (t_hi - t) * lengths > EPS_SELF)
    if f.kind == "plane":
        return hit
    a_p, b_p = p_rows[0][:, None], p_rows[1][:, None]
    a = a_p + t * (i_rows[0][None, :] - a_p)
    b = b_p + t * (i_rows[1][None, :] - b_p)
    if f.kind == "rectangle":
        hit &= (a >= margin) & (a <= f.frame[2] - margin)
        hit &= (b >= margin) & (b <= f.frame[3] - margin)
    else:
        _, _, d00, d01, d11, inv_denom, scale = f.frame
        bv = (d11 * a - d01 * b) * inv_denom
        bw = (d00 * b - d01 * a) * inv_denom
        eps = margin / scale
        hit &= (bv >= eps) & (bw >= eps) & (1.0 - bv - bw >= eps)
    return hit


def _transport(lengths: np.ndarray, i_ori: np.ndarray, p_ori: np.ndarray,
               i_w: np.ndarray, p_w: np.ndarray, ori_w: float):
    """(amp, tnorm) of `ImagePathTable.eval` on (V, A) legs: with safe the
    lengths, 1 where not above 1e-9, os_dot = (i_ori - p_ori) / safe and
    s_w = (i_w - p_w) / safe (image side per antenna, point side per
    point), amp = ori_w - os_dot s_w and tnorm = sqrt(max(0, 1 - os_dot^2)).
    Built in place in two (V, A) arrays, with the operands and order of
    those expressions, so every bit is theirs."""
    safe = np.where(lengths > 1e-9, lengths, 1.0)
    os_dot = np.subtract(i_ori[None, :], p_ori[:, None])
    os_dot /= safe
    amp = np.subtract(i_w[None, :], p_w[:, None])  # s_w
    amp /= safe
    del safe
    amp *= os_dot
    np.subtract(ori_w, amp, out=amp)
    tnorm = os_dot
    np.square(tnorm, out=tnorm)
    np.subtract(1.0, tnorm, out=tnorm)
    np.sqrt(np.maximum(0.0, tnorm, out=tnorm), out=tnorm)
    return amp, tnorm


def _walk_tests(legs, p_box, i_side, l_min: float, block=None):
    """Yield (dead, decided, t_box) per facet test of one sequence, in
    `ImagePathTable.eval`'s order, from `_crossing_box` on the images' side
    i_side: (per-row minima, per-row maxima) of the test rows over the
    deepest images, or the rows' values at each image twice. dead is a
    bounce missed or an occluder hit everywhere, decided a bounce hit or an
    occluder missed by every valid leg. A bounce's t bounds end the leg it
    closes and start the next one. Tests that `block`, the block pass's
    outcomes, decided keep them."""
    k, t_lo, r = 0, 0.0, -3
    for bounce, occluders in legs:
        t_hi = t_next = 1.0
        for i, f in enumerate(bounce + occluders):
            r += 3
            is_bounce = i < len(bounce)
            if block is not None and block[k][1]:
                out = block[k]
            else:
                miss, sure, t_box = _crossing_box(
                    (p_box[0][r:r + 3], p_box[1][r:r + 3]),
                    (i_side[0][r:r + 3], i_side[1][r:r + 3]), f,
                    0.0 if is_bounce else EDGE_MARGIN, t_lo, t_hi, l_min)
                out = (miss, sure, t_box) if is_bounce else (sure, miss, t_box)
            yield out
            if is_bounce:
                t_hi, t_next = out[2]
            k += 1
        t_lo = t_next


def _box_decisions(legs, p_box, i_box, l_min: float,
                   iv: Optional[np.ndarray]):
    """Decide the facet tests of one sequence before any (V, A) array of it
    exists: (kept, dense), or None when no antenna column can hold a valid
    leg.

    The block pass decides each test for the whole block from p_box and
    i_box, the (per-row minima, per-row maxima) of the test rows at the
    points and at the deepest images. Each test it leaves undecided is then
    decided per antenna column from iv, the rows' values at each image. A
    column is dead where one of its bounces is missed at every point or an
    occluder blocks every valid leg; `kept` indexes the others (None: every
    column). dense[i] selects, among the kept columns, those on which test
    i must still run: None for none, slice(None) for all, else their
    positions. iv None skips the column pass: every column is kept, and
    every test the block pass leaves undecided runs on all of them."""
    block = []
    for out in _walk_tests(legs, p_box, i_box, l_min):
        if out[0]:
            return None
        block.append(out)
    if iv is None or all(decided for _, decided, _ in block):
        return None, [None if decided else slice(None)
                      for _, decided, _ in block]
    alive = np.ones(iv.shape[1], dtype=bool)
    undecided = []
    for (_, done, _), (dead, decided, _) in zip(
            block, _walk_tests(legs, p_box, (iv, iv), l_min, block)):
        if not done:  # decided per column
            alive &= np.logical_not(dead)
            if not alive.any():
                return None
        undecided.append(np.logical_not(decided))
    n_kept, dense = np.count_nonzero(alive), []
    for todo in undecided:
        todo = np.flatnonzero(np.broadcast_to(todo, alive.shape)[alive])
        dense.append(None if todo.size == 0 else
                     slice(None) if todo.size == n_kept else todo)
    return (None if n_kept == alive.size else np.flatnonzero(alive)), dense


class ImagePathTable:
    """Precomputed image-method machinery for one antenna list.

    For every reflector sequence of the table the antenna mirror images and
    the composite PEC field dyadic are frequency- and voxel-independent, so
    they are built once and evaluated for whole voxel blocks at a time. The
    sequences are all those up to `max_order` (the images engine) unless a
    list is given (the SBR engine passes the sequences its rays captured).

    Each sequence is also unfolded once. Leg j runs from bounce j (or the
    point) to bounce j + 1 (or the antenna) and is tested against its end
    bounce facet (none on the last leg) and every occluder but the bounce
    facets at its ends, each reflected through bounces 1..j: every leg then
    lies on the one line from the point to the deepest antenna image.
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
        occluders = [f for f in scene.all_facets
                     if f.id in scene.occluder_ids]
        # Sequences that end alike share antenna images. Those that start
        # alike share the composite dyadic d and the unfolding x -> m x + b.
        images = {(): self.antennas}
        frames = {(): (np.eye(3), np.eye(3), np.zeros(3))}
        keys: dict = {}  # (bounces before a leg, facet id) -> reflection
        self._entries = []
        for seq in self.sequences:
            for j in range(len(seq) - 1, -1, -1):
                if seq[j:] not in images:
                    images[seq[j:]] = mirror_points(images[seq[j + 1:]],
                                                    scene.by_id[seq[j]])
            legs, tests = [], []
            for j in range(len(seq) + 1):
                if j and seq[:j] not in frames:
                    f = scene.by_id[seq[j - 1]]
                    g = 2.0 * np.outer(f.normal, f.normal) - np.eye(3)
                    d, m, b = frames[seq[:j - 1]]
                    frames[seq[:j]] = (g @ d, -(m @ g), b + m @ (
                        2.0 * float(f.normal @ f.point) * f.normal))
                ends = seq[max(j - 1, 0):j + 1]
                bounce = [scene.by_id[seq[j]]] if j < len(seq) else []
                tested = [f for f in occluders if f.id not in ends]
                legs.append((bounce, tested))
                tests += [keys.setdefault((seq[:j], f.id), len(keys))
                          for f in bounce + tested]
            self._entries.append({
                "seq": seq,
                # images[j] (A, 3) is the target of leg j: the antenna images
                # of the remaining bounces, [0] deepest, [-1] the antennas.
                "images": [images[seq[j:]] for j in range(len(seq) + 1)],
                "w": frames[seq][0].T @ self.copol,
                "facets": [scene.by_id[fid] for fid in seq],
                "legs": legs,
                "tests": np.array(tests, dtype=np.intp),
            })
        # Reflection u: rows of _vecs[u] are its normal and in-plane axes
        # (rectangle: unit edges; triangle: edge vectors; plane: zeros),
        # _offs[u] their values at its reference point.
        rows = np.zeros((len(scene.all_facets), 3, 3))
        for i, f in enumerate(scene.all_facets):
            rows[i, 0] = f.normal
            if f.kind != "plane":
                rows[i, 1:] = f.frame[:2]
        refs = np.array([f.point for f in scene.all_facets]).reshape(-1, 3)
        at = {f.id: i for i, f in enumerate(scene.all_facets)}
        fi = np.array([at[fid] for _, fid in keys], dtype=np.intp)
        m = np.array([frames[p][1] for p, _ in keys]).reshape(-1, 3, 3)
        b = np.array([frames[p][2] for p, _ in keys]).reshape(-1, 3)
        self._vecs = np.einsum("uij,ukj->uki", m, rows[fi])
        self._offs = np.einsum("uki,ui->uk", self._vecs,
                               np.einsum("uij,uj->ui", m, refs[fi]) + b)

    def _image_side(self, entry: dict) -> tuple:
        """The values of a sequence's eval that do not depend on the points,
        computed on its first eval (building them for every sequence in
        __init__ would slow down tables that are evaluated once):
        (vecs, offs, tt, iv, i_box, t_box, t_far). Rows 3i..3i+2 of
        vecs @ x - offs are test i's normal and axes less their offsets at x;
        iv holds them at the deepest images (A columns), i_box their per-row
        (minima, maxima). tt is |I0|^2 per antenna, t_box the images'
        bounding box and t_far sqrt(max tt)."""
        side = entry.get("image_side")
        if side is None:
            target0 = entry["images"][0]
            vecs = self._vecs[entry["tests"]].reshape(-1, 3)
            offs = self._offs[entry["tests"]].reshape(-1, 1)
            tt = np.einsum("ai,ai->a", target0, target0)
            iv = vecs @ target0.T - offs
            side = entry["image_side"] = (
                vecs, offs, tt, iv,
                (iv.min(axis=1).tolist(), iv.max(axis=1).tolist()),
                _bounds(target0),
                math.sqrt(tt.max()))
        return side

    def eval(self, points: np.ndarray, orientation=None):
        """Yield (seq, lengths, amp, tnorm, valid, cols) for each sequence
        with a valid leg in a point block, in table order.

        `cols` indexes the antenna columns kept for the sequence, and
        lengths/amp/tnorm/valid have shape (V, len(cols)); every dropped
        column holds no valid leg. `amp` is the signed, unnormalized co-pol
        amplitude after PEC transport of the transverse part of
        `orientation` (default: the co-pol vector); `tnorm` is the launch
        transverse magnitude used by the cross-pol test.

        Every leg is tested on the unfolded line p + t (I0 - p), of length
        L, from the point to the deepest antenna image: leg j is the interval
        (t_j, t_{j+1}), t_0 = 0, and the last leg ends at 1. A reflected
        facet (normal n', offset c) is crossed at t = s_p / (s_p - s_I), with
        s_p = p.n' - c per point and s_I = I0.n' - c per antenna, when
        (t - t_j) L and (t_{j+1} - t) L exceed EPS_SELF and the crossing is
        inside its edges.

        `_box_decisions` first decides each test over the whole block from
        the per-side values alone, with L bounded below by the gap between
        the bounding boxes of the points and of the deepest images, and then,
        on two or more points, per antenna column each test the block leaves
        undecided; the images' side is computed once per table
        (`_image_side`). A sequence with no column left costs O(V + A) after
        the first eval: no (V, A) array of it is built. Only the kept columns are evaluated, and only the tests
        some kept column leaves undecided run on their arrays; those alone
        decide the mask, so it is the one the dense test gives. A sequence
        whose mask ends empty is not yielded either.

        The yielded arrays are the caller's to work on in place: eval keeps
        no reference to amp and tnorm, and drops lengths and valid when it
        resumes.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        if not (points.size and self.antennas.size):
            return  # no leg at all
        ori = self.copol if orientation is None else unit(orientation)
        pp = np.einsum("vi,vi->v", points, points)
        p_ori = points @ ori
        p_lo, p_hi = _bounds(points)
        p_far = float(np.sqrt(pp.max()))
        every = np.arange(self.antennas.shape[0])
        for entry in self._entries:
            target0 = entry["images"][0]
            vecs, offs, tt, iv, i_box, t_box, t_far = self._image_side(entry)
            pv = vecs @ points.T - offs
            # L is at least the gap between the bounding boxes, less a margin
            # far above the rounding of the expanded square below.
            gap = np.maximum(0.0, np.maximum(t_box[0] - p_hi,
                                             p_lo - t_box[1]))
            l_min = math.sqrt(max(float(gap @ gap) - 1e-12 * (
                p_far + t_far) ** 2, 0.0))
            # On one point a column's bounds cost more numpy calls than
            # the (1, A) dense test they would save.
            boxes = _box_decisions(
                entry["legs"], (pv.min(axis=1).tolist(),
                                pv.max(axis=1).tolist()), i_box, l_min,
                iv if points.shape[0] > 1 else None)
            if boxes is None:
                continue
            kept, dense = boxes

            def cut(a):  # the kept columns of a per-antenna array
                return a if kept is None else a[..., kept]

            # |target - point| via the expanded square, no (V, A, 3) tensor.
            # Products are cut only after BLAS ran at full width: it may
            # round a column of a narrower product differently (gemm's edge
            # kernels, gemv for one row or column).
            tt, iv = cut(tt), cut(iv)
            # pp - 2 p.I0 + |I0|^2 in place, in that order.
            lengths = cut(points @ target0.T)
            lengths *= 2.0
            np.subtract(pp[:, None], lengths, out=lengths)
            lengths += tt[None, :]
            np.sqrt(np.maximum(lengths, 0.0, out=lengths), out=lengths)
            valid = lengths > 1e-9
            crossings = {}  # test row -> t on every kept leg

            def crossing(r, on):  # t where test row r crosses, on `on`
                if r in crossings:
                    return crossings[r][:, on]
                s_p = pv[r][:, None]
                t = s_p / (s_p - iv[r][on][None, :])
                if isinstance(on, slice):
                    crossings[r] = t
                return t

            test, r = -1, -3
            start = None  # row of the bounce the leg starts at; None: t = 0
            # t is inf or NaN where s_p = s_I; every test is False there.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for bounce, occluders in entry["legs"]:
                    end = None  # row of the bounce it ends at; None: t = 1
                    for i, f in enumerate(bounce + occluders):
                        test, r = test + 1, r + 3
                        is_bounce = i < len(bounce)
                        on = dense[test]  # the kept columns it runs on
                        if on is not None and valid.any():
                            hit = _facet_hit(
                                f, 0.0 if is_bounce else EDGE_MARGIN,
                                crossing(r, on),
                                0.0 if start is None else crossing(start, on),
                                1.0 if end is None else crossing(end, on),
                                lengths[:, on], pv[r + 1:r + 3],
                                iv[r + 1:r + 3, on])
                            valid[:, on] &= hit if is_bounce else ~hit
                        if is_bounce:
                            # The bounce point: where the line crosses the
                            # next bounce facet, beyond the current one.
                            end = r
                    start = end
            crossings.clear()
            if not valid.any():
                continue
            w = entry["w"]
            yield (entry["seq"], lengths,
                   *_transport(lengths, cut(target0 @ ori), p_ori,
                               cut(target0 @ w), points @ w, float(ori @ w)),
                   valid, every if kept is None else kept)
            del lengths, valid  # not held while the next ones are built

    def eval_reference(self, points: np.ndarray, orientation=None):
        """Straightforward per-sequence walk kept as an oracle for eval():
        (seq, lengths, amp, tnorm, valid) for every sequence, each array
        (V, A)."""
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
