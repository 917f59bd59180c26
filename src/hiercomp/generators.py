"""Random-graph families used as structured baselines.

Four families:

* ``er``   -- every unordered pair is an edge independently with prob p.
* ``rgg``  -- n uniform points in the unit hypercube; pairs ranked by
  inverse Euclidean distance; the top m = round(d * n(n-1)/2) become edges.
* ``rhgg`` -- as rgg but pair weight is (s_i + s_j) / dist with lognormal
  node strengths, mixing geometry with a degree hierarchy.  rgg is drawn
  as rhgg with every strength 1, which ranks pairs as 1 / dist does.
* ``rhg``  -- degree-preserving randomisation of an rhgg sample
  (configuration model: stub pairing repaired into a simple graph).

All generators are deterministic in (parameters, seed) down to the byte
level of the edge set.  Weight ties in the geometric selectors break
lexicographically by node pair.

er never visits the pairs it leaves out.  It jumps from one kept pair to the
next by geometric skipping (Batagelj & Brandes, Phys. Rev. E 71, 036113,
2005), so its work and memory are O(n + m); above p = 1/2 it skips over the
absent pairs instead and inverts them.  This stream replaced a per-pair
draw, so er graphs differ from those of versions that drew every pair.

The geometric families never rank all n(n-1)/2 pairs.  A weight floor that
at least m pairs reach is sized from a sample of pairs; k-d tree radius
queries, one per pair of log-strength buckets, collect every pair that can
reach it, and one exact top-m cut over those pairs gives the edge set that
ranking every pair would give.  Work and memory follow the number of
candidate pairs, about m, not n^2.

rhg's swap repair is one sequential Python pass over the bad edges, one
attempt at a time.  Each attempt reads one key 2j + flip from a block of
``rng.integers(2m)`` draws (partner j, coin flip), so the loop only indexes a
list, and the edge set is the one that drawing each key alone gives.  This
stream replaced one ``integers(m)`` and one ``random()`` per attempt, so rhg
graphs differ from those of versions that drew them.  rhg keeps only its
rhgg base's degrees, so the base graph is never built.
"""

from __future__ import annotations

import logging
import math
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _row_starts, complement_codes, from_codes

__all__ = [
    "FAMILIES",
    "ModelSpec",
    "gen_er",
    "gen_rgg",
    "gen_rhgg",
    "gen_config",
    "generate",
]

# fig2 seeds by a family's index here: the order er, rgg, rhgg, rhg fixes every fig2 seed
FAMILIES = ("er", "rgg", "rhgg", "rhg")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ModelSpec:
    """Parameters that fully determine one random graph draw (with seed).

    ``target`` is the edge probability for er and the target density for
    the geometric families.  ``degree_sequence`` feeds rhg directly; when
    absent, rhg derives its sequence from a fresh rhgg sample.
    """

    family: str
    n: int
    target: float = 0.0
    dims: int = 3
    lognormal_mu: float = 0.0
    lognormal_sigma: float = 0.2
    seed: int = 0
    degree_sequence: tuple[int, ...] | None = None

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 <= self.target <= 1.0:
            raise ValueError("target probability/density must lie in [0, 1]")
        if self.dims < 1:
            raise ValueError("dims must be positive")
        if self.lognormal_sigma < 0:
            raise ValueError("lognormal_sigma must be non-negative")
        if self.degree_sequence is not None:
            if self.family != "rhg":
                raise ValueError(f"degree_sequence applies to rhg only, not {self.family!r}")
            if len(self.degree_sequence) != self.n:
                raise ValueError(
                    f"degree_sequence has {len(self.degree_sequence)} entries for n={self.n}"
                )


def child_seed(seed: int, *path: int) -> int:
    """Deterministic per-index stream seed, safe to fan out across workers."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(x) for x in path))
    return int(ss.generate_state(1, np.uint64)[0])


def gen_er(n: int, p: float, seed: int) -> Graph:
    """Independent-pairs random graph on n nodes with edge probability p.

    The gaps between kept pairs, in ascending code order, are geometric
    (:func:`_skip_pairs`), so the work is O(n + m), not O(n^2).  For
    p > 1/2 the absent pairs are skipped to, with probability 1 - p, and
    the edges are their complement.  The edge set depends on (n, p, seed)
    alone.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    if p > 0.5:
        return from_codes(n, complement_codes(n, _skip_pairs(n, 1.0 - p, rng)))
    return from_codes(n, _skip_pairs(n, p, rng))


_ER_BLOCK = 1 << 16  # uniforms drawn at a time


def _skip_pairs(n: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Ascending codes of the pairs on n nodes kept when each is kept
    independently with probability q <= 1/2.

    The gap from one kept pair's rank to the next is 1 + floor(log1p(-U) /
    log1p(-q)) for a uniform U, and ranks map to codes through the row
    starts.  Uniforms come in blocks of ``_ER_BLOCK`` read in order from one
    stream, so the codes do not depend on the block size, and only the kept
    codes outlive a block.
    """
    pairs = n * (n - 1) // 2
    if q == 0.0 or pairs == 0:
        return np.empty(0, np.int64)
    starts = _row_starts(n)
    offset = np.arange(n, dtype=np.int64) * (n + 1) + 1 - starts  # code - rank in each row
    log_q = math.log1p(-q)
    block = min(_ER_BLOCK, pairs + 1)  # pairs + 1 gaps always pass the last pair
    kept, last = [], -1
    while True:
        gaps = np.log1p(-rng.random(block))
        with np.errstate(over="ignore"):  # a subnormal q: gaps beyond every pair
            gaps /= log_q
        np.minimum(gaps, pairs, out=gaps)  # so that the cast stays in int64
        ranks = gaps.astype(np.int64)
        ranks += 1
        np.cumsum(ranks, out=ranks)
        ranks += last
        # ranks ascend until they pass the last pair; only past it can a
        # sum of clipped gaps wrap around int64 (n above about 10^7)
        past = ranks >= pairs
        stop = int(past.argmax()) if past.any() else block
        if stop:
            ranks = ranks[:stop]
            last = int(ranks[-1])
            # the block's ranks ascend, so each row's ranks are one run
            u0, u1 = np.searchsorted(starts, (ranks[0], last), side="right")
            runs = np.diff(np.searchsorted(ranks, starts[u0:u1]), prepend=0, append=stop)
            ranks += np.repeat(offset[u0 - 1:u1], runs)
            kept.append(ranks)
        if stop < block:
            return np.concatenate([np.empty(0, np.int64), *kept])


def _distinct_points(n: int, dims: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points with exact duplicates resampled (keeps 1/dist finite).

    Within a duplicate group the lowest node id keeps its point.
    """
    pts = rng.random((n, dims))
    while True:
        kept = np.unique(pts, axis=0, return_index=True)[1]  # each group's lowest id
        if kept.size == n:
            return pts
        bad = np.setdiff1d(np.arange(n), kept, assume_unique=True)
        pts[bad] = rng.random((bad.size, dims))


def _keep_top(w: np.ndarray, c: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-m entries of w, ties at the cut resolved by ascending pair code."""
    if w.size <= m:
        return w, c
    part = np.partition(w, w.size - m)
    thresh = part[w.size - m]
    sel = np.flatnonzero(w > thresh)
    need = m - sel.size
    if need > 0:
        ties = np.flatnonzero(w == thresh)
        ties = ties[np.argsort(c[ties], kind="stable")[:need]]
        sel = np.concatenate((sel, ties))
    return w[sel], c[sel]


_SAMPLE_POINTS = 512  # the floor is sized from the pairs among this many points
_CHUNK = 1 << 16  # pairs per weight evaluation
# Relative slack on every query radius.  The tree's distance and the weight's
# 1/sqrt(einsum) both round a sum of dims squares; their relative error stays
# far below this for any dims under 10^6, so no pair that reaches the floor
# falls outside its radius.
_RADIUS_SLACK = 1e-9


def _pair_weights(pts: np.ndarray, u: np.ndarray, v: np.ndarray,
                  strengths: np.ndarray) -> np.ndarray:
    """Weight of each pair (u, v): (s_u + s_v) / dist.

    Always this float expression, so that ties between weights cannot move.
    Small chunks keep the temporaries in cache and in reused heap.
    """
    out = np.empty(u.size)
    for k in range(0, u.size, _CHUNK):
        a, b = u[k:k + _CHUNK], v[k:k + _CHUNK]
        diff = np.take(pts, a, axis=0) - np.take(pts, b, axis=0)
        inv = 1.0 / np.sqrt(np.einsum("pq,pq->p", diff, diff))
        out[k:k + _CHUNK] = inv * (strengths[a] + strengths[b])
    return out


def _weight_floor(pts: np.ndarray, m: int, strengths: np.ndarray) -> float:
    """A weight that probably at least m pairs reach, read off the pairs among
    the first k points (uniform and independent, so a fair sample of pairs).

    The sample is at most 1/16 of all pairs.  Its share of pairs at the
    floor exceeds the target share m / C(n, 2) by four standard errors: a
    Poisson term, plus the first Hoeffding term of a U-statistic, since
    sample pairs share nodes (their spread of counts; large for heavy nodes
    and, at equal strengths, for corner points).
    """
    n = pts.shape[0]
    k = min(_SAMPLE_POINTS, max(2, n // 4))
    iu, ju = np.triu_indices(k, 1)
    w = _pair_weights(pts, iu, ju, strengths)
    share = m / (n * (n - 1) / 2)

    def floor_at(rank: int) -> float:
        return float(np.partition(w, w.size - rank)[w.size - rank]) if rank <= w.size else 0.0

    above = w >= floor_at(max(1, math.ceil(share * w.size)))
    per_node = np.bincount(iu[above], minlength=k) + np.bincount(ju[above], minlength=k)
    se = math.sqrt(share / w.size) + 2.0 * float(per_node.std()) / (k - 1) / math.sqrt(k)
    return floor_at(math.ceil((share + 4.0 * se) * w.size) + 1)


def _strength_groups(strengths: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """(ascending members, largest strength) of each log-strength bucket of
    ratio sqrt 2."""
    key = np.floor(2.0 * np.log2(strengths))
    order = np.argsort(key, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
    return [(g, float(strengths[g].max())) for g in groups]


def _candidates(pts, strengths, groups, trees, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Codes and weights of every pair whose weight reaches ``floor``.

    A pair from buckets a and b can reach it only within distance
    (s_max,a + s_max,b) / floor, so each pair of buckets is one radius query.
    """
    n, dims = pts.shape
    diameter = 2.0 * math.sqrt(dims)  # beyond any two points of the unit cube
    codes, weights = [], []
    for a, (ga, sa) in enumerate(groups):
        for b in range(a, len(groups)):
            gb, sb = groups[b]
            radius = (sa + sb) / floor * (1.0 + _RADIUS_SLACK) if floor > 0 else diameter
            radius = min(radius, diameter)
            if a == b:  # members ascend, so local i < j keeps u < v
                found = trees[a].query_pairs(radius, output_type="ndarray")
                u, v = ga[found[:, 0]], ga[found[:, 1]]
            else:
                found = trees[a].sparse_distance_matrix(trees[b], radius, output_type="ndarray")
                i, j = ga[found["i"]], gb[found["j"]]
                u, v = np.minimum(i, j), np.maximum(i, j)
            del found
            w = _pair_weights(pts, u, v, strengths)
            keep = w >= floor
            codes.append(u[keep] * np.int64(n) + v[keep])
            weights.append(w[keep])
    if len(codes) == 1:  # one strength bucket, as at sigma = 0
        return codes[0], weights[0]
    return np.concatenate(codes), np.concatenate(weights)


def _geometric_top_m(pts: np.ndarray, m: int, strengths: np.ndarray) -> np.ndarray:
    """Codes of the m heaviest pairs by weight (s_i + s_j) / dist, in no
    particular order, without an all-pairs scan.

    A weight floor is sized from a sample of pairs and lowered until at least
    m pairs reach it; k-d tree radius queries (Bentley, CACM 18(9), 1975)
    collect every pair that could reach it, and their exact weights go
    through one top-m cut, so the edge set is that of ranking all pairs.
    """
    from scipy.spatial import cKDTree

    n, dims = pts.shape
    if m == 0:
        return np.empty(0, np.int64)
    groups = _strength_groups(strengths)
    trees = [cKDTree(pts[g]) for g, _ in groups]
    floor = _weight_floor(pts, m, strengths)
    while True:
        codes, w = _candidates(pts, strengths, groups, trees, floor)
        if codes.size >= m:
            break
        # weights scale as 1/radius and pair counts as radius**dims
        floor *= ((codes.size + 1) / (2 * m)) ** (1.0 / dims)
    return _keep_top(w, codes, m)[1]


def _pair_target(n: int, density: float) -> int:
    return int(round(density * n * (n - 1) / 2))


def _check_geometric(n: int, density: float, dims: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if dims < 1:
        raise ValueError("dims must be positive")


def gen_rgg(n: int, density: float, seed: int, dims: int = 3) -> Graph:
    """Geometric graph: the m closest pairs of n uniform points are edges.

    It is :func:`gen_rhgg` at sigma = 0: with every strength 1 each weight
    is exactly 2 / dist, so weights, floors, radii and ties rank as 1 / dist
    does.
    """
    return gen_rhgg(n, density, seed, dims, lognormal_sigma=0.0)


def gen_rhgg(
    n: int,
    density: float,
    seed: int,
    dims: int = 3,
    lognormal_mu: float = 0.0,
    lognormal_sigma: float = 0.2,
) -> Graph:
    """Geometric graph with lognormal strengths: weight (s_i + s_j) / dist.

    Coordinates are drawn before strengths, and at sigma=0 no strength is
    drawn, so :func:`gen_rgg` is this at sigma=0 and mu=0.
    """
    return from_codes(n, np.sort(
        _rhgg_pairs(n, density, seed, dims, lognormal_mu, lognormal_sigma)))


def _rhgg_pairs(n: int, density: float, seed: int, dims: int, lognormal_mu: float,
                lognormal_sigma: float) -> np.ndarray:
    """The codes of :func:`gen_rhgg`'s edges, in no particular order."""
    _check_geometric(n, density, dims)
    if lognormal_sigma < 0:
        raise ValueError("lognormal_sigma must be non-negative")
    rng = np.random.default_rng(seed)
    pts = _distinct_points(n, dims, rng)
    if lognormal_sigma == 0.0:
        s = np.full(n, float(np.exp(lognormal_mu)))
    else:
        s = rng.lognormal(lognormal_mu, lognormal_sigma, n)
    return _geometric_top_m(pts, _pair_target(n, density), s)


def gen_config(degree_sequence, seed: int) -> Graph:
    """Uniform-ish simple graph with exactly the given degree sequence.

    A non-graphical sequence is rejected up front by the Erdős–Gallai
    inequalities, before any random draw.  Stubs are shuffled and paired;
    self-loops and duplicate edges are then repaired with random double-edge
    swaps (cap: 100 * m attempts; a graphical sequence can still exhaust it,
    and the error says so).  Dense sequences (density > 1/2) are paired in
    the complement and inverted, which keeps the repair tractable without
    touching the degree contract.

    The repair is one sequential pass over the bad edges, which one sort
    finds, and each attempt's partner and flip are one key drawn by
    ``rng.integers(2m)``, a block of keys at a time, so the edge set is the
    one that drawing each key alone gives.  The edges are held as machine
    words, and the copies of each pair in one of two stores that give the
    same edge set: n*n bytes indexed by pair code while n*n is at most 64
    bytes per edge, or else a ``Counter`` keyed by code (also when a pair
    has more than 255 copies).  Each pairing logs one DEBUG record
    ``repair n=… m=… bad=… attempts=… held=bytes|dict`` on the
    ``hiercomp.generators`` logger (for the complement when paired there).
    """
    deg = np.asarray(list(degree_sequence), dtype=np.int64)
    n = deg.size
    if n < 1:
        raise ValueError("degree sequence must be non-empty")
    if deg.min() < 0:
        raise ValueError("degrees must be non-negative")
    if int(deg.sum()) % 2 != 0:
        raise ValueError("degree sum must be even")
    if deg.max() >= n:
        raise ValueError("max degree must be below n")
    _check_graphical(deg)
    rng = np.random.default_rng(seed)
    if n >= 2 and int(deg.sum()) > n * (n - 1) // 2:
        return from_codes(n, complement_codes(n, _pair_and_repair(n - 1 - deg, rng)))
    return from_codes(n, _pair_and_repair(deg, rng))


def _check_graphical(deg: np.ndarray) -> None:
    """Erdős–Gallai, in O(n log n): with d sorted descending, every k needs
    sum(d[:k]) <= k(k-1) + sum(min(d[k:], k)).  Raises at the first k that fails."""
    d = np.sort(deg)[::-1]
    k = np.arange(1, d.size + 1)
    # the degrees >= k are a prefix of d; past it, min(d_i, k) = d_i
    prefix = np.maximum(k, d.size - np.searchsorted(d[::-1], k))
    tail = np.append(np.cumsum(d[::-1])[::-1], 0)  # tail[j] = sum(d[j:])
    rhs = k * (k - 1) + k * (prefix - k) + tail[prefix]
    bad = np.flatnonzero(np.cumsum(d) > rhs)
    if bad.size:
        raise ValueError(
            f"degree sequence is not graphical: Erdős–Gallai fails at k={bad[0] + 1}")


def _repair_gave_up(m: int) -> str:
    return (f"degree sequence is graphical, but the double-edge-swap repair gave up "
            f"after {100 * m} attempts (cap: 100 per edge); another seed may realise it")


_KEY_BLOCK = 1 << 12  # attempt keys drawn at a time

# The repair counts pair copies in n*n bytes indexed by code while that is at
# most this many bytes per edge, and in a Counter keyed by code on sparser
# graphs.  At or below it the expected copies of any pair, d_u*d_v / 2m, are
# at most n*n / 2m <= 32, so a count past a byte's 255 is all but impossible
# there; such a count still takes the Counter.
_BYTES_PER_EDGE = 64


def _pair_and_repair(deg: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Ascending pair codes of a simple graph with degree sequence deg.

    One pass mends the bad edges, the self-loops (u*n + u = u*(n+1)) and
    every copy of a repeated pair, in index order: a bad edge (a, b) swaps
    with a uniform partner (c, d), flipped with probability 1/2, into
    (a, c) and (b, d) when both are new distinct pairs.  Each attempt draws
    one key k = ``rng.integers(2 * m)``: the partner is k >> 1 and the flip
    k & 1, and a key whose partner is the bad edge itself is spent as an
    attempt.  Keys come ``_KEY_BLOCK`` at a time, the same keys as one draw
    each.  The pair copies are counted as ``_BYTES_PER_EDGE`` says.

    One pass is enough.  A swap only adds pairs q1 != q2 that are absent and
    are not loops (a != c, b != d).  So a good edge stays good, and a
    replaced partner becomes good.  Every listed index therefore ends the
    pass swapped into a good pair, or skipped because its pair is down to
    one copy and is not a loop.
    """
    n = deg.size
    stubs = np.repeat(np.arange(n, dtype=np.int64), deg)
    rng.shuffle(stubs)
    half = stubs.reshape(-1, 2)
    codes = np.minimum(half[:, 0], half[:, 1]) * n + np.maximum(half[:, 0], half[:, 1])
    del stubs, half
    m = codes.size
    ordered = np.sort(codes)
    # found before firsts and copies exist, so that isin's temporaries do not stack on them
    bad = np.flatnonzero((codes % (n + 1) == 0)
                         | np.isin(codes, ordered[1:][ordered[1:] == ordered[:-1]]))
    firsts = np.flatnonzero(np.diff(ordered, prepend=-1))  # first copy of each pair
    copies = np.diff(firsts, append=m)
    in_bytes = n * n <= _BYTES_PER_EDGE * m and copies.max(initial=0) <= 255
    done = t = 0
    try:
        if not bad.size:
            return ordered
        edges = array("q")
        edges.frombytes(codes.view(np.uint8))
        if in_bytes:
            count = bytearray(n * n)
            np.frombuffer(count, np.uint8)[ordered[firsts]] = copies
        else:
            count = Counter(codes.tolist())
        del codes, ordered, firsts, copies
        max_attempts = 100 * m
        keys: list[int] = []
        end = 0  # the current block's length; t is its next key, done counts earlier blocks'
        for idx in bad.tolist():
            code = edges[idx]
            if code % (n + 1) and count[code] == 1:  # mended by an earlier swap
                continue
            a, b = divmod(code, n)
            own = 2 * idx + 1  # k | 1 for either key of the bad edge itself
            while True:
                if t == end:
                    done, t = done + t, 0
                    if done >= max_attempts:
                        raise ValueError(_repair_gave_up(m))
                    end = min(_KEY_BLOCK, max_attempts - done)
                    keys = rng.integers(2 * m, size=end).tolist()
                k = keys[t]
                t += 1
                if k | 1 == own:
                    continue
                other = edges[k >> 1]
                c = other // n
                d = other - c * n
                if k & 1:  # flipped
                    c, d = d, c
                if a == c or b == d:
                    continue
                q1 = a * n + c if a < c else c * n + a
                q2 = b * n + d if b < d else d * n + b
                if count[q1] or count[q2] or q1 == q2:
                    continue
                count[code] -= 1
                count[other] -= 1
                count[q1] = count[q2] = 1
                edges[idx] = q1
                edges[k >> 1] = q2
                break
        ordered = np.sort(np.frombuffer(edges, np.int64))
        if not (np.diff(ordered).all() and (ordered % (n + 1)).all()):
            raise AssertionError("the swap repair left a self-loop or a repeated pair")
        return ordered
    finally:
        log.debug("repair n=%d m=%d bad=%d attempts=%d held=%s",
                  n, m, bad.size, done + t, "bytes" if in_bytes else "dict")


def generate(spec: ModelSpec) -> Graph:
    """Draw one graph according to a :class:`ModelSpec`."""
    spec.validate()
    if spec.family == "er":
        return gen_er(spec.n, spec.target, spec.seed)
    if spec.family == "rgg":
        return gen_rgg(spec.n, spec.target, spec.seed, dims=spec.dims)
    if spec.family == "rhgg":
        return gen_rhgg(
            spec.n, spec.target, spec.seed,
            dims=spec.dims,
            lognormal_mu=spec.lognormal_mu,
            lognormal_sigma=spec.lognormal_sigma,
        )
    if spec.degree_sequence is not None:
        return gen_config(spec.degree_sequence, spec.seed)
    # rhg keeps only the degrees of its rhgg base, so the base is never built
    base = _rhgg_pairs(spec.n, spec.target, child_seed(spec.seed, 0), spec.dims,
                       spec.lognormal_mu, spec.lognormal_sigma)
    degrees = np.bincount(base // spec.n, minlength=spec.n)
    degrees += np.bincount(base % spec.n, minlength=spec.n)
    return gen_config(degrees, child_seed(spec.seed, 1))
