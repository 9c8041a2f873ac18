"""Compact Hilbert indices for domains with unequal side lengths.

Implements the algorithms of Hamilton & Rau-Chaplin, *Compact Hilbert
indices: Space-filling curves for domains with unequal side lengths*,
Information Processing Letters 105(5), 2008 -- the construction VOLAP
uses to order Hilbert PDC tree keys (paper Section III-D).

Two curves are provided:

* :class:`HilbertCurve` -- the classic Hilbert curve on ``n`` dimensions
  of ``m`` bits each (Hamilton's formulation of the Butz/Lawder
  algorithm using Gray codes, entry points and directions).
* :class:`CompactHilbertCurve` -- per-dimension bit widths
  ``m_0 .. m_{n-1}``; produces indices of exactly ``sum(m_i)`` bits
  whose order coincides with the order the full Hilbert curve (with all
  dimensions padded to ``max(m_i)`` bits) visits the valid sub-domain.

Indices are arbitrary-precision Python ints (total bit counts routinely
exceed 64 in OLAP schemas).
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "HilbertCurve",
    "CompactHilbertCurve",
    "gray_code",
    "gray_code_inverse",
    "words_for_bits",
    "pack_key",
    "pack_key_ints",
    "key_from_words",
    "lexsort_words",
    "argmax_words",
]


# -- bit primitives ----------------------------------------------------------


def gray_code(i: int) -> int:
    """Binary-reflected Gray code of ``i``."""
    return i ^ (i >> 1)


def gray_code_inverse(g: int) -> int:
    """Inverse of :func:`gray_code`."""
    i = g
    shift = 1
    while (g >> shift) > 0:
        i ^= g >> shift
        shift += 1
    return i


def _rotate_right(x: int, k: int, n: int) -> int:
    """Rotate the low ``n`` bits of ``x`` right by ``k``."""
    k %= n
    if k == 0:
        return x & ((1 << n) - 1)
    x &= (1 << n) - 1
    return ((x >> k) | (x << (n - k))) & ((1 << n) - 1)


def _rotate_left(x: int, k: int, n: int) -> int:
    return _rotate_right(x, n - (k % n), n)


def _trailing_set_bits(i: int) -> int:
    """Number of trailing 1 bits of ``i``."""
    c = 0
    while i & 1:
        c += 1
        i >>= 1
    return c


def _entry_point(w: int) -> int:
    """Entry point e(w) of sub-hypercube ``w`` (Hamilton eq. 2.11)."""
    if w == 0:
        return 0
    return gray_code(2 * ((w - 1) // 2))


def _direction(w: int, n: int) -> int:
    """Intra sub-hypercube direction d(w) (Hamilton eq. 2.12)."""
    if w == 0:
        return 0
    if w % 2 == 0:
        return _trailing_set_bits(w - 1) % n
    return _trailing_set_bits(w) % n


def _transform(e: int, d: int, b: int, n: int) -> int:
    """T_{(e,d)}(b): map into the canonical sub-hypercube frame."""
    return _rotate_right(b ^ e, d + 1, n)


def _transform_inverse(e: int, d: int, b: int, n: int) -> int:
    return _rotate_left(b, d + 1, n) ^ e


def _gray_code_rank(mu: int, i: int, n: int) -> int:
    """Rank of ``i`` restricted to the free-bit mask ``mu``.

    Extracts the bits of ``i`` selected by ``mu``, high bit first
    (Hamilton Algorithm 3, GrayCodeRank).
    """
    r = 0
    for k in range(n - 1, -1, -1):
        if (mu >> k) & 1:
            r = (r << 1) | ((i >> k) & 1)
    return r


def _gray_code_rank_inverse(
    mu: int, pi: int, r: int, n: int, free_bits: int
) -> tuple[int, int]:
    """Reconstruct (i, g) from a gray code rank (Hamilton Algorithm 4).

    Given the free-bit mask ``mu``, the fixed-bit pattern ``pi`` and the
    rank ``r``, returns ``(i, g)`` where ``g = gray_code(i)``, ``i`` has
    its mu-bits set from ``r`` and its non-mu bits forced so that ``g``
    matches ``pi`` on the fixed bits.
    """
    i = 0
    g = 0
    j = free_bits - 1
    for k in range(n - 1, -1, -1):
        if (mu >> k) & 1:  # free bit: take from the rank
            bit_i = (r >> j) & 1
            j -= 1
            i |= bit_i << k
            bit_g = bit_i ^ ((i >> (k + 1)) & 1)
            g |= bit_g << k
        else:  # fixed bit: take from the pattern
            bit_g = (pi >> k) & 1
            g |= bit_g << k
            bit_i = bit_g ^ ((i >> (k + 1)) & 1)
            i |= bit_i << k
    return i, g


# -- vectorised bit primitives ------------------------------------------------


def _popcount_u64(x: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x).astype(np.uint64)
    x = x.copy()
    out = np.zeros_like(x)
    while x.any():
        out += x & np.uint64(1)
        x >>= np.uint64(1)
    return out


def _rotate_right_vec(x: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """Rotate the low ``n`` bits of each element right by ``k`` (k in [0, n))."""
    mask = np.uint64((1 << n) - 1)
    nn = np.uint64(n)
    x = x & mask
    return ((x >> k) | (x << (nn - k))) & mask


def _rotate_left_vec(x: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    mask = np.uint64((1 << n) - 1)
    nn = np.uint64(n)
    x = x & mask
    return ((x << k) | (x >> (nn - k))) & mask


# -- the plane step, for whole arrays of rows ---------------------------------
#
# Per bit plane, everything Hamilton's algorithm does to a row depends on
# ``rot = (d + 1) mod n`` and ``x = l ^ e`` only (``l`` the plane's bits,
# ``e``/``d`` the entry point and direction so far).  These two functions
# are the one vectorised definition of that step: the wide-curve path
# applies them to the rows of a batch, :func:`_plane_tables` to every
# ``(rot, x)`` there is.

#: widest curve, in dimensions, that gets lookup tables: they hold
#: ``n * 2**n`` states each (49 152 at 12; doubling per dimension past it)
_TABLE_MAX_DIMS = 12

#: rows per pass of the batch kernel, which bounds its ``(planes, rows,
#: dims)`` temporary (3 MB on an 8-dim, 25-bit schema, where one pass
#: over 50 000 rows allocates 80 MB and takes twice as long).  The table
#: path costs the same from 256 to 4 096 rows per pass; the arithmetic
#: path, ~60 operations per plane, wants them large.
_CHUNK_ROWS = 2048


def _plane_step(
    x: np.ndarray, rot: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(w, e_delta, rot')`` of rows in state ``(rot, x)``.

    ``w = gray_code_inverse(rotr(x, rot))`` is the sub-hypercube the row
    enters, ``e ^= e_delta`` its next entry point and ``rot'`` its next
    rotation.
    """
    one = np.uint64(1)
    nn = np.uint64(n)
    w = _rotate_right_vec(x, rot, n)
    # inverse Gray code via doubling XOR-shifts
    shift = 1
    while shift < n:
        w ^= w >> np.uint64(shift)
        shift <<= 1
    # entry point e(w) = gray_code(2*((w-1)//2)) = (w-1) & ~1, w > 0
    w_safe = np.where(w == 0, one, w)
    g = (w_safe - one) & ~one
    entry = np.where(w == 0, np.uint64(0), g ^ (g >> one))
    # direction d(w): trailing set bits of (w odd ? w : w - 1)
    tz_src = np.where(w & one == one, w, w_safe - one)
    tsb = _popcount_u64(tz_src ^ (tz_src + one)) - one
    dirw = np.where(w == 0, np.uint64(0), tsb % nn)
    return w, _rotate_left_vec(entry, rot, n), (rot + dirw + one) % nn


def _plane_rank(w: np.ndarray, rot: np.ndarray, mask: int, n: int) -> np.ndarray:
    """Gray code rank: the bits of ``w`` selected by ``rotr(mask, rot)``,
    compacted high bit first (``mask``: the dimensions with a free bit
    on this plane)."""
    one = np.uint64(1)
    mu = _rotate_right_vec(np.uint64(mask), rot, n)
    r = np.zeros(mu.shape, dtype=np.uint64)
    take = np.empty_like(r)
    for k in range(n - 1, -1, -1):
        np.right_shift(mu, np.uint64(k), out=take)
        take &= one
        r <<= take  # make room where bit k is selected ...
        r |= (w >> np.uint64(k)) & take  # ... and append w's bit k there
    return r


class _BatchPlan(NamedTuple):
    """What :meth:`CompactHilbertCurve.index_batch_words` precomputes."""

    limits: np.ndarray  # largest valid coordinate per dimension
    shifts: np.ndarray  # bit position of each plane, high first
    weights: np.ndarray  # 1 << dimension
    masks: tuple  # per plane, the dimensions that still have a free bit
    #: per key word: the planes whose digit starts in it, their left
    #: shifts, and the ``(plane, right shift)`` of a digit of the next
    #: word that spills into it
    words: list
    tables: Optional[tuple]  # from ``_plane_tables``, None when too wide


@functools.lru_cache(maxsize=8)
def _plane_tables(
    n: int, masks: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(succ, rank, group)``: :func:`_plane_step` over all states.

    A row's state on a plane is the index ``s = (rot << n) | x``.
    ``succ[s] = (rot' << n) | (x ^ e_delta)``, so the state on the next
    plane is ``succ[s] ^ l ^ l'`` (``x' = l' ^ e ^ e_delta`` and
    ``e = x ^ l``).  ``rank[g, s]`` is the rank digit under the ``g``-th
    distinct free-dimension mask and ``group[p]`` (a column, to index
    ``rank[group, states]``) the mask plane ``p`` uses.  ``masks``
    determines ``widths`` and back, so every curve of one ``widths``
    tuple in the process shares one result.
    """
    s = np.arange(n << n, dtype=np.uint64)
    rot, x = s >> np.uint64(n), s & np.uint64((1 << n) - 1)
    w, e_delta, rot_next = _plane_step(x, rot, n)
    succ = ((rot_next << np.uint64(n)) | (x ^ e_delta)).astype(np.int64)
    distinct = sorted(set(masks))
    rank = np.stack([_plane_rank(w, rot, m, n) for m in distinct])
    group = np.array([distinct.index(m) for m in masks])[:, None]
    return succ, rank, group


# -- packed multi-word key representation -------------------------------------
#
# Compact Hilbert indices routinely exceed 64 bits, so the columnar leaf
# storage keeps them as fixed-width rows of big-endian uint64 *words*:
# word 0 holds the most significant 64 bits.  Because the words are
# unsigned and big-endian, lexicographic row order equals numeric key
# order, which lets ``np.lexsort`` (stable, like ``sorted``) replace
# per-record arbitrary-precision comparisons.

_WORD_MASK = (1 << 64) - 1


def words_for_bits(bits: int) -> int:
    """Number of 64-bit words needed for a ``bits``-bit key (min 1)."""
    return max(1, (int(bits) + 63) // 64)


def pack_key(key: int, width: int) -> np.ndarray:
    """One key as a big-endian ``(width,)`` uint64 word row."""
    out = np.empty(width, dtype=np.uint64)
    k = int(key)
    for w in range(width - 1, -1, -1):
        out[w] = k & _WORD_MASK
        k >>= 64
    return out


def pack_key_ints(keys, width: int) -> np.ndarray:
    """Pack a sequence of Python ints into an ``(n, width)`` word array."""
    out = np.empty((len(keys), width), dtype=np.uint64)
    for i, key in enumerate(keys):
        k = int(key)
        for w in range(width - 1, -1, -1):
            out[i, w] = k & _WORD_MASK
            k >>= 64
    return out


def key_from_words(row: np.ndarray) -> int:
    """Fold one big-endian word row back into a Python int."""
    out = 0
    for w in row.tolist():
        out = (out << 64) | w
    return out


def lexsort_words(words: np.ndarray) -> np.ndarray:
    """Stable ascending sort order of big-endian word rows.

    Identical to ``sorted(range(n), key=ints.__getitem__)`` on the
    folded integers (both sorts are stable), without materialising any
    Python ints.
    """
    n, width = words.shape
    if width == 1:
        return np.argsort(words[:, 0], kind="stable")
    # np.lexsort treats its *last* key as primary: feed least
    # significant word first so word 0 dominates.
    return np.lexsort(tuple(words[:, w] for w in range(width - 1, -1, -1)))


def argmax_words(words: np.ndarray) -> int:
    """Row index of the lexicographically largest word row (first if tied)."""
    n, width = words.shape
    idx = np.arange(n)
    for w in range(width):
        col = words[idx, w]
        idx = idx[col == col.max()]
        if idx.size == 1:
            break
    return int(idx[0])


# -- classic Hilbert curve ---------------------------------------------------


class HilbertCurve:
    """Hilbert curve over ``n`` dimensions of ``m`` bits each."""

    def __init__(self, num_dims: int, bits: int):
        if num_dims < 1:
            raise ValueError("num_dims must be >= 1")
        if bits < 0:
            raise ValueError("bits must be >= 0")
        self.num_dims = num_dims
        self.bits = bits

    @property
    def total_bits(self) -> int:
        return self.num_dims * self.bits

    def index(self, point: Sequence[int]) -> int:
        """Hilbert index of a point (Hamilton Algorithm 1)."""
        n, m = self.num_dims, self.bits
        if len(point) != n:
            raise ValueError(f"point has {len(point)} dims, expected {n}")
        for j, p in enumerate(point):
            if not 0 <= p < (1 << m):
                raise ValueError(f"coordinate {p} out of range at dim {j}")
        point = [int(p) for p in point]  # a numpy int wraps at bit 63
        h = 0
        e = 0
        d = 0
        for i in range(m - 1, -1, -1):
            l = 0
            for j in range(n):
                l |= ((point[j] >> i) & 1) << j
            l = _transform(e, d, l, n)
            w = gray_code_inverse(l)
            h = (h << n) | w
            e = e ^ _rotate_left(_entry_point(w), d + 1, n)
            d = (d + _direction(w, n) + 1) % n
        return h

    def point(self, h: int) -> tuple[int, ...]:
        """Inverse mapping: point on the curve at index ``h``."""
        n, m = self.num_dims, self.bits
        if not 0 <= h < (1 << (n * m)):
            raise ValueError(f"index {h} out of range")
        p = [0] * n
        e = 0
        d = 0
        for i in range(m - 1, -1, -1):
            w = (h >> (i * n)) & ((1 << n) - 1)
            l = gray_code(w)
            l = _transform_inverse(e, d, l, n)
            for j in range(n):
                p[j] |= ((l >> j) & 1) << i
            e = e ^ _rotate_left(_entry_point(w), d + 1, n)
            d = (d + _direction(w, n) + 1) % n
        return tuple(p)


# -- compact Hilbert curve ----------------------------------------------------


class CompactHilbertCurve:
    """Compact Hilbert curve with per-dimension bit widths.

    The compact index of a point equals the number of valid domain
    points that precede it on the padded Hilbert curve, so sorting by
    compact index is identical to sorting by the padded curve's index --
    but the compact index needs only ``sum(widths)`` bits.
    """

    def __init__(self, widths: Sequence[int]):
        widths = tuple(int(w) for w in widths)
        if not widths:
            raise ValueError("need at least one dimension")
        if any(w < 0 for w in widths):
            raise ValueError("widths must be non-negative")
        if max(widths) == 0:
            raise ValueError("at least one width must be positive")
        self.widths = widths
        self.num_dims = len(widths)
        self.max_bits = max(widths)
        self.total_bits = sum(widths)

    def _check_point(self, point: Sequence[int]) -> None:
        if len(point) != self.num_dims:
            raise ValueError(
                f"point has {len(point)} dims, expected {self.num_dims}"
            )
        for j, (p, w) in enumerate(zip(point, self.widths)):
            if not 0 <= p < (1 << w):
                raise ValueError(
                    f"coordinate {p} out of range [0, 2**{w}) at dim {j}"
                )

    def index(self, point: Sequence[int]) -> int:
        """Compact Hilbert index (Hamilton & Rau-Chaplin Algorithm 2)."""
        self._check_point(point)
        point = [int(p) for p in point]  # a numpy int wraps at bit 63
        n = self.num_dims
        h = 0
        e = 0
        d = 0
        for i in range(self.max_bits - 1, -1, -1):
            # Mask of dimensions that still have a free bit at position i,
            # expressed in the rotated local frame.
            mu = 0
            for j in range(n):
                if self.widths[j] > i:
                    mu |= 1 << j
            mu = _rotate_right(mu, d + 1, n)
            free_bits = bin(mu).count("1")
            # Fixed-bit pattern: bits of the entry point on non-free axes.
            pi = _rotate_right(e, d + 1, n) & (~mu & ((1 << n) - 1))
            l = 0
            for j in range(n):
                l |= ((point[j] >> i) & 1) << j
            l = _transform(e, d, l, n)
            w = gray_code_inverse(l)
            r = _gray_code_rank(mu, w, n)
            e = e ^ _rotate_left(_entry_point(w), d + 1, n)
            d = (d + _direction(w, n) + 1) % n
            h = (h << free_bits) | r
        return h

    def point(self, h: int) -> tuple[int, ...]:
        """Inverse compact mapping (Hamilton & Rau-Chaplin Algorithm 5)."""
        if not 0 <= h < (1 << self.total_bits):
            raise ValueError(f"index {h} out of range")
        n = self.num_dims
        p = [0] * n
        e = 0
        d = 0
        remaining = self.total_bits
        for i in range(self.max_bits - 1, -1, -1):
            mu = 0
            for j in range(n):
                if self.widths[j] > i:
                    mu |= 1 << j
            mu = _rotate_right(mu, d + 1, n)
            free_bits = bin(mu).count("1")
            pi = _rotate_right(e, d + 1, n) & (~mu & ((1 << n) - 1))
            remaining -= free_bits
            r = (h >> remaining) & ((1 << free_bits) - 1)
            w, l = _gray_code_rank_inverse(mu, pi, r, n, free_bits)
            l = _transform_inverse(e, d, l, n)
            for j in range(n):
                p[j] |= ((l >> j) & 1) << i
            e = e ^ _rotate_left(_entry_point(w), d + 1, n)
            d = (d + _direction(w, n) + 1) % n
        return tuple(p)

    # -- vectorised batch kernel ------------------------------------------

    def index_batch(self, points: np.ndarray) -> np.ndarray:
        """Compact Hilbert indices of an ``(n, d)`` coordinate array.

        The rows of :meth:`index_batch_words` folded into an object
        array of Python ints (total bit counts routinely exceed 64).
        """
        words = self.index_batch_words(points)
        out = words[:, 0].astype(object)
        for w in range(1, words.shape[1]):
            out = out * (1 << 64) + words[:, w].astype(object)
        return out

    def index_batch_words(self, points: np.ndarray) -> np.ndarray:
        """Compact Hilbert indices packed as big-endian uint64 words.

        Returns an ``(n, words_for_bits(total_bits))`` uint64 array whose
        rows fold (:func:`key_from_words`) to exactly :meth:`index` of
        each point; lexicographic row order equals numeric index order.

        Rows go through the kernel ``_CHUNK_ROWS`` at a time.  All bit
        planes of a chunk are extracted in one broadcast, the per-plane
        rank digits come from the lookup tables of :func:`_plane_tables`
        (up to ``_TABLE_MAX_DIMS`` dimensions: two numpy operations per
        plane whatever the row count) or from the arithmetic
        :func:`_plane_step` (wider curves: ~60 per plane), and the
        digits are shifted straight into their word positions, so no
        arbitrary-precision arithmetic happens.  Falls back to the
        scalar path when a dimension is wider than 63 bits or there are
        more than 63 dimensions.
        """
        pts = np.asarray(points)
        if pts.ndim != 2 or pts.shape[1] != self.num_dims:
            raise ValueError(
                f"points must be (n, {self.num_dims}), got {pts.shape}"
            )
        npts = pts.shape[0]
        width = words_for_bits(self.total_bits)
        if self.max_bits > 63 or self.num_dims > 63:
            return pack_key_ints([self.index(p) for p in pts], width)
        plan = self._plan
        arr = pts.astype(np.int64, copy=False)
        # a negative coordinate reads as a huge unsigned one
        if (arr.view(np.uint64) > plan.limits).any():
            raise ValueError("coordinate out of range for curve widths")
        out = np.empty((npts, width), dtype=np.uint64)
        for lo in range(0, npts, _CHUNK_ROWS):
            ranks = self._rank_planes(arr[lo : lo + _CHUNK_ROWS], plan)
            for w, (own, shifts, straddlers) in enumerate(plan.words):
                word = np.bitwise_or.reduce(ranks[own] << shifts, axis=0)
                for p, down in straddlers:
                    word |= ranks[p] >> down
                out[lo : lo + _CHUNK_ROWS, w] = word
        return out

    @functools.cached_property
    def _plan(self) -> "_BatchPlan":
        """Everything the batch kernel needs that depends only on
        ``widths``: computed once per curve, the tables once per
        distinct ``widths`` per process."""
        n, width = self.num_dims, words_for_bits(self.total_bits)
        planes = range(self.max_bits - 1, -1, -1)
        masks = tuple(
            sum(1 << j for j in range(n) if self.widths[j] > i) for i in planes
        )
        # where each plane's rank digit lands: (word, shift, digit bits)
        place = []
        bit = self.total_bits
        for mask in masks:
            free_bits = bin(mask).count("1")
            bit -= free_bits
            place.append((width - 1 - (bit >> 6), bit & 63, free_bits))
        words = []
        for w in range(width):
            own = [p for p, (pw, _, _) in enumerate(place) if pw == w]
            words.append((
                np.array(own, dtype=np.intp),
                np.array([place[p][1] for p in own], dtype=np.uint64)[:, None],
                # a digit of the next word whose high bits spill into this one
                [
                    (p, np.uint64(64 - sh))
                    for p, (pw, sh, fb) in enumerate(place)
                    if pw == w + 1 and sh + fb > 64
                ],
            ))
        return _BatchPlan(
            limits=np.array([(1 << w) - 1 for w in self.widths], dtype=np.uint64),
            shifts=np.array(planes, dtype=np.int64)[:, None, None],
            weights=1 << np.arange(n, dtype=np.int64),
            masks=masks,
            words=words,
            tables=_plane_tables(n, masks) if n <= _TABLE_MAX_DIMS else None,
        )

    def _rank_planes(self, arr: np.ndarray, plan: "_BatchPlan") -> np.ndarray:
        """``(max_bits, rows)`` rank digits of a chunk of checked rows."""
        n = self.num_dims
        # bit plane i of every coordinate, packed into one word per row
        planes = ((arr >> plan.shifts) & 1) @ plan.weights
        if plan.tables is not None:
            succ, rank, group = plan.tables
            # table index of (rot, l ^ e), plane by plane: see _plane_tables
            state = np.empty_like(planes)
            state[0] = planes[0] | ((1 % n) << n)
            flips = planes[:-1] ^ planes[1:]
            for p in range(1, len(planes)):
                np.bitwise_xor(succ[state[p - 1]], flips[p - 1], out=state[p])
            return rank[group, state]
        planes = planes.view(np.uint64)
        ranks = np.empty_like(planes)
        e = np.zeros(arr.shape[0], dtype=np.uint64)
        rot = np.full(arr.shape[0], 1 % n, dtype=np.uint64)
        for p, l in enumerate(planes):
            w, e_delta, rot_next = _plane_step(l ^ e, rot, n)
            ranks[p] = _plane_rank(w, rot, plan.masks[p], n)
            e ^= e_delta
            rot = rot_next
        return ranks

    # -- reference implementations for testing ---------------------------

    def brute_force_rank(self, point: Sequence[int]) -> int:
        """Rank of ``point`` among all valid points in padded-curve order.

        Exponential in the domain size; only usable for tiny widths in
        tests, where it serves as the ground-truth definition of the
        compact index.
        """
        self._check_point(point)
        padded = HilbertCurve(self.num_dims, self.max_bits)
        target = padded.index(point)
        rank = 0
        for other in self._iter_domain():
            if padded.index(other) < target:
                rank += 1
        return rank

    def _iter_domain(self):
        from itertools import product

        ranges = [range(1 << w) for w in self.widths]
        yield from product(*ranges)
