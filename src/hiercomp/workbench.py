r"""Edge-list ingestion, canonical output, and rank statistics.

The reader accepts the common plain-text conventions: one whitespace-
separated pair per line, '#'/'%' comment lines, an optional MatrixMarket
banner (in which case the size line is skipped and a value column is
tolerated).  Arbitrary node labels are remapped to dense ids in first-
appearance order and kept on the graph.  A comment like ``# nodes: 123``
fixes the node count, retaining isolated nodes.

Files are UTF-8.  Tokens are split on ASCII whitespace only (space, ``\t``,
``\n``, ``\v``, ``\f``, ``\r`` and ``\x1c``-``\x1f``), and lines end at
``\n``, ``\r\n``, ``\r``, ``\v``, ``\f`` and ``\x1c``-``\x1e``; a label
may hold any other character, Unicode-only spaces such as U+00A0 included.
Reading and writing are numpy work on the file's bytes, not a Python loop
per line or per edge.  The reader reads the file into one array with 8
zero bytes after it, classes its bytes by uint8 comparisons, takes the
tokens from one scan of where the space mask flips and each line's first
token from the line breaks, and keys each label by the 8-byte words at its
start.  Line numbers are counted only for the lines it decodes: comments,
the MatrixMarket banner and a malformed line.  The writer holds ids as
int32 below 2**31 nodes and counts each number's digits by comparisons.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import replace

import numpy as np

from .graph import Graph, build_graph

__all__ = [
    "read_edgelist",
    "write_edgelist",
    "spearman",
    "residual_correlation",
]

_NODES_HINT = re.compile(r"nodes\s*:?\s*(\d+)", re.IGNORECASE)

# Bytes that str.split() takes for whitespace, and the subset that
# str.splitlines() breaks lines on ("\r\n" is one break, at its "\r"), as
# (lo, width) ranges [lo, lo + width]: 9-13 and 28-32, and 10-13 and 28-30.
_SPACES = ((9, 4), (28, 4))
_BREAKS = ((10, 3), (28, 2))
_LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(8)], dtype=np.uint64)  # keep r bytes
_TOP_BYTE = np.array([r << 56 for r in range(8)], dtype=np.uint64)  # r in the top byte
_KEY_BLOCK = 1 << 16  # tokens keyed at once
_WRITE_BLOCK = 1 << 16  # CSR entries per block of rows written at once


def read_edgelist(path) -> Graph:
    """Parse an edge-list file into a :class:`Graph`."""
    held, labels, n = _read_id_pairs(path)
    # build_graph gets the only reference to the id pairs, so it can free them
    return replace(build_graph(held.pop(), n_hint=n), labels=labels)


def _read_id_pairs(path) -> tuple[list[np.ndarray], tuple[str, ...], int]:
    """The (k, 2) id pairs, in a list of one, labels in first-appearance
    order, and the node count.

    The tokens are runs of non-space bytes, and a line's first token is the
    first after a line break.  Only comment lines, the labels and a
    malformed line are decoded, and only their line numbers are counted.
    """
    padded = _read_padded(path)
    buf = padded[:-8]
    data = memoryview(buf)
    if buf.size and buf.max() >= 0x80:
        str(data, "utf-8")  # raise on a file that is not UTF-8
    starts, lens = _tokens(buf)
    breaks = _line_breaks(buf).astype(starts.dtype)
    new = np.zeros(starts.size + 1, dtype=bool)
    new[:1] = True
    new[np.searchsorted(starts, breaks)] = True
    first = np.flatnonzero(new[:-1]).astype(starts.dtype)  # first token of each non-blank line
    del new
    width = np.diff(first, append=first.dtype.type(starts.size))
    lead = buf[starts[first]]
    comment = (lead == ord("#")) | (lead == ord("%"))
    hint: int | None = None
    for i in np.searchsorted(breaks, starts[first[comment]])[::-1].tolist():  # the last hint wins
        found = _NODES_HINT.search(_line_text(data, breaks, i))
        if found:
            hint = int(found.group(1))
            break
    body, width = first[~comment], width[~comment]
    mm = (starts.size > 0 and np.searchsorted(breaks, starts[0]) == 0
          and data[starts[0] : starts[0] + 14] == b"%%MatrixMarket")
    skip = int(mm and width.size > 0 and width[0] == 3)  # rows cols nnz
    body, width = body[skip:], width[skip:]
    bad = np.flatnonzero((width != 2) & ~(mm & (width == 3)))
    if bad.size:
        i = int(np.searchsorted(breaks, starts[body[bad[0]]]))
        raise ValueError(f"{path}: malformed line {i + 1}: {_line_text(data, breaks, i)!r}")
    del breaks, first, width
    kept = np.column_stack((body, body + 1)).ravel()  # the first two tokens of each line
    del body
    starts, lens = starts[kept], lens[kept]
    if not kept.size and hint is None:
        raise ValueError(f"{path}: empty file")
    del kept
    ids, labels = _label_ids(padded, starts, lens)
    n = max(len(labels), hint or 0) if (ids.size or hint) else 0
    return [ids.reshape(-1, 2)], labels, n


def _read_padded(path) -> np.ndarray:
    """The file's bytes and 8 zero bytes after them, so that every 8-byte
    word read at a byte of the file is in bounds.  The file is read into
    the array; a pipe, whose size is not known up front, is read whole first."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        padded = np.empty(size + 8, dtype=np.uint8)
        size = fh.readinto(padded[:size])
        rest = fh.read()
    if rest:
        return np.concatenate((padded[:size], np.frombuffer(rest, dtype=np.uint8), np.zeros(8, np.uint8)))
    padded[size:] = 0
    return padded[: size + 8]


def _byte_class(buf: np.ndarray, ranges, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` whether each byte b lies in one of the (lo, width)
    ranges [lo, lo + width], tested as (b - lo) mod 256 <= width in uint8."""
    shifted = np.empty(buf.size, dtype=np.uint8)
    out[:] = False
    for lo, width in ranges:
        np.subtract(buf, np.uint8(lo), out=shifted)
        out |= shifted <= width
    return out


def _tokens(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of every run of non-space bytes, as int32 when the
    file is under 2 GiB.

    The space mask, with a space assumed before and after the bytes, flips
    at every token's start and again at its end.
    """
    space = np.ones(buf.size + 2, dtype=bool)
    _byte_class(buf, _SPACES, out=space[1:-1])
    flips = np.flatnonzero(space[1:] != space[:-1])
    del space
    flips = flips.astype(np.int32 if buf.size < 2**31 else np.int64)
    starts = flips[0::2].copy()
    lens = flips[1::2] - starts
    return starts, lens


def _line_breaks(buf: np.ndarray) -> np.ndarray:
    r"""Positions of the line breaks, a "\r\n" pair counted once, at its "\r"."""
    brk = _byte_class(buf, _BREAKS, out=np.empty(buf.size, dtype=bool))
    cr = np.flatnonzero(buf[:-1] == ord("\r"))
    brk[cr[buf[cr + 1] == ord("\n")] + 1] = False
    return np.flatnonzero(brk)


def _line_text(data: memoryview, breaks: np.ndarray, i: int) -> str:
    """Line i (0-based) of the file, without its line end."""
    lo = 0
    if i > 0:
        lo = int(breaks[i - 1]) + 1
        lo += data[lo - 1 : lo + 1] == b"\r\n"
    hi = int(breaks[i]) if i < breaks.size else len(data)
    return str(data[lo:hi], "utf-8")


def _label_ids(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Dense int64 id of each token, in first-appearance order, and the labels.

    A token of length L is keyed by L // 8 + 1 little-endian 8-byte words
    read at its start, with the bytes past its end masked off and L % 8 in
    the last word's top byte, so two tokens of one word count have equal
    keys exactly when their bytes are equal.  Each word count is one group,
    with one argsort and an adjacent-unequal mask; the smallest token index
    in a run of equal keys is that label's first appearance.  ``buf`` holds
    the file's bytes and 8 more, so a word or byte read past a token at the
    file's end is in bounds.
    """
    counts = np.bincount(lens >> 3)  # tokens by word count - 1
    label = np.empty(starts.size, dtype=starts.dtype)
    firsts, found = [], 0
    for w in np.flatnonzero(counts).tolist():
        sel = slice(None) if counts[w] == starts.size else np.flatnonzero((lens >> 3) == w)
        keys = _token_keys(buf, starts[sel], lens[sel])
        if w == 0:
            order = np.argsort(keys[0])
            keys.sort(axis=1)  # the same order, in place
        else:
            order = np.lexsort(keys)
            keys = keys[:, order]
        run = np.ones(order.size, dtype=bool)
        np.any(keys[:, 1:] != keys[:, :-1], axis=0, out=run[1:])
        del keys
        tok = order if isinstance(sel, slice) else sel[order]
        del order, sel
        heads = np.flatnonzero(run)
        ids = run.astype(label.dtype)
        np.cumsum(ids, out=ids)
        ids += found - 1
        label[tok] = ids
        del run, ids
        firsts.append(np.minimum.reduceat(tok, heads))
        found += heads.size
        del tok, heads
    first = np.concatenate(firsts) if firsts else np.zeros(0, dtype=np.intp)
    order = np.argsort(first)
    rank = np.empty(first.size, dtype=np.int64)
    rank[order] = np.arange(first.size)
    ids = rank[label]
    del label, rank
    first = first[order]
    at, size = starts[first].astype(np.int64), lens[first].astype(np.int64) + 1
    offset = np.cumsum(size) - size  # each label, then a "\n", in one buffer
    gather = np.arange(int(size.sum())) + np.repeat(at - offset, size)
    text = buf[gather]
    text[offset + size - 1] = ord("\n")
    return ids, tuple(text.tobytes().decode().split("\n")[:-1])


def _token_keys(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """(w, k) uint64 keys of k tokens that all span w = L // 8 + 1 words,
    built in blocks of tokens so that no temporary is the size of a key row.
    ``buf`` has 8 bytes after the file's last, so every word is in bounds."""
    windows = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))  # unaligned
    keys = np.empty((int(lens[0]) // 8 + 1, starts.size), dtype=np.uint64)
    for lo in range(0, starts.size, _KEY_BLOCK):
        block = slice(lo, lo + _KEY_BLOCK)
        at = starts[block].astype(np.int64)
        for row in keys:
            row[block] = windows[at]
            at += 8
        rest = lens[block] & 7
        keys[-1, block] &= _LOW_BYTES[rest]
        keys[-1, block] |= _TOP_BYTE[rest]
    return keys


def write_edgelist(g: Graph, path) -> None:
    """Canonical text form: node-count header then ascending 'u v' lines.

    The CSR is written in blocks of rows, each block's digits placed by
    numpy, so no more than one block of lines is held at a time.  Ids are
    int32 below 2**31 nodes.
    """
    dtype = np.int32 if g.n < 2**31 else np.int64
    with open(path, "wb") as out:
        out.write(f"# nodes: {g.n} edges: {g.m}\n".encode())
        r0 = 0
        while r0 < g.n:
            r1 = int(np.searchsorted(g.indptr, g.indptr[r0] + _WRITE_BLOCK, side="right")) - 1
            r1 = max(r1, r0 + 1)
            rows = np.repeat(np.arange(r0, r1, dtype=dtype), g.degrees[r0:r1])
            cols = g.indices[g.indptr[r0] : g.indptr[r1]].astype(dtype)
            upper = cols > rows
            out.write(_edge_lines(rows[upper], cols[upper]))
            r0 = r1


def _edge_lines(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """ASCII 'u v' lines, one per pair of non-negative ids.

    A number's digit count is 1 plus how many of 10, 100, ... it reaches,
    comparing up to the largest number; its digits are placed from the last.
    """
    nums = np.column_stack((u, v)).ravel()
    end = np.full(nums.size, 2, dtype=np.int64)  # digits, then ' ' or '\n'
    power, top = 10, int(nums.max()) if nums.size else 0
    while power <= top:
        end += nums >= power
        power *= 10
    np.cumsum(end, out=end)
    text = np.empty(int(end[-1]) if end.size else 0, dtype=np.uint8)
    text[end - 1] = ord(" ")
    text[end[1::2] - 1] = ord("\n")
    at = end - 2  # last digit of each number
    while nums.size:
        q = nums // 10
        digit = (nums - q * 10).astype(np.uint8)
        digit += ord("0")
        text[at] = digit
        more = q > 0
        nums, at = q[more], at[more] - 1
    return text


def _average_ranks(v: np.ndarray) -> np.ndarray:
    order = np.argsort(v, kind="stable")
    sv = v[order]
    new = np.empty(v.size, dtype=bool)
    new[0] = True
    np.not_equal(sv[1:], sv[:-1], out=new[1:])
    group = np.cumsum(new) - 1
    firsts = np.flatnonzero(new)
    counts = np.diff(np.append(firsts, v.size))
    avg = firsts + (counts + 1) / 2.0  # 1-based average rank of each tie group
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = avg[group]
    return ranks


def spearman(x, y) -> tuple[float, float]:
    """Rank correlation with average ranks for ties, and the two-sided p
    from the t transform on n-2 degrees of freedom."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("inputs must be equal-length 1-d vectors")
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("constant input")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rho = _pearson(rx, ry)
    if abs(rho) >= 1.0:
        return (max(-1.0, min(1.0, rho)), 0.0)
    from scipy.stats import t as student_t  # slow to import, and only needed here

    tval = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(student_t.sf(abs(tval), n - 2))
    return rho, p


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    return float(da @ db / math.sqrt((da @ da) * (db @ db)))


def residual_correlation(hc, density, n_nodes) -> tuple[float, float]:
    """Rank correlation of hc against density after removing its n trend.

    Fits density ~ n by least squares and correlates the residuals with hc,
    so a density-flat measure should come out near zero here only if it
    also ignores the structure the residuals retain.
    """
    hc = np.asarray(hc, dtype=np.float64)
    density = np.asarray(density, dtype=np.float64)
    n_nodes = np.asarray(n_nodes, dtype=np.float64)
    if not (hc.shape == density.shape == n_nodes.shape) or hc.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d vectors")
    if hc.size < 4:
        raise ValueError("need at least 4 observations")
    dx = n_nodes - n_nodes.mean()
    if np.all(dx == 0.0):
        raise ValueError("degenerate design: node counts constant")
    dy = density - density.mean()
    slope = float(dx @ dy / (dx @ dx))
    resid = dy - slope * dx
    spread = max(1.0, float(np.abs(dy).max()))
    if float(np.abs(resid).max()) <= 1e-12 * spread:
        raise ValueError("constant input: density is linear in n, residuals carry no variation")
    return spearman(resid, hc)

