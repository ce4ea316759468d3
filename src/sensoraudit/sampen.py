"""Exact template-pair counts for sample entropy, 64 pairs per word operation.

``counts`` takes rows of samples and their tolerances r and returns, per
row, the unordered template pairs within r at length m + 1 (A) and m (B),
self-matches excluded, as Richman & Moorman 2000 (Am J Physiol
278:H2039) define them. The counts are exact integers and cost about
W^2 / 64 word operations per row, whatever the data.

It runs in two passes:

* The preparation pass takes all the rows at once. It sorts each row
  once; sorted sample p lies within r of the sorted run [lo[p], hi[p]).
  hi is found by a search of each row and then settled with the same
  ``|x[i] - x[j]| <= r`` comparison as the definition. Because that
  comparison is symmetric, lo[p] is the number of samples whose hi is at
  most p. Past the sort and the searches this is O(W) work per row, in
  one set of numpy calls for all the call's rows.
* The bitset pass takes a block of rows at a time, as many as prefix
  tables of ``budget`` bytes hold, or one row, whose table is built in
  tiles of columns if it alone exceeds the budget. Row c of a prefix
  table holds the bitset of the c smallest samples, so sample i's matches
  are the XOR of two table rows. Template i matches template j at length
  m when bit j is set in the AND of the matches of samples i + k, each
  shifted down by k, for k < m; a further AND with k = m gives length
  m + 1. ``np.bitwise_count`` counts the partners.

A row's counts do not depend on its call, block or tiles. ``Work`` holds
the arrays of both passes, so a caller that counts many calls' rows of
one length allocates them once.
"""

import math
import mmap

import numpy as np


class Work:
    """The arrays of both passes, for calls of up to ``rows`` rows of n samples,
    in one anonymous memory mapping.

    The preparation pass leaves ``runs`` (hi, lo) and ``joins``, as table
    rows counted from the row's block's first. The bitset pass builds a
    block's tables in ``tables``. Until it writes its results, the
    preparation keeps its floats in ``tables`` (``floats``) and each row's
    sample order in ``joins``.
    """

    def __init__(self, rows: int, n: int, m: int, budget: int):
        self.n, self.m, self.budget = n, m, budget
        # Bit b of column e is sample e + b * words, for e < words + m: the
        # columns from words on repeat earlier ones with their bits moved
        # down. Column e + k then holds, bit for bit, the samples k after
        # those of column e, so shifting the matches of a template's
        # coordinate k down by k is reading k columns further on. A tile
        # covers ``tile`` columns and reads m more.
        self.words = -(-n // 64)
        self.depth = -(-n // self.words)  # bits per column
        self.bits = np.left_shift(np.uint64(1), np.arange(self.depth, dtype=np.uint64))[:, None]
        self.block = max(1, min(rows, budget // (8 * (n + 1) * (self.words + m))))
        self.tile = max(1, min(self.words, budget // (8 * self.block * (n + 1)) - m))
        width = self.tile + m
        bitsets = self.block * (2 * n + 1) * width + m * (width + 1)
        # a row's popcount sum over one tile, at most 64 * n * width, in
        # the narrowest type that holds it: summing into it is faster
        self.tally = np.uint32 if 64 * n * width < 1 << 32 else np.int64
        tables = 8 * max(bitsets, 2 * rows * (n + 1))
        index = np.min_scalar_type(-self.block * (n + 1))  # the smallest signed type that fits
        runs = 2 * rows * n
        # One anonymous mapping, not heap memory: its pages are faulted in
        # once and given back as soon as the last array drops it, whatever
        # the allocator holds; a heap chunk freed below live data stays
        # resident.
        size = tables + (runs + rows * self.depth * self.words) * index.itemsize
        memory = np.frombuffer(mmap.mmap(-1, size), dtype=np.uint8)
        self.tables = memory[:tables].view(np.uint64)
        self.runs = memory[tables:].view(index)[:runs].reshape(2, rows * n)
        self.joins = memory[tables:].view(index)[runs:]

    def floats(self, count: int) -> np.ndarray:
        """Two ``(count, n + 1)`` float arrays in ``tables``: samples, sorted samples."""
        return self.tables[: 2 * count * (self.n + 1)].view(np.float64).reshape(2, count, self.n + 1)


def counts(rows: np.ndarray, r: np.ndarray, work: Work) -> tuple[np.ndarray, np.ndarray]:
    """Unordered template pairs within r at length m + 1 (A) and m (B), per row."""
    count, n = rows.shape
    work.floats(count)[0][:, :n] = rows  # nothing to copy if rows are that array
    prepare(count, r, work)
    ab = np.empty((2, count), dtype=np.int64)
    for start in range(0, count, work.block):
        stop = min(count, start + work.block)
        ab[:, start:stop] = bitsets(start, stop, work)
    # every template matches itself, and each unordered pair counts twice
    return (ab[0] - (n - work.m)) // 2, (ab[1] - (n - work.m)) // 2


def prepare(count: int, r: np.ndarray, work: Work) -> None:
    """The preparation pass over the first ``count`` rows of ``work.floats``' samples.

    Fills ``work.runs`` and ``work.joins`` for them.
    """
    n = work.n
    samples, first = work.floats(count)
    samples[:, n] = math.inf  # sorts last and ends every run
    order = np.argsort(samples, axis=1)
    sorted_at = work.joins[: count * n].reshape(count, n)  # until joins are built
    np.copyto(sorted_at, order[:, :n], casting="same_kind")
    order += np.arange(0, count * (n + 1), n + 1)[:, None]
    np.take(samples, order, out=first, mode="clip")  # in range; "clip" writes out unbuffered
    del order
    # Row k * (n + 1) + c of the prefix table of all rows is the bitset of
    # row k's c smallest samples, up to a constant per row. The samples
    # within r of sorted sample p are the sorted run [lo, hi):
    # table[hi] ^ table[lo].
    hi = upper_bounds(first, r, samples).reshape(count, n)
    # From here on the floats are spent: the samples' memory holds each
    # row's samples in sorted order, as k * n + i, and the sorted samples'
    # memory holds lo.
    at = work.tables[: count * n].view(np.intp).reshape(count, n)
    np.add(sorted_at, np.arange(0, count * n, n)[:, None], out=at)
    # |x[i] - x[j]| <= r is symmetric, so lo[p] = #{p' : hi[p'] <= p}.
    below = work.tables[count * (n + 1) : 2 * count * (n + 1)].view(np.intp)
    np.cumsum(np.bincount(hi.reshape(-1), minlength=below.size), out=below)
    below = below.reshape(count, n + 1)
    # The bitset pass builds one block's table at a time, so count each
    # row's table rows from its block's first one.
    start = np.arange(count) // work.block * (work.block * (n + 1))
    below += (np.arange(count) - start)[:, None]
    hi -= start[:, None]
    work.runs[0][at] = hi
    work.runs[1][at] = below[:, :n]
    del hi
    # joins[k, b, c]: the table row that first holds row k's sample c + b *
    # words. Padding past n joins at row 0, so every row holds it and it
    # cancels like the earlier rows' samples below.
    size = work.depth * work.words
    joins = work.joins[: count * size]
    joins.fill(0)
    at += (np.arange(count) * (size - n))[:, None]
    np.add((np.arange(count) * (n + 1) - start)[:, None], np.arange(1, n + 1), out=below[:, :n])
    joins[at] = below[:, :n]


def bitsets(start: int, stop: int, work: Work) -> tuple[np.ndarray, np.ndarray]:
    """The bitset pass over one block: ordered A and B, self-matches included,
    of prepared rows start .. stop - 1."""
    n, m, words, depth = work.n, work.m, work.words, work.depth
    q = n - m  # templates of both lengths start at 0 .. q-1
    count = stop - start
    hi_at, lo_at = work.runs[:, start * n : stop * n]
    joins = work.joins[start * depth * words : stop * depth * words].reshape(count, depth, words)
    table_size = count * (n + 1) * (work.tile + m)
    table_words, near_words = work.tables[:table_size], work.tables[table_size:]
    a = np.zeros(count, dtype=np.int64)
    b = np.zeros(count, dtype=np.int64)
    for w0 in range(0, words, work.tile):
        t = min(work.tile, words - w0)
        width = t + m
        table = table_words[: count * (n + 1) * width].reshape(-1, width)
        table.fill(0)
        for s in range((w0 + width - 1) // words + 1):  # column c + s * words, bit b - s
            c0, c1 = max(0, w0 - s * words), min(words, w0 + width - s * words)
            table[joins[:, s:, c0:c1], np.arange(c0, c1) + (s * words - w0)] = work.bits[: depth - s]
        # Row k * (n + 1) + c now holds row k's c smallest samples XOR the
        # padding and all earlier rows' samples, which cancel in
        # table[hi] ^ table[lo].
        np.bitwise_xor.accumulate(table, axis=0, out=table)
        size = count * n * width
        near = near_words[:size].reshape(count * n, width)
        np.take(table, hi_at, axis=0, out=near, mode="clip")  # in range; "clip" writes out unbuffered
        step = max(1, work.budget // (32 * width))  # a quarter of the budget
        for i in range(0, count * n, step):
            near[i : i + step] ^= np.take(table, lo_at[i : i + step], axis=0)
        # templates[k, i] holds the templates that match row k's template
        # i; the table is spent. Sample i + k's column j + k lies k * (width
        # + 1) words after sample i's column j, so each AND is one
        # contiguous pass. Where it reads past the tile, the row or near
        # itself (into slack), the zeroing below clears the result.
        match = table.reshape(-1)[:size]
        shift = (m - 1) * (width + 1)
        np.bitwise_and(near_words[:size], near_words[shift : shift + size], out=match)
        for k in range(1, m - 1):
            match &= near_words[k * (width + 1) : k * (width + 1) + size]
        templates = match.reshape(count, n, width)
        templates[:, :, t:] = 0
        templates[:, q:] = 0
        if w0 <= q % words < w0 + t:  # the length-m template at q is not one of the q
            templates[:, :, q % words - w0] &= ~np.left_shift(np.uint64(1), np.uint64(q // words))
        b += np.bitwise_count(templates).sum(axis=(1, 2), dtype=work.tally)
        match &= near_words[m * (width + 1) : m * (width + 1) + size]
        a += np.bitwise_count(templates).sum(axis=(1, 2), dtype=work.tally)
    return a, b


def upper_bounds(first: np.ndarray, r: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Per sorted row, the prefix-table row that ends each sample's run within r.

    ``first`` holds the sorted rows, each followed by +inf. Entry p of row
    k of the result is k * (n + 1) plus the first position after p whose
    value exceeds ``first[k, p]`` by more than ``r[k]``. Differences from
    a value grow along the sorted row, so a search of each row for
    ``first[k, p] + r[k]`` finds it up to rounding; the exact comparison
    then moves it to the end of the run. ``gaps``, contiguous and of at
    least the result's size, is overwritten.
    """
    count, n = first.shape[0], first.shape[1] - 1
    gaps = gaps.reshape(-1)[: count * n].reshape(count, n)
    np.add(first[:, :n], r[:, None], out=gaps)
    reach = np.empty((count, n), dtype=np.intp)
    for k in range(count):
        reach[k] = np.searchsorted(first[k, :n], gaps[k], side="right")
    reach += np.arange(0, count * (n + 1), n + 1)[:, None]
    reach = reach.reshape(-1)
    flat = first.reshape(-1)
    np.take(flat, reach, out=gaps.reshape(-1), mode="clip")  # in range; "clip" writes out unbuffered
    gaps -= first[:, :n]
    stuck = np.flatnonzero(gaps <= r[:, None])
    while stuck.size:
        reach[stuck] += 1
        row = stuck // n
        stuck = stuck[flat[reach[stuck]] - flat[stuck + row] <= r[row]]
    reach -= 1
    np.take(flat, reach, out=gaps.reshape(-1), mode="clip")
    reach += 1
    gaps -= first[:, :n]
    stuck = np.flatnonzero(gaps > r[:, None])
    while stuck.size:
        reach[stuck] -= 1
        row = stuck // n
        stuck = stuck[flat[reach[stuck] - 1] - flat[stuck + row] > r[row]]
    return reach
