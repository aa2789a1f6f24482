"""Pattern preprocessing: failure links and skip tables.

Two tables drive the searches in :mod:`seqmatch.search`.  The *next*
table holds KMP-style failure links that let a scan resume at the point
of mismatch instead of re-reading text.  The *skip* table is a
Boyer-Moore-style occurrence table, indexed by a hash of the window
ending at the probed position, that tells the scan how far the
alignment may jump.
"""

from dataclasses import dataclass

from .errors import EmptyPattern, SuffixTooLong
from .schemes import _compiled


def compute_next(pattern):
    """Failure-link table for ``pattern``, in O(m).

    ``next[j]`` is the largest ``i < j`` with ``pattern[:i] ==
    pattern[j-i:j]`` and ``pattern[i] != pattern[j]``, or -1 when no
    such prefix exists.  The extra mismatch condition is what makes the
    links safe to follow without re-comparing the element that just
    failed.

    >>> compute_next("a")
    [-1]
    >>> compute_next("aaaa")
    [-1, -1, -1, -1]
    >>> compute_next("ab")
    [-1, 0]
    """
    m = len(pattern)
    if m == 0:
        raise EmptyPattern("cannot preprocess an empty pattern")
    # a list indexes on CPython's fast path; an mmap copies as 1-byte
    # bytes, which compare with each other as its ints do
    symbols = list(pattern)
    shifts = [-1] * m
    j = 0
    t = -1
    while j < m - 1:
        while t >= 0 and symbols[j] != symbols[t]:
            t = shifts[t]
        j += 1
        t += 1
        shifts[j] = shifts[t] if symbols[j] == symbols[t] else t
    return shifts


@dataclass(frozen=True)
class SkipTable:
    """Hash-indexed shift table plus its derived constants.

    ``shifts[h]`` says how far the alignment may advance when the
    probed window hashes to ``h``.  ``_fill_skip`` writes every entry,
    ``mismatch_shift`` and ``adjustment``; the skip loop that reads
    them is ``search._SKIP_SEARCH``.
    """

    shifts: list
    mismatch_shift: int
    adjustment: int


def _fill_skip(slots, hashes, m, skew, text_size):
    # The one skip-table rule, for hal's table and nhal's reusable one.
    # `hashes` are the pattern's window hashes, tail last; each slot
    # holds its value less `skew`.  The tail slot's `large` exceeds
    # every text position, so only a tail hit stops the skip loop.
    # nhal passes its pattern as `hashes`: an mmap indexes as ints.
    last = len(hashes) - 1
    for i in range(last):
        slots[hashes[i]] = last - i - skew
    tail = hashes[last]
    mismatch_shift = slots[tail] + skew
    large = text_size + 1
    slots[tail] = large - skew
    return SkipTable(slots, mismatch_shift, large + m - 1)


# the hashes of the windows of `text` ending at lo .. hi - 1, as the skip
# loop probes them: one list comprehension over a probe index, with
# `hash` bound for generic schemes and, in `{tables}`, the combine tables
# the index reads bound as positional defaults, compiled by
# `schemes._compiled`
_WINDOWS = ("def windows(text, hash, lo, hi{tables}):\n    {low}\n"
            "    return [{index} for pos in range(lo, hi)]\n")


# signature kept: perfbench's traced run times this call directly
def compute_skip(pattern, scheme, text_size):
    """Build the skip table for ``pattern`` under ``scheme``.

    Every hash bucket starts at the default shift ``m - s + 1`` (with
    ``s = scheme.suffix_size``); ``_fill_skip`` then writes the buckets
    of the windows ending at pattern positions ``s-1 .. m-1``, with no
    skew, for texts of up to ``text_size`` elements.  Each window is
    hashed by ``scheme.probe(pattern)``, the index that the scheme's
    skip loop probes, inline, so a shift-sum scheme makes no call per
    window.
    """
    m = len(pattern)
    if m == 0:
        raise EmptyPattern("cannot preprocess an empty pattern")
    s = scheme.suffix_size
    if s == 0:
        raise ValueError("the scheme has no probe window to build a skip "
                         "table for")
    if m < s:
        raise SuffixTooLong(f"pattern size {m} is below suffix size {s}")
    shifts = [m - s + 1] * scheme.hash_range_max
    keys = _compiled(_WINDOWS, "windows", scheme.probe(pattern))(
        pattern, scheme.hash, s - 1, m)
    return _fill_skip(shifts, keys, m, 0, text_size)
