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
    shifts = [-1]
    j = 0
    t = -1
    while j < m - 1:
        while t >= 0 and pattern[j] != pattern[t]:
            t = shifts[t]
        j += 1
        t += 1
        if pattern[j] == pattern[t]:
            shifts.append(shifts[t])
        else:
            shifts.append(t)
    return shifts


@dataclass(frozen=True)
class SkipTable:
    """Hash-indexed shift table plus its derived constants.

    ``shifts[h]`` says how far the alignment may advance when the
    probed window hashes to ``h``.  The entry for the pattern's tail
    window is replaced by ``large`` (text size + 1, big enough to force
    the scan loop past its single exit test); ``adjustment``, which is
    ``large + m - 1``, undoes that after the loop, and ``mismatch_shift``
    keeps the tail entry's value from before the substitution.
    """

    shifts: list
    mismatch_shift: int
    adjustment: int


# signature kept: perfbench's traced run times this call directly
def compute_skip(pattern, scheme, text_size):
    """Build the skip table for ``pattern`` under ``scheme``.

    Every hash bucket starts at the default shift ``m - s + 1`` (with
    ``s = scheme.suffix_size``); windows ending at pattern positions
    ``s-1 .. m-2`` lower their bucket to ``m - 1 - j``, latest position
    winning.  The tail bucket's value becomes ``mismatch_shift`` and is
    then overwritten with ``large = text_size + 1``.
    """
    m = len(pattern)
    if m == 0:
        raise EmptyPattern("cannot preprocess an empty pattern")
    s = scheme.suffix_size
    if m < s:
        raise SuffixTooLong(f"pattern size {m} is below suffix size {s}")
    shifts = [m - s + 1] * scheme.hash_range_max
    # the pattern type's skip loop: one step from j over `ones` lands on
    # j + 1 + hash(pattern, j)
    advance = scheme.probe(pattern)
    ones = range(1, scheme.hash_range_max + 1)
    for j in range(s - 1, m - 1):
        shifts[advance(pattern, ones, j, j + 1) - j - 1] = m - 1 - j
    tail = advance(pattern, ones, m - 1, m) - m
    mismatch_shift = shifts[tail]
    large = text_size + 1
    shifts[tail] = large
    return SkipTable(shifts, mismatch_shift, large + m - 1)
