"""Sequence searches built on failure links and hashed skip loops.

Every search shares one contract: return the smallest offset ``k`` with
``text[k:k+m]`` equal to the pattern elementwise, or not-found.  ``sf``
is the optimized straightforward scan.  ``kmp`` and its streamlined
form ``l`` never re-read text and bound element comparisons by ``2n``;
``l`` additionally needs only a single forward pass, so it accepts
one-shot iterators.  ``al``/``hal`` keep those bounds but add a skip
loop that advances the alignment by occurrence-table lookups, probing
one hashed window per stop instead of comparing elements.  That loop
is always the callable ``advance(text, skip, pos, n)`` that the
scheme's ``probe(text)`` returns.  ``nhal`` drops the hash in favor of
a full 16-bit-alphabet table whose entries are skewed so that zero
means "default shift", letting one zero-filled table be reused across
searches; its loop adds the skew back.

Conventions: empty patterns match at offset 0; texts shorter than the
pattern report not-found; size-1 patterns take a linear scan, but kmp
runs its own loop.  Searches never mutate their inputs and may run
concurrently, except that one ``ReusableSkipTable`` serves one search
at a time.  Every hashed search builds its tables for the text's
power-of-two size class, so ``dispatch_search`` can keep those of bytes
and str patterns in a ``functools.lru_cache``, safe to share: its
tables are never written after they are built.
"""

from dataclasses import dataclass
from functools import lru_cache
from mmap import mmap

from .schemes import BYTE, DNA2, DNA3, DNA4, DNA5, default_scheme_for
from .tables import compute_next, compute_skip


@dataclass(frozen=True)
class SearchOutcome:
    """Offset of the first match, or None when the pattern is absent."""

    position: "int | None"

    @property
    def found(self):
        return self.position is not None


# kept in the package: `seqmatch selftest` and criterion 1 check against it
def naive_search(text, pattern):
    """Reference scan: try every alignment in order, first match wins.

    Deliberately unrelated to the table-driven searches; self-tests and
    the benchmark cross-check lean on it as an independent baseline.
    """
    n = len(text)
    m = len(pattern)
    if m == 0:
        return SearchOutcome(0)
    for k in range(n - m + 1):
        if text[k:k + m] == pattern:
            return SearchOutcome(k)
    return SearchOutcome(None)


def _linear_scan(text, first):
    # size-1 patterns: plain find, no tables; an mmap iterates as bytes
    k = 0
    for x in (memoryview(text) if isinstance(text, mmap) else text):
        if x == first:
            return k
        k += 1
    return None


def _sf(text, pattern):
    n = len(text)
    m = len(pattern)
    if m == 0:
        return 0
    if n < m:
        return None
    first = pattern[0]
    if m == 1:
        return _linear_scan(text, first)
    limit = n - m
    k = 0
    while k <= limit:
        while text[k] != first:  # scan for a plausible start
            k += 1
            if k > limit:
                return None
        j = 1
        k += 1
        while text[k] == pattern[j]:  # verify the rest
            k += 1
            j += 1
            if j == m:
                return k - m
        k -= j - 1  # realign one position past the old start
    return None


def search_sf(text, pattern):
    """Optimized straightforward search; O(m*n) worst case.

    >>> search_sf("abc", "abc").position
    0
    >>> search_sf("abc", "abd").position is None
    True
    """
    return SearchOutcome(_sf(text, pattern))


def _kmp(text, pattern):
    n = len(text)
    m = len(pattern)
    if m == 0:
        return 0
    if n < m:
        return None
    shifts = compute_next(pattern)
    j = 0
    k = 0
    while j < m and k < n:
        while j >= 0 and text[k] != pattern[j]:
            j = shifts[j]
        k += 1
        j += 1
    if j == m:
        return k - m
    return None


def search_kmp_basic(text, pattern):
    """Textbook failure-link search; O(m + n), comparisons <= 2n."""
    return SearchOutcome(_kmp(text, pattern))


def _l(text, positions, shifts):
    m = len(positions)
    first = positions[0]
    if m == 1:
        return _linear_scan(text, first)
    step = iter(memoryview(text) if isinstance(text, mmap) else text).__next__
    # `cur` is the element under the cursor, `k` its position.  Running
    # off the end anywhere means no match, hence the blanket handler.
    k = 0
    try:
        cur = step()
        while True:
            while cur != first:  # scan
                cur = step()
                k += 1
            j = 1  # verify positions 1 .. m-1
            cur = step()
            k += 1
            while cur == positions[j]:
                j += 1
                if j == m:
                    return k - m + 1
                cur = step()
                k += 1
            while True:  # recover through the failure links
                j = shifts[j]
                if j < 0:
                    cur = step()
                    k += 1
                    break
                if j == 0:
                    break
                while cur == positions[j]:
                    j += 1
                    if j == m:
                        return k - m + 1
                    cur = step()
                    k += 1
    except StopIteration:
        return None


def search_l(text, pattern):
    """Forward-only linear search: one pass over ``text``, comparisons
    <= 2n.

    Both arguments may be arbitrary iterables (including one-shot
    iterators); the pattern alone is materialized.

    >>> search_l(iter("Now's the time..."), "time").position
    10
    """
    positions = list(pattern)
    if not positions:
        return SearchOutcome(0)
    return SearchOutcome(_l(text, positions, compute_next(positions)))


def _skip_scan(text, pattern, shifts, skip, advance, mismatch_shift,
               adjustment):
    # The one skip-loop search behind al, hal, hal2..hal5 and nhal; needs
    # 2 <= m <= n and the pattern's failure links `shifts`.  `advance` is
    # the whole skip loop, as a scheme's probe(text) returns it: called
    # once per entry, it runs `while pos < n: pos += skip[<probe>]`.  The
    # tail slot holds a `large` above n, so only a tail hit stops the loop
    # at n + m or beyond, and `adjustment` takes it back to its alignment.
    n = len(text)
    m = len(pattern)
    first = pattern[0]
    k = 0
    while True:
        k += m - 1
        if k >= n:
            return None
        k = advance(text, skip, k, n)
        if k < n + m:
            return None  # ran off the end without a tail match
        k -= adjustment
        if text[k] != first:
            k += mismatch_shift
            continue
        j = 1
        while True:
            k += 1
            if text[k] != pattern[j]:
                break
            j += 1
            if j == m:
                return k - m + 1
        if mismatch_shift > j:
            k += mismatch_shift - j
            continue
        while True:  # recover through the failure links
            j = shifts[j]
            if j < 0:
                k += 1
                break
            if j == 0:
                break
            while text[k] == pattern[j]:
                k += 1
                j += 1
                if j == m:
                    return k - m
                if k == n:
                    return None


def _tables(pattern, scheme, size_bits):
    # the skip loop's tables for texts of up to 2**size_bits - 1 elements:
    # large = 2**size_bits exceeds each of them and stays <= 2n for a text
    # of that size class, so tail hits keep small-int arithmetic
    return (compute_next(pattern),
            compute_skip(pattern, scheme, (1 << size_bits) - 1))


_cached_tables = lru_cache(maxsize=256)(_tables)


def _hal(text, pattern, scheme, tables=_tables):
    n = len(text)
    m = len(pattern)
    if m == 0:
        return 0
    s = scheme.suffix_size
    if s == 0 or m < s:
        # scheme cannot cover a probe window; use the forward search
        return _l(text, pattern, compute_next(pattern))
    if n < m:
        return None
    if m == 1:
        return _linear_scan(text, pattern[0])
    shifts, table = tables(pattern, scheme, n.bit_length())
    return _skip_scan(text, pattern, shifts, table.shifts, scheme.probe(text),
                      table.mismatch_shift, table.adjustment)


def search_hal(text, pattern, scheme=None):
    """Hashed skip-loop search over a random-access text.

    Probes the hash of the window ending each candidate alignment and
    only falls into comparison work when it matches the pattern tail's
    hash.  With no ``scheme``, the default for the element type
    applies; schemes whose window cannot fit the pattern fall back to
    the forward search.  Comparisons stay <= 2n regardless of scheme
    quality.
    """
    if scheme is None:
        scheme = default_scheme_for(text)
    return SearchOutcome(_hal(text, pattern, scheme))


def search_al(text, pattern):
    """Skip-loop search specialized to byte/character elements.

    Same machinery as ``search_hal`` with the identity byte hash: the
    probe inspects the single element under the pattern's last
    position.
    """
    return SearchOutcome(_hal(text, pattern, BYTE))


class ReusableSkipTable:
    """Full 16-bit-alphabet shift storage, zero-filled between searches.

    During a search, entries are stored skewed by ``-(m - s + 1)`` so a
    zero denotes the default shift; every entry the search wrote is
    restored to zero before it returns.  One instance can therefore be
    reused indefinitely, paying the 65536-slot initialization once.
    One search at a time per instance.
    """

    size = 1 << 16

    def __init__(self):
        self.slots = [0] * self.size


def _nhal(text, pattern, table):
    n = len(text)
    m = len(pattern)
    if m == 0:
        return 0
    if n < m:
        return None
    if not all(isinstance(s, int) and 0 <= s < table.size for s in pattern):
        raise ValueError("pattern symbols must be integers in the table's "
                         "16-bit domain")
    if m == 1:
        return _linear_scan(text, pattern[0])
    slots = table.slots
    skew = m  # suffix size 1, so the default shift is m - 1 + 1

    def advance(text, skip, pos, n):
        while pos < n:
            pos += skip[text[pos]] + skew
        return pos
    try:
        for j in range(m - 1):
            slots[pattern[j]] = m - 1 - j - skew
        tail = pattern[m - 1]
        mismatch_shift = slots[tail] + skew
        large = n + 1
        slots[tail] = large - skew
        return _skip_scan(text, pattern, compute_next(pattern), slots,
                          advance, mismatch_shift, large + m - 1)
    except (IndexError, TypeError):
        # only a probed text symbol can index past the table, or fail
        # to index it at all
        raise ValueError("text symbols exceed the table's 16-bit domain") \
            from None
    finally:
        for j in range(m):
            slots[pattern[j]] = 0


def search_nhal(text, pattern, table=None):
    """Non-hashed skip-loop search for integer symbols below 2**16.

    ``table`` is the reusable skewed storage; pass one explicitly to
    amortize its initialization across searches (a fresh table is made
    when omitted).  The table is restored to all zeros on every exit
    path, so consecutive searches never see each other's entries.
    """
    if table is None:
        table = ReusableSkipTable()
    return SearchOutcome(_nhal(text, pattern, table))


def dispatch_search(text, pattern, scheme=None):
    """Route to the forward search or the hashed skip-loop search.

    Sequences offering both ``len`` and indexing count as random access
    and run ``search_hal``'s search with the supplied scheme, or with
    the default registered for the element type; anything merely
    iterable uses ``search_l``.  The zero sentinel scheme (and any
    pattern shorter than the scheme's window) lands back on the forward
    search.  The tables of bytes and str patterns are cached, so many
    texts searched for one pattern preprocess it once per power-of-two
    text-size class.
    """
    cls = type(text)
    if not (hasattr(cls, "__len__") and hasattr(cls, "__getitem__")):
        return search_l(text, pattern)
    if scheme is None:
        scheme = default_scheme_for(text)
    tables = _cached_tables if type(pattern) in (bytes, str) else _tables
    return SearchOutcome(_hal(text, pattern, scheme, tables))


ALGORITHM_NAMES = ("sf", "kmp", "l", "al", "hal", "hal2", "hal3", "hal4",
                   "hal5", "nhal")

_PLAIN = {"sf": search_sf, "kmp": search_kmp_basic, "l": search_l,
          "al": search_al}
_DNA_HAL = {"hal2": DNA2, "hal3": DNA3, "hal4": DNA4, "hal5": DNA5}


def resolve_algorithm(name, scheme=None):
    """Bind an algorithm name to a ``(text, pattern) -> SearchOutcome``
    callable.

    ``scheme`` only affects "hal"; hal2..hal5 carry fixed DNA schemes,
    and "nhal" reuses one table of its own across calls.
    """
    if name in _PLAIN:
        return _PLAIN[name]
    if name == "hal":
        return lambda text, pattern: search_hal(text, pattern, scheme)
    if name in _DNA_HAL:
        dna = _DNA_HAL[name]
        return lambda text, pattern: search_hal(text, pattern, dna)
    if name == "nhal":
        table = ReusableSkipTable()
        return lambda text, pattern: search_nhal(text, pattern, table)
    raise ValueError(f"unknown algorithm {name!r}")
