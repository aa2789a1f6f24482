"""Sequence searches built on failure links and hashed skip loops.

Every search shares one contract: return the smallest offset ``k`` with
``text[k:k+m]`` equal to the pattern elementwise, or not-found.  ``sf``
is the optimized straightforward scan.  ``kmp`` and its streamlined
form ``l`` never re-read text and bound element comparisons by ``2n``;
``l`` additionally needs only a single forward pass, so it accepts
one-shot iterators.  ``al``/``hal`` keep those bounds but add a skip
loop that advances the alignment by occurrence-table lookups, probing
one hashed window per stop instead of comparing elements.  Every such
search is generated from one template, ``_SKIP_SEARCH``, with the skip
loop's probe index written inline: the source that the scheme's
``probe(text)`` returns, compiled per distinct index and kept in the
one bounded cache of generated code (``schemes._compiled``).  ``nhal``
drops the hash in favor of a full 16-bit-alphabet table, skewed so that
zero means "default shift" and one zero-filled table serves many
searches; it runs the same template with the skew added to each step.
The skip loop stops only on a tail hit, which lands at or past ``end =
n + m``.  A hit whose first symbol misses steps back by ``back``, bound
with the tables, and re-enters the loop; the alignment ``k`` is set, and
``pos`` rebuilt from it, only after a verify, at its mismatch or at the
end of the failure-link recovery.
Over an array or contiguous 1-D memoryview of 16-bit ints, nhal's step
first reads a 256-slot guard at the symbol's low byte: ``m``, the
table's shift for every symbol whose low byte no pattern symbol shares,
or 0, which sends the step on to the full table.  Only those steps read
the full symbol, a new int object wherever it exceeds 256, and every
shift is the one the table gives.
Every skip table, hashed or not, comes from one builder,
``tables._fill_skip``.

Conventions, applied once in front of every random-access search:
empty patterns match at offset 0; texts shorter than the pattern report
not-found; size-1 patterns take ``l``'s forward scan; a text or pattern
without ``len`` and indexing, such as an iterator, a file or a set,
raises ``ValueError`` (``search_l`` takes those, and ``dispatch_search``
hands it such a text), and so does a memoryview of more than one
dimension: ``schemes._kind`` is the one rule for both.  Every not-found
outcome is one shared ``SearchOutcome(None)``, safe to share because
outcomes are frozen.  Wherever a search iterates a text or pattern, an
mmap is read as int items, like bytes, and a file in chunks, as bytes or
characters (``schemes._items``).
Searches never mutate their inputs and may run concurrently, sharing
any ``ReusableSkipTable``: a search that finds its table busy uses a
fresh one, and ``search_nhal`` calls that pass no table share one
process-wide table.  Every hashed search binds its pattern and tables
into one finder, compiled for the probe index of the text's type.  Its
tail slot is ``n + 1`` for a text of ``n >= _TAIL`` elements and
``_TAIL``, 2**29 on 64-bit CPython, for every shorter text, where a
tail hit lands past every text position and stays below ``2 * _TAIL``,
one int digit.  So one finder serves every text below ``_TAIL``, and
``dispatch_search`` keeps the finders of bytes and str patterns, for
such texts whose exact type is bytes, bytearray or str, in a 256-entry
``functools.lru_cache`` keyed by pattern, scheme and text type.  Finders are safe to share: their tables
are never written after they are built.
"""

import sys
import threading
from dataclasses import dataclass
from functools import cache, lru_cache

from .schemes import (BYTE, DNA2, DNA3, DNA4, DNA5, _compiled, _items, _kind,
                      default_scheme_for)
from .tables import _fill_skip, compute_next, compute_skip


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


# every not-found result: frozen, so one instance serves every call
_ABSENT = SearchOutcome(None)


def _search(search, text, pattern, arg):
    # The one entry of every random-access search: it applies the
    # conventions, so `search(text, pattern, n, m, arg)` runs with
    # 2 <= m <= n and returns the offset or None.
    if "stream" in (_kind(text), _kind(pattern)):
        raise ValueError("random-access searches need a text and pattern "
                         "with len() and indexing; search_l takes iterables")
    n, m = len(text), len(pattern)
    if n < m or m < 2:  # one test on the common path
        if m == 0:
            return SearchOutcome(0)
        if n < m:
            return _ABSENT
        k = _l(text, pattern, None)
    else:
        k = search(text, pattern, n, m, arg)
    return _ABSENT if k is None else SearchOutcome(k)


def _sf(text, pattern, n, m, _):
    first = pattern[0]
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
    return _search(_sf, text, pattern, None)


def _kmp(text, pattern, n, m, _):
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
    return _search(_kmp, text, pattern, None)


def _l(text, positions, shifts):
    m = len(positions)
    first = positions[0]
    step = iter(_items(text)).__next__
    # `cur` is the element under the cursor, `k` its position.  Running
    # off the end anywhere means no match, hence the blanket handler.
    k = 0
    try:
        cur = step()
        while True:
            while cur != first:  # scan
                cur = step()
                k += 1
            if m == 1:
                return k
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
    positions = list(_items(pattern))
    if not positions:
        return SearchOutcome(0)
    k = _l(text, positions, compute_next(positions))
    return _ABSENT if k is None else SearchOutcome(k)


# The one skip-loop search behind al, hal, hal2..hal5, nhal and dispatch.
# `bind(pattern, shifts, table, hash, skew)` returns `find(text, n)`, for
# m >= 2 and n = len(text), with the pattern, its failure links `shifts`,
# its `SkipTable` (built for a text size of at least n), the scheme's
# `hash` (for nhal over 16-bit ints, its low-byte guard), nhal's `skew`
# and, in `{tables}`, the combine tables that `{index}` reads bound as
# positional defaults, read as fast locals.  Where n < m,
# `pos = m - 1` starts at or past n, so `find` returns None before it
# reads the text.  The skip loop adds `{index}`, its step, inline:
# `skip[<index>]` with a scheme's probe(text) for hal, `skip[text[pos]] +
# skew` for nhal, after the guard where it has one; `{low}` binds the
# byte view a low-byte read needs.
# Only a tail hit stops the loop at `end` = n + m or beyond: the tail
# slot adds `adjustment` - m + 1 to the probed position, so the hit's
# alignment starts at `pos - adjustment`.  A hit whose first symbol
# misses steps `pos` back by `back`, to `mismatch_shift` past the probed
# position, and re-enters the loop.  Only a verify sets `k` and rebuilds
# `pos` from it: at the alignment `mismatch_shift` past the hit's after
# a mismatch at `j < mismatch_shift`, else at the alignment `k` where the
# failure-link recovery ends.
_SKIP_SEARCH = """\
def bind(pattern, shifts, table, hash, skew):
    def find(text, n, pattern=pattern, m=len(pattern), first=pattern[0],
             shifts=shifts, skip=table.shifts,
             mismatch_shift=table.mismatch_shift,
             adjustment=table.adjustment, hash=hash, skew=skew{tables},
             back=table.adjustment - table.mismatch_shift - len(pattern) + 1):
        {low}
        pos = m - 1
        end = n + m
        while True:
            while pos < n:
                pos += {index}
            if pos < end:
                return None  # ran off the end without a tail match
            if text[pos - adjustment] != first:
                pos -= back
                continue
            k = pos - adjustment
            j = 1
            while True:
                k += 1
                if text[k] != pattern[j]:
                    break
                j += 1
                if j == m:
                    return k - m + 1
            if mismatch_shift > j:
                pos = k + mismatch_shift - j + m - 1
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
            pos = k + m - 1
    return find
"""


# nhal's unhashed, skewed searches, compiled once, at import: the guarded
# one reads the full table only where the guard at the low byte reads 0;
# `_bind` compiles the hashed ones per probe index through the same cache
_STEP = "skip[text[pos]] + skew"
_nhal_search = _compiled(_SKIP_SEARCH, "bind", _STEP)
_guarded_search = _compiled(_SKIP_SEARCH, "bind", "hash[low[pos]] or " + _STEP)


# every hashed search of a text below it takes it as its tail slot; a
# tail hit then lands below 2 * _TAIL, still a one-digit int
_TAIL = 1 << (sys.int_info.bits_per_digit - 1)


def _bind(text, pattern, scheme, n):
    # The search of al, hal, hal2..hal5 and dispatch for `pattern` in texts
    # like `text` of up to n elements, or of any size below `_TAIL`, as
    # `find(text, n)`: the skip-loop search, or the forward search where
    # the scheme cannot cover a probe window.  The tail slot, `_TAIL` or
    # n + 1 if larger, exceeds every position of those texts, so one
    # finder serves every text below `_TAIL`.
    if scheme is None:
        scheme = default_scheme_for(text)
    s = scheme.suffix_size
    shifts = compute_next(pattern)
    if s == 0 or len(pattern) < s:
        return lambda text, n: _l(text, pattern, shifts)
    return _compiled(_SKIP_SEARCH, "bind", f"skip[{scheme.probe(text)}]")(
        pattern, shifts, compute_skip(pattern, scheme, max(n, _TAIL - 1)),
        scheme.hash, 0)


def _hal(text, pattern, n, m, scheme):
    return _bind(text, pattern, scheme, n)(text, n)


# dispatch's finders for texts below _TAIL, keyed by (pattern, scheme,
# text type), for texts and patterns of these exact types
_CACHED_TEXTS = (bytes, bytearray, str)
_CACHED_PATTERNS = (bytes, str)


@lru_cache(maxsize=256)
def _cached_tables(pattern, scheme, cls):
    return _bind(cls(), pattern, scheme, 0)


def search_hal(text, pattern, scheme=None):
    """Hashed skip-loop search over a random-access text.

    Probes the hash of the window ending each candidate alignment and
    only falls into comparison work when it matches the pattern tail's
    hash.  With no ``scheme``, the default for the element type
    applies; schemes whose window cannot fit the pattern fall back to
    the forward search.  Comparisons stay <= 2n regardless of scheme
    quality.
    """
    return _search(_hal, text, pattern, scheme)


def search_al(text, pattern):
    """Skip-loop search specialized to byte/character elements.

    Same machinery as ``search_hal`` with the identity byte hash: the
    probe inspects the single element under the pattern's last
    position.
    """
    return _search(_hal, text, pattern, BYTE)


class ReusableSkipTable:
    """Full 16-bit-alphabet shift storage, zero-filled between searches.

    A search fills it through ``tables._fill_skip`` with a skew of
    ``m``, the default shift, so a zero slot reads as that default; every
    slot the search wrote is zeroed again before it returns.  One
    instance can therefore be reused indefinitely, paying the
    65536-slot initialization once.  Any number of threads may share
    one: a search holds ``lock`` while it uses the slots, and a search
    that finds the lock held uses a fresh table of its own instead.
    """

    size = 1 << 16

    def __init__(self):
        self.slots = [0] * self.size
        self.lock = threading.Lock()


def _nhal(text, pattern, n, m, table):
    # 16-bit int items, none of them 2**16 or above, get the low-byte guard
    guard = [m] * 256 if _kind(text) == "low" and text.itemsize == 2 else None
    if guard:
        for j in range(m):
            guard[pattern[j] & 255] = 0
    if not table.lock.acquire(blocking=False):
        table = ReusableSkipTable()  # busy: search a private table
        table.lock.acquire()
    slots = table.slots
    skew = m  # suffix size 1, so the default shift is m - 1 + 1
    try:
        return (_guarded_search if guard else _nhal_search)(
            pattern, compute_next(pattern),
            _fill_skip(slots, pattern, m, skew, n), guard, skew)(text, n)
    except (IndexError, TypeError):
        # only a probed text symbol can index past the table, or fail
        # to index it at all
        raise ValueError("text symbols exceed the table's 16-bit domain") \
            from None
    finally:
        for j in range(m):
            slots[pattern[j]] = 0
        table.lock.release()


# built on the first search_nhal call that passes no table, not at import
@cache
def _process_table():
    return ReusableSkipTable()


def search_nhal(text, pattern, table=None):
    """Non-hashed skip-loop search for integer symbols below 2**16.

    ``table`` is the reusable skewed storage; calls that pass none share
    one process-wide table, built on the first such call.  Any table may
    be shared between threads: a search that finds it busy uses a fresh
    one.  The table is restored to all zeros on every exit path, so
    consecutive searches never see each other's entries.
    """
    if table is None:
        table = _process_table()
    if not all(isinstance(s, int) and 0 <= s < table.size
               for s in _items(pattern)):
        raise ValueError("pattern symbols must be integers in the table's "
                         "16-bit domain")
    return _search(_nhal, text, pattern, table)


def dispatch_search(text, pattern, scheme=None):
    """Route to the forward search or the hashed skip-loop search.

    Sequences offering both ``len`` and indexing count as random access
    and run ``search_hal``'s search with the supplied scheme, or with
    the default registered for the element type; anything merely
    iterable uses ``search_l``.  The zero sentinel scheme (and any
    pattern shorter than the scheme's window) lands back on the forward
    search.  For bytes and str patterns of two or more elements, in
    texts whose exact type is bytes, bytearray or str and whose size is
    below ``_TAIL`` (2**29 on 64-bit CPython), the bound search is
    cached, keyed by pattern, scheme and text type, so many texts
    searched for one pattern preprocess it once per type; the cache
    holds at most 256 entries.  Other texts, such as memoryviews, mmaps,
    arrays, lists and subclasses, build their tables on every call.
    """
    cls = type(text)
    if (cls in _CACHED_TEXTS and type(pattern) in _CACHED_PATTERNS
            and len(pattern) > 1 and (n := len(text)) < _TAIL):
        # one lookup and one scan: the finder answers n < m before it
        # reads the text, and _search decides the m < 2 rules
        k = _cached_tables(pattern, scheme, cls)(text, n)
        return _ABSENT if k is None else SearchOutcome(k)
    if _kind(text) == "stream":
        return search_l(text, pattern)
    return _search(_hal, text, pattern, scheme)


_HAL = {"hal": None, "hal2": DNA2, "hal3": DNA3, "hal4": DNA4, "hal5": DNA5}
# every name, in report order; hal and its variants bind a scheme (_HAL)
_SEARCHES = {"sf": search_sf, "kmp": search_kmp_basic, "l": search_l,
             "al": search_al, **dict.fromkeys(_HAL), "nhal": search_nhal}

ALGORITHM_NAMES = tuple(_SEARCHES)


def resolve_algorithm(name, scheme=None):
    """Bind an algorithm name to a ``(text, pattern) -> SearchOutcome``
    callable.

    ``scheme`` only affects "hal"; hal2..hal5 carry fixed DNA schemes.
    Every other name binds its search function itself: "nhal" gives
    ``search_nhal``, whose calls share the process-wide table.
    """
    if name in _HAL:
        scheme = _HAL[name] or scheme
        return lambda text, pattern: search_hal(text, pattern, scheme)
    if name in _SEARCHES:
        return _SEARCHES[name]
    raise ValueError(f"unknown algorithm {name!r}")
