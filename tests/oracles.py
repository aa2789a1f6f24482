"""Brute-force oracles the tests trust instead of the library's tables.

Each oracle evaluates a definition directly, with no sharing of code or
structure with the implementations it checks.  ``tuned_bm`` is no oracle
but a yardstick: the classic search the paper measures hal against, and
``wide_ints`` builds test inputs.
"""

from array import array


def naive_find(text, pattern):
    """First offset k with text[k:k+m] == pattern, by trying them all."""
    n, m = len(text), len(pattern)
    if m == 0:
        return 0
    for k in range(n - m + 1):
        if text[k:k + m] == pattern:
            return k
    return None


def next_oracle(pattern):
    """Failure links straight from the definition: the largest i < j
    with pattern[:i] == pattern[j-i:j] and pattern[i] != pattern[j]."""
    m = len(pattern)
    out = []
    for j in range(m):
        best = -1
        for i in range(j):
            if pattern[:i] == pattern[j - i:j] and pattern[i] != pattern[j]:
                best = i
        out.append(best)
    return out


def skip_oracle_identity(pattern):
    """Occurrence shifts over the byte alphabet: the full pattern size
    for absent symbols, else the distance from the last occurrence to
    the pattern end (0 for the tail symbol itself)."""
    m = len(pattern)
    table = [m] * 256
    for x in set(pattern):
        last = max(j for j in range(m) if pattern[j] == x)
        table[x] = m - 1 - last
    return table


def mismatch_oracle(pattern):
    """Shift keyed to the tail symbol's previous occurrence, or the full
    pattern size when the tail symbol appears nowhere else."""
    m = len(pattern)
    occurrences = [j for j in range(m - 1) if pattern[j] == pattern[m - 1]]
    if not occurrences:
        return m
    return m - 1 - max(occurrences)


def tuned_bm(text, pattern):
    """Hume and Sunday's tuned Boyer-Moore over byte symbols: Horspool's
    shift table with the tail symbol's entry zeroed drives a skip loop
    that stops only on the tail symbol; there the other m - 1 symbols
    are compared left to right, and any mismatch shifts by md2, the
    tail symbol's shift from before it was zeroed."""
    n, m = len(text), len(pattern)
    if m == 0:
        return 0
    skip = [m] * 256
    for j in range(m - 1):
        skip[pattern[j]] = m - 1 - j
    md2, skip[pattern[-1]] = skip[pattern[-1]], 0
    k = m - 1
    while k < n:
        d = skip[text[k]]
        if d:
            k += d
            continue
        j = 0
        while j < m - 1 and text[k - m + 1 + j] == pattern[j]:
            j += 1
        if j == m - 1:
            return k - m + 1
        k += md2
    return None


def wide_ints(typecode, values):
    """An int array of byte ``values``, one-to-one: each symbol's low byte
    is its value and every higher byte differs from it, so a search that
    read any byte but the low one would hash differently.  A signed
    typecode gets negative symbols: its top byte has bit 7 set."""
    size = array(typecode).itemsize
    top = 1 << 8 * size - 1
    symbols = []
    for v in values:
        x = int.from_bytes(bytes([v] + [v ^ 0x11 * j for j in range(1, size)]),
                           "little")
        symbols.append((x | top) - 2 * top if typecode.islower() else x)
    return array(typecode, symbols)
