"""Hash schemes that parameterize the skip-loop searches.

A scheme bundles a table size (``hash_range_max``), the number of
trailing elements it reads per probe (``suffix_size``), and
``hash(seq, pos)`` mapping the window ``seq[pos-suffix_size+1 .. pos]``
into ``[0, hash_range_max)``.  The one hard requirement is
compatibility with element equality: equal windows must hash equal.
Hash quality beyond that only affects speed, never correctness, so the
built-ins lean toward cheap arithmetic.

The integer schemes (byte, mod256, dna2..dna5, listed at the bottom) are
all one ``ShiftSumScheme(shifts, mask)``: the ``len(shifts)`` trailing
symbol values, oldest first, each shifted left by its entry of
``shifts``, then summed and masked.  ``byte`` (bytes and strings) and
``mod256`` (wide integer symbols) hash alike but stay distinct objects.
The DNA schemes target 4-letter alphabets with long patterns but accept
any byte-valued data.

Every scheme's ``probe(text)`` returns its skip loop for that text, a
callable ``advance(text, skip, pos, n)``: the one way a search turns a
probed window into a skip index.  A shift-sum scheme generates its loops
with the hash written inline and picks one by the text's buffer format.
"""

import operator
from array import array
from mmap import mmap

# array typecodes and memoryview formats whose items are plain ints
_INT_FORMATS = frozenset("bBhHiIlLqQ")


def _val(x):
    """Integer value of a symbol: ints pass through, characters use ord,
    counted symbols their ``symbol_value()``; else ValueError."""
    if isinstance(x, int):
        return x
    try:
        return (ord(x) if isinstance(x, str) else
                x.symbol_value() if hasattr(x, "symbol_value") else
                operator.index(x))
    except TypeError:
        raise ValueError(f"symbol {x!r} has no integer value") from None


_LOOPS = """\
def hash(text, pos):
    return {h}

def advance(text, skip, pos, n):
    while pos < n:
        pos += skip[{h}]
    return pos
"""


def _loops(shifts, mask, read):
    # hash and skip loop with the shift-sum inlined; `read` wraps each
    # window symbol text[i], oldest first; mask None leaves the sum as is
    last = len(shifts) - 1
    terms = [read.format("text[pos]" if i == last else f"text[pos - {last - i}]")
             for i in range(last + 1)]
    h = " + ".join(f"({t} << {x})" if x else t for t, x in zip(terms, shifts))
    names = {"val": _val}
    exec(_LOOPS.format(h=h if mask is None else f"({h}) & {mask}"), names)
    return names["hash"], names["advance"]


class HashScheme:
    """Base class; subclasses override the attributes and ``hash``.

    An instance with the defaults is the ``zero`` sentinel: with no
    probe window, every search it is given takes the forward path."""

    hash_range_max = 0
    suffix_size = 0

    def hash(self, seq, pos):
        raise NotImplementedError

    def probe(self, seq):
        """The skip loop for ``seq``, picked once per search: a callable
        ``advance(text, skip, pos, n)`` that runs ``while pos < n: pos +=
        skip[hash(text, pos)]`` and returns pos.  Subclasses may inline
        the hash and specialize the loop to the type of ``seq``."""
        hash = self.hash

        def advance(text, skip, pos, n):
            while pos < n:
                pos += skip[hash(text, pos)]
            return pos
        return advance


class ShiftSumScheme(HashScheme):
    """``sum(_val(seq[pos-s+1+i]) << shifts[i]) & mask`` over the window
    of ``s = len(shifts)`` symbols ending at ``pos``, read oldest first."""

    def __init__(self, shifts, mask):
        try:  # both are baked into generated code: plain ints only
            self.shifts = shifts = tuple(map(operator.index, shifts))
            self.mask = mask = operator.index(mask)
        except TypeError:
            shifts = ()
        if not shifts or min(shifts + (mask,)) < 0:
            raise ValueError("ShiftSumScheme takes one or more shifts and a "
                             "mask, all non-negative ints")
        self.suffix_size = len(shifts)
        self.hash_range_max = mask + 1
        # no search calls hash; perfbench's traced run still times it
        self.hash, self._val_loop = _loops(shifts, mask, "val({})")
        self._int_loop = _loops(shifts, mask, "{}")[1]
        self._str_loop = _loops(shifts, mask, "ord({})")[1]
        # a byte indexes the table itself when the mask keeps all its bits
        self._byte_loop = (_loops(shifts, None, "{}")[1]
                           if shifts == (0,) and mask & 255 == 255
                           else self._int_loop)

    def probe(self, seq):
        """Int buffers, str and other symbols each get their own loop;
        the ``(0,)`` byte loop leaves out a mask that keeps every byte
        value.  One step over ``ones`` lands on ``pos + 1 + hash``:

        >>> text, ones = "acgt", range(1, DNA4.hash_range_max + 1)
        >>> DNA4.probe(text)(text, ones, 3, 4), 3 + 1 + DNA4.hash(text, 3)
        (97, 97)
        """
        fmt = ("B" if isinstance(seq, (bytes, bytearray, mmap)) else
               seq.typecode if isinstance(seq, array) else
               seq.format if isinstance(seq, memoryview) else None)
        if fmt == "B":
            return self._byte_loop
        if fmt in _INT_FORMATS:
            return self._int_loop
        return self._str_loop if isinstance(seq, str) else self._val_loop


class WordHeadScheme(HashScheme):
    """First character of a word element; equal words share a head."""

    hash_range_max = 256
    suffix_size = 1

    def hash(self, seq, pos):
        word = seq[pos]
        try:
            return _val(word[0]) & 255 if len(word) else 0
        except TypeError:
            raise ValueError(f"element {word!r} is not a word") from None


BYTE = ShiftSumScheme((0,), 255)
# BYTE's twin, kept apart: perfbench names its spans by scheme identity
MOD256 = ShiftSumScheme((0,), 255)
DNA2 = ShiftSumScheme((0, 3), 63)
DNA3 = ShiftSumScheme((0, 3, 6), 511)
DNA4 = ShiftSumScheme((0, 2, 4, 6), 255)
DNA5 = ShiftSumScheme((0, 2, 4, 6, 8), 255)
WORD_HEAD = WordHeadScheme()
ZERO = HashScheme()

SCHEMES = {
    "byte": BYTE,
    "mod256": MOD256,
    "dna2": DNA2,
    "dna3": DNA3,
    "dna4": DNA4,
    "dna5": DNA5,
    "word": WORD_HEAD,
    "zero": ZERO,
}


def default_scheme_for(text):
    """Static element-type association used by ``dispatch_search``.

    Bytes and plain strings get the identity byte hash, integer
    elements the low-byte fold, word sequences the word-head hash, and
    anything else the zero sentinel (which routes to the forward
    search).
    """
    if isinstance(text, (bytes, bytearray, memoryview, str)):
        return BYTE
    try:
        first = text[0]
    except (IndexError, TypeError, KeyError):
        return ZERO
    if isinstance(first, int):
        return MOD256
    if isinstance(first, (str, bytes, bytearray)):
        # bare strings/bytes were handled above, so elements here are
        # whole words
        return WORD_HEAD
    return ZERO
