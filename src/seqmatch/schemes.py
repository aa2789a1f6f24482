"""Hash schemes that parameterize the skip-loop searches.

A scheme bundles a table size (``hash_range_max``), the number of
trailing elements it reads per probe (``suffix_size``), and
``hash(seq, pos)`` mapping the window ``seq[pos-suffix_size+1 .. pos]``
into ``[0, hash_range_max)``.  The one hard requirement is
compatibility with element equality: equal windows must hash equal.
Hash quality beyond that only affects speed, never correctness, so the
built-ins lean toward cheap arithmetic.

The integer schemes are all one ``ShiftSumScheme(shifts, mask)``: the
``len(shifts)`` trailing symbol values, oldest first, each shifted left
by its entry of ``shifts``, then summed and masked.

    byte, mod256   (0,)              255
    dna2           (0, 3)            63
    dna3           (0, 3, 6)         511
    dna4           (0, 2, 4, 6)      255
    dna5           (0, 2, 4, 6, 8)   255

``byte`` (bytes and strings) and ``mod256`` (wide integer symbols) hash
alike but stay distinct objects.  The DNA schemes target 4-letter
alphabets with long patterns but accept any byte-valued data.
"""

import operator
from array import array
from mmap import mmap

# array typecodes and memoryview formats whose items are plain ints
_INT_FORMATS = frozenset("bBhHiIlLqQ")


def _val(x):
    """Integer value of a symbol: ints pass through, characters use ord;
    anything else raises ValueError."""
    if isinstance(x, int):
        return x
    try:
        return ord(x) if isinstance(x, str) else operator.index(x)
    except TypeError:
        raise ValueError(f"symbol {x!r} has no integer value") from None


class HashScheme:
    """Base class; subclasses override the attributes and ``hash``."""

    hash_range_max = 0
    suffix_size = 0

    def hash(self, seq, pos):
        raise NotImplementedError

    def probe(self, seq):
        """The skip loop's form of ``hash`` for ``seq``, picked once per
        search: None indexes the table by the symbol itself, an int is
        a fold mask (``hash(seq, i) == seq[i] & mask``), and a callable
        is used as ``hash``."""
        return self.hash


class ZeroScheme(HashScheme):
    """Sentinel scheme with no usable hash; forces the forward search."""

    def hash(self, seq, pos):
        return 0


class ShiftSumScheme(HashScheme):
    """``sum(_val(seq[pos-s+1+i]) << shifts[i]) & mask`` over the window
    of ``s = len(shifts)`` symbols ending at ``pos``, read oldest first."""

    def __init__(self, shifts, mask):
        self.shifts = shifts = tuple(shifts)
        self.mask = mask
        self.suffix_size = len(shifts)
        self.hash_range_max = mask + 1
        first = 1 - len(shifts)

        def int_shift_sum(seq, pos):  # int-valued buffers need no _val
            h = 0
            i = pos + first
            for shift in shifts:
                h += seq[i] << shift
                i += 1
            return h & mask

        def shift_sum(val):
            if shifts == (0,):  # a plain fold: a loop would double its cost
                return lambda seq, pos: val(seq[pos]) & mask
            def hash(seq, pos):
                h = 0
                i = pos + first
                for shift in shifts:
                    h += val(seq[i]) << shift
                    i += 1
                return h & mask
            return hash

        self.hash = shift_sum(_val)
        self._int_hash = int_shift_sum
        self._str_hash = shift_sum(ord)  # skips _val's type tests

    def probe(self, seq):
        if isinstance(seq, (bytes, bytearray, mmap)):
            fmt = "B"
        elif isinstance(seq, array):
            fmt = seq.typecode
        elif isinstance(seq, memoryview):
            fmt = seq.format
        elif isinstance(seq, str):
            return self._str_hash
        else:
            return self.hash
        if fmt not in _INT_FORMATS:
            return self.hash
        if self.shifts != (0,):
            return self._int_hash
        if fmt == "B" and self.mask & 255 == 255:
            return None  # every byte value is its own bucket
        return self.mask


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
MOD256 = ShiftSumScheme((0,), 255)
DNA2 = ShiftSumScheme((0, 3), 63)
DNA3 = ShiftSumScheme((0, 3, 6), 511)
DNA4 = ShiftSumScheme((0, 2, 4, 6), 255)
DNA5 = ShiftSumScheme((0, 2, 4, 6, 8), 255)
WORD_HEAD = WordHeadScheme()
ZERO = ZeroScheme()

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
