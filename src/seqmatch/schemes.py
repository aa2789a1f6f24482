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
``shifts``, then summed and masked.  ``mod256``, the default for integer
symbols, is another name for ``byte``.
The DNA schemes target 4-letter alphabets with long patterns but accept
any byte-valued data.

Every scheme's ``probe(text)`` returns its probe index for that text:
Python source over ``text`` and ``pos`` that the skip search writes
inline, ``skip[<index>]``, and that ``tables.compute_skip`` compiles to
hash the pattern's windows.  The generic index is ``hash(text, pos)``,
with ``hash`` bound to the scheme's own.  A shift-sum scheme writes its
sum inline instead, one expression per buffer format, each built by
``_index``.  There a shift by ``x`` is a multiplication by ``2**x``,
which CPython specializes for ints where it does not specialize
``<<``, and a term that the mask always zeroes (``mask >> x == 0``) is
left out.  Where the mask also clears every bit above a symbol's low
byte (``mask >> x < 256`` for every shift), an array or contiguous 1-D
memoryview of ints wider than a byte is probed through ``low``, a byte
view of each item's low byte, which yields cached small ints: its index
reads ``low[i]`` where the int index reads ``text[i]``, and each
generated function that reads it binds ``low`` once per call, before its
loop (``_compiled``), so the view lives only while the call runs.  The
index for any other symbols, through ``val``, keeps every term: counted
runs read through it, so they read every window symbol, and the
scheme's ``hash`` is that index, compiled.

The byte and low-byte indexes of a scheme with two or more live terms
and a mask of the form ``2**k - 1`` up to ``_TABLE_MASK`` (511, DNA3's)
do no int arithmetic: they chain lookups into combine tables, one per
live term after the oldest, so DNA4's byte index is
``_add_0_6_255[text[pos]][_add_0_4_255[text[pos - 1]][_add_0_2_255[
text[pos - 2]][text[pos - 3]]]]``.  ``_add_x0_x_mask[c][h]`` is ``((h <<
x0) + (c << x)) & mask``: only such a mask lets the sum be masked one
term at a time.  A table is built by the first compile of an index that
names it, not at import, and shared by every index that names it (DNA4
and DNA5 read the same three), and its rows are shared where their
values are equal.  ``_compiled`` binds each table an index names as a
positional default of the generated function, so its loop reads the
table as a fast local (a window list's comprehension, as a cell), not as
a global.

``_compiled`` is the one place that compiles generated code: each hash,
window list and skip search is compiled per distinct template and probe
index (a skip search's is its whole step), and kept in one
``lru_cache`` of 128 entries, so equal schemes share their ``hash`` and
equal indexes share their searches.

``_kind`` is the one rule on a text's type: it names the index a probe
takes, the default scheme's path, nhal's guard and whether a text needs
``search_l``.
"""

import operator
import re
import sys
from array import array
from functools import lru_cache, partial
from io import IOBase
from itertools import chain
from mmap import mmap

# the kinds of arrays and memoryviews of plain ints, by typecode or format
_FORMATS = {"B": "byte", "b": "int", **dict.fromkeys("hHiIlLqQ", "low")}
# the types of every other byte or str text, built once, not per call
_BYTES_OR_STR = (bytes, bytearray, mmap, str)


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


def _kind(seq):
    """The kind of text ``seq`` is, the one rule on a text's type:

    - ``"byte"``: bytes, bytearray, mmap and ``"B"`` buffers;
    - ``"low"``: an array or C-contiguous 1-D memoryview of ints wider
      than a byte, whose low bytes a byte view reads (``_LOW``);
    - ``"int"``: other int buffers;
    - ``"str"``;
    - ``"val"``: any other sequence with ``len()`` and indexing;
    - ``"stream"``: anything without them, such as an iterator or a file.

    A memoryview of other than one dimension neither indexes nor
    iterates by item, so it raises ValueError before any search starts.
    Exact bytes, exact lists and then arrays are tested first, each at
    the cost of one test: short uncached searches call this four to six
    times, and a list text or pattern would otherwise reach the
    ``hasattr`` and ``length_hint`` tests at the end."""
    if type(seq) is bytes:
        return "byte"
    if type(seq) is list:
        return "val"
    if isinstance(seq, array):
        return _FORMATS.get(seq.typecode, "val")
    if isinstance(seq, _BYTES_OR_STR):
        return "str" if isinstance(seq, str) else "byte"
    if isinstance(seq, memoryview):
        if seq.ndim != 1:
            raise ValueError(f"only 1-D memoryviews are searched, not a "
                             f"{seq.ndim}-D view")
        kind = _FORMATS.get(seq.format, "val")
        return "int" if kind == "low" and not seq.c_contiguous else kind
    # the size is len(), or -1 where len() raises TypeError, as it does
    # for a counted iterator, whose class has __len__
    return ("val" if hasattr(seq, "__getitem__")
            and operator.length_hint(seq, -1) >= 0 else "stream")


def _items(seq):
    """``seq`` for iteration: an mmap iterates as 1-byte bytes, so it is
    read through a memoryview, whose items are ints as it indexes; a file
    iterates by lines, so it is read in chunks, as bytes or characters.
    Anything else is read as it is, once ``_kind`` has checked it; its
    key spares other texts the slow test for a file, an ABC."""
    kind = _kind(seq)  # a multi-dimensional memoryview raises
    if kind == "byte" and isinstance(seq, mmap):
        return memoryview(seq)
    if kind == "stream" and isinstance(seq, IOBase):
        return chain.from_iterable(iter(partial(seq.read, 1 << 16),
                                        seq.read(0)))
    return seq


# binds `low`: the low byte of each item of the int buffer `text`
_LOW = "low = memoryview(text).cast('B')[{}::text.itemsize]".format(
    0 if sys.byteorder == "little" else "text.itemsize - 1")


@lru_cache(maxsize=128)
def _compiled(template, name, index):
    # the function `name` that `template` defines, with `val` bound and the
    # source `index` in its `{index}` slots (a probe index, or a skip
    # search's whole step): every generated hash, window list and skip
    # search.  Its `{low}` line, before the index's loop, binds `low` when
    # the index reads it; its `{tables}` slot, in the parameter list,
    # binds each combine table that the index reads as a positional
    # default
    tables = _tables(index)
    names = {"val": _val, **tables}
    exec(template.format(index=index, low=_LOW if "low[" in index else "",
                         tables="".join(f", {t}={t}" for t in tables)),
         names)
    return names[name]


# the largest mask that a combine table serves, DNA3's: a table is 256
# rows of at most _TABLE_MASK + 1 values
_TABLE_MASK = 511
_TABLE_NAME = r"_add_(\d+)_(\d+)_(\d+)"  # compiled by its first use
_VALUES = list(range(_TABLE_MASK + 1))  # every row's values, one int each


def _tables(index):
    # the combine tables that `index` reads, by name, each built by its
    # first compile and shared by every index that names it; lru_cache
    # publishes a table only once it is whole
    return {found[0]: _table(*map(int, found.groups()))
            for found in re.finditer(_TABLE_NAME, index)}


@lru_cache(maxsize=None)  # finite: masks <= _TABLE_MASK, live shifts < 9
def _table(x0, x1, mask):
    # table[c][h] == ((h << x0) + (c << x1)) & mask for a byte c and any h
    # up to max(mask, 255): a 2**k - 1 mask lets the window's terms be
    # added one table at a time.  Rows with equal (c << x1) & mask are one
    # list, and their values the ints of one list
    return [_row((c << x1) & mask, x0, mask) for c in range(256)]


@lru_cache(maxsize=None)
def _row(v, x0, mask):
    return [_VALUES[((h << x0) + v) & mask] for h in range((mask | 255) + 1)]


def _terms(shifts, mask, every):
    # each window symbol's read of text, oldest first, with its shift.  A
    # term with mask >> x == 0 only adds bits the mask clears, so it is
    # left out unless `every`
    last = len(shifts) - 1
    return [("text[pos]" if i == last else f"text[pos - {last - i}]", x)
            for i, x in enumerate(shifts) if every or mask >> x]


def _index(shifts, mask, read, every=False):
    # the shift-sum window hash as source over `text` and `pos`; `read`
    # wraps each window symbol and `* 2**x` is its shift; with no term
    # left the index is 0
    terms = [read.format(symbol) + (f" * {1 << x}" if x else "")
             for symbol, x in _terms(shifts, mask, every)]
    return f"({' + '.join(terms)}) & {mask}" if terms else "0"


def _table_index(shifts, mask):
    # the byte index as a chain of combine-table lookups, one per live
    # term after the oldest, or None where a table does not serve
    (index, x0), *rest = _terms(shifts, mask, False) or [(None, 0)]
    if mask & (mask + 1) or mask > _TABLE_MASK or not rest:
        return None
    for symbol, x in rest:  # the oldest term's shift, then plain sums
        index, x0 = f"_add_{x0}_{x}_{mask}[{symbol}][{index}]", 0
    return index


class HashScheme:
    """Base class; subclasses override the attributes and ``hash``.

    An instance with the defaults is the ``zero`` sentinel: with no
    probe window, every search it is given takes the forward path."""

    hash_range_max = 0
    suffix_size = 0

    def hash(self, seq, pos):
        raise NotImplementedError

    def probe(self, seq):
        """The probe index for ``seq``, picked once per search: source
        over ``text`` and ``pos``, which may call ``hash``, ``val`` and
        builtins and read ``low``, the low bytes of ``text``'s items,
        that a search compiles into its skip loop, ``while pos < n: pos
        += skip[<index>]``, and that ``compute_skip`` compiles into the
        list of the pattern's window hashes when ``seq`` is the pattern.
        This generic one calls ``hash``, bound to this scheme's;
        subclasses may inline the hash and specialize the index to the
        type of ``seq``."""
        return "hash(text, pos)"


class ShiftSumScheme(HashScheme):
    """``sum(_val(seq[pos-s+1+i]) << shifts[i]) & mask`` over the window
    of ``s = len(shifts)`` symbols ending at ``pos``, read oldest first:

    >>> a, c, g, t = b"acgt"
    >>> DNA4.hash(b"acgt", 3) == (a + (c << 2) + (g << 4) + (t << 6)) & 255
    True
    """

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
        val = _index(shifts, mask, "val({})", every=True)
        self.hash = _compiled("def hash(text, pos):\n    return {index}\n",
                              "hash", val)
        num = _index(shifts, mask, "{}")
        # a byte indexes the table itself when the mask keeps all its bits,
        # and takes the combine tables where they serve
        byte = ("text[pos]" if shifts == (0,) and mask & 255 == 255
                else _table_index(shifts, mask) or num)
        # each `_kind`'s index: a mask that clears every bit above each
        # term's low byte needs only the low byte of a wide int symbol
        low = (byte.replace("text[", "low[") if mask >> min(shifts) < 256
               else num)
        self._indexes = {"byte": byte, "low": low, "int": num, "val": val,
                         "str": _index(shifts, mask, "ord({})"), "stream": val}

    def probe(self, seq):
        """Int buffers, str and other symbols each get their own index,
        each the same window hash as ``hash``; the ``(0,)`` byte index
        leaves out a mask that keeps every byte value, and all but the
        ``val`` index leave out the terms that the mask zeroes.  Arrays
        and contiguous 1-D memoryviews of ints wider than a byte get the
        low-byte index, which reads ``low``, where the mask allows it.
        Where the mask is ``2**k - 1``, at most 511, and two or more
        terms are live, the byte and low-byte indexes chain lookups into
        the combine tables ``_add_*`` in place of the sum.  The index is
        the one kept for ``seq``'s ``_kind``; a stream takes ``val``'s."""
        return self._indexes[_kind(seq)]


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
MOD256 = BYTE
DNA2 = ShiftSumScheme((0, 3), 63)
DNA3 = ShiftSumScheme((0, 3, 6), 511)
DNA4 = ShiftSumScheme((0, 2, 4, 6), 255)
# DNA5's newest symbol, shifted by 8, never changes its hash under mask
# 255: the uncounted probes skip that read, and the counted one through
# `val` keeps it, so count reports stay as they were
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

    Byte buffers, int buffers and strings (every ``_kind`` but ``val``
    and ``stream``) get the identity byte hash, which is also the
    low-byte fold of integers.  Other sequences are judged by their
    first item: integer elements get the low-byte fold, word sequences
    the word-head hash, and anything else the zero sentinel (which
    routes to the forward search).
    """
    if _kind(text) not in ("val", "stream"):
        return BYTE
    try:
        first = text[0]
    except (IndexError, TypeError, KeyError):
        return ZERO
    if isinstance(first, int):
        return MOD256
    if isinstance(first, (str, bytes, bytearray)):
        # texts of bytes and str were handled above, so elements here are
        # whole words
        return WORD_HEAD
    return ZERO
