import io
import mmap
import random
from array import array

import pytest
from oracles import wide_ints

from seqmatch import (BYTE, DNA2, DNA3, DNA4, DNA5, MOD256, SCHEMES,
                      WORD_HEAD, ZERO, CountingSequence, OperationCounts,
                      ShiftSumScheme, default_scheme_for)
from seqmatch.schemes import _LOW, _kind, _tables, _val

_RANGED = {name: s for name, s in SCHEMES.items() if s is not ZERO}
_SHIFT_SUMS = {name: s for name, s in SCHEMES.items()
               if isinstance(s, ShiftSumScheme)}


def test_hash_examples():
    # 97 + 97*4 + 97*16 + 97*64 mod 256
    assert DNA4.hash(b"aaaa", 3) == 53
    assert BYTE.hash(b"x", 0) == 120
    assert MOD256.hash([0x1234], 0) == 0x34
    assert WORD_HEAD.hash([b"word"], 0) == ord("w")


def test_dna_hashes_follow_their_shift_sums():
    rng = random.Random(0)
    for _ in range(200):
        w = bytes(rng.choices(b"acgt", k=5))
        assert DNA2.hash(w, 4) == (w[3] + (w[4] << 3)) % 64
        assert DNA3.hash(w, 4) == (w[2] + (w[3] << 3) + (w[4] << 6)) % 512
        assert DNA4.hash(w, 4) == (w[1] + 4 * w[2] + 16 * w[3] + 64 * w[4]) % 256
        assert DNA5.hash(w, 4) == (w[0] + 4 * w[1] + 16 * w[2] + 64 * w[3]
                                   + 256 * w[4]) % 256


# keyed by name: mod256 is byte under another name, fed wide symbols
@pytest.mark.parametrize("name", list(_RANGED))
def test_hash_range_bound(name):
    scheme = _RANGED[name]
    rng = random.Random(7)
    for _ in range(500):
        if scheme is WORD_HEAD:
            seq = [bytes(rng.choices(b"abcdef", k=rng.randint(1, 6)))
                   for _ in range(6)]
        elif name == "mod256":
            seq = [rng.randrange(1 << 16) for _ in range(6)]
        else:
            seq = bytes(rng.choices(bytes(range(256)), k=6))
        h = scheme.hash(seq, len(seq) - 1)
        assert 0 <= h < scheme.hash_range_max


@pytest.mark.parametrize("name", list(_RANGED))
def test_equal_windows_hash_equal(name):
    scheme = _RANGED[name]
    rng = random.Random(8)
    for _ in range(300):
        if scheme is WORD_HEAD:
            window = [bytes(rng.choices(b"xyz", k=rng.randint(1, 4)))
                      for _ in range(2)]
            copy = [bytes(w) for w in window]
        elif name == "mod256":
            window = [rng.randrange(1 << 16) for _ in range(2)]
            copy = list(window)
        else:
            window = bytes(rng.choices(b"acgt", k=scheme.suffix_size))
            copy = bytearray(window)  # equal content, different type
        pos = len(window) - 1
        assert scheme.hash(window, pos) == scheme.hash(copy, pos)


# masks 15, 127 and 1023 sit on both sides of the unmasked byte loop's
# condition, mask & 255 == 255; 127 also drops the top bit of the byte
# values up to 255 probed below.  The last four have terms that their
# mask zeroes: every term, the newest, the oldest, and the newest of two
# under a one-bit mask
_PROBED = {**_SHIFT_SUMS, "low15": ShiftSumScheme((0,), 15),
           "low127": ShiftSumScheme((0,), 127),
           "wide1023": ShiftSumScheme((0,), 1023),
           "mask0": ShiftSumScheme((0,), 0),
           "dead-newest": ShiftSumScheme((0, 9), 255),
           "dead-oldest": ShiftSumScheme((9, 0), 255),
           "bit1": ShiftSumScheme((0, 1), 1)}


@pytest.mark.parametrize("scheme", _PROBED.values(), ids=list(_PROBED))
def test_probe_agrees_with_hash(scheme):
    rng = random.Random(9)
    values = [rng.randrange(256) for _ in range(40)]
    seqs = [bytes(values), bytearray(values), array("B", values),
            array("b", [v - 128 for v in values]),
            *(wide_ints(code, values) for code in "HhIQ"),
            array("i", [v * 65537 - (1 << 23) for v in values]),
            list(values), "".join(map(chr, values)),
            memoryview(bytes(values)),
            memoryview(wide_ints("H", values)),
            memoryview(wide_ints("H", values * 2))[::2]]
    # each kind's probe index, evaluated as the skip search evaluates it,
    # with the combine tables it reads bound as `_compiled` binds them, is
    # the scheme's hash of the window ending at pos
    for seq in seqs:
        index = scheme.probe(seq)
        code = compile(index, "<probe>", "eval")
        names = {"val": _val, "hash": scheme.hash, **_tables(index)}
        local = {"text": seq}
        if "low[" in index:  # bound as the generated search binds it
            exec(_LOW, names, local)
        for pos in range(scheme.suffix_size - 1, len(seq)):
            local["pos"] = pos
            got = eval(code, names, local)
            assert got == scheme.hash(seq, pos), (seq, pos)


def test_generic_probe_is_the_scheme_hash():
    # the skip loop and compute_skip both read this index, so a wrong
    # window in it would shift table and loop alike; pin it to hash
    words = [b"x", b"to", b"", b"be", b"no"]
    index = compile(WORD_HEAD.probe(words), "<probe>", "eval")
    names = {"hash": WORD_HEAD.hash}
    for pos in range(len(words)):
        got = eval(index, names, {"text": words, "pos": pos})
        assert got == WORD_HEAD.hash(words, pos), pos


def test_kind_classifies_every_accepted_text():
    # each accepted input and its `_kind`, the key every probe, default
    # scheme and random-access check reads
    mapped = mmap.mmap(-1, 4)
    kinds = [(b"ab", "byte"), (bytearray(b"ab"), "byte"), (mapped, "byte"),
             (array("B"), "byte"), (memoryview(b"ab"), "byte"),
             (memoryview(b"abcd")[::2], "byte"),
             (array("H"), "low"), (array("h"), "low"), (array("Q"), "low"),
             (memoryview(array("I")), "low"),
             (array("b"), "int"), (memoryview(array("b")), "int"),
             (memoryview(array("H", [1, 2, 3]))[::2], "int"),
             ("ab", "str"),
             # subclasses take their base's key
             (type("B", (bytes,), {})(b"ab"), "byte"),
             (type("S", (str,), {})("ab"), "str"),
             ([1, 2], "val"), ([b"word"], "val"), (array("d"), "val"),
             (memoryview(b"ab").cast("c"), "val"), (range(3), "val"),
             (CountingSequence([1, 2], OperationCounts()), "val"),
             (iter(b"ab"), "stream"), (io.BytesIO(b"ab"), "stream"),
             ({1, 2}, "stream"),
             # a counted iterator has __len__ but no len(): a stream too
             (CountingSequence(iter(b"ab"), OperationCounts()), "stream")]
    try:
        for seq, kind in kinds:
            assert _kind(seq) == kind, seq
            for scheme in SCHEMES.values():
                assert isinstance(scheme.probe(seq), str)
    finally:
        mapped.close()
    for grid in (memoryview(b"abcd").cast("B", (2, 2)),
                 memoryview(b"a").cast("B", ())):
        with pytest.raises(ValueError, match="only 1-D memoryviews"):
            _kind(grid)


def test_probe_specializes_buffers_and_strings():
    # byte buffers share the unmasked index; signed bytes and int buffers
    # that cannot take the low-byte index share the masked one
    byte_index, int_index = BYTE.probe(b"ab"), BYTE.probe(array("b"))
    assert byte_index != int_index
    for seq in (bytearray(), array("B"), memoryview(b"ab")):
        assert BYTE.probe(seq) == byte_index
    strided = memoryview(array("H", [1, 2, 3]))[::2]
    assert BYTE.probe(strided) == int_index
    assert MOD256.probe(memoryview(array("H"))) == MOD256.probe(array("H"))
    # mask 1023 keeps every byte value, so bytes skip it; a mask that
    # drops byte bits, or a wider window, masks bytes too
    wide, low = _PROBED["wide1023"], _PROBED["low15"]
    assert wide.probe(b"") != wide.probe(array("H"))
    assert low.probe(b"") == low.probe(array("b"))
    assert _PROBED["low127"].probe(b"") == _PROBED["low127"].probe(array("b"))
    # DNA2..DNA5 read byte buffers and low bytes through combine tables,
    # with no int arithmetic; signed bytes keep the arithmetic index
    for scheme in (DNA2, DNA3, DNA4, DNA5):
        for seq in (bytearray(), array("B"), memoryview(b"")):
            assert scheme.probe(seq) == scheme.probe(b"")
        table_indexes = [scheme.probe(b"")]
        if scheme is not DNA3:  # mask 511 reads the whole symbol
            table_indexes.append(scheme.probe(array("H")))
        for index in table_indexes:
            assert "_add_" in index and not any(op in index for op in "*&")
        for seq in (array("b"), "", []):
            assert "*" in scheme.probe(seq) and "_add_" not in scheme.probe(seq)
    assert DNA3.probe(array("H")) == DNA3.probe(array("b"))
    # the int, str and val indexes are the arithmetic ones
    terms = "text[pos - 3] + text[pos - 2] * 4 + text[pos - 1] * 16 + text[pos] * 64"
    assert DNA4.probe(array("b")) == f"({terms}) & 255"
    assert DNA4.probe("") == "({}) & 255".format(
        terms.replace("text[", "ord(text[").replace("]", "])"))
    assert DNA4.probe([]) == "({}) & 255".format(
        terms.replace("text[", "val(text[").replace("]", "])"))
    # wide int buffers read the low byte where the mask clears every bit
    # above it: the byte index over `low`.  Signed bytes, strided views,
    # DNA3 (mask 511) and mask 1023 read the whole symbol
    for scheme in (MOD256, DNA4, low, _PROBED["low127"]):
        for seq in (array("H"), array("h"), array("Q"), memoryview(array("I"))):
            assert (scheme.probe(seq)
                    == scheme.probe(b"").replace("text[", "low[")), seq
    assert MOD256.probe(array("H")) == "low[pos]"
    assert "text[" not in DNA4.probe(array("H"))
    for scheme, seq in [(MOD256, array("b")), (MOD256, strided),
                        (DNA3, array("H")), (wide, array("H"))]:
        assert "text[" in scheme.probe(seq) and "low[" not in scheme.probe(seq)
    # str gets the ord index; any other symbols go through val
    generic = BYTE.probe([1, 2])
    assert generic not in (byte_index, int_index) and "val(" in generic
    assert BYTE.probe(memoryview(b"ab").cast("c")) == generic  # bytes items
    assert DNA4.probe(array("d")) == DNA4.probe([])
    assert DNA4.probe(bytearray()) != DNA4.probe([1, 2, 3, 4])
    assert DNA4.probe("acgt") not in (DNA4.probe(b""), DNA4.probe([]))
    assert BYTE.probe("ab") not in (byte_index, int_index, generic)
    assert "ord(" in BYTE.probe("ab") and "ord(" in DNA4.probe("acgt")


def test_indexes_multiply_and_leave_out_what_the_mask_zeroes():
    kinds = [b"", array("H"), "", []]
    for scheme in _PROBED.values():
        assert not any("<<" in scheme.probe(seq) for seq in kinds)
    # DNA5's newest symbol, times 256, never reaches its 8-bit mask: the
    # uncounted indexes skip that read, the val one keeps it
    for seq in kinds[:3]:
        assert "text[pos]" not in DNA5.probe(seq)
    assert "val(text[pos]) * 256" in DNA5.probe([])
    assert "text[pos]" not in _PROBED["dead-newest"].probe(b"")
    assert "text[pos - 1]" not in _PROBED["dead-oldest"].probe("")
    assert "text[pos]" not in _PROBED["bit1"].probe(array("H"))
    # no term left: the index is the constant 0
    mask0 = _PROBED["mask0"]
    assert mask0.probe(b"") == mask0.probe("") == "0"
    assert "val(text[pos])" in mask0.probe([])


def test_shift_sum_scheme_validates_its_parameters():
    for shifts, mask in [(("2",), 255), ((0, -1), 255), ((0,), 255.0),
                         ((), 255), ((0,), -1), (3, 255)]:
        with pytest.raises(ValueError):
            ShiftSumScheme(shifts, mask)
    for scheme in _SHIFT_SUMS.values():
        rebuilt = ShiftSumScheme(scheme.shifts, scheme.mask)
        assert rebuilt.hash(b"acgtac", 5) == scheme.hash(b"acgtac", 5)
    assert len(_SHIFT_SUMS) == 6


def test_misfit_symbols_raise_value_error():
    with pytest.raises(ValueError, match="no integer value"):
        DNA2.hash(["ab", "c"], 1)  # a word is not one symbol
    with pytest.raises(ValueError, match="not a word"):
        WORD_HEAD.hash(b"panic", 0)


def test_str_and_bytes_windows_agree():
    assert BYTE.hash("x", 0) == BYTE.hash(b"x", 0)
    assert DNA4.hash("acgt", 3) == DNA4.hash(b"acgt", 3)


def test_default_scheme_registry():
    assert default_scheme_for(b"abc") is BYTE
    assert default_scheme_for(bytearray(b"abc")) is BYTE
    assert default_scheme_for("abc") is BYTE
    assert default_scheme_for([1, 70000]) is MOD256
    assert default_scheme_for([b"some", b"words"]) is WORD_HEAD
    assert default_scheme_for(["some", "words"]) is WORD_HEAD
    assert default_scheme_for([object()]) is ZERO
    assert default_scheme_for([]) is ZERO
    from array import array
    assert default_scheme_for(array("H", [1, 2])) is MOD256
    # a buffer's scheme follows its format, empty or not: no search
    # reaches a probe on an empty text
    assert default_scheme_for(array("H")) is MOD256
    # a memoryview's scheme follows its items, as a list's does
    assert default_scheme_for(memoryview(b"abc")) is BYTE
    assert default_scheme_for(memoryview(array("d", [1.0]))) is ZERO
    assert MOD256 is BYTE  # another name for integer symbols


def test_scheme_name_table():
    assert set(SCHEMES) == {"byte", "mod256", "dna2", "dna3", "dna4", "dna5",
                            "word", "zero"}
    assert SCHEMES["zero"].suffix_size == 0
