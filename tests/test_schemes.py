import random
from array import array

import pytest

from seqmatch import (BYTE, DNA2, DNA3, DNA4, DNA5, MOD256, SCHEMES,
                      WORD_HEAD, ZERO, ShiftSumScheme, default_scheme_for)

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


@pytest.mark.parametrize("scheme", _RANGED.values(), ids=list(_RANGED))
def test_hash_range_bound(scheme):
    rng = random.Random(7)
    for _ in range(500):
        if scheme is WORD_HEAD:
            seq = [bytes(rng.choices(b"abcdef", k=rng.randint(1, 6)))
                   for _ in range(6)]
        elif scheme is MOD256:
            seq = [rng.randrange(1 << 16) for _ in range(6)]
        else:
            seq = bytes(rng.choices(bytes(range(256)), k=6))
        h = scheme.hash(seq, len(seq) - 1)
        assert 0 <= h < scheme.hash_range_max


@pytest.mark.parametrize("scheme", _RANGED.values(), ids=list(_RANGED))
def test_equal_windows_hash_equal(scheme):
    rng = random.Random(8)
    for _ in range(300):
        if scheme is WORD_HEAD:
            window = [bytes(rng.choices(b"xyz", k=rng.randint(1, 4)))
                      for _ in range(2)]
            copy = [bytes(w) for w in window]
        elif scheme is MOD256:
            window = [rng.randrange(1 << 16) for _ in range(2)]
            copy = list(window)
        else:
            window = bytes(rng.choices(b"acgt", k=scheme.suffix_size))
            copy = bytearray(window)  # equal content, different type
        pos = len(window) - 1
        assert scheme.hash(window, pos) == scheme.hash(copy, pos)


# masks 15, 127 and 1023 sit on both sides of the unmasked byte loop's
# condition, mask & 255 == 255; 127 also drops the top bit of the byte
# values up to 255 probed below
_PROBED = {**_SHIFT_SUMS, "low15": ShiftSumScheme((0,), 15),
           "low127": ShiftSumScheme((0,), 127),
           "wide1023": ShiftSumScheme((0,), 1023)}


@pytest.mark.parametrize("scheme", _PROBED.values(), ids=list(_PROBED))
def test_probe_agrees_with_hash(scheme):
    rng = random.Random(9)
    values = [rng.randrange(256) for _ in range(40)]
    seqs = [bytes(values), bytearray(values), array("B", values),
            array("b", [v - 128 for v in values]),
            array("H", [v * 257 for v in values]),
            array("i", [v * 65537 - (1 << 23) for v in values]),
            list(values), "".join(map(chr, values)),
            memoryview(bytes(values)),
            memoryview(array("H", [v * 257 for v in values]))]
    # one step of the probed loop over `skip` lands on pos + 1 + hash
    skip = [h + 1 for h in range(scheme.hash_range_max)]
    for seq in seqs:
        advance = scheme.probe(seq)
        for pos in range(scheme.suffix_size - 1, len(seq)):
            got = advance(seq, skip, pos, pos + 1) - pos - 1
            assert got == scheme.hash(seq, pos), (seq, pos)


def test_probe_specializes_buffers_and_strings():
    kinds = [b"ab", bytearray(b"ab"), "ab", [1, 2], [b"word"], array("B"),
             array("b"), array("H"), array("d"), memoryview(b"ab"),
             memoryview(b"ab").cast("c"), memoryview(array("H"))]
    for scheme in SCHEMES.values():
        assert all(callable(scheme.probe(seq)) for seq in kinds)
    # byte buffers share the unmasked loop; other int buffers, signed
    # bytes included, share the masked one
    byte_loop, int_loop = BYTE.probe(b"ab"), BYTE.probe(array("H"))
    assert byte_loop is not int_loop
    for seq in (bytearray(), array("B"), memoryview(b"ab")):
        assert BYTE.probe(seq) is byte_loop
    assert BYTE.probe(array("b")) is int_loop
    assert MOD256.probe(memoryview(array("H"))) is MOD256.probe(array("H"))
    # mask 1023 keeps every byte value, so bytes skip it; a mask that
    # drops byte bits, or a wider window, masks bytes too
    wide, low = _PROBED["wide1023"], _PROBED["low15"]
    assert wide.probe(b"") is not wide.probe(array("H"))
    assert low.probe(b"") is low.probe(array("H"))
    assert DNA4.probe(bytearray()) is DNA4.probe(array("H"))
    # str gets its own loop; any other symbols go through _val
    generic = BYTE.probe([1, 2])
    assert generic not in (byte_loop, int_loop)
    assert BYTE.probe(memoryview(b"ab").cast("c")) is generic  # bytes items
    assert DNA4.probe(array("d")) is DNA4.probe([])
    assert DNA4.probe(bytearray()) is not DNA4.probe([1, 2, 3, 4])
    assert DNA4.probe("acgt") not in (DNA4.probe(b""), DNA4.probe([]))
    assert BYTE.probe("ab") not in (byte_loop, int_loop, generic)


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


def test_scheme_name_table():
    assert set(SCHEMES) == {"byte", "mod256", "dna2", "dna3", "dna4", "dna5",
                            "word", "zero"}
    assert SCHEMES["zero"].suffix_size == 0
