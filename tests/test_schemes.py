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


@pytest.mark.parametrize("scheme", _SHIFT_SUMS.values(),
                         ids=list(_SHIFT_SUMS))
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
    for seq in seqs:
        probe = scheme.probe(seq)
        for pos in range(scheme.suffix_size - 1, len(seq)):
            if probe is None:
                got = seq[pos]
            elif isinstance(probe, int):
                got = seq[pos] & probe
            else:
                got = probe(seq, pos)
            assert got == scheme.hash(seq, pos), (seq, pos)


def test_probe_specializes_buffers_and_strings():
    assert BYTE.probe(b"ab") is None
    assert BYTE.probe(array("B")) is None
    assert MOD256.probe(array("H")) == 255
    assert BYTE.probe(array("b")) == 255  # negative symbols still fold
    assert BYTE.probe(memoryview(b"ab")) is None
    assert MOD256.probe(memoryview(array("H"))) == 255
    assert BYTE.probe(memoryview(b"ab").cast("c")) is BYTE.hash  # bytes items
    # multi-symbol windows get loops that skip _val's type tests
    assert DNA4.probe(bytearray()) is not DNA4.hash
    assert DNA4.probe("acgt") is not DNA4.hash
    assert BYTE.probe("ab") is not BYTE.hash
    assert DNA4.probe(array("d")) is DNA4.hash


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
