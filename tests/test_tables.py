import itertools
import random

import pytest
from oracles import mismatch_oracle, next_oracle, skip_oracle_identity

from seqmatch import (BYTE, DNA4, EmptyPattern, SuffixTooLong, compute_next,
                      compute_skip)


@pytest.mark.parametrize("pattern, expected", [
    ("a", [-1]),
    ("aaaa", [-1, -1, -1, -1]),
    ("ab", [-1, 0]),
    ("aa", [-1, -1]),
    # frozen from the brute-force definition
    ("abcabcacab", [-1, 0, 0, -1, 0, 0, -1, 4, -1, 0]),
])
def test_compute_next_known_values(pattern, expected):
    assert compute_next(pattern) == expected


def test_compute_next_matches_definition_on_random_patterns():
    rng = random.Random(42)
    for _ in range(300):
        m = rng.randint(1, 64)
        pattern = bytes(rng.choices(b"abc", k=m))
        assert compute_next(pattern) == next_oracle(pattern)


def test_compute_next_exhaustive_binary_patterns():
    for m in range(1, 9):
        for tup in itertools.product(b"ab", repeat=m):
            pattern = bytes(tup)
            assert compute_next(pattern) == next_oracle(pattern)


def test_compute_next_rejects_empty_pattern():
    with pytest.raises(EmptyPattern):
        compute_next(b"")


def test_preprocessing_is_idempotent():
    pattern = b"abacabadabacaba"
    assert compute_next(pattern) == compute_next(pattern)
    first = compute_skip(pattern, BYTE, 100)
    second = compute_skip(pattern, BYTE, 100)
    assert first.shifts == second.shifts
    assert first == second


def test_skip_table_for_abc_under_identity_hash():
    table = compute_skip(b"abc", BYTE, 10)
    assert table.mismatch_shift == 3
    assert table.adjustment == 13
    assert table.shifts[ord("a")] == 2
    assert table.shifts[ord("b")] == 1
    assert table.shifts[ord("c")] == 11  # tail entry, post substitution
    assert all(table.shifts[x] == 3 for x in range(256)
               if x not in b"abc")


def test_skip_table_tail_repeat_sets_mismatch_shift():
    table = compute_skip(b"aa", BYTE, 5)
    assert table.mismatch_shift == 1
    assert table.shifts[ord("a")] == 6


def test_skip_table_single_repeated_symbol():
    m = 7
    table = compute_skip(b"x" * m, BYTE, 50)
    assert table.shifts[ord("x")] == 51
    assert all(table.shifts[h] == m for h in range(256) if h != ord("x"))


def test_skip_table_matches_definition_under_identity_hash():
    rng = random.Random(4)
    for _ in range(300):
        m = rng.randint(1, 32)
        pattern = bytes(rng.choices(b"acgt", k=m))
        table = compute_skip(pattern, BYTE, 1000)
        pre = list(table.shifts)
        pre[BYTE.hash(pattern, m - 1)] = 0  # undo the large substitution
        assert pre == skip_oracle_identity(pattern)
        assert table.mismatch_shift == mismatch_oracle(pattern)
        assert 1 <= table.mismatch_shift <= m
        assert table.adjustment == 1001 + m - 1


def test_skip_table_bounds_pre_substitution():
    rng = random.Random(5)
    for _ in range(100):
        m = rng.randint(4, 24)
        pattern = bytes(rng.choices(b"acgt", k=m))
        table = compute_skip(pattern, DNA4, 500)
        s = DNA4.suffix_size
        tail = DNA4.hash(pattern, m - 1)
        for h, shift in enumerate(table.shifts):
            if h == tail:
                assert shift == 501
            else:
                assert 0 <= shift <= m - s + 1


def test_skip_rejects_bad_inputs():
    with pytest.raises(EmptyPattern):
        compute_skip(b"", BYTE, 10)
    with pytest.raises(SuffixTooLong):
        compute_skip(b"acg", DNA4, 10)
