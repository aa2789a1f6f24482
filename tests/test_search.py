import mmap
import random
from array import array

import pytest
from oracles import naive_find

from seqmatch import search
from seqmatch import (ALGORITHM_NAMES, BYTE, DNA2, DNA4, ZERO, HashScheme,
                      ReusableSkipTable, dispatch_search, naive_search,
                      random16_text, resolve_algorithm, search_al,
                      search_hal, search_kmp_basic, search_l, search_nhal,
                      search_sf)

ALL = [(name, resolve_algorithm(name)) for name in ALGORITHM_NAMES]

# the bundled small.txt triples with oracle-derived positions
TRIPLES = [
    (b"Now's the time for all good men and women to come to the aid of their country.",
     b"time", 10),
    (b"Now's the time for all good men and women to come to the aid of their country.",
     b"timid", None),
    (b"Now's the time for all good men and women to come to the aid of their country.",
     b"try.", 74),
    (b"babcbabcabcaabcabcabcacabc", b"abcabcacab", 15),
    (b"aaaaaaabcabcadefg", b"abcad", 9),
    (b"aaaaaaabcabcadefg", b"ab", 6),
]


@pytest.mark.parametrize("name, fn", ALL, ids=[n for n, _ in ALL])
@pytest.mark.parametrize("text, pattern, expected", TRIPLES,
                         ids=[t[1].decode() for t in TRIPLES])
def test_regression_triples(name, fn, text, pattern, expected):
    assert naive_find(text, pattern) == expected
    assert fn(text, pattern).position == expected


@pytest.mark.parametrize("name, fn", ALL, ids=[n for n, _ in ALL])
def test_edges(name, fn):
    assert fn(b"abc", b"abc").position == 0
    assert fn(b"abc", b"abd").position is None
    assert fn(b"ab", b"abc").position is None  # text shorter than pattern
    assert fn(b"abc", b"").position == 0       # empty pattern matches at 0
    assert fn(b"", b"a").position is None
    assert fn(b"ab", b"ab").position == 0
    assert fn(b"xxxxab", b"ab").position == 4  # match flush at the end
    assert fn(b"zzzq", b"q").position == 3     # size-1 pattern
    assert fn(b"uuuuuuuuuua", b"bcdabcdabcd").position is None


def test_skip_shift_example_strings():
    # the two illustration texts for the shift-on-tail-mismatch idea
    for text in (b"......uuuuuuuuuua....", b"......uuuuuuuuuue...."):
        for name, fn in ALL:
            assert fn(text, b"bcdabcdabcd").position is None, name


@pytest.mark.parametrize("name, fn", ALL, ids=[n for n, _ in ALL])
def test_first_match_is_returned(name, fn):
    text = b"abab" * 10
    assert fn(text, b"ab").position == 0
    assert fn(text, b"bab").position == 1
    assert fn(b"aaaa", b"aa").position == 0


def test_fuzz_all_algorithms_agree_with_oracle():
    rng = random.Random(1234)
    for _ in range(1500):
        sigma = rng.choice([b"ab", b"acgt", b"abcdefghijklmnopqrstuvwxyz",
                            bytes(range(256))])
        n = rng.randint(1, 250)
        m = rng.randint(1, 24)
        text = bytes(rng.choices(sigma, k=n))
        if rng.random() < 0.5 and m <= n:
            start = rng.randrange(n - m + 1)
            pattern = text[start:start + m]
        else:
            pattern = bytes(rng.choices(sigma, k=m))
        want = naive_find(text, pattern)
        assert naive_search(text, pattern).position == want
        for name, fn in ALL:
            assert fn(text, pattern).position == want, (name, text, pattern)


def test_search_l_accepts_one_shot_iterators():
    text = b"the quick brown fox"
    assert search_l(iter(text), b"brown").position == 10
    assert search_l((x for x in text), b"quick").position == 4
    assert search_l(iter(b""), b"a").position is None
    assert search_l(iter(text), iter(b"fox")).position == 16
    assert search_l(b"abc", iter(())).position == 0


def test_str_inputs_work_everywhere():
    for fn in (search_sf, search_kmp_basic, search_l, search_al, search_hal):
        assert fn("mississippi", "issip").position == 4
        assert fn("mississippi", "zzz").position is None


class _ConstantScheme(HashScheme):
    """Degenerate scheme: everything hashes to 0."""

    hash_range_max = 1
    suffix_size = 1

    def hash(self, seq, pos):
        return 0


def test_degenerate_scheme_is_still_correct():
    rng = random.Random(5)
    scheme = _ConstantScheme()
    for _ in range(200):
        text = bytes(rng.choices(b"abc", k=rng.randint(1, 120)))
        m = rng.randint(1, 10)
        pattern = (text[:m] if rng.random() < 0.5 and m <= len(text)
                   else bytes(rng.choices(b"abc", k=m)))
        assert search_hal(text, pattern, scheme).position == \
            naive_find(text, pattern)


def test_zero_scheme_falls_back_to_forward_search():
    text, pattern = b"abcabcabd", b"cabd"
    assert search_hal(text, pattern, ZERO).position == 5
    # suffix larger than the pattern: same fallback
    assert search_hal(b"acgtacgt", b"gt", DNA4).position == 2
    # the fallback indexes the pattern: an mmap's items are ints
    with mmap.mmap(-1, 2) as pattern:
        pattern.write(b"gt")
        assert search_hal(b"acgtacgt", pattern, DNA4).position == 2
        assert search_hal(b"acgtacgt", pattern, ZERO).position == 2


def test_hal_identity_scheme_equals_al():
    rng = random.Random(6)
    for _ in range(200):
        text = bytes(rng.choices(b"abcd", k=rng.randint(1, 150)))
        pattern = bytes(rng.choices(b"abcd", k=rng.randint(1, 12)))
        assert (search_al(text, pattern).position
                == search_hal(text, pattern, BYTE).position)


def test_nhal_restores_its_table():
    table = ReusableSkipTable()
    text = random16_text(4000, seed=11)
    first = text[100:140]
    assert search_nhal(text, first, table).position == 100
    assert all(v == 0 for v in table.slots)
    # a second search through the same table is unaffected by the first
    second = text[2222:2230]
    assert search_nhal(text, second, table).position == \
        naive_find(text, second)
    assert all(v == 0 for v in table.slots)


def test_nhal_restores_on_not_found():
    table = ReusableSkipTable()
    assert search_nhal(array("H", [1, 2, 3]), array("H", [9, 9]),
                       table).position is None
    assert all(v == 0 for v in table.slots)


def test_nhal_matches_hal_mod256_on_16bit_data():
    table = ReusableSkipTable()
    rng = random.Random(12)
    text = random16_text(3000, seed=12)
    for _ in range(60):
        m = rng.randint(1, 20)
        if rng.random() < 0.6:
            start = rng.randrange(len(text) - m)
            pattern = text[start:start + m]
        else:
            pattern = array("H", [rng.randrange(1 << 16) for _ in range(m)])
        assert (search_nhal(text, pattern, table).position
                == search_hal(text, pattern).position)


def test_nhal_rejects_out_of_domain_patterns():
    table = ReusableSkipTable()
    with pytest.raises(ValueError):
        search_nhal([1, 2, 3], [1 << 16], table)
    with pytest.raises(ValueError):
        search_nhal([1, 2, 3], [-1, 2], table)
    with pytest.raises(ValueError, match="pattern symbols"):
        search_nhal(b"abcabc", [98.0, 99.0], table)
    assert all(v == 0 for v in table.slots)


def test_searches_over_an_mmap(tmp_path):
    rng = random.Random(12)
    data = bytes(rng.choices(b"acgt", k=3000))
    path = tmp_path / "dna.txt"
    path.write_bytes(data)
    with open(path, "rb") as f, \
            mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as text:
        for _ in range(40):
            m = rng.randint(1, 30)
            start = rng.randrange(len(data) - m + 1)
            pattern = (data[start:start + m] if rng.random() < 0.7
                       else bytes(rng.choices(b"acgt", k=m)))
            want = naive_find(data, pattern)
            assert search_hal(text, pattern, BYTE).position == want
            assert search_hal(text, pattern, DNA4).position == want
            assert dispatch_search(text, pattern).position == want
            assert search_l(text, pattern).position == want  # iterates


def test_nhal_rejects_out_of_domain_text_symbols():
    table = ReusableSkipTable()
    with pytest.raises(ValueError, match="text symbols exceed"):
        search_nhal([1, 70000, 5, 2, 3], [2, 3], table)
    assert all(v == 0 for v in table.slots)
    with pytest.raises(ValueError, match="text symbols exceed"):
        search_nhal(array("I", [4, 1 << 16, 5, 9, 9]), [9, 9], table)
    assert all(v == 0 for v in table.slots)


def test_non_integer_symbols_raise_value_error():
    floats = array("d", [1.0, 2.0, 3.0])
    for scheme in (BYTE, DNA2):
        with pytest.raises(ValueError, match="no integer value"):
            search_hal(floats, array("d", [2.0, 3.0]), scheme)
        with pytest.raises(ValueError, match="no integer value"):
            search_hal(floats, [2, 3], scheme)  # only the text misfits
    table = ReusableSkipTable()
    with pytest.raises(ValueError, match="text symbols"):
        search_nhal(floats, [2, 3], table)
    assert all(v == 0 for v in table.slots)


def test_dispatch_capability_routing():
    text = b"some text with a needle in it"
    assert dispatch_search(text, b"needle").position == 17
    assert dispatch_search(iter(text), b"needle").position == 17
    assert dispatch_search(text, b"needle", DNA4).position == 17
    # unknown element types route through the zero scheme to the
    # forward search
    objs = [(1, 2), (3, 4), (5, 6)]
    assert dispatch_search(objs, [(3, 4)]).position == 1


def test_dispatch_word_sequences():
    words = b"to be or not to be that is the question".split()
    assert dispatch_search(words, [b"not", b"to", b"be"]).position == 3
    assert dispatch_search(words, [b"banana"]).position is None


def test_dispatch_cache_grows_the_tail_slot_with_the_text():
    search._cached_tables.cache_clear()
    pattern = b"bab"
    short = b"abcabcabc"
    assert dispatch_search(short, pattern).position is None
    # the only match lies past the short text, behind many tail hits
    long = short * 10 + pattern + short * 10
    assert dispatch_search(long, pattern).position == naive_find(long, pattern)
    assert dispatch_search(short, pattern).position is None


def test_dispatch_cache_keys_on_the_scheme():
    search._cached_tables.cache_clear()
    rng = random.Random(7)
    text = bytes(rng.choices(b"acgt", k=3000))
    for start in (500, 1500, 2900):
        pattern = text[start:start + 20]
        want = naive_find(text, pattern)
        assert dispatch_search(text, pattern, scheme=BYTE).position == want
        assert dispatch_search(text, pattern, scheme=DNA4).position == want
        assert dispatch_search(text, pattern, scheme=BYTE).position == want


def test_dispatch_cache_keeps_bytes_and_str_apart():
    search._cached_tables.cache_clear()
    for _ in range(2):
        assert dispatch_search(b"xxab", b"ab").position == 2
        assert dispatch_search(b"xxab", "ab").position is None
        assert dispatch_search("xxab", "ab").position == 2
        assert dispatch_search("xxab", b"ab").position is None
    assert search._cached_tables.cache_info().currsize == 2


def test_dispatch_sees_a_mutated_bytearray_pattern():
    search._cached_tables.cache_clear()
    text = b"xxabxxcd"
    pattern = bytearray(b"ab")
    assert dispatch_search(text, pattern).position == 2
    pattern[:] = b"cd"
    assert dispatch_search(text, pattern).position == 6


def test_dispatch_cache_serves_one_entry_per_text_size_class():
    cached = search._cached_tables
    cached.cache_clear()
    pattern = b"needle"
    assert dispatch_search(b"x" * 100 + pattern, pattern).position == 100
    assert cached.cache_info().misses == 1
    # 106 and 120 elements share the class [64, 128)
    assert dispatch_search(b"y" * 114 + pattern, pattern).position == 114
    assert cached.cache_info().hits == 1
    assert dispatch_search(b"z" * 200 + pattern, pattern).position == 200
    assert cached.cache_info().misses == 2
    # the tail slot exceeds every text of the class [128, 256) but stays
    # <= 2n, so tail hits keep small-int arithmetic
    assert cached(pattern, BYTE, 8)[1].shifts[pattern[-1]] == 256


def test_dispatch_cache_stays_within_its_bound():
    cached = search._cached_tables
    cached.cache_clear()
    bound = cached.cache_info().maxsize
    text = bytes(range(256)) * 4
    patterns = [bytes([i % 256, i // 256, 7]) for i in range(bound + 50)]
    for pattern in patterns:
        assert (dispatch_search(text, pattern).position
                == naive_find(text, pattern))
        assert cached.cache_info().currsize <= bound
    assert cached.cache_info().currsize == bound
    hits, misses = cached.cache_info()[:2]
    dispatch_search(text, patterns[-1])
    assert cached.cache_info()[:2] == (hits + 1, misses)
    dispatch_search(text, patterns[0])  # the oldest went first
    assert cached.cache_info()[:2] == (hits + 1, misses + 1)


def test_dispatch_cache_survives_thread_switches():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(41)
    text = bytes(rng.choices(b"abcd", k=1200))
    # more patterns than the cache holds, over texts of growing length
    patterns = [text[o:o + 6] for o in rng.sample(range(1190), 400)]

    def run(i):
        for p in patterns[i::8]:
            for n in (300, 1200, 600):
                at = text[:n].find(p)
                if dispatch_search(text[:n], p).position != (
                        None if at < 0 else at):
                    return False
        return True

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(run, range(8), timeout=60))
    finally:
        sys.setswitchinterval(old)
    assert results == [True] * 8
    info = search._cached_tables.cache_info()
    assert info.currsize <= info.maxsize


def test_tail_slot_at_the_text_size_class_boundaries():
    # every hashed search sets its tail slot to large = 2**n.bit_length(),
    # so texts one short of, at and one past a power of two straddle two
    # size classes; the tail window recurs all through the text, and the
    # only match sits flush at its end, behind tail hits up to n
    search._cached_tables.cache_clear()
    cases = ((BYTE, b"ab", [b"bbab", b"bb" + b"ab" * 5]),
             (DNA4, b"acgt", [b"ttacgt", b"tt" + b"acgt" * 4]))
    for scheme, filler, patterns in cases:
        for b in range(6, 11):
            for n in (2**b - 1, 2**b, 2**b + 1):
                for pattern in patterns:
                    m = len(pattern)
                    text = (filler * n)[:n - m] + pattern
                    assert naive_find(text, pattern) == n - m
                    assert search_hal(text, pattern, scheme).position == n - m
                    assert dispatch_search(text, pattern,
                                           scheme).position == n - m
                    if scheme is BYTE:
                        assert search_al(text, pattern).position == n - m


def test_resolve_algorithm_rejects_unknown_names():
    with pytest.raises(ValueError):
        resolve_algorithm("boyer")


def test_searches_run_concurrently():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(31)
    text = bytes(rng.choices(b"abcdef", k=50_000))
    jobs = []
    for _ in range(12):
        start = rng.randrange(len(text) - 20)
        jobs.append(text[start:start + 20])
    # one table per job: concurrent nhal calls need distinct tables
    tables = [ReusableSkipTable() for _ in jobs]

    def run(i):
        pattern = jobs[i]
        return (search_hal(text, pattern).position,
                search_l(text, pattern).position,
                search_nhal(text, pattern, tables[i]).position,
                dispatch_search(text, pattern).position)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(run, range(len(jobs))))
    for pattern, (a, b, c, d) in zip(jobs, results):
        want = naive_find(text, pattern)
        assert a == b == c == d == want
