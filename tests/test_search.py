import dataclasses
import inspect
import io
import mmap
import random
import re
import subprocess
import sys
from array import array

import pytest
from oracles import naive_find, wide_ints

from seqmatch import schemes, search, tables
from seqmatch import (ALGORITHM_NAMES, BYTE, DNA2, DNA3, DNA4, DNA5, MOD256,
                      ZERO, HashScheme, ReusableSkipTable, SearchOutcome,
                      ShiftSumScheme,
                      compute_skip, dispatch_search, naive_search,
                      random16_text, resolve_algorithm, run_counted,
                      search_al, search_hal, search_kmp_basic, search_l,
                      search_nhal, search_sf)
from seqmatch.tables import _fill_skip

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


def test_sized_searches_name_search_l_for_one_shot_inputs():
    text = b"xx panic"
    table = ReusableSkipTable()
    searches = [fn for name, fn in ALL if name not in ("l", "nhal")]
    searches += [lambda t, p: search_nhal(t, p, table), dispatch_search]
    for fn in searches:
        for pattern in (io.BytesIO(b"panic"), iter(b"panic")):
            with pytest.raises(ValueError, match="search_l"):
                fn(text, pattern)
    with pytest.raises(ValueError, match="search_l"):
        search_hal(iter(text), b"panic")
    assert all(v == 0 for v in table.slots)


@pytest.mark.parametrize("name, fn", ALL, ids=[n for n, _ in ALL])
@pytest.mark.parametrize("kind", ["dict-view", "set"])
def test_sized_unindexable_texts_name_search_l(name, fn, kind):
    # a dict view or a set has len() but no indexing: every random-access
    # search refuses it with one error, and search_l and dispatch_search
    # read it by iteration (small ints iterate in order)
    text = {"dict-view": {1: 0, 2: 0, 3: 0}.keys(), "set": {1, 2, 3}}[kind]
    assert schemes._kind(text) == "stream"
    assert dispatch_search(text, [1, 2]).position == 0
    if name == "l":
        assert fn(text, [1, 2]).position == 0
        return
    with pytest.raises(ValueError, match="len.. and indexing; search_l"):
        fn(text, [1, 2])
    with pytest.raises(ValueError, match="search_l"):
        fn([1, 2, 3], text)


def test_not_found_outcomes_are_one_frozen_value():
    # ALL includes search_l as "l"
    for name, fn in ALL + [("dispatch", dispatch_search)]:
        # a text shorter than the pattern, a size-1 miss and a full miss
        for text, pattern in ((b"ab", b"abc"), (b"abc", b"z"),
                              (b"abcabc", b"abd")):
            outcome = fn(text, pattern)
            assert outcome == SearchOutcome(None), name
            assert hash(outcome) == hash(SearchOutcome(None))
            assert outcome.found is False
            assert repr(outcome) == "SearchOutcome(position=None)"
            with pytest.raises(dataclasses.FrozenInstanceError):
                outcome.position = 0


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


def test_nhal_leaves_a_busy_table_alone():
    # as if another search held the table: its lock taken, its pattern's
    # entries written, among them symbols of this search's pattern
    table = ReusableSkipTable()
    text = random16_text(4000, seed=13)
    pattern = text[3000:3012]
    other = text[3004:3010]
    assert table.lock.acquire(blocking=False)
    try:
        for j, symbol in enumerate(other):
            table.slots[symbol] = 100 + j
        held = list(table.slots)
        assert search_nhal(text, pattern, table).position == \
            naive_find(text, pattern)
        assert table.lock.locked()
        assert table.slots == held
    finally:
        table.lock.release()


def test_nhal_calls_without_a_table_share_one():
    assert resolve_algorithm("nhal") is search_nhal
    text = random16_text(4000, seed=14)
    before = search._process_table.cache_info()
    for pattern in (text[500:520], text[2000:2005]):
        assert search_nhal(text, pattern).position == \
            naive_find(text, pattern)
    after = search._process_table.cache_info()
    assert (after.hits + after.misses, after.currsize) == \
        (before.hits + before.misses + 2, 1)
    shared = search._process_table()
    assert not shared.lock.locked()
    assert not any(shared.slots)


def test_importing_seqmatch_builds_no_nhal_table():
    code = ("import seqmatch.search as s\n"
            "print(s._process_table.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "0"


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


def test_nhal_guard_is_exact_and_serves_16_bit_buffers_only(monkeypatch):
    # v, v + 256 and v + 512 share their low byte, so the guard often sends
    # a step on to the full table; in the "h" text some symbols are 1024
    # lower, negative, with the same low byte.  Arrays and contiguous views
    # of 16-bit ints take the guarded search, every other text the plain one
    ran = []
    for name in ("_guarded_search", "_nhal_search"):
        def spy(*args, bind=getattr(search, name), name=name):
            ran.append(name)
            return bind(*args)
        monkeypatch.setattr(search, name, spy)
    guarded = {"H", "h", "H view", "wide H"}
    rng = random.Random(24)
    table = ReusableSkipTable()
    for _ in range(80):
        sigma = [v + 256 * k for v in rng.sample(range(256), rng.randint(1, 4))
                 for k in range(3)]
        values = rng.choices(sigma, k=rng.randint(2, 300))
        m = rng.randint(2, min(12, len(values)))
        start = rng.randrange(len(values) - m + 1)
        lows = bytes(v & 255 for v in values)
        for pattern in (values[start:start + m], rng.choices(sigma, k=m)):
            plows = bytes(v & 255 for v in pattern)
            cases = {  # kind: (text, pattern)
                "H": (array("H", values), pattern),
                "h": (array("h", [v - 1024 if rng.random() < 0.3 else v
                                  for v in values]), pattern),
                "H view": (memoryview(array("H", values)), pattern),
                "wide H": (wide_ints("H", lows), list(wide_ints("H", plows))),
                "strided H view": (memoryview(array("H", values * 2))[::2],
                                   pattern),
                "B": (array("B", lows), plows),
                "I": (array("I", values), pattern),
                "Q": (array("Q", values), pattern),
                "list": (values, pattern)}
            for kind, (text, p) in cases.items():
                ran.clear()
                assert (search_nhal(text, p, table).position
                        == naive_find(list(text), list(p))), kind
                assert ran == ["_guarded_search" if kind in guarded
                               else "_nhal_search"], kind
                assert not any(table.slots)


@pytest.mark.parametrize("find, wrap, calls", [
    (search_hal, bytes, 5),
    (dispatch_search, lambda data: array("H", list(data)), 6),
    (search_nhal, lambda data: array("H", list(data)), 4),
], ids=["search_hal-bytes", "dispatch-H", "search_nhal-H"])
def test_an_uncached_search_classifies_its_inputs_a_fixed_number_of_times(
        monkeypatch, find, wrap, calls):
    # `schemes._kind` is the one rule on an input's type, and preprocessing
    # classifies nothing: compute_next and _fill_skip read any sequence
    seen = []

    def spy(seq, kind=schemes._kind):
        seen.append(type(seq).__name__)
        return kind(seq)
    monkeypatch.setattr(schemes, "_kind", spy)
    monkeypatch.setattr(search, "_kind", spy)
    assert find(wrap(b"xxabcdxxabxx" * 4), wrap(b"abcd")).position == 2
    assert len(seen) == calls, seen


def test_no_byte_view_outlives_its_call():
    # a low-byte probe reads a view of its array, and an array with a
    # view cannot be resized: every search and table build drops its view
    # before it returns, found or not
    text = wide_ints("H", b"xxabcdxxabxx" * 20)
    assert "low[" in MOD256.probe(text) and "low[" in DNA4.probe(text)
    calls = [search_hal, dispatch_search, search_al,
             lambda t, p: search_hal(t, p, DNA4),
             lambda t, p: compute_skip(p, MOD256, len(t)),
             lambda t, p: compute_skip(p, DNA4, len(t)), search_nhal]
    for want, symbols in [(2, b"abcd"), (None, b"abzz")]:
        for call in calls:
            pattern = wide_ints("H", symbols)
            outcome = call(text, pattern)
            if isinstance(outcome, SearchOutcome):
                assert outcome.position == want
            text.append(0)
            pattern.append(0)
            del text[-1]


def test_generated_code_is_compiled_once_per_key():
    # every generated hash, window list and skip search comes from one
    # cache, keyed by template, name and probe index (a search's step)
    compiled = schemes._compiled
    assert (ShiftSumScheme((0, 2, 4, 6), 255).hash
            is ShiftSumScheme((0, 2, 4, 6), 255).hash)
    text, pattern = b"xxabcdxxabxx" * 20, b"abcd"
    assert search_hal(text, pattern, BYTE).position == 2
    before = compiled.cache_info()
    assert search_hal(bytearray(text), bytearray(pattern), BYTE).position == 2
    after = compiled.cache_info()
    assert after.hits > before.hits and after.misses == before.misses
    # nhal's skewed search reads the same index as BYTE's unskewed one
    unskewed = compiled(search._SKIP_SEARCH, "bind",
                        f"skip[{BYTE.probe(text)}]")
    assert unskewed is not search._nhal_search
    rng = random.Random(22)
    for _ in range(40):
        text = bytes(rng.choices(b"abc", k=rng.randint(2, 200)))
        m = rng.randint(2, len(text))
        start = rng.randrange(len(text) - m + 1)
        for pattern in (text[start:start + m], bytes(rng.choices(b"abc", k=m))):
            want = naive_find(text, pattern)
            assert search_nhal(text, pattern).position == want
            assert search_hal(text, pattern, BYTE).position == want


def test_generated_code_cache_stays_within_its_bound():
    compiled = schemes._compiled
    bound = compiled.cache_info().maxsize
    misses = compiled.cache_info().misses
    rng = random.Random(23)
    text = bytes(rng.choices(b"acgt", k=400))
    for _ in range(80):  # each scheme compiles a hash and its searches
        shifts = rng.sample(range(9), rng.randint(1, 4))
        scheme = ShiftSumScheme(shifts, rng.choice((63, 255, 511, 1023)))
        m = rng.randint(max(2, len(shifts)), 24)
        start = rng.randrange(len(text) - m + 1)
        for pattern in (text[start:start + m], bytes(rng.choices(b"acgt", k=m))):
            assert (search_hal(text, pattern, scheme).position
                    == naive_find(text, pattern))
            assert (search_hal(text.decode(), pattern.decode(), scheme).position
                    == naive_find(text, pattern))
        assert compiled.cache_info().currsize <= bound
    assert compiled.cache_info().misses > misses + bound
    # evicted searches compile again and still agree with the oracle
    for call in (search_hal, search_al, search_nhal, dispatch_search,
                 lambda t, p: search_hal(t, p, DNA4)):
        for pattern in (b"acgtac", text[100:120], text[-30:]):
            assert call(text, pattern).position == naive_find(text, pattern)


def test_combine_tables_hash_and_search_as_the_arithmetic_does():
    # every 2**k - 1 mask up to the cap, with sampled shifts (dead terms
    # included), beside masks of another form and masks above the cap
    rng = random.Random(23)
    schemes_ = [ShiftSumScheme(rng.choices(range(11), k=rng.randint(1, 5)),
                               (1 << k) - 1)
                for k in range(schemes._TABLE_MASK.bit_length() + 1)
                for _ in range(5)]
    schemes_ += [ShiftSumScheme((0, 2, 4), mask)
                 for mask in (2, 5, 100, 254, 256, 1023, 2047)]
    schemes_ += [ShiftSumScheme((1, 3), 511), ShiftSumScheme((3, 0, 5), 15)]
    values = [rng.randrange(256) for _ in range(60)] + [255, 0, 128, 255]
    index_texts = [bytes(values), wide_ints("H", values)]
    data = bytes(rng.choices(b"ac\x8f\xfe", k=300))
    with mmap.mmap(-1, len(data)) as mapped:
        mapped.write(data)
        for scheme in schemes_:
            mask = scheme.mask
            live = [x for x in scheme.shifts if mask >> x]
            tabled = (not mask & (mask + 1) and mask <= schemes._TABLE_MASK
                      and len(live) >= 2)
            assert ("_add_" in scheme.probe(b"")) == tabled, scheme.shifts
            if not tabled:
                assert "_add_" not in scheme.probe(array("H"))
            for text in index_texts:
                index = scheme.probe(text)
                names = {"val": schemes._val, **schemes._tables(index)}
                local = {"text": text}
                if "low[" in index:
                    exec(schemes._LOW, names, local)
                code = compile(index, "<probe>", "eval")
                for pos in range(scheme.suffix_size - 1, len(text)):
                    local["pos"] = pos
                    assert (eval(code, names, local)
                            == scheme.hash(text, pos)), (scheme.shifts, mask)
            s = scheme.suffix_size
            for _ in range(3):
                m = rng.randint(max(2, s), 24)
                start = rng.randrange(len(data) - m + 1)
                for pattern in (data[start:start + m],
                                bytes(rng.choices(b"ac\x8f\xfe", k=m))):
                    want = naive_find(data, pattern)
                    for text, pat in [(data, pattern),
                                      (bytearray(data), bytearray(pattern)),
                                      (wide_ints("H", data),
                                       wide_ints("H", pattern)),
                                      (mapped, pattern)]:
                        assert (search_hal(text, pat, scheme).position
                                == want), (type(text), scheme.shifts, mask)
                    slots = [m - s + 1] * scheme.hash_range_max
                    hashes = [scheme.hash(pattern, j) for j in range(s - 1, m)]
                    assert (compute_skip(pattern, scheme, len(data)).shifts
                            == _fill_skip(slots, hashes, m, 0, len(data)).shifts)


def test_combine_tables_are_lazy_shared_and_bounded():
    code = """\
from array import array
from seqmatch import BYTE, DNA2, DNA3, DNA4, DNA5, MOD256, schemes
from seqmatch import dispatch_search, search_hal
built = schemes._table.cache_info
text, pattern = b"xxacgtacgtxx" * 40, b"acgtacgt"
wide = array("H", list(text))
assert built().currsize == 0, "import"
for scheme in (BYTE, MOD256):
    for t, p in [(text, pattern), (wide, array("H", list(pattern)))]:
        assert search_hal(t, p, scheme).position == 2
        assert dispatch_search(t, p).position == 2
assert built().currsize == 0, "BYTE and MOD256"
assert search_hal(text, pattern, DNA4).position == 2
tables = built().currsize
assert search_hal(text, pattern, DNA5).position == 2
assert search_hal(wide, array("H", list(pattern)), DNA5).position == 2
assert built().currsize == tables == 3, "DNA5 shares DNA4's tables"
dna4, dna5 = (schemes._tables(s.probe(text)) for s in (DNA4, DNA5))
assert dna4.keys() == dna5.keys()
assert all(dna4[name] is dna5[name] for name in dna4)
for scheme in (DNA2, DNA3):
    assert search_hal(text, pattern, scheme).position == 2
print(schemes._row.cache_info().currsize)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # rows with equal (c << x) & mask are one list: DNA2 (mask 63) holds
    # 8, DNA3 (mask 511) 64 and DNA4 and DNA5 (mask 255) 64 between them
    assert int(proc.stdout) == 8 + 64 + 64
    # any scheme's tables are 256 rows of at most _TABLE_MASK + 1 values,
    # and the rows held are bounded by the cap: a mask of 2**k - 1 has k
    # shifts with live terms, each with 2**k distinct rows at most
    rng = random.Random(24)
    text = bytes(rng.choices(b"acgt", k=400))
    for _ in range(40):
        scheme = ShiftSumScheme(rng.choices(range(10), k=rng.randint(2, 5)),
                                rng.choice((1, 3, 15, 63, 127, 255, 511)))
        assert (search_hal(text, text[100:120], scheme).position
                == naive_find(text, text[100:120]))
        for table in schemes._tables(scheme.probe(text)).values():
            assert len(table) == 256
            assert all(len(row) == (scheme.mask | 255) + 1 for row in table)
            assert max(map(max, table)) <= scheme.mask
    cap = schemes._TABLE_MASK.bit_length()
    assert schemes._row.cache_info().currsize <= sum(
        k << k for k in range(1, cap + 1))


@pytest.mark.parametrize("scheme", [DNA2, DNA3, DNA4, DNA5],
                         ids=["dna2", "dna3", "dna4", "dna5"])
@pytest.mark.parametrize("wide", [False, True], ids=["bytes", "array-H"])
def test_generated_code_reads_combine_tables_as_locals(scheme, wide):
    # every combine table an index reads is a positional default of the
    # generated find and windows functions, so no probe and no window
    # hash reads one as a global, the comprehension included
    data = b"acgtacgtaacgtggtcatacgatcgatcgtacgtagc"
    text = wide_ints("H", data) if wide else data
    pattern = text[-12:]
    index = scheme.probe(text)
    find = search._bind(text, pattern, scheme, len(text))
    windows = schemes._compiled(tables._WINDOWS, "windows", index)
    codes = [find.__code__, windows.__code__,
             *(c for c in windows.__code__.co_consts if inspect.iscode(c))]
    assert not [name for code in codes for name in code.co_names
                if name.startswith("_add_")]
    for code in (find.__code__, windows.__code__):
        assert set(re.findall(r"_add_\w+", index)) <= set(code.co_varnames)
    assert find(text, len(text)) == naive_find(text, pattern)


def test_combine_tables_built_by_concurrent_searches():
    # with every cache emptied, 8 threads make the first DNA2..DNA5
    # searches together, switching every microsecond, so several may
    # build one table at once; each finds what the oracle finds
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(61)
    text = bytes(rng.choices(b"acgt", k=20_000))
    patterns = [text[o:o + m] for m in (12, 40)
                for o in rng.sample(range(19_000), 6)]
    patterns += [bytes(rng.choices(b"acgt", k=30)) for _ in range(3)]
    want = [naive_find(text, p) for p in patterns]
    schemes_ = [DNA2, DNA3, DNA4, DNA5]

    def run(i):
        return [search_hal(text, p, schemes_[i % 4]).position
                for p in patterns]

    for cache in (schemes._compiled, schemes._table, schemes._row):
        cache.cache_clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(run, range(8), timeout=120))
    finally:
        sys.setswitchinterval(old)
    assert got == [want] * 8


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


def test_every_algorithm_over_an_mmap_text():
    # size 1, and hal4/hal5 below m = 4, take the forward scan, which
    # iterates the text; counted runs iterate the counting proxy
    rng = random.Random(14)
    data = b"xxabcabdxxab" + bytes(rng.choices(b"abcd", k=200))
    with mmap.mmap(-1, len(data)) as text:
        text.write(data)
        for m in (1, 2, 3, 4, 5, 9):
            for start in (5, 7, 100, 205):
                pattern = (data[start:start + m] if start + m <= len(data)
                           else bytes(rng.choices(b"abcd", k=m)))
                want = naive_find(data, pattern)
                for name, fn in ALL:
                    assert fn(text, pattern).position == want, name
                    assert run_counted(name, text, pattern)[0].position \
                        == want, name


def test_an_mmap_pattern_reads_as_int_symbols():
    text = b"xxabcabdxxab"
    with mmap.mmap(-1, 3) as pattern:
        pattern.write(b"abd")
        for name, fn in ALL:
            assert fn(text, pattern).position == 5, name
        assert search_nhal(text, pattern).position == 5  # the process table
        assert dispatch_search(iter(text), pattern).position == 5


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


def test_multi_dimensional_views_raise_value_error():
    # such a view has a len but no items to index or iterate: every entry
    # refuses it before a search starts, as text or as pattern
    grid = memoryview(bytes(range(16))).cast("B", (4, 4))
    flat = bytes(range(16))
    for text, pattern in ((grid, b"\x05\x06"), (flat, grid), (grid, grid)):
        for name, fn in ALL:
            with pytest.raises(ValueError, match="only 1-D memoryviews"):
                fn(text, pattern)
            with pytest.raises(ValueError, match="only 1-D memoryviews"):
                run_counted(name, text, pattern)
        with pytest.raises(ValueError, match="only 1-D memoryviews"):
            dispatch_search(text, pattern)
    with pytest.raises(ValueError, match="only 1-D memoryviews"):
        dispatch_search(iter(flat), grid)
    with pytest.raises(ValueError, match="only 1-D memoryviews"):
        schemes.default_scheme_for(grid)
    # a 1-D view of the same bytes is searched as before
    assert dispatch_search(grid.cast("B"), b"\x05\x06").position == 5


def test_dispatch_capability_routing():
    text = b"some text with a needle in it"
    assert dispatch_search(text, b"needle").position == 17
    assert dispatch_search(iter(text), b"needle").position == 17
    assert dispatch_search(text, b"needle", DNA4).position == 17
    # unknown element types route through the zero scheme to the
    # forward search
    objs = [(1, 2), (3, 4), (5, 6)]
    assert dispatch_search(objs, [(3, 4)]).position == 1
    # a memoryview's items pick its scheme, as an array's or a list's do
    for view in (memoryview(array("d", [1.0, 2.0, 3.0, 4.0])),
                 memoryview(array("f", [1.5, 2.5, 3.5, 4.5])),
                 memoryview(bytes([1, 2, 3, 4])),
                 memoryview(array("H", [1, 700, 3, 60000])),
                 memoryview(bytes([0, 1, 1, 0])).cast("?")):
        items = view.tolist()
        assert dispatch_search(view, items[1:3]).position == 1
        assert dispatch_search(view, items[2:]).position == \
            naive_find(items, items[2:])


def test_dispatch_word_sequences():
    words = b"to be or not to be that is the question".split()
    assert dispatch_search(words, [b"not", b"to", b"be"]).position == 3
    # the first probe reads "be"; "to", whose head the pattern lacks,
    # lies before the match and must not decide the first shift
    assert dispatch_search(words, [b"be", b"or"]).position == 1
    assert dispatch_search(words, [b"banana"]).position is None


def test_dispatch_cache_serves_a_short_and_a_long_text_from_one_finder():
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
    assert search._cached_tables.cache_info().currsize == 4


def test_dispatch_cache_serves_each_entry_to_one_text_type():
    # one bytes and one str pattern object over every kind of text, in
    # shuffled order, in the size class [64, 128) and both its neighbours:
    # an entry built for one text type must never serve another
    class Bytes(bytes):
        pass

    search._cached_tables.cache_clear()
    rng = random.Random(17)
    patterns = [b"cabad", "cabad"]
    maps, jobs = [], []
    for n in (50, 64, 100, 127, 128, 200):
        raw = bytes(rng.choices(b"abcd", k=n))
        if n % 2 == 0:
            at = rng.randrange(n - 4)
            raw = raw[:at] + b"cabad" + raw[at + 5:]
        mapped = mmap.mmap(-1, n)
        mapped.write(raw)
        maps.append(mapped)
        texts = [raw, bytearray(raw), raw.decode("ascii"), Bytes(raw),
                 memoryview(raw), array("B", raw), array("H", list(raw)),
                 mapped, list(raw)]
        jobs += [(text, pattern) for text in texts for pattern in patterns]
    rng.shuffle(jobs)
    try:
        for text, pattern in jobs:
            want = naive_find(list(text[:]), list(pattern))
            assert dispatch_search(text, pattern).position == want, \
                (type(text), len(text), pattern)
    finally:
        for mapped in maps:
            mapped.close()


def test_dispatch_sees_a_mutated_bytearray_pattern():
    search._cached_tables.cache_clear()
    text = b"xxabxxcd"
    pattern = bytearray(b"ab")
    assert dispatch_search(text, pattern).position == 2
    pattern[:] = b"cd"
    assert dispatch_search(text, pattern).position == 6


def test_dispatch_cache_serves_one_entry_for_every_text_size():
    cached = search._cached_tables
    cached.cache_clear()
    pattern = b"needle"
    # texts of 106, 120 and 206 bytes share one entry
    for pad in (100, 114, 200):
        text = b"x" * pad + pattern
        assert dispatch_search(text, pattern).position == pad
    assert cached.cache_info()[:2] == (2, 1)
    # the tail slot, search._TAIL, exceeds every position of a text below
    # it, and a tail hit, at most (_TAIL - 2) + _TAIL, is a one-digit int
    finder = cached(pattern, None, bytes)
    assert cached.cache_info()[:2] == (3, 1)
    skip = inspect.signature(finder).parameters["skip"].default
    assert skip[pattern[-1]] == search._TAIL
    assert 2 * search._TAIL - 2 < 1 << sys.int_info.bits_per_digit


def test_dispatch_cache_admits_only_texts_below_the_tail_slot(monkeypatch):
    # with _TAIL at 64, 63-element texts take the cached finder, whose tail
    # slot is 64, and 64-element texts an uncached one built for them; a
    # match at offset 0 is found by the first probe's tail hit, which lands
    # exactly on `end` = n + m when n is 63 and the slot 64
    monkeypatch.setattr(search, "_TAIL", 64)
    cached = search._cached_tables
    cached.cache_clear()
    rng = random.Random(63)
    try:
        for n in (63, 64):
            for scheme in (None, DNA4):
                for at in (0, 9, n - 7, None):
                    raw = bytes(rng.choices(b"acgt", k=n))
                    pattern = bytes(rng.choices(b"acgt", k=7))
                    if at is not None:
                        raw = raw[:at] + pattern + raw[at + 7:]
                    for text, p in ((raw, pattern),
                                    (bytearray(raw), pattern),
                                    (raw.decode(), pattern.decode())):
                        before = cached.cache_info()
                        got = dispatch_search(text, p, scheme).position
                        assert got == naive_find(raw, pattern), \
                            (n, scheme, at, type(text))
                        if at == 0:
                            assert got == 0
                        used = cached.cache_info()[:2] != before[:2]
                        assert used == (n < 64), (n, type(text))
    finally:
        cached.cache_clear()  # drop the finders with a tail slot of 64


def test_dispatch_cache_answers_texts_shorter_than_the_pattern():
    cached = search._cached_tables
    cached.cache_clear()
    # DNA5's window exceeds the 3-element pattern: the forward search
    for scheme, pattern in ((None, "acgta"), (DNA4, "acgta"), (DNA5, "acg")):
        for text in ("", "a", pattern[:-1], "t" * (len(pattern) - 1)):
            for t, p in ((text.encode(), pattern.encode()),
                         (bytearray(text.encode()), pattern.encode()),
                         (text, pattern)):
                before = cached.cache_info()
                assert dispatch_search(t, p, scheme).position is None
                assert cached.cache_info()[:2] != before[:2], (t, p)


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


def test_texts_around_powers_of_two_share_one_tail_slot():
    # every hashed search of a text below search._TAIL sets its tail slot
    # to _TAIL, so texts one short of, at and one past a power of two share
    # one slot; the tail window recurs all through the text, and the only
    # match sits flush at its end, behind tail hits up to n
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


# (text, pattern) cases, one per place where the skip search sets `pos`
# after a tail hit.  Each pattern's tail windows of 1 to 5 symbols recur
# at one distance, its `mismatch_shift`, and a, b, c and d differ in their
# two low bits, so every scheme, BYTE to DNA5, takes the same path
_TAIL_CASES = {
    "first-symbol miss at the last alignment": ("xxxxxxxxxxzbcdefgh",
                                                "abcdefgh"),
    "first-symbol miss, tail symbol recurs": ("babaaaaaaa", "abaaaaaaa"),
    "verify mismatch, mismatch_shift > j": ("baddddbcbdacbcbda",
                                            "bcbdacbcbda"),
    "recovery reaches k == n": ("ababaaaaa", "abaaaaaaa"),
    "recovery matches flush at n": ("ababaaaaaaa", "abaaaaaaa"),
    "recovery resumes at k": ("aabaaaaaaa", "abaaaaaaa"),
    "match ends at n": ("xxabcdefgh", "abcdefgh"),
    # n = 2**3 - 1: the tail hit of the first probe lands exactly on `end`
    "m == n == 2**3 - 1": ("abcdefg", "abcdefg"),
}
_SKIP_SEARCHES = {**{name: resolve_algorithm(name) for name in
                     ("al", "hal", "hal2", "hal3", "hal4", "hal5", "nhal")},
                  "dispatch": dispatch_search}
_TAIL_TYPES = {"bytes": str.encode, "str": str,
               "H": lambda s: wide_ints("H", s.encode())}


# every search on every text type it takes: nhal takes no str
@pytest.mark.parametrize("name, kind", [
    (name, kind) for name in _SKIP_SEARCHES for kind in _TAIL_TYPES
    if (name, kind) != ("nhal", "str")])
def test_skip_search_resumes_right_after_every_tail_hit(name, kind):
    fn, convert = _SKIP_SEARCHES[name], _TAIL_TYPES[kind]
    for case, (text, pattern) in _TAIL_CASES.items():
        assert (fn(convert(text), convert(pattern)).position
                == naive_find(text, pattern)), case


def test_algorithm_names_keep_their_order():
    # reports, the cli and the tests list the algorithms in this order
    assert ALGORITHM_NAMES == ("sf", "kmp", "l", "al", "hal", "hal2", "hal3",
                               "hal4", "hal5", "nhal")


def test_resolve_algorithm_rejects_unknown_names():
    with pytest.raises(ValueError, match="choose from sf, kmp, l, al, hal"):
        resolve_algorithm("boyer")


def test_searches_run_concurrently():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(31)
    text = bytes(rng.choices(b"abcdef", k=50_000))
    jobs = []
    for _ in range(12):
        start = rng.randrange(len(text) - 20)
        jobs.append(text[start:start + 20])
    # one table per job; test_threads_share_nhal_tables shares one
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


def test_threads_share_nhal_tables():
    # 4 threads through one explicit table, then through the resolved
    # "nhal" search and its process-wide table; switching threads every
    # microsecond interleaves their searches
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(53)
    text = bytes(rng.choices(b"abcdefghij", k=200_000))
    patterns = []
    for m in range(4, 41):
        for _ in range(2 if m <= 30 else 1):
            start = rng.randrange(len(text) - m)
            patterns.append(text[start:start + m])
    want = [naive_find(text, p) for p in patterns]
    table = ReusableSkipTable()
    for fn in (lambda t, p: search_nhal(t, p, table),
               resolve_algorithm("nhal")):
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda p: fn(text, p).position, patterns,
                                    timeout=120))
        finally:
            sys.setswitchinterval(old)
        assert got == want
    assert not table.lock.locked()
    assert not any(table.slots)
