"""Property tests for the package-wide invariants."""

import io
import mmap
import tempfile
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import naive_find, next_oracle, wide_ints

from seqmatch import (ALGORITHM_NAMES, BYTE, DNA4, SCHEMES, HashScheme,
                      ShiftSumScheme, compute_next, compute_skip,
                      dispatch_search, resolve_algorithm, run_counted,
                      search_hal, search_l)
from seqmatch.tables import _fill_skip

ALPHABETS = (b"ab", b"acgt", b"abcdefghijklmnopqrstuvwxyz", bytes(range(256)))

_ALGOS = [(name, resolve_algorithm(name)) for name in ALGORITHM_NAMES]


@st.composite
def search_case(draw, alphabets=ALPHABETS, min_text=0):
    sigma = draw(st.sampled_from(alphabets))
    symbol = st.sampled_from(sigma)
    # a uniform length: list sizes alone average about 5 symbols, too few
    # for a skip loop to run
    size = draw(st.integers(min_text, 200))
    text = bytes(draw(st.lists(symbol, min_size=size, max_size=size)))
    if text and draw(st.booleans()):
        m = draw(st.integers(1, min(24, len(text))))
        start = draw(st.integers(0, len(text) - m))
        pattern = text[start:start + m]
        if draw(st.booleans()):
            flip = draw(st.integers(0, m - 1))
            mutated = bytearray(pattern)
            mutated[flip] = draw(symbol)
            pattern = bytes(mutated)
    else:
        pattern = bytes(draw(st.lists(symbol, min_size=1, max_size=24)))
    return text, pattern


@given(search_case())
def test_every_algorithm_matches_the_oracle(case):
    text, pattern = case
    want = naive_find(text, pattern)
    for name, fn in _ALGOS:
        assert fn(text, pattern).position == want, name


_SHIFT_SUMS = [s for s in SCHEMES.values() if isinstance(s, ShiftSumScheme)]

# each kind maps byte values one-to-one, so matches stay where they were
_KINDS = [bytes, bytearray, memoryview, lambda b: array("B", b),
          lambda b: wide_ints("H", b),
          lambda b: array("i", [v * 65537 - (1 << 23) for v in b]),
          list, lambda b: b.decode("latin-1")]


# long texts only: every kind runs every scheme's skip loop
@given(search_case(alphabets=(b"acgt", bytes(range(256))), min_text=64))
def test_every_shift_sum_loop_matches_the_oracle(case):
    # covers each skip loop a ShiftSumScheme builds: unmasked bytes,
    # masked int buffers, str and the generic one
    text, pattern = case
    want = naive_find(text, pattern)
    pairs = [(kind(text), kind(pattern)) for kind in _KINDS]
    with tempfile.TemporaryFile() as f:
        f.write(text)
        f.flush()
        with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            for t, p in pairs + [(mapped, pattern)]:
                for scheme in _SHIFT_SUMS:
                    assert search_hal(t, p, scheme).position == want, \
                        (type(t), scheme.shifts)


# one text of each index kind: bytes, int buffers (wide ones read whole
# or through their low byte, negative symbols included), str and other
# symbols
_INDEX_KINDS = [bytes, *(lambda b, code=code: wide_ints(code, b)
                         for code in "HhIQ"),
                lambda b: b.decode("latin-1"), list]


@given(search_case(alphabets=(b"acgt", bytes(range(256))), min_text=16),
       st.lists(st.integers(0, 10), min_size=1, max_size=5),
       st.integers(0, 1023))
def test_any_shift_sum_scheme_matches_the_oracle(case, shifts, mask):
    # masks that zero some terms, or every term, included
    scheme = ShiftSumScheme(shifts, mask)
    text, pattern = case
    want = naive_find(text, pattern)
    s, m = scheme.suffix_size, len(pattern)
    for kind in _INDEX_KINDS:
        t, p = kind(text), kind(pattern)
        assert search_hal(t, p, scheme).position == want, (type(t), shifts)
        if m >= s:
            # the pattern's windows hash as scheme.hash hashes them
            slots = [m - s + 1] * scheme.hash_range_max
            hashes = [scheme.hash(p, j) for j in range(s - 1, m)]
            assert (compute_skip(p, scheme, len(t)).shifts
                    == _fill_skip(slots, hashes, m, 0, len(t)).shifts)


class _Window3(HashScheme):
    """A generic hash of a 3-symbol window into an 11-slot table."""

    hash_range_max = 11
    suffix_size = 3

    def hash(self, seq, pos):
        return (seq[pos - 2] + 3 * seq[pos - 1] + 5 * seq[pos]) % 11


# shared heads and an empty word make WORD_HEAD's table collide
_WORDS = (b"", b"to", b"tea", b"be", b"bee", b"or", b"not", b"no")


@given(search_case(min_text=16))
def test_generic_hash_searches_match_the_oracle(case):
    # both searches run the generic probe index, hash(text, pos): word
    # lists under dispatch's WORD_HEAD and a 3-symbol window over bytes
    text, pattern = case
    words, pattern_words = ([_WORDS[v % len(_WORDS)] for v in seq]
                            for seq in (text, pattern))
    assert (dispatch_search(words, pattern_words).position
            == naive_find(words, pattern_words))
    assert (search_hal(text, pattern, _Window3()).position
            == naive_find(text, pattern))


# typecode -> a one-to-one map of byte values: B, H and both views stay
# in nhal's 16-bit domain, b and h reach below zero, i and q lie wholly
# outside it
_BUFFERS = {
    "b": lambda b: array("b", [v - 128 for v in b]),
    "B": lambda b: array("B", b),
    "h": lambda b: array("h", [v * 257 - 32768 for v in b]),
    "H": lambda b: wide_ints("H", b),
    "i": lambda b: array("i", [v * 65537 - (1 << 24) for v in b]),
    "q": lambda b: array("q", [(v + 1) << 40 for v in b]),
    "view-B": memoryview,
    "view-H": lambda b: memoryview(
        array("H", [v + 256 for v in b]).tobytes()).cast("H"),
}


@given(search_case())
def test_every_search_over_arrays_and_memoryviews(case):
    text, pattern = case
    want = naive_find(text, pattern)
    for kind, convert in _BUFFERS.items():
        t, p = convert(text), convert(pattern)
        for name, fn in _ALGOS + [("dispatch", dispatch_search)]:
            if name == "nhal" and not all(0 <= v < 1 << 16 for v in p):
                with pytest.raises(ValueError):
                    fn(t, p)
            else:
                # a text symbol in [-2**16, 0) indexes nhal's table from
                # its end: a collision, which the skip loop tolerates
                assert fn(t, p).position == want, (kind, name)


@given(search_case())
def test_counted_runs_are_transparent(case):
    text, pattern = case
    want = naive_find(text, pattern)
    for name in ("sf", "kmp", "l", "hal", "nhal"):
        outcome, _ = run_counted(name, text, pattern)
        assert outcome.position == want, name


@given(search_case())
def test_comparisons_stay_under_2n(case):
    text, pattern = case
    n = len(text)
    for name in ("kmp", "l", "hal"):
        _, counts = run_counted(name, text, pattern)
        assert counts.element_comparisons <= 2 * n, name


@given(search_case())
def test_text_reads_stay_linear(case):
    text, pattern = case
    budget = 4 * (len(text) + len(pattern))
    for name in ("l", "al", "hal", "nhal"):
        _, counts = run_counted(name, text, pattern)
        assert counts.cursor_big_jumps + counts.cursor_other_ops <= budget, name


@given(st.sampled_from(ALPHABETS[:3]), st.data())
def test_dispatch_reuses_one_pattern_over_texts_of_any_length(sigma, data):
    symbol = st.sampled_from(sigma)
    pattern = bytes(data.draw(st.lists(symbol, min_size=1, max_size=12)))
    scheme = data.draw(st.sampled_from((None, BYTE, DNA4)))
    as_str = data.draw(st.booleans())
    for _ in range(data.draw(st.integers(1, 6))):
        text = bytes(data.draw(st.lists(symbol, max_size=300)))
        if data.draw(st.booleans()):  # plant the pattern somewhere
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + pattern + text[at:]
        p, t = ((pattern.decode(), text.decode()) if as_str
                else (pattern, text))
        assert (dispatch_search(t, p, scheme=scheme).position
                == naive_find(text, pattern))


@given(st.binary(min_size=1, max_size=64))
def test_next_table_matches_definition(pattern):
    assert compute_next(pattern) == next_oracle(pattern)


def _ab_lines(max_size):
    return st.lists(st.sampled_from(b"ab\n"), max_size=max_size).map(bytes)


@given(_ab_lines(40), _ab_lines(8))  # the empty pattern included
def test_search_l_on_one_shot_inputs_matches_oracle(text, pattern):
    want = naive_find(text, pattern)
    assert search_l(iter(text), iter(pattern)).position == want
    # a file iterates by lines, but is searched by its bytes or characters
    for search in (search_l, dispatch_search):
        assert search(io.BytesIO(text), pattern).position == want
        assert (search(io.StringIO(text.decode()), pattern.decode()).position
                == want)
    assert run_counted("l", io.BytesIO(text), pattern)[0].position == want


def test_a_file_is_searched_across_its_read_chunks(tmp_path):
    path = tmp_path / "big.log"
    start = (1 << 16) - 3  # the match straddles the first 64 KiB read
    path.write_bytes(b"pani\n" * (start // 5) + b"x" * (start % 5)
                     + b"panic" + b"\nx" * 2_200)
    for mode, pattern, kwargs in (("rb", b"panic", {}),
                                  ("r", "panic", {"encoding": "ascii"}),
                                  ("rb", b"panic", {"buffering": 0})):
        for search in (search_l, dispatch_search):
            with open(path, mode, **kwargs) as f:
                assert search(f, pattern).position == start
