"""Property tests for the package-wide invariants."""

import mmap
import tempfile
from array import array

from hypothesis import given
from hypothesis import strategies as st
from oracles import naive_find, next_oracle

from seqmatch import (ALGORITHM_NAMES, BYTE, DNA4, SCHEMES, ShiftSumScheme,
                      compute_next, dispatch_search, resolve_algorithm,
                      run_counted, search_hal, search_l)

ALPHABETS = (b"ab", b"acgt", b"abcdefghijklmnopqrstuvwxyz", bytes(range(256)))

_ALGOS = [(name, resolve_algorithm(name)) for name in ALGORITHM_NAMES]


@st.composite
def search_case(draw, alphabets=ALPHABETS, min_text=0):
    sigma = draw(st.sampled_from(alphabets))
    symbol = st.sampled_from(sigma)
    text = bytes(draw(st.lists(symbol, min_size=min_text, max_size=200)))
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
          lambda b: array("H", [v * 257 for v in b]),
          lambda b: array("i", [v * 65537 - (1 << 23) for v in b]),
          list, lambda b: b.decode("latin-1")]


# unbounded lists average 5 symbols, too few for a skip loop to run
@given(search_case(alphabets=(b"acgt", bytes(range(256))), min_text=64))
def test_every_shift_sum_loop_matches_the_oracle(case):
    # covers each skip loop a ShiftSumScheme builds: int buffers, str
    # and the generic one, plus the inline byte and fold-mask loops
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


def _over_ab(max_size):
    return st.lists(st.sampled_from(b"ab"), max_size=max_size).map(bytes)


@given(_over_ab(40), _over_ab(8))  # the empty pattern included
def test_search_l_on_one_shot_inputs_matches_oracle(text, pattern):
    assert (search_l(iter(text), iter(pattern)).position
            == naive_find(text, pattern))
