import random

import pytest
from oracles import naive_find, tuned_bm

from seqmatch import (ALGORITHM_NAMES, BYTE, DNA4, CountingSequence,
                      OperationCounts, SearchOutcome, build_pattern_plan,
                      dna_text, english_like_text, random16_text,
                      resolve_algorithm, run_counted, search_hal)
from seqmatch.counting import COUNT_FIELDS, CountingValue


def test_counts_reset_and_total():
    counts = OperationCounts(element_comparisons=3, element_accesses=2)
    assert counts.per_element(10) == dict(zip(COUNT_FIELDS,
                                              (0.3, 0.2, 0.0, 0.0)))


def test_counting_value_semantics():
    sink = OperationCounts()
    two = CountingValue(2, sink)
    assert two == 2 and not two != 2
    assert two == CountingValue(2, sink)
    assert sink.element_comparisons == 3
    assert [10, 11, 12][two] == 12
    assert sink.element_accesses == 1
    word = CountingValue(b"word", sink)
    assert len(word) == 4 and word[0] == ord("w")
    assert hash(CountingValue("x", sink)) == hash("x")


def test_counting_sequence_classifies_cursor_moves():
    sink = OperationCounts()
    seq = CountingSequence(b"abcdef", sink)
    assert len(seq) == 6
    seq[0]
    seq[1]   # step
    seq[1]   # re-read
    seq[0]   # step back
    assert sink.cursor_big_jumps == 0 and sink.cursor_other_ops == 4
    seq[5]   # jump
    assert sink.cursor_big_jumps == 1
    sink.cursor_other_ops = 0
    list(seq)
    assert sink.cursor_other_ops == 6


def _position_or_error(search, text, pattern):
    try:
        return search(text, pattern).position
    except Exception as exc:
        return type(exc)


def _counted(name):
    return lambda text, pattern: run_counted(name, text, pattern)[0]


def test_counted_outcomes_match_uncounted(subtests=None):
    rng = random.Random(77)
    byte_texts = ([b"ab", b"acgt", bytes(range(256))], bytes, list,
                  ("sf", "kmp", "l", "al", "hal", "hal2", "nhal"))
    # counted skip loops read a character's ord, as uncounted ones do;
    # nhal takes integer symbols only, so it raises on str texts
    str_texts = (["ab\u00e9", "acg\u20ac", "\u00e9\u20ac\U0001f600x"],
                 "".join, lambda p: list(map(ord, p)),
                 ("sf", "kmp", "l", "al", "hal", "hal2", "hal3", "hal4",
                  "hal5"))
    plain = {name: resolve_algorithm(name) for name in ALGORITHM_NAMES}
    for alphabets, join, ints, names in (byte_texts, str_texts):
        for _ in range(250):
            sigma = rng.choice(alphabets)
            n = rng.randint(1, 300)
            m = rng.randint(1, 24)
            text = join(rng.choices(sigma, k=n))
            pattern = (text[:m] if rng.random() < 0.5 and m <= n
                       else join(rng.choices(sigma, k=m)))
            want = naive_find(text, pattern)
            runs = [(name, pattern) for name in ALGORITHM_NAMES]
            for name, p in runs + [("nhal", ints(pattern))]:
                got = _position_or_error(plain[name], text, p)
                assert _position_or_error(_counted(name), text, p) == got, \
                    (name, text, p)
                if name in names and p is pattern:
                    assert got == want, name
    # a character indexes no table, counted or not
    for search in (plain["nhal"], _counted("nhal")):
        with pytest.raises(ValueError, match="16-bit domain"):
            search("abcabxyz", [97, 98])


def test_nhal_checks_its_pattern_before_the_edge_cases():
    # an out-of-domain pattern raises even where the text is too short
    # for it to match, counted or not
    for search in (resolve_algorithm("nhal"), _counted("nhal")):
        for text in (b"", b"a", b"ab"):
            with pytest.raises(ValueError, match="pattern symbols"):
                search(text, [1, 1 << 16, 2])


def test_comparison_bound_2n():
    rng = random.Random(78)
    cases = []
    for _ in range(150):
        n = rng.randint(1, 400)
        m = rng.randint(1, 32)
        text = bytes(rng.choices(b"ab", k=n))
        cases.append((text, bytes(rng.choices(b"ab", k=m))))
    # adversarial family: near-periodic pattern over a uniform text
    for n, m in [(1000, 2), (1000, 33), (400, 400), (64, 63)]:
        cases.append((b"a" * n, b"a" * (m - 1) + b"b"))
    for text, pattern in cases:
        for name in ("kmp", "l", "hal"):
            _, counts = run_counted(name, text, pattern)
            assert counts.element_comparisons <= 2 * len(text), \
                (name, len(text), len(pattern), counts.element_comparisons)


def test_sf_compares_at_least_once_per_char_when_absent():
    text = english_like_text(20_000, seed=3)
    pattern = b"zqzqzqzqzq"  # absent
    assert naive_find(text, pattern) is None
    _, counts = run_counted("sf", text, pattern)
    assert counts.element_comparisons >= len(text) - len(pattern)


def test_hal_is_sublinear_in_accesses_on_text():
    text = english_like_text(40_000, seed=4)
    pattern = text[11_000:11_010]
    _, counts = run_counted("hal", text, pattern)
    reads = (counts.element_accesses + counts.element_comparisons)
    assert reads < len(text) / 2  # far fewer touches than characters
    assert counts.element_accesses > 0


def test_counted_hal_honors_explicit_scheme():
    from seqmatch import dna_text
    text = dna_text(8000, seed=42)
    pattern = text[404:424]
    want = naive_find(text, pattern)
    out_byte, c_byte = run_counted("hal", text, pattern, scheme=BYTE)
    out_dna, c_dna = run_counted("hal", text, pattern, scheme=DNA4)
    assert out_byte.position == out_dna.position == want
    # the wider window earns larger shifts, hence fewer probes
    assert c_dna.element_accesses < c_byte.element_accesses


def test_run_counted_accepts_callables():
    outcome, counts = run_counted(
        lambda t, p: search_hal(t, p, BYTE), b"xxxab", b"ab")
    assert outcome.position == 3
    assert counts.element_comparisons > 0


def test_text_read_budget_stays_linear():
    # loop-iteration proxy: every text read is one cursor op
    rng = random.Random(79)
    for _ in range(120):
        n = rng.randint(1, 300)
        m = rng.randint(1, 40)
        text = bytes(rng.choices(b"ab", k=n))
        pattern = bytes(rng.choices(b"ab", k=m))
        for name in ("kmp", "l", "hal", "nhal"):
            _, counts = run_counted(name, text, pattern)
            reads = counts.cursor_big_jumps + counts.cursor_other_ops
            assert reads <= 4 * (n + m), (name, n, m, reads)


class _Budget:
    """Counting sink that fails as soon as any tally passes ``limit``."""

    def __init__(self, limit):
        self.__dict__.update(dict.fromkeys(COUNT_FIELDS, 0), limit=limit)

    def __setattr__(self, name, value):
        if value > self.limit:
            raise AssertionError(f"{name} passed {self.limit}")
        self.__dict__[name] = value


def test_skip_loops_stop_within_a_linear_budget():
    # A skip loop that stops advancing reads the text forever, and every
    # read is tallied: the budget fails such a search at once, long
    # before the suite's per-test time limit would.
    rng = random.Random(80)
    searches = {name: resolve_algorithm(name, BYTE)
                for name in ("al", "hal", "hal2", "hal4", "nhal")}
    for _ in range(3000):
        sigma = rng.choice([b"ab", b"abc", b"acgt"])
        n = rng.randint(1, 40)
        m = rng.randint(2, 8)
        text = bytes(rng.choices(sigma, k=n))
        pattern = (text[n - m:] if rng.random() < 0.5 and m <= n
                   else bytes(rng.choices(sigma, k=m)))
        want = naive_find(text, pattern)
        for name, search in searches.items():
            sink = _Budget(8 * n + 8)
            outcome = search(CountingSequence(text, sink), pattern)
            assert outcome.position == want, (name, text, pattern)


def _pinned_inputs():
    text = english_like_text(3000, seed=3)
    dna = dna_text(3000, seed=4)
    ab = bytes(random.Random(5).choices(b"ab", k=800))
    wide = random16_text(2000, seed=6)
    return {
        "english-present": (text, text[2100:2112]),
        "english-absent": (text, b"quixotic zebra"),
        "dna-present": (dna, dna[2500:2530]),
        "dna-absent": (dna, b"acgtacgtacgtacgtacgtacgtac"),
        "ab-recovery": (ab, ab[700:711]),
        "wide-present": (wide, wide[1500:1506]),
    }


# (position, (comparisons, accesses, big jumps, other cursor ops)) per
# algorithm; any change to these is a change to the counted
# reports, so it must be deliberate.
PINNED_COUNTS = {
    "english-present": {
        "sf": (2100, (2216, 0, 2, 2214)),
        "kmp": (2100, (2212, 0, 0, 2212)),
        "l": (2100, (2212, 0, 0, 2112)),
        "al": (2100, (14, 245, 233, 26)),
        "hal": (2100, (14, 245, 233, 26)),
        "hal2": (2100, (14, 408, 202, 220)),
        "hal3": (2100, (12, 639, 211, 440)),
        "hal4": (2100, (13, 960, 238, 735)),
        "hal5": (2100, (14, 1345, 265, 1094)),
        "nhal": (2100, (14, 245, 233, 26)),
    },
    "english-absent": {
        "sf": (None, (2987, 0, 0, 2987)),
        "kmp": (None, (3000, 0, 0, 3000)),
        "l": (None, (3000, 0, 0, 3000)),
        "al": (None, (23, 315, 327, 11)),
        "hal": (None, (23, 315, 327, 11)),
        "hal2": (None, (0, 504, 237, 267)),
        "hal3": (None, (1, 762, 250, 513)),
        "hal4": (None, (1, 1108, 271, 838)),
        "hal5": (None, (1, 1515, 299, 1217)),
        "nhal": (None, (23, 315, 327, 11)),
    },
    "dna-present": {
        "sf": (2500, (3341, 0, 39, 3302)),
        "kmp": (2500, (3128, 0, 0, 3128)),
        "l": (2500, (3128, 0, 0, 2530)),
        "al": (2500, (306, 843, 1054, 95)),
        "hal": (2500, (306, 843, 1054, 95)),
        "hal2": (2500, (42, 374, 180, 236)),
        "hal3": (2500, (31, 327, 106, 252)),
        "hal4": (2500, (33, 428, 107, 354)),
        "hal5": (2500, (39, 555, 114, 480)),
        "nhal": (2500, (306, 843, 1054, 95)),
    },
    "dna-absent": {
        "sf": (None, (3987, 0, 52, 3935)),
        "kmp": (None, (3733, 0, 0, 3733)),
        "l": (None, (3733, 0, 0, 3000)),
        "al": (None, (361, 1195, 1188, 368)),
        "hal": (None, (361, 1195, 1188, 368)),
        "hal2": (None, (8, 296, 134, 170)),
        "hal3": (None, (3, 396, 127, 272)),
        "hal4": (None, (0, 532, 129, 403)),
        "hal5": (None, (2, 690, 139, 553)),
        "nhal": (None, (361, 1195, 1188, 368)),
    },
    "ab-recovery": {
        "sf": (174, (357, 0, 21, 336)),
        "kmp": (174, (186, 0, 0, 186)),
        "l": (174, (186, 0, 0, 185)),
        "al": (174, (119, 93, 101, 111)),
        "hal": (174, (119, 93, 101, 111)),
        "hal2": (174, (52, 90, 50, 92)),
        "hal3": (174, (14, 78, 26, 66)),
        "hal4": (174, (14, 120, 26, 108)),
        "hal5": (174, (16, 150, 31, 135)),
        "nhal": (174, (119, 93, 101, 111)),
    },
    "wide-present": {
        "sf": (1500, (1506, 0, 0, 1506)),
        "kmp": (1500, (1506, 0, 0, 1506)),
        "l": (1500, (1506, 0, 0, 1506)),
        "hal": (1500, (7, 254, 253, 8)),
        "nhal": (1500, (6, 251, 251, 6)),
    },
}


@pytest.mark.parametrize("case", sorted(PINNED_COUNTS))
def test_skip_loop_counts_are_pinned(case):
    text, pattern = _pinned_inputs()[case]
    for name, (position, tallies) in PINNED_COUNTS[case].items():
        outcome, counts = run_counted(name, text, pattern)
        assert outcome.position == position, name
        assert counts == OperationCounts(*tallies), name


def _accesses_per_char(algorithm, text, m):
    # over 10 plan patterns, per element searched (up to the match end,
    # or the whole text when absent)
    accesses = elements = 0
    for pattern in build_pattern_plan(text, (m,), 10).patterns[m]:
        outcome, counts = run_counted(algorithm, text, pattern)
        assert outcome.position == naive_find(text, pattern)
        accesses += counts.element_accesses
        elements += len(text) if outcome.position is None else \
            outcome.position + m
    return accesses / elements


def test_hal_against_tuned_boyer_moore():
    # The paper's claim against Hume and Sunday's tuned Boyer-Moore
    # (TBM), in exact counts.  Bounds come from counts measured before
    # this test was written, at these sizes and seeds.
    tbm = lambda text, pattern: SearchOutcome(tuned_bm(text, pattern))
    # English-like text: the same skip loop, so accesses tie; measured
    # hal/TBM 29770/29772, 24979/24977 and 16731/16725 at m = 6, 10, 18
    text = english_like_text(40_000, seed=0)
    for m in (6, 10, 18):
        assert (_accesses_per_char("hal", text, m)
                <= 1.001 * _accesses_per_char(tbm, text, m)), m
    # DNA: hal4's four-symbol window pays off; measured hal4/TBM
    # accesses 0.234 at m = 100 and 0.161 at m = 200
    dna = dna_text(40_000, seed=0)
    for m in (100, 200):
        assert (_accesses_per_char("hal4", dna, m)
                <= 0.3 * _accesses_per_char(tbm, dna, m)), m
    # adversarial text: TBM re-compares the pattern's run of a's at every
    # stop (measured 7.47n), hal stays within 2n (measured 1.9965n)
    text, pattern = b"a" * 4000, b"a" * 14 + b"ba"
    n = len(text)
    hal = run_counted("hal", text, pattern)[1].element_comparisons
    tuned = run_counted(tbm, text, pattern)[1].element_comparisons
    assert hal <= 2 * n < tuned
