"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every criterion prints one pass/fail line; a summary block is also
emitted at the end of the pytest run.  Timed criteria (5-7) compare
throughput ratios, not absolute speeds, which are machine-bound.
"""

import itertools
import random
import time
from contextlib import contextmanager
from importlib import resources

import pytest
from conftest import record_criterion
from oracles import (mismatch_oracle, naive_find, next_oracle,
                     skip_oracle_identity)

from seqmatch import (BYTE, DNA2, DNA3, DNA4, DNA5, MOD256,
                      ReusableSkipTable, build_pattern_plan, compute_next,
                      compute_skip, load_corpus, naive_search,
                      parse_test_cases, run_bench, run_counted, run_counts,
                      search_hal, search_kmp_basic, search_l, search_nhal,
                      search_sf)
from seqmatch.cli import main as cli_main

ALPHABETS = {2: b"ab", 4: b"acgt", 26: b"abcdefghijklmnopqrstuvwxyz",
             256: bytes(range(256))}
PER_ALPHABET = 10_000
ADVERSARIAL = [(2000, 2), (2000, 16), (2000, 64), (500, 64), (64, 64),
               (128, 3)]


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        line = f"criterion {number} FAIL: {title}"
        record_criterion(line)
        print(line)
        raise
    line = f"criterion {number} PASS: {title}"
    record_criterion(line)
    print(line)


@pytest.fixture(scope="module")
def instances():
    """10,000 seeded (text, pattern) pairs per alphabet size, n <= 2000
    and m <= 64, mixing planted, mutated, random, and adversarial
    patterns."""
    cases = {}
    for bits, sigma in ALPHABETS.items():
        rng = random.Random(40_000 + bits)
        bucket = []
        for _ in range(PER_ALPHABET - len(ADVERSARIAL)):
            n = max(1, int(2000 ** rng.random()))
            m = rng.randint(1, 64)
            text = bytes(rng.choices(sigma, k=n))
            roll = rng.random()
            if roll < 0.45 and m <= n:
                start = rng.randrange(n - m + 1)
                pattern = text[start:start + m]
            elif roll < 0.60 and m <= n:
                start = rng.randrange(n - m + 1)
                mutated = bytearray(text[start:start + m])
                mutated[rng.randrange(m)] ^= 3
                pattern = bytes(mutated)
            else:
                pattern = bytes(rng.choices(sigma, k=m))
            bucket.append((text, pattern))
        one, other = sigma[:1], sigma[1:2]
        for n, m in ADVERSARIAL:
            bucket.append((one * n, one * (m - 1) + other))
        assert len(bucket) == PER_ALPHABET
        cases[bits] = bucket
    return cases


def test_criterion_1_oracle_equivalence(instances):
    nhal_table = ReusableSkipTable()
    runners = [
        ("sf", search_sf),
        ("kmp", search_kmp_basic),
        ("l", search_l),
        ("hal/byte", lambda t, p: search_hal(t, p, BYTE)),
        ("hal/mod256", lambda t, p: search_hal(t, p, MOD256)),
        ("hal/dna2", lambda t, p: search_hal(t, p, DNA2)),
        ("hal/dna3", lambda t, p: search_hal(t, p, DNA3)),
        ("hal/dna4", lambda t, p: search_hal(t, p, DNA4)),
        ("hal/dna5", lambda t, p: search_hal(t, p, DNA5)),
        ("nhal", lambda t, p: search_nhal(t, p, nhal_table)),
    ]
    with criterion(1, "oracle equivalence on 4 x 10,000 seeded pairs, "
                      "zero mismatches, under 60 s"):
        start = time.perf_counter()
        for bits, bucket in instances.items():
            for text, pattern in bucket:
                want = naive_search(text, pattern).position
                for name, fn in runners:
                    got = fn(text, pattern).position
                    assert got == want, (
                        f"{name} on |sigma|={bits}: expected {want}, got "
                        f"{got} for text={text[:40]!r}... pattern={pattern!r}")
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_comparison_bound(instances):
    with criterion(2, "element comparisons <= 2n for kmp, l, and hal on "
                      "every criterion-1 instance"):
        for bucket in instances.values():
            for text, pattern in bucket:
                bound = 2 * len(text)
                for name in ("kmp", "l", "hal"):
                    _, counts = run_counted(name, text, pattern)
                    assert counts.element_comparisons <= bound, (
                        f"{name}: {counts.element_comparisons} > {bound} "
                        f"for n={len(text)}, m={len(pattern)}")


def _check_tables(pattern):
    assert compute_next(pattern) == next_oracle(pattern), pattern
    m = len(pattern)
    table = compute_skip(pattern, BYTE, 997)
    pre = list(table.shifts)
    pre[BYTE.hash(pattern, m - 1)] = 0  # undo the large substitution
    assert pre == skip_oracle_identity(pattern), pattern
    assert table.mismatch_shift == mismatch_oracle(pattern), pattern


def test_criterion_3_table_construction_oracles():
    with criterion(3, "next/skip construction equals brute-force "
                      "definitions (exhaustive m<=8, sampled to m=32)"):
        for m in range(1, 9):
            for tup in itertools.product(b"acgt", repeat=m):
                _check_tables(bytes(tup))
        rng = random.Random(3)
        for m in range(9, 33):
            for _ in range(120):
                _check_tables(bytes(rng.choices(b"acgt", k=m)))


def test_criterion_4_sublinear_operation_counts():
    with criterion(4, "counted HAL at m=10 within sublinearity bounds, "
                      "SF comparisons/char in [0.9, 1.3]"):
        corpus = load_corpus("text", seed=0)
        assert len(corpus) >= 100_000
        plan = build_pattern_plan(corpus, [10], 10)
        report = run_counts(corpus, plan, ["sf", "hal"], corpus_name="text")
        sf = report.cell("sf", 10).per_char
        hal = report.cell("hal", 10).per_char
        assert 0.9 <= sf["element_comparisons"] <= 1.3, sf
        assert hal["element_comparisons"] <= 0.05, hal
        assert hal["element_accesses"] <= 0.4, hal


def _speeds(report, algorithms, sizes):
    return {(name, m): report.cell(name, m).elements_per_us
            for name in algorithms for m in sizes}


def _record_margin(number, checks):
    """Record every ``(label, ratio, bound, m)`` check, pass or fail, and
    then, as the margin, the one whose ratio sits closest to its lower
    bound, so a drift in any asserted ratio shows in the summary."""
    closest = min(checks, key=lambda c: c[1] / c[2])
    for kind, (label, ratio, bound, m) in [("ratio", c) for c in checks] + [
            ("margin", closest)]:
        line = (f"criterion {number} {kind}: {label} {ratio:.2f} "
                f"(bound {bound:.2f}) at m={m}")
        record_criterion(line)
        print(line)


def test_criterion_5_english_throughput_ordering():
    with criterion(5, "English-like corpus: HAL >= 2x L and 2x SF for "
                      "m >= 6, under 2 min"):
        start = time.perf_counter()
        corpus = load_corpus("text", seed=0)
        sizes = [6, 10, 14, 18]
        plan = build_pattern_plan(corpus, sizes, 20)
        report = run_bench(corpus, plan, ["sf", "l", "hal"],
                           corpus_name="text", min_cell_seconds=0.3)
        speed = _speeds(report, ["sf", "l", "hal"], sizes)
        _record_margin(5, [(f"hal/{other}", speed["hal", m] / speed[other, m],
                            2.0, m) for m in sizes for other in ("sf", "l")])
        for m in sizes:
            sf, l, hal = speed["sf", m], speed["l", m], speed["hal", m]
            assert hal >= 2 * sf, f"m={m}: hal {hal:.2f} vs sf {sf:.2f}"
            assert hal >= 2 * l, f"m={m}: hal {hal:.2f} vs l {l:.2f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_6_dna_hashing_payoff():
    with criterion(6, "DNA corpus: HAL4 >= 2x HAL at m=100 and roughly "
                      "monotone from m=20 to m=200"):
        corpus = load_corpus("dna", seed=0)
        assert len(corpus) >= 500_000
        sizes = [20, 50, 100, 150, 200]
        plan = build_pattern_plan(corpus, sizes, 8)
        report = run_bench(corpus, plan, ["hal", "hal4"], corpus_name="dna",
                           min_cell_seconds=0.25)
        speed = _speeds(report, ["hal", "hal4"], sizes)
        hal100, hal4_100 = speed["hal", 100], speed["hal4", 100]
        steps = list(zip(sizes, sizes[1:]))
        _record_margin(6, [("hal4/hal", hal4_100 / hal100, 2.0, 100)] + [
            (f"hal4 step from m={lo}", speed["hal4", hi] / speed["hal4", lo],
             0.9, hi) for lo, hi in steps])
        assert hal4_100 >= 2 * hal100, (hal4_100, hal100)
        for lo, hi in steps:
            previous, current = speed["hal4", lo], speed["hal4", hi]
            assert current >= previous * 0.9, (hi, current, previous)


def test_criterion_7_large_alphabet():
    with criterion(7, "random 16-bit corpus: HAL >= 0.8x NHAL everywhere; "
                      "both >= 2x SF for m >= 6"):
        corpus = load_corpus("random16", size=200_000, seed=0)
        sizes = [2, 4, 6, 8, 10, 14, 18]
        plan = build_pattern_plan(corpus, sizes, 6)
        report = run_bench(corpus, plan, ["sf", "hal", "nhal"],
                           corpus_name="random16", min_cell_seconds=0.5)
        speed = _speeds(report, ["sf", "hal", "nhal"], sizes)
        _record_margin(7, [("hal/nhal", speed["hal", m] / speed["nhal", m],
                            0.8, m) for m in sizes] + [
            (f"{fast}/sf", speed[fast, m] / speed["sf", m], 2.0, m)
            for m in sizes if m >= 6 for fast in ("hal", "nhal")])
        for m in sizes:
            sf, hal, nhal = speed["sf", m], speed["hal", m], speed["nhal", m]
            assert hal >= 0.8 * nhal, f"m={m}: hal {hal:.2f} nhal {nhal:.2f}"
            if m >= 6:
                assert hal >= 2 * sf, f"m={m}: hal {hal:.2f} sf {sf:.2f}"
                assert nhal >= 2 * sf, f"m={m}: nhal {nhal:.2f} sf {sf:.2f}"


def test_criterion_8_regression_file():
    with criterion(8, "all six bundled triples oracle-verified under every "
                      "algorithm; the classic pattern lands at offset 15"):
        data = resources.files("seqmatch").joinpath("data/small.txt")
        cases = parse_test_cases(data.read_bytes())
        assert len(cases) == 6
        expected = [10, None, 74, 15, 9, 6]
        nhal_table = ReusableSkipTable()
        runners = [search_sf, search_kmp_basic, search_l,
                   lambda t, p: search_hal(t, p, BYTE),
                   lambda t, p: search_hal(t, p, MOD256),
                   lambda t, p: search_hal(t, p, DNA2),
                   lambda t, p: search_hal(t, p, DNA3),
                   lambda t, p: search_hal(t, p, DNA4),
                   lambda t, p: search_hal(t, p, DNA5),
                   lambda t, p: search_nhal(t, p, nhal_table)]
        for case, want in zip(cases, expected):
            assert naive_find(case.text, case.pattern) == want
            for fn in runners:
                assert fn(case.text, case.pattern).position == want
        classic = cases[3]
        assert classic.pattern == b"abcabcacab"
        assert naive_search(classic.text, classic.pattern).position == 15


def _mask_timing(tsv_bytes):
    lines = tsv_bytes.decode().splitlines()
    head = lines[0].split("\t")
    sec, speed = head.index("seconds"), head.index("elements_per_us")
    masked = [lines[0]]
    for line in lines[1:]:
        cells = line.split("\t")
        cells[sec] = cells[speed] = "-"
        masked.append("\t".join(cells))
    return "\n".join(masked)


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical seeds reproduce byte-identical reports"):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        bench = ["bench", "--kind", "dna", "--size", "20000", "--sizes",
                 "20,50", "--tests", "3", "--algos", "sf,hal,hal4",
                 "--seed", "11", "--no-timing"]
        assert cli_main(bench + ["--out", str(a)]) == 0
        assert cli_main(bench + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        count = ["count", "--kind", "text", "--size", "30000", "--sizes",
                 "4,10", "--tests", "3", "--algos", "sf,l,hal",
                 "--seed", "11"]
        assert cli_main(count + ["--out", str(a)]) == 0
        assert cli_main(count + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        # timed runs: wall-clock columns vary, all seed-derived content
        # must not
        timed = ["bench", "--kind", "random16", "--size", "20000",
                 "--sizes", "6", "--tests", "3", "--algos", "sf,hal,nhal",
                 "--seed", "11", "--min-cell-ms", "20"]
        assert cli_main(timed + ["--out", str(a)]) == 0
        assert cli_main(timed + ["--out", str(b)]) == 0
        assert _mask_timing(a.read_bytes()) == _mask_timing(b.read_bytes())
