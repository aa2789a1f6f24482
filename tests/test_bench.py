import random
from array import array

import pytest

from seqmatch import (CorrectnessMismatch, SearchOutcome, build_pattern_plan,
                      dna_text, english_like_text, load_corpus,
                      parse_test_cases, random16_text, read_test_cases,
                      run_bench, run_counts, search_sf)
from seqmatch import TestFileError as BadTripleFile
from seqmatch.bench import TSV_COLUMNS, TSV_COUNT_COLUMNS

SMALL = b"""#
abcab
cab
# second
xyz
zz
"""


def test_parse_test_cases_triples():
    cases = parse_test_cases(SMALL)
    assert len(cases) == 2
    assert cases[0].text == b"abcab" and cases[0].pattern == b"cab"
    assert cases[1].comment == b"# second"


def test_parse_test_cases_requires_whole_triples():
    with pytest.raises(BadTripleFile, match="Unexpected end of file"):
        parse_test_cases(b"# dangling\nsome text\n")


def test_bundled_small_txt_has_six_triples():
    from importlib import resources
    data = resources.files("seqmatch").joinpath("data/small.txt").read_bytes()
    cases = parse_test_cases(data)
    assert len(cases) == 6
    assert cases[3].pattern == b"abcabcacab"


def test_read_test_cases_from_disk(tmp_path):
    path = tmp_path / "cases.txt"
    path.write_bytes(SMALL)
    assert len(read_test_cases(path)) == 2


def test_load_corpus_kinds(tmp_path):
    text = load_corpus("text", size=5000, seed=1)
    assert isinstance(text, bytes) and len(text) == 5000
    dna = load_corpus("dna", size=4000, seed=1)
    assert set(dna) <= set(b"acgt") and len(dna) == 4000
    words = load_corpus("words", size=3000, seed=1)
    assert words and all(isinstance(w, bytes) for w in words)
    r16 = load_corpus("random16", size=2000, seed=1)
    assert isinstance(r16, array) and len(r16) == 2000
    assert all(v < 65536 for v in r16)
    # deterministic for a fixed seed
    assert random16_text(2000, seed=1) == r16
    assert english_like_text(5000, seed=1) == text
    assert dna_text(4000, seed=1) == dna
    with pytest.raises(ValueError):
        load_corpus("morse")
    f = tmp_path / "corpus.txt"
    f.write_bytes(b"a b  c\n")
    assert load_corpus("words", path=f) == [b"a", b"b", b"c"]
    assert load_corpus("text", path=f) == b"a b  c\n"
    # little-endian 16-bit symbols; an odd last byte is dropped
    odd = tmp_path / "odd.bin"
    odd.write_bytes(b"\x01\x00\x02\x01\xff\xff\x07")
    assert load_corpus("random16", path=odd) == array("H", [1, 258, 65535])
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    with pytest.raises(ValueError):
        load_corpus("text", path=empty)


def test_pattern_plan_even_spacing():
    corpus = bytes(range(256)) * 4
    plan = build_pattern_plan(corpus, [10], 10)
    # n=1024, m=10 -> increment 101; first offsets 0, 101, 202, ...
    pats = plan.patterns[10]
    assert len(pats) == 10
    assert pats[0] == corpus[0:10]
    assert pats[1] == corpus[101:111]


def test_pattern_plan_increment_arithmetic():
    corpus = b"x" * 1000
    plan = build_pattern_plan(corpus, [10], 10)
    assert (1000 - 10) // 10 == 99  # offsets 0, 99, 198, ...
    assert len(plan.patterns[10]) == 10


def test_pattern_plan_dictionary_trim():
    corpus = b"y" * 5000
    dictionary = [b"w%03d" % i for i in range(1000)]  # all length 4
    plan = build_pattern_plan(corpus, [4], 400, dictionary)
    pats = plan.patterns[4]
    assert len(pats) == 400 + 400
    words = pats[400:]
    assert words[0] == b"w000" and words[1] == b"w002"  # every 2nd kept
    # no dictionary: text patterns only
    bare = build_pattern_plan(corpus, [4], 400)
    assert len(bare.patterns[4]) == 400


def test_pattern_plan_rejects_oversized_patterns():
    with pytest.raises(ValueError):
        build_pattern_plan(b"short", [10], 2)
    with pytest.raises(ValueError):
        build_pattern_plan(b"short", [0], 2)
    with pytest.raises(ValueError):
        build_pattern_plan(b"short", [2], 0)


def test_run_bench_report_shape_and_speed_invariant():
    corpus = english_like_text(30_000, seed=2)
    plan = build_pattern_plan(corpus, [4, 8], 5)
    report = run_bench(corpus, plan, ["sf", "l", "hal"],
                       corpus_name="text", min_cell_seconds=0.01)
    real = [r for r in report.rows if r.algorithm != "dummy"]
    assert len(real) == 6  # 3 algorithms x 2 sizes
    assert len([r for r in report.rows if r.algorithm == "dummy"]) == 2
    for row in real:
        assert row.total_elements > 0
        assert abs(row.elements_per_us
                   - row.total_elements / 1e6 / row.seconds) < 1e-9


def test_tsv_round_trip_preserves_speed_invariant():
    corpus = dna_text(20_000, seed=3)
    plan = build_pattern_plan(corpus, [20], 4)
    report = run_bench(corpus, plan, ["sf", "hal"], corpus_name="dna",
                       min_cell_seconds=0.01)
    lines = report.to_tsv().splitlines()
    assert lines[0].split("\t") == list(TSV_COLUMNS)
    for line in lines[1:]:
        assert len(line.split("\t")) == len(TSV_COLUMNS), line
        cells = dict(zip(TSV_COLUMNS, line.split("\t")))
        if cells["algorithm"] == "dummy":
            continue
        total = int(cells["total_elements"])
        seconds = float(cells["seconds"])
        speed = float(cells["elements_per_us"])
        assert abs(speed - total / 1e6 / seconds) < 1e-9


def test_run_bench_cross_checks_algorithms():
    corpus = english_like_text(5_000, seed=4)
    plan = build_pattern_plan(corpus, [6], 3)
    liar = lambda text, pattern: SearchOutcome(1)  # noqa: E731
    with pytest.raises(CorrectnessMismatch, match="liar"):
        run_bench(corpus, plan, {"sf": search_sf, "liar": liar},
                  min_cell_seconds=0.001)


def test_run_bench_untimed_is_deterministic():
    corpus = dna_text(10_000, seed=5)
    plan = build_pattern_plan(corpus, [20, 50], 3)
    one = run_bench(corpus, plan, ["sf", "hal", "hal4"], corpus_name="dna",
                    time_runs=False)
    two = run_bench(corpus, plan, ["sf", "hal", "hal4"], corpus_name="dna",
                    time_runs=False)
    assert one.to_tsv() == two.to_tsv()
    assert "\t0.0\t0.0" in one.to_tsv()


def test_run_counts_report():
    corpus = english_like_text(15_000, seed=6)
    plan = build_pattern_plan(corpus, [8], 4)
    report = run_counts(corpus, plan, ["sf", "l", "hal"], corpus_name="text")
    assert report.counted
    header, *lines = report.to_tsv().splitlines()
    assert header.split("\t") == list(TSV_COLUMNS + TSV_COUNT_COLUMNS)
    assert lines and all(len(line.split("\t")) == len(header.split("\t"))
                         for line in lines)
    sf = report.cell("sf", 8)
    hal = report.cell("hal", 8)
    assert sf.per_char["element_comparisons"] > 0.8
    assert hal.per_char["element_comparisons"] < 0.2
    # byte-identical across repeat runs
    again = run_counts(corpus, plan, ["sf", "l", "hal"], corpus_name="text")
    assert report.to_tsv() == again.to_tsv()
    # a size requested twice is still one cell per algorithm
    plan = build_pattern_plan(corpus, [4, 4, 10], 4)
    rows = run_counts(corpus, plan, ["sf", "hal"]).rows
    assert [(r.algorithm, r.pattern_size) for r in rows] == [
        ("sf", 4), ("hal", 4), ("sf", 10), ("hal", 10)]


def test_run_bench_16bit_includes_nhal():
    corpus = random16_text(8_000, seed=7)
    plan = build_pattern_plan(corpus, [6], 4)
    report = run_bench(corpus, plan, ["sf", "hal", "nhal"],
                       corpus_name="random16", min_cell_seconds=0.01)
    assert {r.algorithm for r in report.rows} == {"dummy", "sf", "hal", "nhal"}


def test_plan_is_deterministic_for_seeded_corpora():
    a = build_pattern_plan(dna_text(9_000, seed=8), [12], 6)
    b = build_pattern_plan(dna_text(9_000, seed=8), [12], 6)
    assert a == b
