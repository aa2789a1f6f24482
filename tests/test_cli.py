import argparse
import gc
import subprocess
import sys
import warnings

import pytest

from seqmatch import (SearchOutcome, cli, counting, dispatch_search,
                      english_like_text, resolve_algorithm)
from seqmatch.cli import decode_pattern, main, parse_sizes

CORPUS_LINE = (b"Now's the time for all good men and women to come to the "
               b"aid of their country.\n")


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(CORPUS_LINE)
    return str(path)


def test_parse_sizes_forms():
    assert parse_sizes("2,4,6") == [2, 4, 6]
    assert parse_sizes("4..7") == [4, 5, 6, 7]
    assert parse_sizes("2, 4..6 ,9") == [2, 4, 5, 6, 9]
    with pytest.raises(ValueError):
        parse_sizes("")


def test_decode_pattern_escapes():
    assert decode_pattern("time") == b"time"
    assert decode_pattern(r"\x62\x63") == b"bc"
    assert decode_pattern(r"a\nb") == b"a\nb"


def test_find_reports_offset(corpus_file, capsys):
    assert main(["find", "--text", corpus_file, "--pattern", "time"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_find_not_found_exits_one(corpus_file, capsys):
    assert main(["find", "--text", corpus_file, "--pattern", "timid"]) == 1
    assert capsys.readouterr().out.strip() == "not found"


def test_find_escaped_pattern(corpus_file, capsys):
    assert main(["find", "--text", corpus_file,
                 "--pattern", r"\x74\x69\x6d\x65"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_find_algorithms_agree(corpus_file, capsys):
    for algo in ("sf", "kmp", "l", "al", "hal", "nhal"):
        assert main(["find", "--text", corpus_file, "--pattern", "country",
                     "--algo", algo]) == 0
    outs = capsys.readouterr().out.split()
    assert len(set(outs)) == 1


def test_find_with_scheme(corpus_file, capsys):
    assert main(["find", "--text", corpus_file, "--pattern", "women",
                 "--algo", "hal", "--scheme", "dna4"]) == 0
    assert capsys.readouterr().out.strip() == "36"


def test_find_rejects_a_scheme_that_misfits_the_text(corpus_file, capsys):
    # byte elements are not words: exit 2 with a message, no traceback
    for algo in ([], ["--algo", "hal"]):
        assert main(["find", "--text", corpus_file, "--pattern", "panic",
                     "--scheme", "word"] + algo) == 2
        assert "not a word" in capsys.readouterr().err


def test_a_scheme_needs_hal(tmp_path, capsys):
    # only hal, and find's dispatch with no --algo, read --scheme: with any
    # other algorithm it is refused before a file is read or written
    out = tmp_path / "report.tsv"
    for algo in ("nhal", "sf", "hal4"):
        assert main(["find", "--text", "/nonexistent", "--pattern", "x",
                     "--algo", algo, "--scheme", "dna4"]) == 2
        assert capsys.readouterr().err.startswith("error: --scheme applies")
    for command in ("bench", "count"):
        assert main([command, "--corpus", "/nonexistent", "--sizes", "4",
                     "--algos", "sf,nhal", "--scheme", "byte",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --scheme applies")
    assert not out.exists()


def test_find_pattern_file(corpus_file, tmp_path, capsys):
    pf = tmp_path / "pattern.bin"
    pf.write_bytes(b"good men")
    assert main(["find", "--text", corpus_file,
                 "--pattern-file", str(pf)]) == 0
    assert capsys.readouterr().out.strip() == "23"


def test_find_closes_its_files(corpus_file, tmp_path, capsys):
    pf = tmp_path / "pattern.bin"
    pf.write_bytes(b"good men")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["find", "--text", corpus_file,
                     "--pattern-file", str(pf)]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert capsys.readouterr().out.strip() == "23"


def test_find_usage_errors(corpus_file):
    # unknown names are rejected before any file is opened
    assert main(["find", "--text", "/nonexistent", "--pattern", "x",
                 "--algo", "bogus"]) == 2
    assert main(["find", "--text", corpus_file, "--pattern", "x",
                 "--scheme", "bogus"]) == 2
    assert main(["find", "--text", corpus_file]) == 2
    assert main(["find", "--text", "/nonexistent", "--pattern", "x"]) == 2
    with pytest.raises(SystemExit):
        main(["find"])  # missing required --text


def test_find_builds_its_parser_once(corpus_file, monkeypatch, capsys):
    argv = ["find", "--text", corpus_file, "--pattern", "time"]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 0
    assert built == []
    assert capsys.readouterr().out.split() == ["10", "10"]


def test_importing_the_cli_builds_no_parser():
    # the parser is built by the first main() call, not at import
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(init(self, *a, **k))\n"
            "import seqmatch.cli\n"
            "print(len(built))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "0"


def test_find_calls_share_no_arguments(corpus_file, monkeypatch, capsys):
    argv = ["find", "--text", corpus_file, "--pattern", "women"]
    assert main(argv + ["--algo", "hal", "--scheme", "dna4"]) == 0
    with pytest.raises(SystemExit) as usage_error:
        main(argv + ["--algo"])  # the option without its value
    assert usage_error.value.code == 2
    schemes = []

    def dispatch_spy(text, pattern, scheme=None):
        schemes.append(scheme)
        return dispatch_search(text, pattern, scheme=scheme)
    monkeypatch.setattr(cli, "dispatch_search", dispatch_spy)
    assert main(argv) == 0
    assert schemes == [None]
    assert capsys.readouterr().out.split() == ["36", "36"]


def test_validation_precedes_io(capsys):
    rc = main(["find", "--text", "/definitely/not/here", "--pattern", "x",
               "--algo", "nope"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "algorithm" in err and "not/here" not in err


def test_bench_writes_tsv(tmp_path, capsys):
    out = tmp_path / "report.tsv"
    rc = main(["bench", "--kind", "dna", "--size", "6000", "--sizes", "20",
               "--tests", "3", "--algos", "sf,hal,hal4", "--no-timing",
               "--out", str(out), "--seed", "5"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("corpus\talgorithm")
    assert len(lines) == 1 + 1 + 3  # header + dummy + three algorithms


def test_bench_deterministic_with_no_timing(tmp_path):
    args = ["bench", "--kind", "dna", "--size", "6000", "--sizes", "20,50",
            "--tests", "3", "--algos", "sf,hal", "--no-timing", "--seed", "9"]
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_count_reports_per_char_columns(tmp_path):
    out = tmp_path / "counts.tsv"
    args = ["count", "--kind", "text", "--size", "20000", "--sizes", "10",
            "--tests", "4", "--algos", "sf,l,hal", "--seed", "2",
            "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    header = first.decode().splitlines()[0].split("\t")
    assert "comparisons_per_char" in header
    assert main(args) == 0
    assert out.read_bytes() == first  # byte-identical rerun


def test_count_rejects_empty_plan(tmp_path):
    rc = main(["count", "--kind", "text", "--size", "9000",
               "--sizes", " ", "--tests", "2"])
    assert rc == 2


@pytest.mark.parametrize("command, algos", [("bench", ","), ("count", " ")])
def test_bench_and_count_reject_an_empty_algorithm_list(command, algos,
                                                        tmp_path, capsys):
    # a run over no algorithm would write a report with no search in it
    out = tmp_path / "report.tsv"
    args = [command, "--kind", "text", "--size", "3000", "--sizes", "4",
            "--tests", "2", "--algos", algos, "--out", str(out)]
    assert main(args + (["--no-timing"] if command == "bench" else [])) == 2
    assert capsys.readouterr().err == "error: no algorithms given\n"
    assert not out.exists()


def test_bench_rejects_a_negative_minimum_cell_time(tmp_path, capsys,
                                                  monkeypatch):
    # refused before the corpus is read or generated
    def no_corpus(*args, **kwargs):
        raise AssertionError("corpus loaded")
    monkeypatch.setattr(cli, "load_corpus", no_corpus)
    out = tmp_path / "report.tsv"
    assert main(["bench", "--kind", "text", "--size", "3000", "--sizes", "4",
                 "--tests", "2", "--min-cell-ms", "-5",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --min-cell-ms takes 0 or more milliseconds\n"
    assert captured.out == "" and not out.exists()


def test_selftest_rejects_a_negative_fuzz_count(capsys):
    assert main(["selftest", "--fuzz", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --fuzz ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["bench", "count"])
def test_bench_and_count_default_sizes_per_kind(command, monkeypatch, capsys):
    # with no --size or --sizes each kind has its own corpus size and
    # pattern sizes; the plan builder stops the run before the harness
    seen = []

    def plan_spy(corpus, sizes, tests, dictionary=None):
        seen.append((corpus, list(sizes)))
        raise ValueError("stopped before the harness")
    monkeypatch.setattr(cli, "build_pattern_plan", plan_spy)
    for kind in ("text", "dna", "words", "random16"):
        assert main([command, "--kind", kind]) == 2
    assert "stopped before the harness" in capsys.readouterr().err
    words = english_like_text(160_000).split()
    assert [(len(corpus), sizes) for corpus, sizes in seen] == [
        (160_000, [2, 4, 6, 8, 10, 14, 18]),
        (600_000, [20, 50, 100, 150, 200]),
        (len(words), [2, 4, 6, 8]),
        (100_000, [2, 4, 6, 8, 10, 14, 18])]
    assert seen[2][0] == words


def test_bench_rejects_unknown_algorithm():
    rc = main(["bench", "--kind", "text", "--sizes", "4", "--algos", "grep"])
    assert rc == 2


def test_bench_and_count_reject_a_misfit_algorithm_or_scheme(tmp_path,
                                                           capsys):
    # as find does: exit 2 with a message, no traceback and no report
    out = tmp_path / "report.tsv"
    small = ["--size", "3000", "--sizes", "2", "--tests", "2",
             "--out", str(out)]
    assert main(["count", "--kind", "words", "--algos", "sf,nhal"]
                + small) == 2
    assert "16-bit domain" in capsys.readouterr().err
    assert main(["bench", "--kind", "text", "--scheme", "word",
                 "--no-timing"] + small) == 2
    assert "not a word" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench", "count"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_bench_and_count_report_an_unwritable_out(command, target, tmp_path,
                                                  capsys, monkeypatch):
    # an --out that cannot be written fails before the harness runs: exit
    # 2 with one error line, as for an unreadable input, and no summary
    def harness(*args, **kwargs):
        raise ValueError("the harness ran")
    monkeypatch.setattr(cli, "run_bench", harness)
    monkeypatch.setattr(cli, "run_counts", harness)
    out = {"missing-directory": tmp_path / "missing" / "report.tsv",
           "directory": tmp_path}[target]
    args = [command, "--kind", "text", "--size", "3000", "--sizes", "4",
            "--tests", "2", "--algos", "sf,hal", "--out", str(out)]
    assert main(args + (["--no-timing"] if command == "bench" else [])) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and str(out) in captured.err
    assert "harness" not in captured.err and captured.out == ""
    # a writable --out is neither created nor truncated before a whole run
    out = tmp_path / "report.tsv"
    out.write_text("kept")
    args[-1] = str(out)
    assert main(args) == 2
    assert "the harness ran" in capsys.readouterr().err
    assert out.read_text() == "kept"


def test_bench_random16_with_nhal(tmp_path):
    out = tmp_path / "r16.tsv"
    rc = main(["bench", "--kind", "random16", "--size", "6000",
               "--sizes", "6", "--tests", "3", "--algos", "sf,hal,nhal",
               "--no-timing", "--out", str(out)])
    assert rc == 0
    assert "nhal" in out.read_text()


def _lying(name):
    # `resolve_algorithm`, except that `name` reports every match one
    # position late
    def resolve(algorithm, scheme=None):
        search = resolve_algorithm(algorithm, scheme)
        if algorithm != name:
            return search

        def lie(text, pattern):
            k = search(text, pattern).position
            return SearchOutcome(None if k is None else k + 1)
        return lie
    return resolve


@pytest.mark.parametrize("command", ["bench", "count"])
def test_bench_and_count_report_a_failed_cross_check(command, tmp_path,
                                                      monkeypatch, capsys):
    # bench and count bind their searches through counting's registry
    monkeypatch.setattr(counting, "resolve_algorithm", _lying("hal"))
    out = tmp_path / "report.tsv"
    args = [command, "--kind", "text", "--size", "3000", "--sizes", "4",
            "--tests", "2", "--algos", "sf,hal", "--out", str(out)]
    assert main(args + (["--no-timing"] if command == "bench" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("cross-check failed: algorithm 'hal' returned ")
    assert not out.exists()


def test_selftest_reports_a_lying_search(monkeypatch, capsys):
    monkeypatch.setattr(cli, "resolve_algorithm", _lying("kmp"))
    assert main(["selftest", "--fuzz", "50", "--seed", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL ")]
    assert "FAIL kmp on pattern b'time': expected 10, got 11" in failed
    # the fuzz loop stops at its first case once a check has failed
    assert sum("fuzz case" in line for line in failed) <= 1
    assert lines[-1] == "selftest FAILED"


def test_bench_with_dictionary(tmp_path, capsys):
    words = tmp_path / "dict.txt"
    words.write_bytes(b"time good men women country aid\n")
    out = tmp_path / "dict-bench.tsv"
    rc = main(["bench", "--kind", "text", "--size", "9000", "--sizes", "4",
               "--tests", "2", "--algos", "sf,hal", "--dict", str(words),
               "--no-timing", "--out", str(out)])
    assert rc == 0


def test_selftest_passes(capsys):
    assert main(["selftest", "--fuzz", "150", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out


def test_selftest_reports_truncated_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# comment\ndangling text line\n")
    assert main(["selftest", "--file", str(bad), "--fuzz", "1"]) == 1
    assert "Unexpected end of file" in capsys.readouterr().err


def test_selftest_detects_corrupted_expectations(tmp_path, capsys):
    # a triple file is honored even if its cases are odd: empty pattern
    odd = tmp_path / "odd.txt"
    odd.write_bytes(b"#\nhello\n\n")
    assert main(["selftest", "--file", str(odd), "--fuzz", "1"]) == 0
