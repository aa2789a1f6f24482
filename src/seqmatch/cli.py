"""Command-line front end: find, bench, count, and selftest.

Exit codes: 0 success (for find: match found), 1 no match or a failed
cross-check, 2 an error.  The commands raise, and ``main`` alone maps an
exception to an exit code: ``CorrectnessMismatch`` to 1, any
``OSError`` or ``ValueError`` (a bad option, an unreadable input, an
unwritable ``--out``, an algorithm or scheme that misfits the data) to
2 with one ``error:`` line.  Only selftest handles an error itself: an
unreadable or malformed triple file exits 1.  All randomness flows
from --seed, so identical invocations reproduce identical plans,
corpora, and counted reports.
"""

import argparse
import random
import sys
from functools import cache
from importlib import resources
from pathlib import Path

from .bench import DUMMY, run_bench, run_counts
from .corpus import CORPUS_KINDS, _KINDS, build_pattern_plan, load_corpus, \
    parse_test_cases
from .errors import CorrectnessMismatch, TestFileError
from .schemes import SCHEMES
from .search import ALGORITHM_NAMES, dispatch_search, naive_search, \
    resolve_algorithm

def decode_pattern(text):
    """Turn backslash escapes (\\xNN, \\n, ...) into raw bytes so binary
    patterns can be given inline."""
    return text.encode("utf-8").decode("unicode_escape").encode("latin-1")


def parse_sizes(spec):
    """Comma list of sizes; an item may be a range like 4..9."""
    sizes = []
    for item in spec.split(","):
        item = item.strip()
        if ".." in item:
            lo, hi = item.split("..", 1)
            sizes.extend(range(int(lo), int(hi) + 1))
        elif item:
            sizes.append(int(item))
    if not sizes:
        raise ValueError("no pattern sizes given")
    return sizes


# built on the first call, not at import; parse_args neither mutates the
# parser nor reuses a Namespace, so one parser serves every call
@cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="seqmatch",
        description="Sequence searching, benchmarking, and operation counting")
    sub = parser.add_subparsers(dest="command", required=True)

    find = sub.add_parser("find", help="locate a pattern in a corpus file")
    find.add_argument("--text", required=True, help="corpus file to search")
    find.add_argument("--pattern", help="pattern (backslash escapes allowed)")
    find.add_argument("--pattern-file", help="file holding the raw pattern")
    find.add_argument("--algo", default=None,
                      help="algorithm (default: dispatch by text type)")
    find.add_argument("--scheme", default=None, help="hash scheme for hal")

    for name in ("bench", "count"):
        cmd = sub.add_parser(
            name, help="run the %s harness over a corpus" %
            ("timing" if name == "bench" else "operation-counting"))
        cmd.add_argument("--kind", default="text", choices=CORPUS_KINDS)
        cmd.add_argument("--corpus", help="corpus file (default: synthetic)")
        cmd.add_argument("--size", type=int,
                         help="synthetic corpus size in elements")
        cmd.add_argument("--sizes", help="pattern sizes, e.g. 2,4,8 or 2..18")
        cmd.add_argument("--tests", type=int, default=20,
                         help="patterns per size (default 20)")
        cmd.add_argument("--algos", default="sf,l,hal",
                         help="comma list of algorithms (default sf,l,hal)")
        cmd.add_argument("--scheme", default=None, help="hash scheme for hal")
        cmd.add_argument("--dict", dest="dict_path",
                         help="dictionary file of candidate pattern words")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--out", help="TSV output path "
                                       "(default %s-<kind>.tsv)" % name)
        if name == "bench":
            cmd.add_argument("--min-cell-ms", type=int, default=200,
                             help="minimum wall time per timed cell")
            cmd.add_argument("--no-timing", action="store_true",
                             help="skip timing (deterministic output)")

    selftest = sub.add_parser("selftest",
                              help="run bundled regression triples and fuzz")
    selftest.add_argument("--file", help="triple file (default: bundled)")
    selftest.add_argument("--fuzz", type=int, default=2000,
                          help="number of randomized cases (default 2000)")
    selftest.add_argument("--seed", type=int, default=0)
    return parser


def _validate_names(algos, scheme):
    """Check the names; return the scheme that ``scheme`` names, or None."""
    for name in algos:
        if name not in ALGORITHM_NAMES:
            raise ValueError(f"unknown algorithm {name!r} "
                             f"(choose from {', '.join(ALGORITHM_NAMES)})")
    if scheme is not None and scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r} "
                         f"(choose from {', '.join(SCHEMES)})")
    if scheme is not None and algos and "hal" not in algos:
        raise ValueError("--scheme applies to hal, and to find without --algo")
    return SCHEMES.get(scheme)


def cmd_find(args):
    scheme = _validate_names([args.algo] if args.algo else [], args.scheme)
    if (args.pattern is None) == (args.pattern_file is None):
        raise ValueError("give exactly one of --pattern/--pattern-file")
    if args.pattern is not None:
        pattern = decode_pattern(args.pattern)
    else:
        pattern = Path(args.pattern_file).read_bytes()
    text = Path(args.text).read_bytes()
    # a scheme that does not fit the elements raises ValueError too
    if args.algo:
        outcome = resolve_algorithm(args.algo, scheme=scheme)(text, pattern)
    else:
        outcome = dispatch_search(text, pattern, scheme=scheme)
    if outcome.found:
        print(outcome.position)
        return 0
    print("not found")
    return 1


def _echo_summary(report):
    for row in report.rows:
        if row.algorithm == DUMMY:
            continue
        line = (f"{row.corpus} m={row.pattern_size:<4d} {row.algorithm:<5s} "
                f"searched {row.total_elements} elements")
        if report.counted and row.per_char:
            line += (f"  comparisons/char={row.per_char['element_comparisons']:.4f}"
                     f"  accesses/char={row.per_char['element_accesses']:.4f}")
        elif row.seconds:
            line += f"  {row.elements_per_us:.2f} elements/us"
        print(line)


def cmd_bench(args):
    """``bench`` and ``count``: one plan, one harness, one TSV report."""
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ValueError("no algorithms given")
    if getattr(args, "min_cell_ms", 0) < 0:
        raise ValueError("--min-cell-ms takes 0 or more milliseconds")
    scheme = _validate_names(algos, args.scheme)
    sizes = (parse_sizes(args.sizes) if args.sizes else
             _KINDS[args.kind].pattern_sizes)
    # an --out that cannot be written fails before the harness runs; the
    # file itself is written only after a whole run
    out = Path(args.out or f"{args.command}-{args.kind}.tsv")
    if out.is_dir():
        raise IsADirectoryError(f"--out {out} is a directory")
    if not out.parent.is_dir():
        raise FileNotFoundError(f"--out {out}: no directory {out.parent}")
    corpus = load_corpus(args.kind, path=args.corpus, size=args.size,
                         seed=args.seed)
    dictionary = (load_corpus("words", path=args.dict_path)
                  if args.dict_path else None)
    plan = build_pattern_plan(corpus, sizes, args.tests, dictionary)
    # an algorithm or scheme that misfits the corpus raises ValueError
    if args.command == "count":
        report = run_counts(corpus, plan, algos, corpus_name=args.kind,
                            hal_scheme=scheme)
    else:
        report = run_bench(corpus, plan, algos, corpus_name=args.kind,
                           hal_scheme=scheme,
                           min_cell_seconds=args.min_cell_ms / 1000.0,
                           time_runs=not args.no_timing)
    report.write(out)
    _echo_summary(report)
    print(f"wrote {out}")
    return 0


FUZZ_ALPHABETS = (b"ab", b"acgt", b"abcdefghijklmnopqrstuvwxyz", bytes(range(256)))


def _fuzz_case(rng):
    sigma = rng.choice(FUZZ_ALPHABETS)
    n = rng.randint(1, 400)
    m = rng.randint(1, min(24, n + 2))
    text = bytes(rng.choices(sigma, k=n))
    if rng.random() < 0.5 and m <= n:
        start = rng.randrange(n - m + 1)
        pattern = text[start:start + m]
    else:
        pattern = bytes(rng.choices(sigma, k=m))
    return text, pattern


def _disagrees(fns, text, pattern, label):
    """Report the first algorithm that disagrees with the oracle, if any."""
    want = naive_search(text, pattern).position
    for name, fn in fns:
        got = fn(text, pattern).position
        if got != want:
            print(f"FAIL {name} on {label}: expected {want}, got {got}")
            return True
    return False


def cmd_selftest(args):
    if args.fuzz < 0:
        raise ValueError(f"--fuzz takes a count of 0 or more, not {args.fuzz}")
    try:
        source = (Path(args.file) if args.file else
                  resources.files("seqmatch").joinpath("data/small.txt"))
        cases = parse_test_cases(source.read_bytes())
    except (TestFileError, OSError) as exc:
        print(f"selftest error: {exc}", file=sys.stderr)
        return 1
    fns = [(name, resolve_algorithm(name)) for name in ALGORITHM_NAMES]
    failures = sum(_disagrees(fns, case.text, case.pattern,
                              f"pattern {case.pattern!r}") for case in cases)
    print(f"{len(cases)} file cases checked")
    rng = random.Random(args.seed)
    for i in range(args.fuzz):
        text, pattern = _fuzz_case(rng)
        failures += _disagrees(fns, text, pattern, f"fuzz case #{i} "
                               f"text={text!r} pattern={pattern!r}")
        if failures:
            break
    print(f"{args.fuzz} fuzz cases checked")
    if failures:
        print("selftest FAILED")
        return 1
    print("selftest passed")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {"find": cmd_find, "bench": cmd_bench, "count": cmd_bench,
               "selftest": cmd_selftest}[args.command]
    try:
        return handler(args)
    except CorrectnessMismatch as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
