"""Mutant check for the search core: does the test suite catch a wrong edit?

Each mutant is one textual edit to a file under ``src/seqmatch``.  The
runner copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md``
(a test runs its example) into a temporary directory, applies one edit
there, runs the non-timed tests and prints whether the mutant was
killed (some test failed) or survived.  The repository itself is never
modified.  A mutant that stops the skip loop from advancing hangs the
plain searches of criterion 1, the suite's first test, so the counted
test in ``FIRST``, which fails such a loop within seconds, runs on its
own before the rest.  A run that exceeds ``TIMEOUT`` seconds counts as
killed.

Run from the repository root; name mutants to run only those:

    python tools/mutants.py [NAME ...]

It exits 1 if any mutant survived, 2 if the unmutated copy fails.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 420  # the suite's per-test limit is 300 s; the rest takes ~60 s
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "-k", "not criterion_5 and not criterion_6 and not criterion_7"]
FIRST = "tests/test_counting.py::test_skip_loops_stop_within_a_linear_budget"

# name -> (file under src/seqmatch, old text, new text); old occurs once
MUTANTS = {
    "scan-not-found-test": (
        "search.py", "end = n + m\n", "end = n + m + 1\n"),
    "scan-not-found-hang": (
        "search.py", "end = n + m\n", "end = n + m - 1\n"),
    "scan-recovery-end": (
        "search.py", "if k == n:", "if k == n - 1:"),
    "scan-mismatch-shift": (
        "search.py", "- len(pattern) + 1):", "- len(pattern)):"),
    "scan-verify-shift": (
        "search.py", "pos = k + mismatch_shift - j + m - 1",
        "pos = k + mismatch_shift - j + m"),
    "scan-recovery-resume": (
        "search.py", "            pos = k + m - 1\n",
        "            pos = k + m\n"),
    "tables-tail-slot": (
        "search.py", "max(n, _TAIL - 1)", "max(n - 1, _TAIL - 1)"),
    "finder-tail-slot": (
        "search.py", "_TAIL - 1)", "_TAIL - 2)"),
    "finder-tail-admission": (
        "search.py", "(n := len(text)) < _TAIL", "(n := len(text)) <= _TAIL"),
    "cache-bytearray-patterns": (
        "search.py", "_CACHED_PATTERNS = (bytes, str)",
        "_CACHED_PATTERNS = (bytes, bytearray, str)"),
    "finder-key-type": (
        "search.py", "(pattern, scheme, cls)(text, n)",
        "(pattern, scheme, bytes)(text, n)"),
    "finder-range": (
        "search.py", "and len(pattern) > 1 and", "and len(pattern) > 0 and"),
    "finder-types": (
        "search.py", "_CACHED_TEXTS = (bytes, bytearray, str)",
        "_CACHED_TEXTS = (bytes, bytearray, str, memoryview)"),
    "bind-forward-rule": (
        "search.py", "if s == 0 or len(pattern) < s:", "if s == 0:"),
    "l-recovery-link": (
        "search.py", "j = shifts[j]\n                if j < 0:\n"
        "                    cur = step()",
        "j = shifts[j - 1]\n                if j < 0:\n"
        "                    cur = step()"),
    "edge-size-one": (
        "search.py", "if n < m or m < 2:", "if n < m or m < 1:"),
    "nhal-skew": (
        "search.py", "_fill_skip(slots, pattern, m, m, n)",
        "_fill_skip(slots, pattern, m, m + 1, n)"),
    "nhal-busy-ignored": (
        "search.py", "if not table.lock.acquire(blocking=False):",
        "if not table.lock.acquire(blocking=False) and False:"),
    "nhal-no-release": (
        "search.py", "        table.lock.release()\n", ""),
    "nhal-step-skew": (
        "search.py", '_STEP = "skip[text[pos]] + m"',
        '_STEP = "skip[text[pos]]"'),
    "nhal-guard-default": (
        "search.py", "guard = [m] * 256", "guard = [m + 1] * 256"),
    "nhal-guard-symbols": (
        "search.py", "guard[pattern[j] & 255] = 0",
        "guard[pattern[-1] & 255] = 0"),
    "nhal-guard-width": (
        "search.py", "text.itemsize == 2", "text.itemsize in (2, 4)"),
    "loop-bound": (
        "search.py", "while pos < n:", "while pos <= n:"),
    "generic-index": (
        "schemes.py", 'return "hash(text, pos)"',
        'return "hash(text, pos - 1)"'),
    "tables-as-locals": (
        "schemes.py", 'f", {t}={t}" for t in tables', '"" for t in tables'),
    "compile-cache": (
        "schemes.py", "@lru_cache(maxsize=128)\n", ""),
    "byte-index-mask-127": (
        "schemes.py", "mask & 255 == 255", "mask & 127 == 127"),
    "skip-window-range": (
        "tables.py", "scheme.hash, s - 1, m)", "scheme.hash, s, m)"),
    "table-hash-window": (
        "tables.py", "for pos in range(lo, hi)",
        "for pos in range(lo - 1, hi - 1)"),
    "index-multiplier": (
        "schemes.py", "{1 << x}", "{2 << x}"),
    "index-live-term": (
        "schemes.py", "mask >> x]", "mask >> x + 1]"),
    "val-index-dead-terms": (
        "schemes.py", '"val({})", every=True)', '"val({})")'),
    "low-byte-offset": (
        "schemes.py", '0 if sys.byteorder == "little" else "text.itemsize - 1"',
        '"text.itemsize - 1" if sys.byteorder == "little" else 0'),
    "table-mask-form": (
        "schemes.py", "if mask & (mask + 1) or mask >", "if mask >"),
    "table-row-key": (
        "schemes.py", "_row((c << x1) & mask,", "_row(c << x1,"),
    "table-first-shift": (
        "schemes.py", "((h << x0) + v)", "(h + v)"),
    "table-later-shift": (
        "schemes.py", '[{index}]", 0', '[{index}]", x0'),
    "low-index-guard": (
        "schemes.py", "mask >> min(shifts) < 256", "mask >> min(shifts) < 512"),
    "low-view-strided": (
        "schemes.py", 'kind == "low" and not seq.c_contiguous',
        'kind == "low" and False'),
    "skip-default-shift": (
        "tables.py", "[m - s + 1]", "[m - s + 2]"),
    "skip-adjustment": (
        "tables.py", "large + m - 1)", "large + m)"),
    "fill-skew": (
        "tables.py", "slots[tail] + skew", "slots[tail]"),
    "next-mismatch-rule": (
        "tables.py", "shifts[j] = shifts[t] if", "shifts[j] = t if"),
    "fill-skip-range": (
        "tables.py", "for i in range(last):", "for i in range(last - 1):"),
    "hal-variant-scheme": (
        "search.py", "_HAL[name] or scheme", "scheme or _HAL[name]"),
    "bind-explicit-scheme": (
        "counting.py", "scheme or default_scheme_for(text)",
        "default_scheme_for(text)"),
    "parser-per-call": (
        "cli.py", "@cache\ndef _build_parser", "def _build_parser"),
    "cli-scheme-none": (
        "cli.py", "return SCHEMES.get(scheme)", "return None"),
    "cli-error-policy": (
        "cli.py", "except (OSError, ValueError) as exc:",
        "except ValueError as exc:"),
    "view-ndim": (
        "schemes.py", "if seq.ndim != 1:", "if False:"),
    "kind-byte-format": (
        "schemes.py", '{"B": "byte",', '{"B": "int",'),
    "kind-stream": (
        "schemes.py", 'if hasattr(seq, "__getitem__")\n', "if True\n"),
    "skip-no-window": (
        "tables.py", "    if s == 0:\n        raise",
        "    if False:\n        raise"),
    "kind-pattern-sizes": (
        "corpus.py", "(20, 50, 100, 150, 200)", "(20, 50, 100, 150)"),
    "kind-corpus-size": (
        "corpus.py", "600_000", "500_000"),
    "outcome-mutable": (
        "search.py", "@dataclass(frozen=True)", "@dataclass"),
}


def _copy(dest):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, dest)


def _run(tree):
    """'passed', 'failed: <first failure>' or 'timeout', and the seconds."""
    start = time.monotonic()
    for selection in ([FIRST], []):
        try:
            # no bytecode: a stale .pyc could hide a same-size edit
            proc = subprocess.run(PYTEST + selection, cwd=tree,
                                  env={**os.environ, "PYTHONPATH": "src",
                                       "PYTHONDONTWRITEBYTECODE": "1"},
                                  capture_output=True, text=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout", time.monotonic() - start
        if proc.returncode != 0:
            break
    seconds = time.monotonic() - start
    if proc.returncode == 0:
        return "passed", seconds
    failed = [line for line in proc.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    reason = failed[0] if failed else f"exit {proc.returncode}"
    return f"failed: {reason}", seconds


def main(names):
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy(tree)
        result, seconds = _run(tree)
        print(f"baseline: {result} ({seconds:.0f} s)", flush=True)
        if result != "passed":
            return 2
        survived = 0
        for name in names or MUTANTS:
            path, old, new = MUTANTS[name]
            target = tree / "src" / "seqmatch" / path
            source = target.read_text()
            if source.count(old) != 1:
                sys.exit(f"{name}: {old!r} does not occur once in {path}")
            target.write_text(source.replace(old, new))
            try:
                result, seconds = _run(tree)
            finally:
                target.write_text(source)
            verdict = "survived" if result == "passed" else "killed"
            survived += verdict == "survived"
            print(f"{verdict:8s} {name} ({seconds:.0f} s; {result})",
                  flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    # exit on SIGTERM as on an exception, so `subprocess.run` kills the
    # pytest child and the temporary copy is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
