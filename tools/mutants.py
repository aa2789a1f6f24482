"""Mutant check for the search core: does the test suite catch a wrong edit?

Each mutant is one textual edit to a file under ``src/seqmatch``.  The
runner copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md``
(a test runs its example) into a temporary directory, applies one edit
there, runs the non-timed tests and prints whether the mutant was
killed (some test failed) or survived.  The repository itself is never
modified.  A run that exceeds ``TIMEOUT``
seconds counts as killed: a mutant that stops the skip loop from
advancing hangs instead of failing, until the suite's per-test time
limit ends it.

Run from the repository root; name mutants to run only those:

    python tools/mutants.py [NAME ...]

It exits 1 if any mutant survived, 2 if the unmutated copy fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 420  # the suite's per-test limit is 300 s; the rest takes ~60 s
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "-k", "not criterion_5 and not criterion_6 and not criterion_7"]

# name -> (file under src/seqmatch, old text, new text); old occurs once
MUTANTS = {
    "scan-not-found-test": (
        "search.py", "if k < n + m:", "if k <= n + m:"),
    "scan-not-found-hang": (
        "search.py", "if k < n + m:", "if k < n + m - 1:"),
    "scan-recovery-end": (
        "search.py", "if k == n:", "if k == n - 1:"),
    "scan-mismatch-shift": (
        "search.py", "k += mismatch_shift\n", "k += mismatch_shift + 1\n"),
    "tables-tail-slot": (
        "search.py", "(1 << size_bits) - 1", "(1 << size_bits) - 2"),
    "cache-bytearray-patterns": (
        "search.py", "type(pattern) in (bytes, str)",
        "type(pattern) in (bytes, bytearray, str)"),
    "nhal-skew": (
        "search.py", "skew = m  #", "skew = m + 1  #"),
    "loop-bound": (
        "schemes.py", "def advance(text, skip, pos, n):\n    while pos < n:",
        "def advance(text, skip, pos, n):\n    while pos <= n:"),
    "byte-loop-mask-127": (
        "schemes.py", "mask & 255 == 255", "mask & 127 == 127"),
    "skip-window-range": (
        "tables.py", "range(s - 1, m - 1)", "range(s, m - 1)"),
    "skip-default-shift": (
        "tables.py", "[m - s + 1]", "[m - s + 2]"),
    "skip-adjustment": (
        "tables.py", "large + m - 1)", "large + m)"),
    "next-mismatch-rule": (
        "tables.py", "shifts.append(shifts[t])", "shifts.append(t)"),
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
    try:
        # no bytecode: a stale .pyc could hide a same-size edit
        proc = subprocess.run(PYTEST, cwd=tree,
                              env={**os.environ, "PYTHONPATH": "src",
                                   "PYTHONDONTWRITEBYTECODE": "1"},
                              capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", time.monotonic() - start
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
    sys.exit(main(sys.argv[1:]))
