"""Timing and counting harnesses with cross-checked results.

Both harnesses walk the same cells: every algorithm over each plan
size's patterns.  The first algorithm's positions become the baseline;
any disagreement aborts with :class:`~seqmatch.errors.CorrectnessMismatch`.

Timed runs then time every cell of the run, with a "dummy" baseline per
size (the plan-driving loop with no search in it, which also gets rows
of its own), in one interleaved rotation: each round gives one pass over
its patterns to every cell that still has less than
``min_cell_seconds`` of wall clock or fewer than 2 passes, and a
size's dummy as long as one of its size's cells.  Cells that a report
compares, across algorithms and sizes alike, are so measured under the
same host load.  A cell reports its fastest pass (stable under
scheduling noise) less its size's dummy pass.  Counted runs replace
timing with exact per-character operation counts, summed over each
cell's patterns, so their reports are byte-for-byte reproducible.

Speeds are elements per microsecond: total search length (match
distance + pattern size, summed over the plan) / 1e6 / seconds.
"""

import time
from dataclasses import dataclass, field

from .counting import COUNT_FIELDS, CountingSequence, OperationCounts, _bind
from .errors import CorrectnessMismatch

TSV_COLUMNS = ("corpus", "algorithm", "pattern_size", "total_elements",
               "seconds", "elements_per_us")
TSV_COUNT_COLUMNS = ("comparisons_per_char", "accesses_per_char",
                     "big_jumps_per_char", "other_cursor_ops_per_char")

DUMMY = "dummy"


@dataclass
class BenchRow:
    corpus: str
    algorithm: str
    pattern_size: int
    total_elements: int
    seconds: float
    elements_per_us: float
    per_char: "dict | None" = None


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)
    counted: bool = False

    def to_tsv(self):
        """One header row plus one line per row; floats use repr so the
        speed invariant can be re-checked from the file."""
        columns = TSV_COLUMNS + (TSV_COUNT_COLUMNS if self.counted else ())
        lines = ["\t".join(columns)]
        for row in self.rows:
            cells = [row.corpus, row.algorithm, str(row.pattern_size),
                     str(row.total_elements), repr(row.seconds),
                     repr(row.elements_per_us)]
            if self.counted:
                per_char = row.per_char or {}
                cells.extend(repr(per_char.get(name, 0.0))
                             for name in COUNT_FIELDS)
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            out.write(self.to_tsv())

    def cell(self, algorithm, pattern_size):
        for row in self.rows:
            if row.algorithm == algorithm and row.pattern_size == pattern_size:
                return row
        raise KeyError((algorithm, pattern_size))


def _walk(corpus, plan, algorithms, hal_scheme, counted=False):
    """Yield ``(m, patterns, cells)`` per plan size, each cell a cross-checked
    ``(name, fn, total_elements, counts)``; only counted runs fill counts."""
    if isinstance(algorithms, dict):
        resolved = list(algorithms.items())
    else:
        resolved = [(name, _bind(name, corpus, hal_scheme))
                    for name in algorithms]
    n = len(corpus)
    for m, patterns in plan.patterns.items():
        baseline = None
        cells = []
        for name, fn in resolved:
            sink = OperationCounts()
            positions = []
            for p in patterns:
                # one sink per cell; a fresh proxy (and cursor) per search
                text = CountingSequence(corpus, sink) if counted else corpus
                positions.append(fn(text, p).position)
            if baseline is None:
                baseline = positions
            for i, (got, want) in enumerate(zip(positions, baseline)):
                if got != want:
                    raise CorrectnessMismatch(
                        f"algorithm {name!r} returned {got} for pattern "
                        f"#{i} ({patterns[i]!r}), baseline says {want}")
            total = sum((n if pos is None else pos) + m for pos in positions)
            cells.append((name, fn, total, sink))
        yield m, patterns, cells


def run_bench(corpus, plan, algorithms, corpus_name="corpus",
              hal_scheme=None, min_cell_seconds=0.2, time_runs=True):
    """Timed report over ``plan``; see the module docstring.

    ``algorithms`` is a list of names or a dict name -> callable (the
    latter mainly for tests).  With ``time_runs`` false, the
    correctness pass still runs but seconds and speeds are reported as
    zero, which makes the output deterministic.
    """
    timed = []  # (row, fn, patterns) per cell; fn None marks a dummy
    for m, patterns, cells in _walk(corpus, plan, algorithms, hal_scheme):
        timed.append((BenchRow(corpus_name, DUMMY, m, 0, 0.0, 0.0), None,
                      patterns))
        for name, fn, total, _ in cells:
            timed.append((BenchRow(corpus_name, name, m, total, 0.0, 0.0),
                          fn, patterns))
    report = BenchReport([row for row, _, _ in timed])
    if time_runs:
        best = _fastest_passes(corpus, timed, min_cell_seconds)
        for (row, fn, _), seconds in zip(timed, best):
            if fn is None:  # each size's dummy precedes its cells
                row.seconds = base = seconds
            else:
                row.seconds = max(seconds - base, 1e-9)
                row.elements_per_us = row.total_elements / 1e6 / row.seconds
    return report


def _fastest_passes(corpus, cells, min_seconds):
    # One rotation over every (row, fn, patterns) cell.  A pass runs from the
    # end of the one before: each holds the loop overhead the dummy subtracts.
    clock = time.perf_counter
    best = [float("inf")] * len(cells)
    spent = [0.0] * len(cells)
    dummy_of = []  # each cell's size's dummy, which precedes its cells
    for i, (_, fn, _) in enumerate(cells):
        dummy_of.append(i if fn is None else dummy_of[-1])
    active = range(len(cells))
    rounds = 0
    while active:
        start = clock()
        for i in active:
            _, fn, patterns = cells[i]
            if fn is None:
                for _ in patterns:
                    pass
            else:
                for p in patterns:
                    fn(corpus, p)
            end = clock()
            elapsed = end - start
            start = end
            spent[i] += elapsed
            best[i] = min(best[i], elapsed)
        rounds += 1
        if rounds < 2:
            continue
        live = [i for i in active
                if cells[i][1] is not None and spent[i] < min_seconds]
        # a dummy leaves the rotation with the last cell of its size
        active = sorted({*live, *(dummy_of[i] for i in live)})
    return best


def run_counts(corpus, plan, algorithms, corpus_name="corpus",
               hal_scheme=None):
    """Counted report over ``plan``: per-character operation counts.

    Timing columns are reported as zero (counted runs are not
    representative of speed), which keeps the output byte-for-byte
    reproducible for a given corpus, plan, and algorithm list.
    """
    report = BenchReport(counted=True)
    for m, _, cells in _walk(corpus, plan, algorithms, hal_scheme,
                             counted=True):
        for name, _, total, counts in cells:
            report.rows.append(BenchRow(corpus_name, name, m, total, 0.0,
                                        0.0, counts.per_element(total)))
    return report
