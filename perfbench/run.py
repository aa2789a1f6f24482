"""Closed-loop benchmark of seqmatch's public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload text-long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller in one thread sends each call after the previous one
returns.  Every call's answer is checked against ``bytes.find``.  A run
repeats its whole query list in passes until ``--seconds`` have gone
by.  Each timing is scaled to a reference host speed (see
``hostspeed``), and a call's time is its median over the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, which record spans around each call
the benchmark makes into a layer, and prints the per-layer metrics,
tracing overhead included.  Metric names and units come from
``BENCHMARK.json``; ``perfbench/METRICS.md`` says which end-to-end
metric each per-layer metric should move.  The last line of output is
one JSON object; records and spans go to ``perfbench/out/``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 7
TRACED_QUERIES = 360     # traced passes cover about this many queries
CLI_PROBES = 12          # cli.find calls per traced pass off text-long
COUNTED_QUERIES = 12     # fixed subsample for run_counted
COUNTED_WINDOW = 1 << 16  # elements of text a counted call searches
HASH_PROBES = 64         # scheme.hash calls per traced query
KEPT_PASSES = 4          # traced passes whose spans are written out
PROBED_SCHEMES = ("byte", "mod256", "dna2", "dna3", "dna4", "dna5")


def load_package():
    """Import seqmatch from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "seqmatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no seqmatch sources under {src}")
    sys.path.insert(0, str(src))
    import seqmatch
    if Path(seqmatch.__file__).resolve().parent != src / "seqmatch":
        raise SystemExit(f"error: imported seqmatch from {seqmatch.__file__}")


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {SPEC_PATH}: {exc}")


def git_revision():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git": git_revision(),
            "seed": seed}


def cli_pattern(pattern):
    """``--pattern`` argument that ``seqmatch find`` decodes to ``pattern``."""
    if all(32 <= b < 127 and b != 92 for b in pattern):
        return pattern.decode("ascii")
    return "".join(f"\\x{b:02x}" for b in pattern)


class Bench:
    """One workload's checked calls, timings and spans."""

    def __init__(self, work, clock, tracer=None):
        from seqmatch import cli, schemes, search, tables
        from workloads import aligned_find
        self.work = work
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self._cli = cli.main
        self._search = search
        self._tables = tables
        self._schemes = schemes
        self._scheme_name = {id(s): name
                             for name, s in schemes.SCHEMES.items()}
        self.calls = [self._entry_call(q) for q in work.queries]
        self.natives = [self._native(q, aligned_find) for q in work.queries]

    # -- calls ---------------------------------------------------------

    def scheme_name(self, scheme):
        return self._scheme_name[id(scheme)]

    def _cli_call(self, pattern, position):
        argv = ["find", "--text", self.work.file_path,
                "--pattern", cli_pattern(pattern)]
        main = self._cli

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            return code, out.getvalue()
        if position is None:
            return call, (1, "not found\n")
        return call, (0, f"{position}\n")

    def _search_call(self, entry, text, pattern, scheme):
        search = self._search
        if entry == "dispatch":
            return lambda: search.dispatch_search(text, pattern).position
        if entry == "hal":
            return lambda: search.search_hal(text, pattern, scheme).position
        table = self.work.nhal_table
        return lambda: search.search_nhal(text, pattern, table).position

    def _entry_call(self, q):
        if q.entry == "cli":
            return self._cli_call(q.pattern, q.position)
        return (self._search_call(q.entry, q.text, q.pattern, q.scheme),
                q.position)

    def _native(self, q, aligned_find):
        if q.entry == "cli" or isinstance(q.text, bytes):
            text, pattern = q.text, q.pattern
            return lambda: aligned_find(text, pattern, 1)
        raw, needle = self.work.file_bytes, q.pattern.tobytes()
        width = q.text.itemsize
        return lambda: aligned_find(raw, needle, width)

    def search_span(self, q):
        """Span name of the search entry point that serves ``q``."""
        if q.entry in ("cli", "dispatch"):
            return "search.dispatch"
        if q.entry == "nhal":
            return "search.nhal"
        return f"search.hal.{self.scheme_name(q.scheme)}"

    def e2e_span(self, q):
        return "cli.find" if q.entry == "cli" else self.search_span(q)

    def check(self, what, got, expect):
        self.attempted += 1
        if got != expect:
            self.failed += 1
            if self.failed <= 5:
                print(f"wrong answer from {what}: got {got!r}, "
                      f"expected {expect!r}", file=sys.stderr)

    def _call(self, call):
        try:
            return call()
        except Exception as exc:  # a raising call counts as a failure
            if self.failed < 5:
                traceback.print_exc()
            return exc

    def _span(self, name, qid, call):
        tracer = self.tracer
        tracer.start(name, qid)
        try:
            return self._call(call)
        finally:
            tracer.end()

    # -- passes --------------------------------------------------------

    def untraced_pass(self, indices):
        """Time each call; return its scaled time in ns per query, and
        the raw ns that native search took on the same inputs."""
        times = array("d")
        native_ns = 0
        refresh = self.clock.refresh
        for i in indices:
            scale = refresh()
            call, expect = self.calls[i]
            start = perf_counter_ns()
            got = self._call(call)
            took = perf_counter_ns() - start
            self.check(f"query {i}", got, expect)
            times.append(took * scale)
            native = self.natives[i]
            start = perf_counter_ns()
            native()
            native_ns += perf_counter_ns() - start
        return times, native_ns

    def traced_pass(self, indices):
        """Run each query with every layer call in a span; return the
        pass's per-layer metrics and its traced end-to-end el/us."""
        tracer = self.tracer
        queries = self.work.queries
        for j, i in enumerate(indices):
            tracer.scale = self.clock.refresh()
            q = queries[i]
            call, expect = self.calls[i]
            tracer.start("query", i)
            self.check(f"query {i}", self._span(self.e2e_span(q), i, call),
                       expect)
            for name, call, expect in self._layer_calls(q, j):
                got = self._span(name, i, call)
                if expect is not False:
                    self.check(f"{name} on query {i}", got, expect)
            tracer.end()
        if queries[0].entry != "cli":
            self._cli_probes()
        return self.layer_metrics(tracer.end_pass(), indices)

    def _layer_calls(self, q, j):
        """Calls into each layer for one query, except the one already
        timed as its end-to-end span.  ``False`` marks an unchecked
        result."""
        text, pattern, n = q.text, q.pattern, len(q.text)
        table_of = self._tables
        default = self._schemes.default_scheme_for(text)
        calls = [("search.dispatch",
                  self._search_call("dispatch", text, pattern, None),
                  q.position),
                 ("search.nhal",
                  self._search_call("nhal", text, pattern, None), q.position),
                 ("tables.compute_next",
                  lambda: table_of.compute_next(pattern), False)]
        for scheme in {id(default): default, id(q.scheme): q.scheme}.values():
            calls.append(
                (f"tables.compute_skip.{self.scheme_name(scheme)}",
                 lambda s=scheme: table_of.compute_skip(pattern, s, n), False))
        name = PROBED_SCHEMES[j % len(PROBED_SCHEMES)]
        hash_ = self._schemes.SCHEMES[name].hash
        positions = [4 + k * (n - 4) // HASH_PROBES
                     for k in range(HASH_PROBES)]

        def probe():
            for pos in positions:
                hash_(text, pos)
        calls.append((f"schemes.{name}.hash", probe, False))
        e2e = self.e2e_span(q)
        return [c for c in calls if c[0] != e2e]

    def _cli_probes(self):
        """``seqmatch find`` on this workload's data as one file, with
        its dispatch search on the same bytes for the cli overhead."""
        from workloads import aligned_find
        raw = self.work.file_bytes
        for k, pattern in enumerate(self.work.probe_patterns[:CLI_PROBES]):
            qid = f"cli{k}"
            position = aligned_find(raw, pattern, 1)
            call, expect = self._cli_call(pattern, position)
            self.tracer.scale = self.clock.refresh()
            self.tracer.start("query", qid)
            self.check(f"cli probe {k}", self._span("cli.find", qid, call),
                       expect)
            search = self._search_call("dispatch", raw, pattern, None)
            self.check(f"dispatch probe {k}",
                       self._span("search.dispatch", qid, search), position)
            self.tracer.end()

    def counted(self):
        """Exact operation counts from ``run_counted`` on a fixed
        subsample; a wrong answer or more than 2n comparisons fails."""
        from seqmatch.counting import run_counted
        from workloads import reference
        queries = self.work.queries
        n_queries = len(queries)
        totals = dict.fromkeys(("element_comparisons", "element_accesses",
                                "cursor_big_jumps", "cursor_other_ops"), 0)
        elements = 0
        worst = 0.0
        for k in range(COUNTED_QUERIES):
            q = queries[(2 * k + 1) * n_queries // (2 * COUNTED_QUERIES)]
            # the window ends just past the first match, if any, so
            # matches stay matches
            text = q.text[max(0, q.elements - COUNTED_WINDOW):q.elements]
            position = reference(text, q.pattern)
            algo, scheme = (("nhal", None) if q.entry == "nhal"
                            else ("hal", q.scheme))
            call = lambda: run_counted(algo, text, q.pattern, scheme=scheme)
            if self.tracer is None:
                result = self._call(call)
            else:
                self.tracer.scale = self.clock.refresh()
                result = self._span("counting.run_counted", f"count{k}", call)
            if isinstance(result, Exception):
                self.check(f"counted query {k}", result, position)
                continue
            outcome, counts = result
            bound_ok = counts.element_comparisons <= 2 * len(text)
            self.check(f"counted query {k}", (outcome.position, bound_ok),
                       (position, True))
            for name in totals:
                totals[name] += getattr(counts, name)
            elements += (len(text) if position is None
                         else position + len(q.pattern))
            worst = max(worst, counts.element_comparisons / len(text))
        if self.tracer is not None:
            self.tracer.end_pass()
        per = {name: value / elements for name, value in totals.items()}
        return {"counts.comparisons_per_char": per["element_comparisons"],
                "counts.accesses_per_char": per["element_accesses"],
                "counts.big_jumps_per_char": per["cursor_big_jumps"],
                "counts.other_ops_per_char": per["cursor_other_ops"],
                "counts.max_comparisons_over_n": worst}

    # -- metrics -------------------------------------------------------

    def elements(self, indices):
        queries = self.work.queries
        return sum(queries[i].elements for i in indices)

    def layer_metrics(self, self_ns, indices):
        """One traced pass's per-layer metrics, from span self times."""
        queries = self.work.queries

        def mean_us(values):
            return statistics.fmean(values) / 1e3

        call, tables, nexts, skips = [], [], [], []
        per_entry = {"dispatch": ([], []), "nhal": ([], [])}
        e2e, harness = [], []
        for i in indices:
            q = queries[i]
            default = self._schemes.default_scheme_for(q.text)
            nxt = self_ns[i, "tables.compute_next"]
            skip_default = self_ns[i, "tables.compute_skip."
                                   + self.scheme_name(default)]
            skip = self_ns[i, "tables.compute_skip."
                           + self.scheme_name(q.scheme)]
            own = self_ns[i, self.search_span(q)]
            call.append(own)
            tables.append(nxt if q.entry == "nhal" else nxt + skip)
            nexts.append(nxt)
            skips.append(skip)
            for entry, pre in (("dispatch", nxt + skip_default),
                               ("nhal", nxt)):
                took = self_ns[i, f"search.{entry}"]
                per_entry[entry][0].append(took)
                per_entry[entry][1].append(took - pre)
            e2e.append(self_ns[i, self.e2e_span(q)])
            harness.append(self_ns[i, "query"])
        cli_qids = [qid for (qid, name) in self_ns if name == "cli.find"]
        finds = [self_ns[qid, "cli.find"] for qid in cli_qids]
        overheads = [self_ns[qid, "cli.find"] - self_ns[qid, "search.dispatch"]
                     for qid in cli_qids]
        metrics = {
            "cli.find_us_per_call": mean_us(finds),
            "cli.overhead_us_per_call": mean_us(overheads),
            "search.call_us_per_call": mean_us(call),
            "search.scan_us_per_call": mean_us(call) - mean_us(tables),
            "search.scan_share": 1 - sum(tables) / sum(call),
            "tables.compute_next_us_per_call": mean_us(nexts),
            "tables.compute_skip_us_per_call": mean_us(skips),
            "tables.preprocess_share": sum(tables) / sum(call),
            "harness.self_us_per_query": mean_us(harness),
        }
        for entry, (calls, scans) in per_entry.items():
            metrics[f"search.{entry}.call_us_per_call"] = mean_us(calls)
            metrics[f"search.{entry}.scan_us_per_call"] = mean_us(scans)
        for name in PROBED_SCHEMES:
            span = f"schemes.{name}.hash"
            probes = [ns for (qid, s), ns in self_ns.items() if s == span]
            metrics[f"schemes.{name}.hash_ns_per_probe"] = (
                statistics.fmean(probes) / HASH_PROBES)
        return metrics, self.elements(indices) * 1e3 / sum(e2e)


def median_of(rows):
    """Median of each key over a list of metric dicts."""
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def measure(name, seed, seconds, trace):
    from hostspeed import REF_NS, HostClock
    from tracing import Tracer
    from workloads import WORKLOADS
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    clock = HostClock()
    try:
        setup_s, generate_s = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            work = WORKLOADS[name](seed, workdir)
            bench = Bench(work, clock, Tracer(KEPT_PASSES) if trace else None)
            setup_s.append(time.perf_counter() - start)
            generate_s.append(work.generate_s)
        counts = bench.counted()
        n = len(work.queries)
        step = max(1, n // TRACED_QUERIES) if trace else 1
        indices = range(0, n, step)
        elements = bench.elements(indices)
        pass_times, traced, native = [], [], []
        deadline = time.perf_counter() + seconds
        while not pass_times or time.perf_counter() < deadline:
            times, native_ns = bench.untraced_pass(indices)
            pass_times.append(times)
            native.append(elements * 1e3 / native_ns)
            if trace:
                layers, traced_el_per_us = bench.traced_pass(indices)
                layers["trace.overhead_el_per_us"] = (
                    elements * 1e3 / sum(times) - traced_el_per_us)
                traced.append(layers)
        # a set-up is too short to follow the host's moment-to-moment
        # speed, so set-up times take the run's median factor
        host_scale = statistics.median(REF_NS / ns for ns in clock.kernel_ns)
        if trace:
            metrics = median_of(traced)
            metrics.update(counts)
            metrics["corpus.generate_s"] = (statistics.median(generate_s)
                                            * host_scale)
            metrics["native.find_el_per_us"] = statistics.median(native)
        else:
            # each call's median over passes, so one slow moment moves
            # no quantile
            calls_ns = [statistics.median(t) for t in zip(*pass_times)]
            calls_us = [ns / 1e3 for ns in calls_ns]
            metrics = {
                "elements_per_us": elements * 1e3 / sum(calls_ns),
                "call_p50_us": statistics.median(calls_us),
                "call_p90_us": statistics.quantiles(calls_us, n=10)[-1],
                "setup_s": statistics.median(setup_s) * host_scale,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        info = {"workload": name, "trace": trace, "seconds": seconds,
                "passes": len(pass_times), "queries": len(indices),
                "failed_share": bench.failed / max(bench.attempted, 1),
                "native.find_el_per_us": statistics.median(native),
                "host_scale": host_scale,
                "environment": environment(seed)}
        if trace:
            spans_path = OUT / f"spans-{name}-seed{seed}.json"
            bench.tracer.write(spans_path)
            info["spans"] = len(bench.tracer.kept)
            info["spans_file"] = str(spans_path.relative_to(ROOT))
        return metrics, info, bench.attempted, bench.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(spec, name, seed, seconds, trace):
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics, info, attempted, failed = measure(name, seed, seconds, trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"disagree with {SPEC_PATH.name}")
    env = info["environment"]
    print(f"workload {name}: seed {seed}, trace {trace}, closed loop, "
          f"1 caller, {info['passes']} passes of {info['queries']} calls, "
          f"timings scaled by host factor {info['host_scale']:.3f} (median)")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key in sorted(units):
        print(f"  {key:<40s} {metrics[key]:>14.4f} {units[key]}")
    print(f"  {'failed_share':<40s} {info['failed_share']:>14.4f} share "
          f"({failed} of {attempted} calls)")
    print(f"  {'native.find_el_per_us':<40s} "
          f"{info['native.find_el_per_us']:>14.4f} el/us "
          f"(yardstick, not gated)")
    if trace:
        print(f"  {info['spans']} spans written to {info['spans_file']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in sorted(units)}}
    record = dict(result, info=info)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(spec, seed, seconds, trace):
    """Each workload in its own process, so peak memory stays its own."""
    results = {}
    for w in spec["workloads"]:
        argv = [sys.executable, __file__, "--workload", w["name"],
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {w['name']} exited "
                             f"with code {done.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        results[w["name"]] = json.loads(lines[-1])
    metrics = {f"{w}.{k}": v for w, r in results.items()
               for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds, args.trace)
    return report(spec, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
