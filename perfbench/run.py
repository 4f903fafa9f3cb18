#!/usr/bin/env python3
"""graphcurves benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload exact-g21 --seed 1 --seconds 38 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One process generates the load, one operation at a time (a closed loop
with one client).  With ``--trace 0`` it runs whole cycles of the
workload (a round on each of its graphs) for about ``--seconds`` and
prints every end-to-end metric.  With ``--trace 1`` it runs one cycle
untraced and then the same cycle traced, and prints the per-layer
metrics.  End-to-end times are scaled to a reference machine speed (see
reference_loop).  Every operation's output is checked (see checks.py).
The last stdout line is the JSON result; the lines before it, starting
with ``#``, give sample counts and the environment, and a copy of the
full result goes to ``.perfbench/results/``.  The exit code is 0 only if
every check passed.
"""
from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5
# The reference loop's wall time at the speed all timings are scaled to.
REFERENCE_LOOP_S = 0.012
PROBE_REPEATS = 5
PROCESS_TIMEOUT_S = 150
# Top-level spans must account for the untraced time within the tracing
# overhead, give or take this share of run-to-run noise.
COVERAGE_SLACK = 0.2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

clock = time.perf_counter


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop: the machine's speed now.

    Other tenants of a shared machine slow it by up to 1.6 times, for
    stretches of seconds to minutes.  Every timing is scaled by this
    loop, run just before and just after it, to the speed at which the
    loop takes REFERENCE_LOOP_S (see README.md).
    """
    start = clock()
    x = 0
    for i in range(150_000):
        x += i * i % 7
    return clock() - start


def scaled(seconds: float, loop_before: float, loop_after: float) -> float:
    return seconds * REFERENCE_LOOP_S / ((loop_before + loop_after) / 2)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def clamp_blas_threads():
    """Leave BLAS threading at its default, but never above nproc."""
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > nproc():
            os.environ[var] = str(nproc())


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "blas_threads": {v: os.environ.get(v, "default") for v in BLAS_VARS},
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


@dataclass
class OpResult:
    op: workloads.Op
    seconds: float
    problems: list
    stdout_bytes: int = 0
    trace: dict | None = None  # a child process's trace file contents
    loop_s: tuple = ()  # reference loop seconds just before and after

    @property
    def scaled_seconds(self) -> float:
        return scaled(self.seconds, *self.loop_s)

    @property
    def ok(self) -> bool:
        return not self.problems


class Bench:
    """One workload at one seed: set-up, operations and their checks."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.inputs = None
        self.frozen = checks.load_digests(workload.name) \
            if seed == checks.DIGEST_SEED else {}
        self.digests = {}
        self.round_dims = {}  # round -> {"flat": local_dim, "higgs": dim}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    # -- set-up -------------------------------------------------------

    def setup(self) -> float:
        """Prepare the inputs; return the fastest of SETUP_REPEATS set-ups.

        A set-up is the package import plus preparing the inputs, and for
        cli-catalog one warm-up process.  Each timed set-up runs in a
        fresh process, so that each pays the import; the inputs this run
        uses are prepared here, untimed.
        """
        self.inputs = workloads.prepare(self.w, self.seed,
                                        self.workdir / "inputs")
        times = []
        for k in range(SETUP_REPEATS):
            before = reference_loop()
            proc = self._run_process([str(HERE / "child.py"), "setup",
                                      self.w.name, str(self.seed),
                                      str(self.workdir / f"setup{k}")])
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed:\n{proc.stderr}")
            seconds = float(proc.stdout)
            if not self.w.in_process:
                start = clock()
                self._run_process(["-m", "graphcurves", "graph", "--graph",
                                   str(self.inputs.files[0])])
                seconds += clock() - start
            times.append(scaled(seconds, before, reference_loop()))
        return min(times)

    # -- operations ---------------------------------------------------

    def _run_process(self, args):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=self.env, cwd=ROOT,
                              timeout=PROCESS_TIMEOUT_S)

    def run_op(self, op, tracer=None, trace_dir=None) -> OpResult:
        if op.kind == "twist":
            return self._twist(op, tracer, trace_dir)
        return self._cli(op, tracer, trace_dir)

    def _cli(self, op, tracer, trace_dir) -> OpResult:
        from graphcurves import cli

        trace_file = None
        if self.w.in_process:
            out = io.StringIO()
            if tracer is not None:
                tracer.begin_op(op.kind, op.key)
            start = clock()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(op.argv)
            except (Exception, SystemExit) as exc:
                return OpResult(op, clock() - start, [f"{op.kind}: raised {exc!r}"])
            finally:
                if tracer is not None:
                    tracer.end_op()
            seconds = clock() - start
            stdout = out.getvalue()
        else:
            if trace_dir is None:
                args = ["-m", "graphcurves", *op.argv]
            else:
                trace_file = trace_dir / f"{op.key.replace(':', '-')}.json"
                args = [str(HERE / "child.py"), "--trace-out", str(trace_file),
                        "cli", *op.argv]
            start = clock()
            try:
                proc = self._run_process(args)
            except subprocess.TimeoutExpired:
                return OpResult(op, clock() - start, [f"{op.kind}: timed out"])
            seconds = clock() - start
            code, stdout = proc.returncode, proc.stdout
        if code != 0:
            return OpResult(op, seconds, [f"{op.kind}: exit code {code}"])
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return OpResult(op, seconds, [f"{op.kind}: stdout is not JSON"])
        domain = "float" if op.kind == "spectral" else self.w.domain
        problems = checks.check_cli_report(
            op.kind, report, self.inputs.expects[op.graph_index], domain,
            op.seed)
        problems += self._check_digest(op, report)
        if op.kind in ("flat", "higgs") and not problems:
            dims = self.round_dims.setdefault(op.round, {})
            dims[op.kind] = report["results"]["local_dim" if op.kind == "flat"
                                              else "dim"]
            problems += checks.check_round_dims(dims)
        return OpResult(op, seconds, problems, len(stdout.encode()),
                        self._read_trace(trace_file))

    def _twist(self, op, tracer, trace_dir) -> OpResult:
        trace_file = None
        if self.w.in_process:
            bundle = self.inputs.bundles[op.graph_index]
            try:
                report = workloads.twist_report(bundle, op.exponents, tracer,
                                                op.key)
            except Exception as exc:
                return OpResult(op, 0.0, [f"twist: raised {exc!r}"])
            seconds = report["seconds"]
        else:
            args = [str(HERE / "child.py")]
            if trace_dir is not None:
                trace_file = trace_dir / f"{op.key.replace(':', '-')}.json"
                args += ["--trace-out", str(trace_file)]
            args += ["twist", str(self.inputs.files[op.graph_index]),
                     str(op.seed), ",".join(map(str, op.exponents))]
            start = clock()
            try:
                proc = self._run_process(args)
            except subprocess.TimeoutExpired:
                return OpResult(op, clock() - start, ["twist: timed out"])
            seconds = clock() - start
            if proc.returncode != 0:
                return OpResult(op, seconds,
                                [f"twist: exit code {proc.returncode}"])
            report = json.loads(proc.stdout)
        problems = checks.check_twist_report(
            report, self.inputs.expects[op.graph_index])
        problems += self._check_digest(op, report)
        return OpResult(op, seconds, problems, trace=self._read_trace(trace_file))

    def _check_digest(self, op, report) -> list:
        value = checks.digest(op.kind, report)
        if value is None:
            return []
        self.digests[op.key] = value
        expected = self.frozen.get(op.key)
        if expected is not None and expected != value:
            return [f"{op.kind}: digest {value} != frozen {expected} ({op.key})"]
        return []

    @staticmethod
    def _read_trace(path):
        if path is None or not path.exists():
            return None
        data = json.loads(path.read_text())
        path.unlink()
        return data

    # -- loops --------------------------------------------------------

    def run_rounds(self, seconds=None, rounds=None, tracer=None, trace_dir=None):
        """Exactly `rounds` rounds, or whole cycles for about `seconds`.

        A timed run stops at the cycle boundary nearest to `seconds`,
        judging the next cycle's length by the last one's.  The
        reference loop runs between operations.
        """
        results = []
        loop_s = reference_loop()
        start = cycle_start = clock()
        r = 0
        cycle = self.w.graph_count
        while True:
            if rounds is not None and r >= rounds:
                break
            if rounds is None and r > 0 and r % cycle == 0:
                now = clock()
                if now - start + (now - cycle_start) / 2 >= seconds:
                    break
                cycle_start = now
            for op in workloads.round_ops(self.inputs, r):
                result = self.run_op(op, tracer, trace_dir)
                result.loop_s = (loop_s, reference_loop())
                loop_s = result.loop_s[1]
                results.append(result)
            r += 1
        return results, r


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(bench, results, setup_s):
    """End-to-end metrics from the fastest operation of each kind and graph.

    Other tenants of a shared machine can make it 1.6 times slower for
    seconds to minutes at a time, and contention only ever adds time.  So an
    operation's cost on a graph is read from its fastest instance in the
    run, which moves far less from run to run than a median or mean does.
    A kind's time is the mean of those over the graphs it ran on, so every
    graph of the workload counts.  All times are scaled by the reference
    loop.
    """
    metrics, samples = {}, {}

    def put(name, value, unit, n):
        metrics[name] = {"value": value, "unit": unit}
        samples[name] = n

    put("setup_s", setup_s, "s", SETUP_REPEATS)
    best, count = {}, {}
    for r in results:
        if r.ok:
            key = (r.op.kind, r.op.graph_index)
            best[key] = min(best.get(key, r.scaled_seconds), r.scaled_seconds)
            count[key] = count.get(key, 0) + 1
    # One cycle's operation mix, each at its fastest time.
    cycle = [(r.op.kind, r.op.graph_index) for r in results
             if r.op.round < bench.w.graph_count]
    if all(key in best for key in cycle):
        put("ops_per_s", len(cycle) / sum(best[key] for key in cycle), "1/s",
            len(results))
    put("peak_rss_mb", peak_rss_mb(bench.w.in_process), "MB", 1)
    for kind in workloads.KINDS:
        keys = [key for key in best if key[0] == kind]
        if keys:
            put(f"{kind}_s", statistics.fmean(best[key] for key in keys),
                "s", sum(count[key] for key in keys))
    # The slow end of the subcommand mix: p90 over the six subcommands'
    # times (each averages its graphs, so it rests on several times more
    # calls than a p90 over single graphs would).
    times = [metrics[f"{kind}_s"]["value"] for kind in workloads.CLI_KINDS
             if f"{kind}_s" in metrics]
    if len(times) == len(workloads.CLI_KINDS):
        put("call_s_p90",
            statistics.quantiles(times, n=10, method="inclusive")[8], "s",
            sum(samples[f"{kind}_s"] for kind in workloads.CLI_KINDS))
    return metrics, samples


def cli_probes(bench) -> dict:
    """Bare interpreter start, and import costs over it, each a median."""
    def median_run(code):
        times = []
        for _ in range(PROBE_REPEATS):
            start = clock()
            bench._run_process(["-c", code])
            times.append(clock() - start)
        return statistics.median(times)

    interp = median_run("pass")
    return {"cli.interp_s": interp,
            "cli.import_s": median_run("import graphcurves") - interp,
            "cli.numpy_import_s": median_run("import numpy") - interp}


def per_layer(bench):
    """Untraced then traced passes over one cycle; per-round metrics."""
    from graphcurves import cli
    from tracer import JsonTimer, Tracer, merge_summaries

    rounds = bench.w.graph_count
    probes = cli_probes(bench)
    untraced, _ = bench.run_rounds(rounds=rounds)

    tracer = Tracer().install(layers.EXPECTED_FUNCTIONS)
    json_timer = None
    if bench.w.in_process:
        json_timer = cli.json = JsonTimer(cli.json)
    trace_dir = None if bench.w.in_process else bench.workdir / "traces"
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        traced, _ = bench.run_rounds(rounds=rounds, tracer=tracer,
                                     trace_dir=trace_dir)
    finally:
        tracer.uninstall()
        if json_timer is not None:
            cli.json = json_timer.real

    children = [r.trace for r in traced if r.trace is not None]
    summary = merge_summaries([tracer.summary()]
                              + [c["summary"] for c in children])
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    accounted = summary["top_s"] + sum(probes["cli.interp_s"] + c["import_s"]
                                       for c in children)
    json_s = (json_timer.seconds if json_timer is not None
              else sum(c["json_s"] for c in children))

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for fn in layers.SELF_S:
        put(f"{fn}.self_s", summary["self_s"].get(fn, 0.0) / rounds, "s")
    for fn in layers.TOTAL_S:
        put(f"{fn}.total_s", summary["total_s"].get(fn, 0.0) / rounds, "s")
    for fn in layers.CALLS:
        put(f"{fn}.calls", summary["calls"].get(fn, 0) / rounds, "count")
    for name, (fn, kind) in layers.CALLS_PER_OP.items():
        ops = sum(1 for r in traced if r.op.kind == kind)
        calls = summary["calls_by_kind"].get(f"{fn}|{kind}", 0)
        put(name, calls / ops if ops else 0.0, "count")
    counts = dict(summary["counters"], **summary["maxima"])
    for name, unit in layers.COUNTS.items():
        value = counts.get(name, 0)
        put(name, value if name in summary["maxima"] else value / rounds, unit)
    for name, value in probes.items():
        put(name, value, "s")
    put("cli.json_s", json_s / rounds, "s")
    put("cli.report_bytes",
        sum(r.stdout_bytes for r in traced) / rounds, "bytes")
    overhead = traced_s / untraced_s - 1
    coverage = accounted / untraced_s
    put("trace.overhead_frac", overhead, "ratio")
    put("trace.coverage_frac", coverage, "ratio")
    put("trace.missing_functions", len(summary["missing"]), "count")
    put("trace.spans", summary["spans"] / rounds, "count")

    for fn in summary["missing"]:
        for name in list(metrics):
            if name.startswith(fn + "."):
                del metrics[name]
    notes = []
    if summary["missing"]:
        notes.append("traced functions missing from the package: "
                     + ", ".join(summary["missing"]))
    if not (1 - COVERAGE_SLACK <= coverage
            <= 1 + max(overhead, 0.0) + COVERAGE_SLACK):
        notes.append(f"top-level spans cover {coverage:.3f} of the untraced "
                     f"time (overhead {overhead:.3f}): spans have drifted "
                     "from where the time goes")
    _write_spans(bench, tracer, children)
    return metrics, untraced + traced, notes


def _write_spans(bench, tracer, children):
    path = OUT / "spans" / f"{bench.w.name}-seed{bench.seed}.json.gz"
    path.parent.mkdir(parents=True, exist_ok=True)
    processes = [tracer.span_records()] + [c["spans"] for c in children]
    with gzip.open(path, "wt") as fh:
        json.dump({"workload": bench.w.name, "seed": bench.seed,
                   "processes": [p for p in processes if p]}, fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=checks.DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", type=int, default=None,
                        metavar="ROUNDS",
                        help="freeze the digests of this many rounds at the "
                             "digest seed into digests.json, then exit")
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    return args


def write_digests(bench, rounds):
    results, _ = bench.run_rounds(rounds=rounds)
    bad = [p for r in results for p in r.problems]
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    frozen = (json.loads(checks.DIGEST_FILE.read_text())
              if checks.DIGEST_FILE.exists() else {})
    frozen["seed"] = checks.DIGEST_SEED
    frozen.setdefault("workloads", {})[bench.w.name] = dict(
        sorted(bench.digests.items(),
               key=lambda kv: (int(kv[0].split(":")[0]), kv[0])))
    checks.DIGEST_FILE.write_text(json.dumps(frozen, indent=1) + "\n")
    print(f"froze {len(bench.digests)} digests for {bench.w.name}")
    return 0


def main(argv=None) -> int:
    if not (SRC / "graphcurves" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run the benchmark from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    args = parse_args(argv)
    clamp_blas_threads()
    sys.path.insert(0, str(SRC))
    import graphcurves.cli  # noqa: F401

    w = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"run-{os.getpid()}"
    bench = Bench(w, args.seed, workdir)
    try:
        setup_s = bench.setup()
        if args.write_digests is not None:
            if args.seed != checks.DIGEST_SEED:
                print(f"digests are frozen at seed {checks.DIGEST_SEED}",
                      file=sys.stderr)
                return 2
            return write_digests(bench, args.write_digests)
        notes = []
        if args.trace:
            rounds = w.graph_count
            metrics, results, notes = per_layer(bench)
            samples = {"rounds": rounds}
        else:
            results, rounds = bench.run_rounds(seconds=args.seconds)
            metrics, samples = end_to_end(bench, results, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in results for p in r.problems]
    failed = sum(1 for r in results if not r.ok)
    correct = failed == 0 and bool(results)
    env = environment()
    for p in problems[:20]:
        print(f"# FAILED {p}")
    for note in notes:
        print(f"# WARNING {note}")
    print(f"# workload={w.name} seed={args.seed} trace={args.trace} "
          f"rounds={rounds} ops={len(results)} failed={failed} "
          f"digests_checked={sum(1 for k in bench.digests if k in bench.frozen)}")
    if not args.trace:
        loops = [t for r in results for t in r.loop_s]
        print(f"# reference loop: median {statistics.median(loops) * 1e3:.2f} ms, "
              f"fastest {min(loops) * 1e3:.2f} ms (n={len(loops)}); times "
              f"below are scaled to {REFERENCE_LOOP_S * 1e3:g} ms")
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']} (n={samples[name]})")
    print("# env " + json.dumps(env, sort_keys=True))
    result = {"correct": correct, "attempted": len(results), "failed": failed,
              "metrics": metrics}
    record = OUT / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    ops = [[r.op.key, r.op.graph_index, r.seconds, *r.loop_s, r.ok]
           for r in results]
    record.write_text(json.dumps(dict(result, env=env, samples=samples,
                                      problems=problems, notes=notes, ops=ops),
                                 indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
