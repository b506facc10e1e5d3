"""trabessel benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload {cli_cold,series_ladder,check_spectra,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src/``.
Every workload is closed-loop with one client.  A run repeats whole rounds
(one seeded shuffle of the workload's op pool, see workloads.py) until
``--seconds`` have passed; each op's output is checked outside the timed
interval.

``--trace 0`` reports the end-to-end metrics: setup_s (median over fresh
processes that import, build the pool and run the warm-up ops), op_p50_ms
and op_p90_ms over the ops that succeeded, ops_per_s over the summed op time,
and peak_rss_mb (of the CLI child processes for cli_cold).  ``--trace 1``
splits the time into an untraced and a traced half and reports the per-layer
metrics from spans (tracing.py), per round of the pool.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.

``correct`` is false when an op fails that did not fail when the benchmark was
recorded, or when an output check fails; ops that failed then still count in
``failed``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 60
NPROC = len(os.sched_getaffinity(0))

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}
MODULES = ("families", "solver", "basis", "verify", "ode", "quantum", "cli")
WORKLOAD_NAMES = ("cli_cold", "series_ladder", "check_spectra")


def pin_environment():
    """One BLAS/OpenMP thread here and in every child; the package from this
    checkout's src/; TRA_NUM_THREADS unset so verify runs at its default.

    The program makes no BLAS call large enough to thread (its eigensolves
    are tridiagonal LAPACK), but numpy and scipy each load their own
    OpenBLAS, and each starts nproc - 1 worker threads when imported.  On a
    2-vCPU VM those threads made every fresh CLI process busy on more threads
    than there are CPUs: a call took about 770 ms instead of 600 ms, twice
    as many involuntary context switches, and its time varied from run to
    run with the scheduler."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("TRA_NUM_THREADS", None)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def failure_module(exc):
    """The innermost trabessel module in the traceback of ``exc``, else "bench"."""
    module = "bench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent.name == "trabessel":
            module = path.stem
    return module


class Runner:
    """Runs a workload's ops, times each one, checks each output."""

    def __init__(self, workload, seed):
        self.wl = workload
        self.rng = random.Random(seed)
        self.tracer = None
        self.first = {}          # op key -> fingerprint of its first, checked output
        self.failures = []       # (op id, op key, module, label, expected)
        self.ladder = {}         # op id -> ladder family, for exponent fits
        self.next_id = 0
        self.cli_import_ms = []  # measured inside traced CLI children
        self.op_seconds = {}     # op key -> latencies of its untraced runs

    def _run_inprocess(self, op, op_id):
        tracer = self.tracer
        start = perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                tracer.op_id, tracer.active = op_id, True
                try:
                    out = tracer.span("op", op.run)
                finally:
                    tracer.active = False
        except Exception as exc:  # a failing op is a result, not a crash
            return perf_counter() - start, None, f"{failure_module(exc)}:{type(exc).__name__}"
        return perf_counter() - start, out, None

    def _run_cli(self, op, op_id):
        spans_file = None
        if self.tracer is None:
            argv = workloads.cli_argv(op.run)
        else:
            fd, spans_file = tempfile.mkstemp(suffix=".json", dir=OUT)
            os.close(fd)
            argv = [sys.executable, str(HERE / "traced_cli.py"), spans_file, str(op_id)] + op.run
        start = perf_counter()
        proc = subprocess.run(argv, capture_output=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        elapsed = perf_counter() - start
        if spans_file is not None:
            self._merge_child_spans(spans_file)
        if proc.returncode != 0:
            return elapsed, None, f"cli:exit {proc.returncode}"
        return elapsed, (proc.returncode, proc.stdout), None

    def _merge_child_spans(self, path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.unlink(path)
        offset = len(self.tracer.spans)
        for name, start, end, parent, op_id, size in doc["spans"]:
            self.tracer.spans.append(
                (name, start, end, None if parent is None else parent + offset, op_id, size))
        self.cli_import_ms.append(doc["import_ms"])

    def _check(self, op, out):
        if op.key not in self.first:
            try:
                op.check(out)
            except workloads.CheckFailed as exc:
                return f"{op.module}:check: {exc}"
            self.first[op.key] = workloads.fingerprint(out)
            return None
        if workloads.fingerprint(out) != self.first[op.key]:
            return f"{op.module}:check: output differs from the op's first run"
        return None

    def run_op(self, op):
        op_id = self.next_id
        self.next_id += 1
        if op.ladder is not None:
            self.ladder[op_id] = op.ladder
        run = self._run_cli if self.wl.kind == "cli" else self._run_inprocess
        elapsed, out, failure = run(op, op_id)
        if failure is None:
            failure = self._check(op, out)
        if failure is not None:
            expected = self.wl.known_failures.get(op.key) == failure
            self.failures.append((op_id, op.key, failure.split(":", 1)[0], failure, expected))
        return elapsed, failure is None

    def phase(self, seconds):
        """Whole rounds until ``seconds`` of wall time have passed."""
        latencies, busy, attempted, rounds = [], 0.0, 0, 0
        start = perf_counter()
        while rounds == 0 or perf_counter() - start < seconds:
            order = [op for op in self.wl.ops for _ in range(op.weight)]
            self.rng.shuffle(order)
            for op in order:
                elapsed, ok = self.run_op(op)
                if self.tracer is None:
                    self.op_seconds.setdefault(op.key, []).append(elapsed)
                busy += elapsed
                attempted += 1
                if ok:
                    latencies.append(elapsed)
            rounds += 1
        return {"latencies": latencies, "busy": busy, "attempted": attempted, "rounds": rounds}


def setup_workload(name):
    """Import, build the op pool and its fixtures, run the warm-up ops."""
    wl = workloads.WORKLOADS[name]()
    warm = Runner(wl, seed=0)
    for op in wl.warmup:
        warm.run_op(op)
    return wl


def probe_setup(name):
    """Seconds from spawning a fresh process until it is ready to time ops."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--probe-setup"]
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {name} failed (exit {code})")
    return elapsed


def scipy_import_ms():
    """scipy's cumulative share of ``import trabessel.cli`` (-X importtime):
    the cumulative times of the scipy modules that have no scipy ancestor."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import trabessel.cli"],
                          capture_output=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S, text=True,
                          check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "cumulative" not in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            rows.append((depth, name.strip(), int(cumulative)))

    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    total_us, ancestors = 0, []
    # a module is printed after its imports: walking backwards meets parents first
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if is_scipy(name) and not any(is_scipy(n) for _, n in ancestors):
            total_us += cumulative
        ancestors.append((depth, name))
    return total_us / 1e3


def interp_ms():
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    return (perf_counter() - start) * 1e3


def git_sha():
    """Commit of the checkout, read from .git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, sizes):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": NPROC, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "git_sha": git_sha(),
            "blas_threads": os.environ["OMP_NUM_THREADS"], "sizes": sizes}


def end_to_end(wl, setup, timed):
    lat = sorted(timed["latencies"])
    who = resource.RUSAGE_CHILDREN if wl.kind == "cli" else resource.RUSAGE_SELF
    return {  # name -> (value, sample count)
        "setup_s": (statistics.median(setup), len(setup)),
        "op_p50_ms": (statistics.median(lat) * 1e3, len(lat)),
        "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, len(lat)),
        "ops_per_s": (timed["attempted"] / timed["busy"], timed["attempted"]),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, 1),
    }


def per_layer(wl, runner, tracer, untraced, traced):
    from tracing import layer_metrics
    metrics = layer_metrics(tracer.spans, traced["rounds"], runner.ladder)
    cli = dict.fromkeys(("cli.interp_ms", "cli.import_ms", "cli.import_scipy_ms",
                         "cli.main_ms"), 0.0)
    if wl.kind == "cli":
        cli = {"cli.interp_ms": statistics.median(interp_ms() for _ in range(3)),
               "cli.import_ms": statistics.median(runner.cli_import_ms),
               "cli.import_scipy_ms": statistics.median(scipy_import_ms() for _ in range(3)),
               "cli.main_ms": statistics.median(
                   (s[2] - s[1]) * 1e3 for s in tracer.spans if s[0] == "cli.main")}
    metrics.update(cli)
    rounds = untraced["rounds"] + traced["rounds"]
    for module in MODULES:
        metrics[f"{module}.failed"] = sum(f[2] == module for f in runner.failures) / rounds
    metrics["failed_ratio"] = len(runner.failures) / runner.next_id
    metrics["trace.overhead_ratio"] = ((untraced["attempted"] / untraced["busy"])
                                       / (traced["attempted"] / traced["busy"]))
    return metrics


def run_workload(args):
    setup = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    wl = setup_workload(args.workload)
    runner = Runner(wl, args.seed)
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = runner.phase(seconds)
    e2e = end_to_end(wl, setup, untraced)
    print(f"{wl.name}: {untraced['rounds']} rounds of {wl.ops_per_round} ops untraced")
    for name, (value, count) in e2e.items():
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]} (n={count})")
    phases = [untraced]
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, (value, _) in e2e.items()}
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        try:
            traced = runner.phase(seconds)
        finally:
            runner.tracer = None
            tracer.uninstall()
        phases.append(traced)
        layers = per_layer(wl, runner, tracer, untraced, traced)
        tracer.dump(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl.gz")
        print(f"{wl.name}: {traced['rounds']} rounds traced, {len(tracer.spans)} spans; "
              "per-layer values per round")
        for name, value in layers.items():
            print(f"  {name} = {value:.6g}")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    attempted = sum(p["attempted"] for p in phases)
    print(f"  {len(runner.failures)} of {attempted} ops failed")
    seen = set()
    for op_id, key, module, label, expected in runner.failures:
        if (key, label) not in seen:
            seen.add((key, label))
            print(f"  failure: op {key} (first id {op_id}) module {module}: {label}"
                  + ("" if expected else "  [NEW]"))
    result = {"correct": all(f[4] for f in runner.failures), "attempted": attempted,
              "failed": len(runner.failures), "metrics": metrics}
    doc = {"provenance": provenance(args, dict(wl.sizes, ops_per_round=wl.ops_per_round)),
           "result": result,
           "failures": runner.failures,
           "op_median_ms": {key: statistics.median(ts) * 1e3
                            for key, ts in sorted(runner.op_seconds.items())}}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=1))
    print(json.dumps({"provenance": doc["provenance"]}))
    return result


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_exponent", "_ratio")):
        return "ratio"
    return "count"


def run_all(args):
    """Each workload in its own process; metrics keyed workload/metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "trabessel" / "__init__.py").is_file():
        print(f"error: no trabessel package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    if args.probe_setup:
        setup_workload(args.workload)
        print("ready", flush=True)
        return 0
    OUT.mkdir(exist_ok=True)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
