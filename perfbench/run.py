"""Benchmark of the hardyworlds model checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It drives the package in ``src/`` through
its public functions and through its command line (``python -m
hardyworlds``, the same entry point as the installed ``hardyworlds``
script), checks every result against ``reference.py``, and prints one JSON
object as its last line: ``correct``, ``attempted`` (results checked),
``failed`` (results that raised, exited wrongly or disagreed with the
reference) and ``metrics``.  Human-readable lines before it repeat every
metric with its unit and sample count, ``fail_ratio`` and the run metadata.

Workloads, each a closed loop with one client on one thread:

* ``cli-cold``: one fresh ``python -m hardyworlds`` process per op, one at a
  time, over rounds that run each of the seven subcommands once with
  seeded model sources, frames, localities and formats.
* ``check-formulas``: one op parses a distinct random formula and checks it
  against one of twelve prebuilt models, in process.
* ``family-sweep``: one op builds a model's table and worlds and runs the
  suite, flow, frame comparison and LHV analyses; every pass over the 76
  seeded models ends with one ``hardy_scan``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of five fresh processes that import
  hardyworlds and build the workload's inputs;
* ``ops_per_s``: ops divided by the summed op time;
* ``latency_ms.p50`` and ``latency_ms.p90``: op time percentiles;
* ``peak_rss_mb``: peak RSS of the process doing the work (median over CLI
  children in cli-cold);
* ``scan_ms``: median time of ``hardy_scan()`` returning p_best within 1e-9
  of (5 sqrt 5 - 11)/2, run after every batch (ten in a row before the
  children in cli-cold) and timed apart from the ops.

Every time above is scaled to a nominal machine speed by calibration
samples taken around it (see ``calibration.py``); the unscaled figures are
printed in the ``meta`` line and kept in ``.perfbench_work/*/result.json``.

``--trace 1`` reports per-layer metrics of one fixed unit of work, with
spans recorded around public calls (see ``tracing.py``).  In process, the
unit is the workload's package-side set-up plus one pass: for
check-formulas, building its models, the headline check, the same 1000
formula ops each time and one scan; for family-sweep, the headline check
and one pass.  For cli-cold it is the first round of seven invocations,
each in a child that runs under ``-X importtime``.  Units alternate with
untraced ones until ``--seconds`` have passed; counts come from one unit
and must repeat in every unit, times are unscaled medians over units, and
``trace.overhead_pct`` compares traced with untraced units.  Import times
and ``cli.child_cpu_ms`` come from fresh children: the CLI children in
cli-cold, three set-up children elsewhere.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from calibration import NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-cold", "check-formulas", "family-sweep")
SETUP_RUNS = 5
TRACE_SETUP_RUNS = 3
BATCH_OPS = 1000
CALIBRATE_EVERY = 250
CLI_SCANS = 10
CHILD_TIMEOUT_S = 60.0
BLAS_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "scan_ms": "ms",
}


# ---------------------------------------------------------------- helpers

@dataclass
class Tally:
    """Results checked against the reference, and the ones that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list[str], what: str = "") -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{what}: {'; '.join(problems)}"[:2000])


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(argv: list[str], work: Path) -> Child:
    """Run one child to completion, timing it from spawn to reaping, and
    read its resource usage from ``wait4``."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            returncode=proc.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
        )


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def latency_metrics(latencies: list[float]) -> dict:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_ms.p50": statistics.median(latencies) * 1e3,
        "latency_ms.p90": p90(latencies) * 1e3,
    }


class Timings:
    """Measured times by kind, each kept raw and with the calibration factor
    of the stretch it was measured in (see ``calibration.py``)."""

    def __init__(self) -> None:
        from calibration import Calibration

        self.calibration = Calibration()
        # arrays, so that a run that gets through more ops grows its memory less
        self.raw = {kind: array("d") for kind in ("setup", "op", "scan")}
        self.scaled = {kind: array("d") for kind in ("setup", "op", "scan")}

    def add(self, kind: str, times: list[float]) -> None:
        """Times measured since the last calibration sample."""
        factor = self.calibration.scale()
        self.raw[kind].extend(times)
        self.scaled[kind].extend(t * factor for t in times)

    def metrics(self, scaled: bool = True) -> dict:
        times = self.scaled if scaled else self.raw
        metrics = latency_metrics(times["op"])
        metrics["scan_ms"] = statistics.median(times["scan"]) * 1e3
        metrics["setup_s"] = statistics.median(times["setup"])
        return metrics


def setup_probes(args, work: Path, count: int, importtime: bool, timings=None) -> list[Child]:
    """Fresh processes that import hardyworlds and build this workload's
    inputs, then exit; ``timings`` collects their calibrated wall times."""
    argv = [sys.executable]
    if importtime:
        argv += ["-X", "importtime"]
    argv += [
        str(BENCH / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--trace", "0",
        "--setup-only",
    ]
    children = []
    for _ in range(count):
        if timings is not None:
            timings.calibration.start()
        child = run_child(argv, work)
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed ({child.returncode}):\n{child.stderr}")
        if timings is not None:
            timings.add("setup", [child.wall_s])
        children.append(child)
    return children


def import_metrics(children: list[Child]) -> dict:
    from tracing import IMPORT_PACKAGES, import_breakdown

    breakdowns = [import_breakdown(c.stderr) for c in children]
    metrics = {
        f"import.{name}_ms": statistics.median(b[name] for b in breakdowns)
        for name in IMPORT_PACKAGES
    }
    metrics["cli.child_cpu_ms"] = statistics.median(c.cpu_s for c in children) * 1e3
    return metrics


def timed_scan(tally: Tally, timings: Timings) -> None:
    """One scan, timed right after the previous stretch closed."""
    import inprocess

    start = time.perf_counter()
    result = guarded(inprocess.scan_op)
    timings.add("scan", [time.perf_counter() - start])
    tally.record(inprocess.scan_mismatches(result), "hardy_scan")


def guarded(call):
    """Run one op; an exception is its result, to be counted as a failure."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - any raise is a failed op
        return exc


# ----------------------------------------------------------------- set-up

@dataclass
class Inputs:
    workload: str
    seed: int
    work: Path
    headline: object = None
    file_source: object = None
    model_path: str = ""
    pairs: list = field(default_factory=list)
    models: list = field(default_factory=list)
    ref_models: list = field(default_factory=list)
    stream: object = None
    items: list = field(default_factory=list)


def setup(workload: str, seed: int, work: Path) -> Inputs:
    """Import the package and build the workload's generated inputs."""
    import hardyworlds  # noqa: F401 - the import is part of set-up
    import inputs as gen
    import reference as ref

    found = Path(hardyworlds.__file__).resolve()
    if not found.is_relative_to(SRC.resolve()):
        raise RuntimeError(f"hardyworlds was imported from {found}, not from {SRC}")
    s = Inputs(workload, seed, work)
    if workload == "cli-cold":
        x = gen.cli_file_x(seed)
        path = work / "model.json"
        path.write_text(json.dumps(gen.family_document(x), indent=2) + "\n", encoding="utf-8")
        s.model_path = str(path.relative_to(ROOT))
        s.file_source = gen.Source("document", document=gen.family_document(x), label="file")
        return s
    import inprocess

    s.headline = guarded(inprocess.headline_op)
    if workload == "check-formulas":
        s.pairs = gen.formula_models(seed)
        s.models = inprocess.build_models(s.pairs)
        s.ref_models = [ref.Model(src.probabilities(), frame) for src, frame in s.pairs]
        s.stream = gen.FormulaStream(gen.rng_for(workload, seed, "formulas"))
    else:
        s.items = gen.sweep_items(seed)
    return s


# ------------------------------------------------------- in-process work

def formula_ops(s: Inputs, models: list, batch: list, first_op: int, timings=None):
    """Time each op of a batch of (tree, text) formulas; with ``timings``,
    hand it the times every CALIBRATE_EVERY ops."""
    import inprocess
    from reference import LOCALITIES

    latencies, outputs = [], []
    for i, (tree, text) in enumerate(batch, start=first_op):
        k = i % len(models)
        locality = LOCALITIES[(i // len(models)) % 2]
        start = time.perf_counter()
        result = guarded(lambda: inprocess.formula_op(text, models[k], locality))
        latencies.append(time.perf_counter() - start)
        outputs.append((tree, k, locality, result))
        if timings is not None and len(latencies) % CALIBRATE_EVERY == 0:
            timings.add("op", latencies[-CALIBRATE_EVERY:])
    if timings is not None and len(latencies) % CALIBRATE_EVERY:
        timings.add("op", latencies[-(len(latencies) % CALIBRATE_EVERY):])
    return latencies, outputs


def check_formula_outputs(s: Inputs, outputs: list, tally: Tally) -> None:
    import inprocess

    for tree, k, locality, result in outputs:
        tally.record(
            inprocess.formula_mismatches(result, tree, s.ref_models[k], locality),
            f"check {tree}",
        )


def sweep_ops(s: Inputs, timings=None):
    """Time each model analysis of one pass; with ``timings``, hand it the
    times every CALIBRATE_EVERY // 20 ops, about as much work as
    CALIBRATE_EVERY formula ops."""
    import inprocess

    every = CALIBRATE_EVERY // 20
    latencies, outputs = [], []
    for index, (source, frame, locality) in enumerate(s.items):
        start = time.perf_counter()
        result = guarded(lambda: inprocess.sweep_op(source, frame, locality))
        latencies.append(time.perf_counter() - start)
        outputs.append((index, result))
        if timings is not None and len(latencies) % every == 0:
            timings.add("op", latencies[-every:])
    if timings is not None and len(latencies) % every:
        timings.add("op", latencies[-(len(latencies) % every):])
    return latencies, outputs


def check_sweep_outputs(s: Inputs, outputs: list, expected: dict, tally: Tally) -> None:
    import inprocess

    for index, result in outputs:
        source, frame, locality = s.items[index]
        if index not in expected:
            expected[index] = inprocess.sweep_expected(source, frame, locality)
        tally.record(inprocess.sweep_mismatches(result, expected[index]), source.label)


def run_check_formulas(s: Inputs, seconds: float, tally: Tally, timings: Timings) -> dict:
    """Batches of formula ops, each followed by one scan, until the ops
    have taken ``seconds``; the first batch is a warm-up."""
    next_op, warm = 0, True
    while warm or sum(timings.raw["op"]) < seconds:
        batch = s.stream.take(BATCH_OPS)
        timings.calibration.start()
        _, outputs = formula_ops(s, s.models, batch, next_op, None if warm else timings)
        next_op += len(batch)
        if not warm:
            timed_scan(tally, timings)
        check_formula_outputs(s, outputs, tally)
        warm = False
    return {"samples": len(timings.raw["op"]), "scan_samples": len(timings.raw["scan"])}


def run_family_sweep(s: Inputs, seconds: float, tally: Tally, timings: Timings) -> dict:
    """Passes over the models, each ending with a scan, until the ops have
    taken ``seconds``; the first pass is a warm-up."""
    expected: dict = {}
    warm = True
    while warm or sum(timings.raw["op"]) < seconds:
        timings.calibration.start()
        _, outputs = sweep_ops(s, None if warm else timings)
        if not warm:
            timed_scan(tally, timings)
        check_sweep_outputs(s, outputs, expected, tally)
        warm = False
    return {"samples": len(timings.raw["op"]), "scan_samples": len(timings.raw["scan"])}


# ---------------------------------------------------------------- cli-cold

def cli_argv(s: Inputs, inv) -> list[str]:
    return [sys.executable, "-m", "hardyworlds", *inv.argv(s.model_path)]


def check_cli(inv, child: Child, cache: dict, tally: Tally) -> None:
    import cli_cold

    want = cli_cold.expected(inv, cache)
    problems = cli_cold.mismatches(inv, want, child.returncode, child.stdout)
    if problems and child.stderr:
        problems.append(f"stderr: {child.stderr[-500:]}")
    tally.record(problems, " ".join(inv.argv("MODEL_FILE")))


def run_cli_cold(s: Inputs, seconds: float, tally: Tally, timings: Timings) -> dict:
    """CLI_SCANS scans in the parent, then whole rounds of CLI children until
    they have taken ``seconds``.  The scans come first, as in the other
    workloads, because scans taken right after the children read up to
    twice as slow as the calibration explains."""
    import inprocess
    import inputs as gen

    tally.record(inprocess.scan_mismatches(guarded(inprocess.scan_op)), "hardy_scan")
    timings.calibration.start()
    for _ in range(CLI_SCANS):
        timed_scan(tally, timings)
    cache: dict = {}
    rss = []
    rounds = 0
    while sum(timings.raw["op"]) < seconds:
        for inv in gen.cli_round(s.seed, rounds, s.file_source):
            timings.calibration.start()
            child = run_child(cli_argv(s, inv), s.work)
            timings.add("op", [child.wall_s])
            rss.append(child.rss_mb)
            check_cli(inv, child, cache, tally)
        rounds += 1
    return {"peak_rss_mb": statistics.median(rss), "samples": len(rss), "rounds": rounds}


# ------------------------------------------------------------ traced runs

def package_modules() -> dict:
    from hardyworlds import analysis, formulas, modelio, quantum, semantics, worlds

    return {
        "analysis": analysis,
        "formulas": formulas,
        "modelio": modelio,
        "quantum": quantum,
        "semantics": semantics,
        "worlds": worlds,
    }


def unit_runner(s: Inputs):
    """The in-process unit of work, and the function that checks its output."""
    import inprocess

    if s.workload == "check-formulas":
        batch = s.stream.take(BATCH_OPS)

        def unit():
            models = inprocess.build_models(s.pairs)
            headline = guarded(inprocess.headline_op)
            _, outputs = formula_ops(s, models, batch, 0)
            return headline, outputs, guarded(inprocess.scan_op)

        def check(result, tally):
            headline, outputs, scan = result
            tally.record(inprocess.headline_mismatches(headline), "headline")
            check_formula_outputs(s, outputs, tally)
            tally.record(inprocess.scan_mismatches(scan), "hardy_scan")

        return unit, check

    expected: dict = {}

    def unit():
        headline = guarded(inprocess.headline_op)
        _, outputs = sweep_ops(s)
        return headline, outputs, guarded(inprocess.scan_op)

    def check(result, tally):
        headline, outputs, scan = result
        tally.record(inprocess.headline_mismatches(headline), "headline")
        check_sweep_outputs(s, outputs, expected, tally)
        tally.record(inprocess.scan_mismatches(scan), "hardy_scan")

    return unit, check


def traced_inprocess(args, s: Inputs, tally: Tally) -> dict:
    from tracing import Tracer, layer_counts, layer_times, summarize

    children = setup_probes(args, s.work, TRACE_SETUP_RUNS, importtime=True)
    unit, check = unit_runner(s)
    tracer = Tracer(package_modules())
    check(unit(), tally)  # warm-up
    plain, traced, times, counts = [], [], [], None
    first_spans = None
    deadline = time.perf_counter() + args.seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        start = time.perf_counter()
        result = unit()
        plain.append(time.perf_counter() - start)
        check(result, tally)

        tracer.install()
        start = time.perf_counter()
        try:
            result = unit()
        finally:
            traced.append(time.perf_counter() - start)
            tracer.uninstall()
        check(result, tally)
        spans = tracer.take()
        summary = summarize(spans)
        unit_counts = layer_counts(summary)
        if counts is None:
            counts, first_spans = unit_counts, spans
        tally.record(
            [] if unit_counts == counts else [f"counts {unit_counts} != {counts}"],
            "trace counts",
        )
        times.append(layer_times(summary))
    write_json(s.work / "spans.json", {"unit": 0, "spans": first_spans})
    metrics = import_metrics(children)
    metrics.update(counts)
    metrics.update({k: statistics.median(t[k] for t in times) for k in times[0]})
    metrics["trace.overhead_pct"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    ) * 100.0
    return {"metrics": metrics, "units": len(traced)}


def traced_cli_cold(args, s: Inputs, tally: Tally) -> dict:
    import inputs as gen
    from collections import Counter

    from tracing import layer_counts, layer_times

    cache: dict = {}
    invocations = gen.cli_round(s.seed, 0, s.file_source)
    plain_walls, traced_walls, children, times, counts = [], [], [], [], None
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        summary: Counter = Counter()
        for i, inv in enumerate(invocations):
            child = run_child(cli_argv(s, inv), s.work)
            plain_walls.append(child.wall_s)
            check_cli(inv, child, cache, tally)

            spans_path = s.work / f"spans-{rounds}-{i}.json"
            child = run_child(
                [sys.executable, "-X", "importtime", str(BENCH / "cli_child.py"),
                 str(spans_path), *inv.argv(s.model_path)],
                s.work,
            )
            traced_walls.append(child.wall_s)
            children.append(child)
            check_cli(inv, child, cache, tally)
            if spans_path.is_file():
                summary.update(json.loads(spans_path.read_text(encoding="utf-8"))["summary"])
        round_counts = layer_counts(summary)
        if counts is None:
            counts = round_counts
        tally.record(
            [] if round_counts == counts else [f"counts {round_counts} != {counts}"],
            "trace counts",
        )
        times.append(layer_times(summary))
        rounds += 1
    metrics = import_metrics(children)
    metrics.update(counts)
    metrics.update({k: statistics.median(t[k] for t in times) for k in times[0]})
    metrics["trace.overhead_pct"] = (sum(traced_walls) / sum(plain_walls) - 1.0) * 100.0
    return {"metrics": metrics, "units": rounds}


# ------------------------------------------------------------------ output

def write_json(path: Path, document) -> None:
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref_line = head.read_text(encoding="utf-8").strip()
        if ref_line.startswith("ref: "):
            return (ROOT / ".git" / ref_line[5:]).read_text(encoding="utf-8").strip()
        return ref_line
    except OSError:
        return "unknown"


def version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit(),
        "blas_env": {k: os.environ[k] for k in BLAS_VARIABLES if k in os.environ},
    }


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("chars_per_s"):
        return "chars/s"
    if name.endswith("_pct"):
        return "%"
    if ".per_" in name:
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hardyworlds" / "__init__.py").is_file():
        print(f"error: no hardyworlds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-trace{args.trace}"
    if args.setup_only:
        setup(args.workload, args.seed, work)
        return 0
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    tally = Tally()
    timings = None if args.trace else Timings()
    if timings is not None:
        setup_probes(args, work, SETUP_RUNS, importtime=False, timings=timings)
    s = setup(args.workload, args.seed, work)
    if args.workload != "cli-cold":
        import inprocess

        tally.record(inprocess.headline_mismatches(s.headline), "headline")
    if args.trace:
        runner = traced_cli_cold if args.workload == "cli-cold" else traced_inprocess
        outcome = runner(args, s, tally)
    else:
        runner = {
            "cli-cold": run_cli_cold,
            "check-formulas": run_check_formulas,
            "family-sweep": run_family_sweep,
        }[args.workload]
        outcome = runner(s, args.seconds, tally, timings)
        rss = outcome.pop(
            "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        outcome["metrics"] = {**timings.metrics(), "peak_rss_mb": rss}
        outcome["uncalibrated"] = timings.metrics(scaled=False)
        samples = timings.calibration.samples
        outcome["calibration_ms"] = {
            "median": statistics.median(samples) * 1e3,
            "min": min(samples) * 1e3,
            "max": max(samples) * 1e3,
            "nominal": NOMINAL_S * 1e3,
        }

    metrics = {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in sorted(outcome.pop("metrics").items())
    }
    info = {**metadata(args), **outcome}
    for problem in tally.problems:
        print(f"failure: {problem}", file=sys.stderr)
    print(f"meta: {json.dumps(info, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    write_json(work / "result.json", {**result, "meta": info, "problems": tally.problems})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
