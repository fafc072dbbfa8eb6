#!/usr/bin/env python3
"""Round-trip benchmark of elastic_dtn: forward symbol levels, then recovery.

Usage (from the repository root):

    python3 perfbench/run.py --workload deep-2d --seed 1 --seconds 30 --trace 0

A single-process, single-threaded, closed loop: each case is one seeded
random scene, run forward (scene -> p-levels) and then recovered (levels ->
inverse metric and its normal derivatives), and the next case starts only
when the previous one has finished.  Scenes are generated before timing
starts; one untimed warm-up case precedes the timed ones.  Set-up time is
measured in fresh interpreters started between cases.  Every case is
checked outside the timed region against the scene's true inverse-metric
jets, masked to the stated accuracy, at 1e-6 relative.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced cases, wraps the public
functions of every layer (see ``tracer.py``) around the traced ones and
reports the per-layer metrics, including the tracing overhead.  Per-case
counts and seconds are medians over the traced cases.

The last stdout line is the result object; the full report (environment,
percentiles, sample counts, error rate) goes to ``.bench_out/``.
"""

from __future__ import annotations

import os

# one thread for every numerical library; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# fresh-interpreter set-up probes per run, spread over the timed loop so
# that they see the same host conditions as the cases
SETUP_REPEATS = 9
TOLERANCE = 1e-6
POOL_SIZE = 160  # distinct scenes per run; a longer run cycles through them
HARD_LIMIT_S = 140.0  # no case starts after this much time in the process
PERCENTILES = (50, 75, 90, 95, 99)
LAYERS = ("jets", "geometry", "symbols", "recovery", "scenes", "serialize",
          "cli", "bench")

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Workload:
    dimension: int
    truncation: int
    order: int
    files: bool  # through the CLI with documents on disk, else in memory


WORKLOADS = {
    "deep-2d": Workload(2, 10, 7, files=False),
    "wide-3d": Workload(3, 7, 4, files=False),
    "files-4d": Workload(4, 5, 2, files=True),
}
MAX_ACCURACY = max(w.truncation for w in WORKLOADS.values())
MAX_LEVEL = max(w.order for w in WORKLOADS.values())


class CaseFailure(Exception):
    """A case finished but its output is wrong."""


@dataclass
class CaseTiming:
    forward_s: float
    recover_s: float

    @property
    def case_s(self) -> float:
        return self.forward_s + self.recover_s


@dataclass
class Samples:
    case_s: list = field(default_factory=list)
    forward_s: list = field(default_factory=list)
    recover_s: list = field(default_factory=list)

    def add(self, timing: CaseTiming) -> None:
        self.case_s.append(timing.case_s)
        self.forward_s.append(timing.forward_s)
        self.recover_s.append(timing.recover_s)


def load_package():
    """Import elastic_dtn from this checkout's ``src``, nowhere else."""
    if not (SRC / "elastic_dtn" / "__init__.py").is_file():
        raise ImportError(f"no elastic_dtn package under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("elastic_dtn")
    for name in ("jets", "geometry", "symbols", "recovery", "scenes",
                 "serialize", "cli"):
        importlib.import_module(f"elastic_dtn.{name}")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"elastic_dtn was imported from {pkg.__file__}")
    return pkg


def measure_setup(workload: Workload) -> dict:
    """Import plus first-use tables, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
         str(workload.dimension), str(workload.truncation)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if SRC.resolve() not in Path(result["module"]).resolve().parents:
        raise RuntimeError(f"set-up probe imported {result['module']}")
    return result


# -- one case ------------------------------------------------------------


def _stage(tracer, name):
    return tracer.stage_span(name) if tracer else contextlib.nullcontext()


def run_memory_case(pkg, scene, order, tracer=None):
    """Forward then recover in memory through the library functions."""
    symbols, recovery = pkg.symbols, pkg.recovery
    t0 = perf_counter()
    with _stage(tracer, "forward"):
        ctx = symbols.build_context(scene.metric, scene.lame, scene.context)
        levels = symbols.dtn_symbols(ctx, order)
    t1 = perf_counter()
    with _stage(tracer, "recover"):
        observed = recovery.ObservedSymbols(levels, scene.lame, scene.context)
        data = recovery.recover_full(observed, order)
    t2 = perf_counter()
    return CaseTiming(t1 - t0, t2 - t1), data, levels


def run_files_case(pkg, scene_path, order, workdir, tracer=None):
    """CLI ``forward`` then ``recover --order`` on files, in this process."""
    symbols_path = str(workdir / "symbols.json")
    recovered_path = str(workdir / "recovered.json")
    forward_argv = ["forward", "--config", str(scene_path),
                    "--order", str(order), "--out", symbols_path]
    recover_argv = ["recover", "--symbols", symbols_path,
                    "--order", str(order), "--out", recovered_path]
    messages = io.StringIO()
    with contextlib.redirect_stdout(messages), \
            contextlib.redirect_stderr(messages):
        t0 = perf_counter()
        with _stage(tracer, "forward"):
            forward_code = pkg.cli.main(forward_argv)
        t1 = perf_counter()
        with _stage(tracer, "recover"):
            recover_code = (pkg.cli.main(recover_argv)
                            if forward_code == 0 else None)
        t2 = perf_counter()
    if forward_code != 0 or recover_code != 0:
        raise CaseFailure(f"CLI exit codes forward={forward_code} "
                          f"recover={recover_code}: {messages.getvalue()}")
    with open(recovered_path, "r", encoding="utf-8") as fh:
        data = pkg.serialize.recovered_from_json(json.load(fh))
    return CaseTiming(t1 - t0, t2 - t1), data, None


def true_blocks(pkg, scene, order):
    """Boundary values of g^{ab} and its normal derivatives 1..order."""
    current = pkg.jets.mat_inverse(scene.metric.tangential_matrix())
    out = [current.at_boundary()]
    for _ in range(order):
        current = current.dx(scene.dimension - 1)
        out.append(current.at_boundary())
    return out


def check_case(pkg, scene, order, data) -> tuple[float, int]:
    """Worst relative error over orders 0..order and the summed accuracy.

    Differences are masked to the trusted degree of the recovered block,
    as the ``roundtrip`` command masks them.
    """
    if len(data.normal_derivs) != order:
        raise CaseFailure(f"recovered {len(data.normal_derivs)} orders, "
                          f"expected {order}")
    truth = true_blocks(pkg, scene, order)
    nn = scene.dimension - 1
    worst = 0.0
    accuracy = 0
    for m in range(order + 1):
        block = data.g_inv if m == 0 else data.normal_derivs[m - 1]
        accuracy += min(block[a][b].accuracy
                        for a in range(nn) for b in range(nn))
        for a in range(nn):
            for b in range(nn):
                diff = (block[a][b] - truth[m][a, b]).max_abs()
                scale = max(truth[m][a, b].max_abs(), 1.0)
                worst = max(worst, diff / scale)
    if not worst <= TOLERANCE:
        raise CaseFailure(f"relative error {worst:.3g} exceeds {TOLERANCE:g}")
    return worst, accuracy


# -- statistics ------------------------------------------------------------


def tail_summary(values: list) -> dict:
    """Median plus the highest percentile with at least ten samples beyond."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "p50": statistics.median(ordered) if n else None,
               "tail_percentile": None, "tail_value": None, "values": values}
    for p in PERCENTILES:
        rank = -(-p * n // 100)  # nearest rank, 1-based
        if rank >= 1 and n - rank >= 10:
            summary["tail_percentile"] = p
            summary["tail_value"] = ordered[rank - 1]
    return summary


def median_or_none(values):
    return statistics.median(values) if values else None


def layer_metrics(cases: list[dict], pairs: int, tables_s: float,
                  traced: list, untraced: list, rel_errors: list) -> dict:
    """Per-layer metrics: medians over traced cases of per-case values."""
    stages = ("forward", "recover")

    def per_case(fn):
        return median_or_none([fn(c) for c in cases])

    def total(c, key, only=stages):
        return sum(c.get((stage, key), 0.0) for stage in only)

    def mul_seconds(c):
        return sum(v for (_, key), v in c.items()
                   if key.startswith("jets.mul.acc") and key.endswith(".s"))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}

    def mul_block(prefix, only):
        calls = lambda c: total(c, "jets.mul.calls", only)  # noqa: E731
        out[f"{prefix}jets.mul.calls"] = per_case(calls)
        out[f"{prefix}jets.mul.pairs"] = per_case(lambda c: calls(c) * pairs)
        out[f"{prefix}jets.mul.useful_pair_ratio"] = per_case(
            lambda c: ratio(total(c, "jets.mul.useful", only), calls(c) * pairs))
        out[f"{prefix}jets.mul.const_operand_ratio"] = per_case(
            lambda c: ratio(total(c, "jets.mul.const", only), calls(c)))

    mul_block("", stages)
    for stage in stages:
        mul_block(f"{stage}.", (stage,))
    out["jets.mul.s"] = per_case(mul_seconds)
    for acc in range(MAX_ACCURACY + 1):
        for suffix in ("calls", "s"):
            key = f"jets.mul.acc{acc}.{suffix}"
            out[key] = per_case(lambda c, k=key: total(c, k))
    for name in ("jets.scalar_mul", "jets.matmul", "jets.reciprocal",
                 "jets.sqrt", "jets.mat_inverse", "geometry.prepare",
                 "symbols.build_context", "symbols.dtn_symbols",
                 "recovery.build_context", "recovery.dtn_symbols",
                 "scenes.load_scene", "scenes.atomic_write_json",
                 "serialize.symbols_to_json", "serialize.observed_from_json",
                 "serialize.recovered_to_json", "cli.forward", "cli.recover"):
        for suffix in ("calls", "s"):
            key = f"{name}.{suffix}"
            out[key] = per_case(lambda c, k=key: total(c, k))
    for level in range(MAX_LEVEL + 1):
        key = f"symbols.q_level{level}.s"
        out[key] = per_case(lambda c, k=key: total(c, k, ("forward",)))
    for order in range(MAX_LEVEL + 1):
        key = f"recovery.order{order}.s"
        out[key] = per_case(lambda c, k=key: total(c, k))
    for layer in LAYERS:
        key = f"{layer}.self.s"
        out[key] = per_case(lambda c, k=key: total(c, k))
    out["jets.tables.s"] = tables_s
    out["recovery.rel_error.max"] = max(rel_errors) if rel_errors else None
    traced_p50 = median_or_none(traced)
    untraced_p50 = median_or_none(untraced)
    out["trace.traced_case_p50_s"] = traced_p50
    out["trace.untraced_case_p50_s"] = untraced_p50
    out["trace.overhead_ratio"] = (traced_p50 / untraced_p50 - 1.0
                                   if traced_p50 and untraced_p50 else None)
    return out


# -- environment -------------------------------------------------------------


def environment(pkg) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "package": str(Path(pkg.__file__).resolve().relative_to(ROOT)),
    }


def cpu_model() -> str | None:
    try:
        import cpuinfo
    except ImportError:
        return None
    return cpuinfo.get_cpu_info().get("brand_raw")


# -- the run -------------------------------------------------------------------


def make_pool(pkg, workload: Workload, seed: int, workdir: Path) -> list:
    """(case seed, scene, scene path or None) for every pooled case."""
    rng = random.Random(seed)
    pool = []
    for index in range(POOL_SIZE):
        case_seed = rng.randrange(2 ** 31)
        scene = pkg.scenes.random_scene(
            case_seed, dimension=workload.dimension,
            truncation_order=workload.truncation, order=workload.order)
        path = None
        if workload.files:
            path = workdir / f"scene-{index}.json"
            path.write_text(pkg.scenes.canonical_json(
                pkg.scenes.scene_to_json(scene)), encoding="utf-8")
        pool.append((case_seed, scene, path))
    return pool


def run(args, benchmark: dict) -> dict:
    started = perf_counter()
    load_start = os.getloadavg()
    pkg = load_package()
    workload = WORKLOADS[args.workload]
    order = workload.order

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(pkg)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        pool = make_pool(pkg, workload, args.seed, workdir)

        def run_case(index, traced):
            _, scene, path = pool[index % len(pool)]
            active = tracer if traced else None
            if active:
                active.begin_case(index)
                active.install()
            try:
                if workload.files:
                    return run_files_case(pkg, path, order, workdir, active)
                return run_memory_case(pkg, scene, order, active)
            finally:
                if active:
                    active.uninstall()

        def file_bytes():
            return ((workdir / "symbols.json").read_bytes(),
                    (workdir / "recovered.json").read_bytes())

        # untimed warm-up on the first scene, which the first timed case
        # repeats: in files-4d the two must write byte-identical documents
        warm_bytes, doc_bytes, expected_case_s = None, [], 0.0
        try:
            warm_timing, _, warm_levels = run_case(0, traced=False)
            expected_case_s = warm_timing.case_s
            if workload.files:
                warm_bytes = file_bytes()
            else:
                _, scene, _ = pool[0]
                doc = pkg.serialize.symbols_to_json(warm_levels, scene.lame,
                                                    scene.context)
                doc_bytes.append(
                    len(pkg.scenes.canonical_json(doc).encode("utf-8")))
        except Exception:  # the timed cases fail too and are counted
            traceback.print_exc(file=sys.stderr)

        samples, traced_case_s, untraced_case_s = Samples(), [], []
        counters, rel_errors, accuracies, failures = [], [], [], []
        attempted = 0
        min_cases = 2 if tracer else 1  # a traced run needs a traced case
        setups, probe_s = [], 0.0
        loop_start = perf_counter()
        while True:
            now = perf_counter()
            measuring = now - loop_start - probe_s
            if attempted >= min_cases and (
                    measuring + expected_case_s > args.seconds
                    or now - started > HARD_LIMIT_S):
                break
            if (len(setups) < SETUP_REPEATS
                    and measuring >= len(setups) * args.seconds / SETUP_REPEATS):
                setups.append(measure_setup(workload))
                probe_s += perf_counter() - now
            traced = bool(tracer) and attempted % 2 == 1
            index = attempted
            attempted += 1
            _, scene, _ = pool[index % len(pool)]
            gc.collect()
            try:
                timing, data, _ = run_case(index, traced)
                if traced:
                    counters.append(tracer.end_case())
                    traced_case_s.append(timing.case_s)
                else:
                    untraced_case_s.append(timing.case_s)
                    samples.add(timing)
                expected_case_s = statistics.median(
                    traced_case_s + untraced_case_s)
                error, accuracy = check_case(pkg, scene, order, data)
                rel_errors.append(error)
                accuracies.append(accuracy)
                if workload.files:
                    doc_bytes.append(
                        (workdir / "symbols.json").stat().st_size)
                    if index == 0 and file_bytes() != warm_bytes:
                        raise CaseFailure("repeated case wrote different "
                                          "documents")
            except Exception as exc:  # count it and keep the loop going
                failures.append({"case": index,
                                 "case_seed": pool[index % len(pool)][0],
                                 "error": repr(exc)})
                traceback.print_exc(file=sys.stderr)
        measured_s = perf_counter() - loop_start - probe_s
        while len(setups) < SETUP_REPEATS:
            setups.append(measure_setup(workload))

    setup_s = statistics.median(r["setup_s"] for r in setups)
    tables_s = statistics.median(r["tables_s"] for r in setups)

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    completed = len(samples.case_s)
    end_to_end = {
        "case_p50_s": median_or_none(samples.case_s),
        "forward_p50_s": median_or_none(samples.forward_s),
        "recover_p50_s": median_or_none(samples.recover_s),
        "cases_per_s": (completed / sum(samples.case_s)
                        if completed else None),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "recovered_accuracy": median_or_none(accuracies),
        "symbols_doc_bytes": median_or_none(doc_bytes),
    }
    per_layer = {}
    if tracer:
        pairs = tracer.pair_counts(pool[0][1].context)[0]
        per_layer = layer_metrics(counters, pairs, tables_s, traced_case_s,
                                  untraced_case_s, rel_errors)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else end_to_end
    metrics = {}
    for spec in benchmark[section]:
        value = values[spec["name"]]
        if value is None:  # only when cases failed
            if not failures:
                raise RuntimeError(f"no samples for metric {spec['name']}")
            continue
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}

    report = {
        "workload": args.workload,
        "shape": {"n": workload.dimension, "K": workload.truncation,
                  "M": order},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured_s": measured_s,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "timings": {
            "case_s": tail_summary(samples.case_s),
            "forward_s": tail_summary(samples.forward_s),
            "recover_s": tail_summary(samples.recover_s),
            "setup_s": tail_summary([r["setup_s"] for r in setups]),
        },
        "setup_runs": setups,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "environment": {
            **environment(pkg),
            "cpu": cpu_model(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
    }
    report_path = OUT / (f"report-{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    report_path.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")
    print(f"{args.workload}: {attempted} cases, {len(failures)} failed, "
          f"{measured_s:.1f} s measured; report in "
          f"{report_path.relative_to(ROOT)}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    try:
        result = run(args, benchmark)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
