"""ptladder benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload ep-search --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ptladder from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones listed in
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The line before
it holds the environment block and the workload's own figures.  Files go
to ``.perfbench-out/`` under the checkout.  Exit code 0 means every check
passed; 1 means a check failed; 2 means the benchmark could not run.
"""

from __future__ import annotations

import os

# One BLAS thread per process, before numpy is imported anywhere.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 5
# Nominal time of reference_kernel(); the timed end-to-end metrics are
# scaled to a machine on which the kernel takes this long (see README).
REF_S = 0.2


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
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
    return None


def _environment(args, nproc: int, workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "workers": workers,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
    }


def reference_kernel() -> float:
    """Seconds for a fixed mix of dense eigensolves, small and batched
    numpy calls and float formatting: the kinds of work ptladder does.

    The host's speed drifts by a quarter over minutes.  The runner times
    this kernel before and after every timed call and set-up, and scales
    each of them by REF_S over the mean of the two, which cancels most of
    that drift.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    a80 = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
    a40 = a80[:40, :40].copy()
    small = rng.standard_normal((4, 3, 3)) + 3.0 * np.eye(3) + 0j
    lanes = rng.standard_normal((801, 2, 2)) + 3.0 * np.eye(2) + 0j
    floats = rng.standard_normal(8000)
    start = time.perf_counter()
    for _ in range(8):
        np.linalg.eigvals(a80)
    for _ in range(24):
        np.linalg.eigvals(a40)
    for _ in range(3000):
        np.linalg.inv(small) @ small
    for _ in range(40):
        np.linalg.inv(lanes) @ lanes
    ",".join(f"{v:.15g}" for v in floats)
    return time.perf_counter() - start


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing ptladder and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import ptladder, ptladder.cli"], cwd=ROOT, env=env, check=True, timeout=120
    )
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * 2.0 * REF_S / (ref_before + ref_after)


def _metric_block(names_units: list[tuple[str, str]], values: dict) -> dict:
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in names_units}


@dataclass
class Round:
    """Per-call seconds (raw, and scaled to the reference speed) and outputs.

    ``ref_s`` holds the reference-kernel time measured right after each call.
    """

    op_s: dict = field(default_factory=dict)
    scaled_s: dict = field(default_factory=dict)
    ref_s: dict = field(default_factory=dict)
    attempted_by_op: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    failed: int = 0
    traced: bool = False

    def total(self, ops, scaled: bool = True) -> float:
        times = self.scaled_s if scaled else self.op_s
        return sum(times[op.name] for op in ops)


def run_round(ops, ref_before: float) -> tuple[Round, float]:
    """Run each call once; time the reference kernel after each call.

    A call's scaled time is its time multiplied by REF_S over the mean of
    the reference times just before and just after it.
    """
    r = Round()
    for op in ops:
        start = time.perf_counter()
        output, attempted, failed = op.run()
        seconds = time.perf_counter() - start
        ref_after = reference_kernel()
        r.op_s[op.name] = seconds
        r.scaled_s[op.name] = _scaled(seconds, ref_before, ref_after)
        r.ref_s[op.name] = ref_after
        r.attempted_by_op[op.name] = attempted
        r.outputs[op.name] = output
        r.failed += failed
        ref_before = ref_after
    return r, ref_before


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "ptladder" / "__init__.py").is_file():
        _fail(f"no ptladder sources under {SRC}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ["PYTHONPATH"] = str(SRC)

    import ptladder

    if Path(ptladder.__file__).resolve().parent != SRC / "ptladder":
        _fail(f"imported ptladder from {ptladder.__file__}, not from {SRC}")

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    nproc = len(os.sched_getaffinity(0))
    workers = min(nproc, 4)
    OUT.mkdir(exist_ok=True)
    med = statistics.median

    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp:
        work_dir = Path(tmp)
        workload = WORKLOADS[args.workload](args.seed, args.toy, workers, work_dir)

        setup, refs = [], [reference_kernel()]
        for _ in range(1 if args.toy else SETUP_REPS):
            imported = _import_seconds()
            start = time.perf_counter()
            ops = workload.prepare()
            setup.append(imported + time.perf_counter() - start)
            refs.append(reference_kernel())

        tracer = tracing.Tracer(work_dir / "spool") if args.trace else None
        rounds, layer_rounds, spans_out = [], [], []
        ref = refs[-1]
        started = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.install()
                try:
                    r, ref = run_round(ops, ref)
                finally:
                    tracer.uninstall()
                spans = tracer.drain()
                metrics = tracing.layer_metrics(spans)
                metrics["trace.wall_s"] = r.total(ops, scaled=False)
                layer_rounds.append(metrics)
                spans_out.append(spans)
                r.traced = True
            else:
                r, ref = run_round(ops, ref)
            rounds.append(r)
            now = time.perf_counter()
            if now - started + (now - round_start) > args.seconds and (tracer is None or layer_rounds):
                break
        peak_rss = _peak_rss_mb()

        failures = workload.check(rounds[0].outputs)
        for r in rounds[1:]:
            if not all(workload.same(rounds[0].outputs[op.name], r.outputs[op.name]) for op in ops):
                failures.append("a later round did not reproduce the first round's outputs")
                break

    attempted = sum(sum(r.attempted_by_op.values()) for r in rounds)
    failed = sum(r.failed for r in rounds)
    stages = {k: [op for op in ops if op.stage == k] for k in (1, 2)}

    if tracer is None:
        values = {
            "setup_s": med([_scaled(t, a, b) for t, a, b in zip(setup, refs, refs[1:])]),
            "wall_s": med([r.total(ops) for r in rounds]),
            "stage1_s": med([r.total(stages[1]) for r in rounds]),
            "stage2_s": med([r.total(stages[2]) for r in rounds]),
            "peak_rss_mb": peak_rss,
        }
        block = spec["end_to_end"]
        missing = [m["name"] for m in block if m["name"] not in values]
        if missing:
            _fail(f"benchmark produced no value for {missing}")
    else:
        names = {k for m in layer_rounds for k in m}
        values = {k: med([m.get(k, 0.0) for m in layer_rounds]) for k in names}
        plain = [r.total(ops, scaled=False) for r in rounds if not r.traced]
        values["trace.overhead_s"] = values["trace.wall_s"] - med(plain)
        block = spec["per_layer"]
        for layer in tracing.LAYERS:
            if values[f"{layer}.self_s"] > values["trace.wall_s"]:
                failures.append(f"{layer} self time exceeds the traced round's wall time")

    # The workload's own figures, in raw seconds or per raw second.
    figures = {}
    for k, name in enumerate(workload.figures, start=1):
        per_round = []
        for r in rounds:
            seconds = r.total(stages[k], scaled=False)
            work = sum(r.attempted_by_op[op.name] for op in stages[k])
            per_round.append(work / seconds if name.endswith("_per_s") else seconds)
        figures[name] = med(per_round)
    report = {
        "environment": _environment(args, nproc, workers),
        "rounds": len(rounds),
        "traced_rounds": len(layer_rounds),
        "workload_figures": figures,
        "round_op_s": [r.op_s for r in rounds],
        "round_scaled_s": [r.scaled_s for r in rounds],
        "round_reference_s": [r.ref_s for r in rounds],
        "setup_reps_s": setup,
        "setup_reference_s": refs,
        "failures": failures,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(dict(report, spans=spans_out)) + "\n")
    for message in failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps(report))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_block([(m["name"], m["unit"]) for m in block], values),
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
