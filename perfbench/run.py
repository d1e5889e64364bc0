"""Closed-loop benchmark of the domcount command line.

    python3 perfbench/run.py --workload open-poly --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; domcount is imported from ``src``.
With ``--trace 0`` the benchmark runs whole rounds until the next round would
end after ``--seconds``.  A round times the set-up once (a fresh interpreter
that imports domcount and compiles the workload's column tables), then runs
every operation of the workload, one CLI process at a time.  Every output is
checked.  With ``--trace 1`` it runs the layer pass of ``layers.py`` and one
round of the same operations in-process, under spans.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Checker, Tables
from layers import Tracer, layer_pass
from workloads import KINDS, WORKLOADS, Op, build, seeded_prime

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


@dataclass(frozen=True)
class Outcome:
    """One attempted operation: its time, peak RSS, and verdict."""

    op: Op
    seconds: float
    maxrss_kib: int
    error: str  # empty when the operation succeeded

    @property
    def failed(self) -> bool:
        return bool(self.error)


def _verdict(op: Op, returncode: int, out: str, err: str) -> str:
    if returncode != 0:
        return f"exit {returncode}: {err.strip()[-200:]}"
    try:
        op.check(out)
    except Exception as exc:  # any malformed or wrong output fails the op
        return f"{type(exc).__name__}: {exc}"
    return ""


def run_cli(op: Op, env: dict) -> Outcome:
    """Run one operation in a fresh process; wait4 gives its peak RSS,
    which covers the pool workers it waited for."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "domcount.cli", *op.args],
                            cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    reader.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(op, seconds, usage.ru_maxrss,
                   _verdict(op, proc.returncode, out, err[0]))


def run_in_process(op: Op, tracer: Tracer) -> Outcome:
    from domcount import cli

    out, err = io.StringIO(), io.StringIO()
    with tracer.span("cli.main", op=op.label) as s:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.args))
    return Outcome(op, s["end"] - s["start"], 0,
                   _verdict(op, code, out.getvalue(), err.getvalue()))


def setup_seconds(cmd: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def timed_run(ops: list[Op], seconds: float, env: dict) -> tuple[dict, list]:
    pairs = sorted({w for op in ops for w in op.widths})
    setup_cmd = [sys.executable, str(HERE / "warmup.py"),
                 *(f"{f}:{w}" for f, w in pairs)]
    # Each round is one set-up probe followed by every operation once, so
    # the set-up time is sampled across the whole run like the others.
    rounds: list[tuple[float, float, list[Outcome]]] = []
    start = time.perf_counter()
    while True:
        setup = setup_seconds(setup_cmd, env)
        t0 = time.perf_counter()
        outcomes = [run_cli(op, env) for op in ops]
        rounds.append((setup, time.perf_counter() - t0, outcomes))
        print(f"round {len(rounds)}: set-up {setup:.3f} s, ops {rounds[-1][1]:.3f} s;",
              " ".join(f"{o.seconds:.3f}" for o in outcomes), file=sys.stderr)
        typical = statistics.median(r[0] + r[1] for r in rounds)
        if time.perf_counter() - start + typical > seconds:
            break
    outcomes = [o for _, _, round_ in rounds for o in round_]
    metrics = {
        "setup_s": statistics.median(r[0] for r in rounds),
        "wall_s": statistics.median(r[1] for r in rounds),
        "peak_rss_mib": max(o.maxrss_kib for o in outcomes) / 1024,
    }
    for kind in KINDS:
        metrics[kind + "_s"] = statistics.median(
            sum(o.seconds for o in round_ if o.op.kind == kind) for _, _, round_ in rounds)
    return metrics, outcomes


def traced_run(name: str, seed: int, checker: Checker, env: dict) -> tuple[dict, list]:
    sys.path.insert(0, str(SRC))
    every = [op for w in WORKLOADS for op in build(w, seed, checker)]
    kernels = sorted({("cylinder" if f == "torus" else f, w)
                      for op in every for f, w in op.widths})
    torus_widths = sorted({w for op in every for f, w in op.widths if f == "torus"})
    tracer = Tracer()
    metrics = layer_pass(tracer, kernels, torus_widths, seeded_prime(seed, 31), env)
    outcomes = [run_in_process(op, tracer) for op in build(name, seed, checker)]
    metrics["trace.wall_s"] = sum(o.seconds for o in outcomes)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{name}.json").write_text(json.dumps(tracer.spans))
    return metrics, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "domcount" / "cli.py").is_file():
        print(f"perfbench: no domcount sources under {SRC}", file=sys.stderr)
        return 2
    checker = Checker(Tables())
    env = _env()
    if args.trace:
        metrics, outcomes = traced_run(args.workload, args.seed, checker, env)
        declared = _declared_metrics()["per_layer"]
    else:
        ops = build(args.workload, args.seed, checker)
        metrics, outcomes = timed_run(ops, args.seconds, env)
        declared = _declared_metrics()["end_to_end"]
    if set(metrics) != set(declared):
        raise RuntimeError(f"measured {sorted(metrics)}, declared {sorted(declared)}")
    for o in outcomes:
        if o.failed:
            status = "expected failure" if o.op.known_fault else "FAILED"
            print(f"{status}: {o.op.label}: {o.error}", file=sys.stderr)
    print(json.dumps({
        "correct": all(not o.failed or o.op.known_fault for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
