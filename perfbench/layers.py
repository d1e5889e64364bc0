"""The traced run's layer pass: spans around the benchmark's calls into
domcount's public functions, one group per module, and the per-layer metrics
read off those spans.

Spans are recorded here, at the boundary between the benchmark and each
module; nothing inside the program is instrumented.  The pass is the same
for every workload, so every traced run reports every layer metric; its
boards are the ones the workloads run.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from checks import CheckFailed

ROOT = Path(__file__).resolve().parent.parent


class Tracer:
    """In-memory spans: name, start, end, parent span id, attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span that has already ended, under the open one."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": self._open[-1] if self._open else None,
                           "start": start, "end": end, **attrs})

    def seconds(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


def _median_of_reps(tracer: Tracer, name: str, reps: int, body) -> float:
    for _ in range(reps):
        with tracer.span(name):
            body()
    return statistics.median(tracer.seconds(name))


def _row_gaps(tracer: Tracer, name: str, run) -> float:
    """Median time between successive rows of a sweep.  `run` gets a
    per-row callback; each gap becomes a child span of `name`."""
    marks = []
    with tracer.span(name) as parent:
        run(lambda *_: marks.append(time.perf_counter()))
        rows = list(zip([parent["start"]] + marks, marks))
        for r, (a, b) in enumerate(rows, 1):
            tracer.add(name + ".row", a, b, row=r)
    return statistics.median(b - a for a, b in rows)


def layer_pass(tracer: Tracer, widths, torus_widths, p31: int, env: dict) -> dict:
    """Run every layer probe once; returns {metric name: value}."""
    from domcount import analysis, engine, rings, signatures

    out = {}
    workers = os.cpu_count() or 1  # what the CLI's default pool uses

    # Column tables compile on first use; the first call of each (kernel,
    # width) is cold, an identical second call warm.  Runs first, while
    # this process has compiled nothing.
    compile_s = 0.0
    for family, width in widths:
        with tracer.span("engine.count_series.cold", family=family, width=width) as cold:
            engine.count_series(family, width, 1)
        with tracer.span("engine.count_series.warm", family=family, width=width) as warm:
            engine.count_series(family, width, 1)
        compile_s += (cold["end"] - cold["start"]) - (warm["end"] - warm["start"])
    out["engine.compile_s"] = compile_s

    all_widths = sorted({w for _, w in widths})
    out["signatures.codes_s"] = _median_of_reps(
        tracer, "signatures.signature_codes", 11,
        lambda: [signatures.signature_codes(w, cyclic=c)
                 for w in all_widths for c in (False, True)])
    out["signatures.orbits_s"] = _median_of_reps(
        tracer, "signatures.dihedral_orbits", 5,
        lambda: [signatures.dihedral_orbits(w) for w in torus_widths])

    exact = []
    out["engine.poly_exact_row_s"] = _row_gaps(
        tracer, "engine.polynomial_series.exact",
        lambda cb: exact.extend(engine.polynomial_series("cylinder", 8, 9,
                                                         progress=cb)))
    out["engine.poly_mod_row_s"] = _row_gaps(
        tracer, "engine.polynomial_series.mod",
        lambda cb: engine.polynomial_series("grid", 9, 9, ring=rings.Ring(p31),
                                            progress=cb))

    def count_rows(cb):
        for n, _ in zip(range(11), engine.iter_counts("grid", 11)):
            cb(n)
    out["engine.count_row_s"] = _row_gaps(tracer, "engine.iter_counts", count_rows)

    with tracer.span("engine.gamma_series") as s:
        for m in range(1, 12):
            engine.gamma_series("cylinder", m, 24)
    out["engine.gamma_s"] = s["end"] - s["start"]
    with tracer.span("engine.mincount_series") as s:
        for m in range(1, 11):
            engine.mincount_series("grid", m, 10)
            engine.mincount_series("king", m, 12)
    out["engine.ngamma_s"] = s["end"] - s["start"]

    with tracer.span("engine.torus_polynomial") as s:
        engine.torus_polynomial(7, 7, workers=workers)
    out["engine.torus_poly_s"] = s["end"] - s["start"]
    with tracer.span("engine.count_series.torus") as s:
        engine.count_series("torus", 7, 7)
    out["engine.torus_count_s"] = s["end"] - s["start"]
    with tracer.span("engine.gamma_series.torus") as s:
        for m in range(5, 8):
            engine.gamma_series("torus", m, 10)
    out["engine.torus_gamma_s"] = s["end"] - s["start"]
    with tracer.span("engine.mincount_series.torus") as s:
        engine.mincount_series("torus", 7, 7)
    out["engine.torus_ngamma_s"] = s["end"] - s["start"]

    # CRT over 16-bit residues of the exact cylinder 8x9 polynomial
    poly = exact[-1].coefficients
    primes = rings.select_moduli(8 * 9 + 1, 16).primes
    residues = [(p, [c % p for c in poly]) for p in primes]
    out["rings.crt_s"] = _median_of_reps(
        tracer, "rings.crt_reconstruct", 11,
        lambda: rings.crt_reconstruct(residues))
    if list(rings.crt_reconstruct(residues).coefficients) != list(poly):
        raise CheckFailed("crt_reconstruct does not give back the exact polynomial")

    with tracer.span("analysis.growth_rate_m") as s:
        for m in range(3, 12):
            analysis.growth_rate_m("grid", m)
    out["analysis.strip_s"] = s["end"] - s["start"]
    with tracer.span("analysis.estimate_growth"):
        est = analysis.estimate_growth("grid", 3, 11, workers=workers)
    out["analysis.strip_rows"] = sum(s.n_used for s in est.samples)
    points = [(1 / s.m, s.mu) for s in est.samples]
    out["analysis.extrapolate_s"] = _median_of_reps(
        tracer, "analysis.bulirsch_stoer_extrapolate", 11,
        lambda: analysis.bulirsch_stoer_extrapolate(points))

    startup = [sys.executable, "-m", "domcount.cli", "count", "--family", "grid",
               "-m", "1", "-n", "1"]
    out["cli.startup_s"] = _median_of_reps(
        tracer, "cli.startup", 5,
        lambda: subprocess.run(startup, cwd=ROOT, env=env, check=True,
                               stdout=subprocess.DEVNULL))
    return out
