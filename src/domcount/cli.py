"""Command-line interface: polynomials, tables, growth reports, sequence
export, and self-verification.

Exit codes: 0 success, 2 resource guard exceeded (or a run that refused to
converge), 3 verification mismatch, 4 bad arguments.  All data output goes
to stdout and is byte-deterministic for a fixed request; progress and
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from typing import Callable, Optional, Sequence

from . import engine
from .errors import GuardExceeded, VerificationError
from .rings import EXACT, Polynomial, Ring
from .signatures import count_signatures

EXIT_OK = 0
EXIT_GUARD = 2
EXIT_MISMATCH = 3
EXIT_USAGE = 4

_PROGRESS_CELLS = 400  # emit per-row progress past this instance size


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve that
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _integer(lo: int, hi: Optional[int] = None) -> Callable[[str], int]:
    """An argparse type: an integer in lo..hi, or at least lo for no hi."""
    def integer(text: str) -> int:  # argparse names a ValueError by it
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(
                f"must be at least {lo}" if hi is None
                else f"must be in {lo}..{hi}")
        return value
    return integer


def _range(text: str) -> range:
    """An argparse type: range(LO, HI + 1) from LO:HI, or from one value
    LO, with 1 <= LO <= HI."""
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi or lo)
        if 1 <= lo <= hi:
            return range(lo, hi + 1)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"bad range {text!r}, expected LO:HI with 1 <= LO <= HI")


def _build_parser() -> _Parser:
    parser = _Parser(prog="domcount",
                     description="Exact domination polynomial counting on "
                                 "grid, cylinder, torus, and king lattices.")
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _integer(1)

    def common(p, ranges=False):
        p.add_argument("--family", required=True, choices=engine.FAMILIES)
        if ranges:
            p.add_argument("--m-range", type=_range, default="1:8")
            p.add_argument("--n-range", type=_range, default="1:8")
        else:
            p.add_argument("-m", type=positive, required=True)
            p.add_argument("-n", type=positive, required=True)
        p.add_argument("--max-states", type=positive,
                       default=engine.DEFAULT_GUARDS.max_states)
        p.add_argument("--max-mem", type=positive,
                       default=engine.DEFAULT_GUARDS.max_memory_bytes,
                       help="bytes; DOMCOUNT_MAX_MEM overrides")

    p = sub.add_parser("poly", help="full domination polynomial")
    common(p)
    p.add_argument("--workers", type=_integer(0), default=0,
                   help="0 = use available parallelism")
    p.add_argument("--mod", type=int, default=None, metavar="P")
    p.add_argument("--format", default="text", choices=("text", "json", "csv"))

    p = sub.add_parser("count", help="number of dominating sets")
    common(p)

    p = sub.add_parser("table", help="gamma / ngamma / total over ranges")
    p.add_argument("kind", choices=("gamma", "ngamma", "total"))
    common(p, ranges=True)
    p.add_argument("--format", default="csv", choices=("csv", "json"))

    p = sub.add_parser("growth", help="growth constant estimate")
    p.add_argument("--family", required=True, choices=engine.FAMILIES)
    p.add_argument("--m-range", type=_range, default="3:12")
    p.add_argument("--digits", type=int, default=13)
    p.add_argument("--n-cap", type=positive, default=400)
    p.add_argument("--workers", type=_integer(0), default=0)
    p.add_argument("--format", default="json", choices=("json", "text"))
    # no guard options, but growth's and oeis's sweeps honour DOMCOUNT_MAX_MEM
    no_guards = dict(max_states=engine.DEFAULT_GUARDS.max_states,
                     max_mem=engine.DEFAULT_GUARDS.max_memory_bytes)
    p.set_defaults(**no_guards)

    p = sub.add_parser("oeis", help="emit a registered sequence as b-file lines")
    p.add_argument("id")
    p.add_argument("--limit", type=positive, default=8)
    p.set_defaults(**no_guards)

    p = sub.add_parser("verify", help="self-check against oracle and tables")
    p.add_argument("--max-cells", type=_integer(1, 24), default=16)
    return parser


def _guards(args: argparse.Namespace) -> engine.Guards:
    return engine.Guards(args.max_states, args.max_mem)


# ------------------------------------------------------------------ output

def _render_poly(poly: Polynomial, fmt: str) -> str:
    poly = poly.trimmed()
    if fmt == "text":
        return poly.to_text() + "\n"
    md = poly.min_degree()
    md = 0 if md is None else md
    coeffs = list(poly.coefficients)[md:]
    if fmt == "json":
        return json.dumps({"minDegree": md,
                           "coefficients": [str(c) for c in coeffs]}) + "\n"
    lines = ["degree,coefficient"]
    lines += [f"{md + i},{c}" for i, c in enumerate(coeffs)]
    return "\n".join(lines) + "\n"


def _progress_printer(cells: int) -> Callable[[int, int, str], None]:
    """Report every block of a split sweep, and rows past _PROGRESS_CELLS."""
    def show(done: int, total: int, unit: str) -> None:
        if unit == "block" or cells >= _PROGRESS_CELLS:
            print(f"{unit} {done}/{total}", file=sys.stderr, flush=True)
    return show


def cmd_poly(args: argparse.Namespace) -> int:
    spec = engine.GraphSpec(args.family, args.m, args.n)
    poly = engine.domination_polynomial(
        spec, ring=EXACT if args.mod is None else Ring(args.mod),
        guards=_guards(args), workers=args.workers or os.cpu_count() or 1,
        progress=_progress_printer(spec.cells))
    sys.stdout.write(_render_poly(poly, args.format))
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    spec = engine.GraphSpec(args.family, args.m, args.n)
    sys.stdout.write(f"{engine.count_dominating(spec, _guards(args))}\n")
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    ms, ns = list(args.m_range), list(args.n_range)
    values = engine.table_values(args.kind, args.family,
                                 [(m, n) for n in ns for m in ms],
                                 _guards(args))
    rows = [values[i:i + len(ms)] for i in range(0, len(values), len(ms))]
    if args.format == "json":
        if args.kind != "gamma":
            rows = [[str(v) for v in row] for row in rows]
        sys.stdout.write(json.dumps(
            {"kind": args.kind, "family": args.family, "m_values": ms,
             "n_values": ns, "rows": rows}) + "\n")
        return EXIT_OK
    lines = ["n/m," + ",".join(str(m) for m in ms)]
    lines += [f"{n}," + ",".join(str(v) for v in row)
              for n, row in zip(ns, rows)]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_growth(args: argparse.Namespace) -> int:
    from . import analysis
    est = analysis.estimate_growth(
        args.family, args.m_range[0], args.m_range[-1],
        precision_digits=args.digits, n_cap=args.n_cap,
        workers=args.workers or os.cpu_count() or 1, guards=_guards(args))
    if args.format == "json":
        sys.stdout.write(json.dumps(est.to_json()) + "\n")
        return EXIT_OK
    lines = [f"m={s.m} n_used={s.n_used} mu_m={analysis.nstr(s.mu, 20)}"
             for s in est.samples]
    lines.append(f"mu = {analysis.nstr(est.mu, 20)} (error ~ "
                 f"{analysis.nstr(est.error, 5)})")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ------------------------------------------------------------ OEIS registry

def _antidiagonal(k: int) -> list[tuple[int, int]]:
    """The first k cells (m, n) of the antidiagonals m + n = 2, 3, ...,
    m ascending along each."""
    cells, d = [], 2
    while len(cells) < k:
        cells += [(m, d - m) for m in range(1, d)]
        d += 1
    return cells[:k]


def _diagonal(k: int) -> list[tuple[int, int]]:
    return [(n, n) for n in range(1, k + 1)]


def _sequence(kind: str, family: str, cells: Callable):
    return lambda k, guards: engine.table_values(kind, family, cells(k), guards)


def _king_gamma(k: int, guards: engine.Guards) -> list[int]:
    from . import analysis
    return [analysis.gamma_closed_form("king", m, n)
            for m, n in _antidiagonal(k)]


# id -> (first index, generator of the first k terms under guards, description)
OEIS_REGISTRY: dict[str, tuple[int, Callable[[int, engine.Guards], list[int]],
                               str]] = {
    "A001333": (1, lambda k, _: [count_signatures(m) for m in range(1, k + 1)],
                "signature counts a(m), m >= 1"),
    "A078057": (0, lambda k, _: [count_signatures(m) for m in range(0, k)],
                "signature counts a(m), m >= 0"),
    "A030270": (1, lambda k, _: [count_signatures(m, "reflection_reduced")
                                 for m in range(1, k + 1)],
                "signatures up to reflection"),
    "A124696": (1, lambda k, _: [count_signatures(m, "cyclic")
                                 for m in range(1, k + 1)],
                "cyclic signature counts"),
    "A208716": (1, lambda k, _: [count_signatures(m, "dihedral")
                                 for m in range(1, k + 1)],
                "cyclic signatures up to rotation and reflection"),
    "A104519": (1, _sequence("gamma", "grid", _diagonal),
                "gamma of the n x n grid"),
    "A094087": (1, _sequence("gamma", "torus", _diagonal),
                "gamma of the n x n torus"),
    "A075561": (1, _king_gamma, "gamma of the m x n king lattice"),
    "A133515": (1, _sequence("total", "grid", _diagonal),
                "dominating sets of the n x n grid"),
    "A133791": (1, _sequence("total", "king", _diagonal),
                "dominating sets of the n x n king"),
    "A303334": (1, _sequence("total", "torus", _diagonal),
                "dominating sets of the n x n torus"),
    "A286914": (1, _sequence("total", "cylinder", _diagonal),
                "dominating sets of the n x n cylinder"),
    "A218354": (1, _sequence("total", "grid", _antidiagonal),
                "dominating sets of the m x n grid, antidiagonals"),
    "A218663": (1, _sequence("total", "king", _antidiagonal),
                "dominating sets of the m x n king, antidiagonals"),
    "A286514": (1, _sequence("total", "cylinder", _antidiagonal),
                "dominating sets of the m x n cylinder, antidiagonals"),
    "A347632": (1, _sequence("ngamma", "grid", _diagonal),
                "minimum dominating sets, n x n grid"),
    "A347554": (1, _sequence("ngamma", "king", _diagonal),
                "minimum dominating sets, n x n king"),
    "A347557": (1, _sequence("ngamma", "torus", _diagonal),
                "minimum dominating sets, n x n torus"),
    "A350820": (1, _sequence("ngamma", "grid", _antidiagonal),
                "minimum dominating sets, m x n grid, antidiagonals"),
    "A350815": (1, _sequence("ngamma", "king", _antidiagonal),
                "minimum dominating sets, m x n king, antidiagonals"),
}


def cmd_oeis(args: argparse.Namespace) -> int:
    entry = OEIS_REGISTRY.get(args.id)
    if entry is None:
        raise ValueError(f"unknown sequence id {args.id!r}; known: "
                         + ", ".join(sorted(OEIS_REGISTRY)))
    offset, gen, _ = entry
    for i, v in enumerate(gen(args.limit, _guards(args)), start=offset):
        sys.stdout.write(f"{i} {v}\n")
    return EXIT_OK


# ----------------------------------------------------------------- verify

def _load_fixture(name: str) -> dict:
    return json.loads(resources.files("domcount.data").joinpath(name).read_text())


def _fixture_poly(data: dict, family: str, n: int) -> tuple[int, list[int], list[str]]:
    fix = data["polynomials"][family][str(n)]
    coeffs = list(fix["coefficients"])
    md = fix["min_degree"]
    notes = []
    for e in data.get("errata", []):
        if e["family"] == family and e["n"] == n and md <= e["degree"] < md + len(coeffs):
            coeffs[e["degree"] - md] = e["corrected"]
            notes.append(f"known erratum at z^{e['degree']}: printed "
                         f"{e['printed']}, corrected {e['corrected']}")
    return md, coeffs, notes


def cmd_verify(args: argparse.Namespace) -> int:
    from . import oracle
    report = []
    failures = []

    def check(label: str, got, want, note: str = "") -> None:
        if got == want:
            suffix = f" ({note})" if note else ""
            report.append(f"ok {label}{suffix}")
        else:
            failures.append((label, got, want))
            report.append(f"FAIL {label}: got {got}, want {want}")

    for family in engine.FAMILIES:
        for m in range(1, args.max_cells + 1):
            for n in range(1, args.max_cells // m + 1):
                spec = engine.GraphSpec(family, m, n)
                got = engine.domination_polynomial(spec).trimmed()
                want = oracle.brute_force_polynomial(
                    spec, cell_guard=args.max_cells).trimmed()
                if got.coefficients != want.coefficients:
                    diff = next(d for d in range(max(got.degree(), want.degree()) + 1)
                                if got.coefficient(d) != want.coefficient(d))
                    check(f"oracle {family} {m}x{n}",
                          f"z^{diff} coefficient {got.coefficient(diff)}",
                          f"{want.coefficient(diff)}")
                else:
                    check(f"oracle {family} {m}x{n}", True, True)

    appendix = _load_fixture("appendix_polynomials.json")
    for family in engine.FAMILIES:
        for n in range(1, 7):
            md, coeffs, notes = _fixture_poly(appendix, family, n)
            got = engine.domination_polynomial(engine.GraphSpec(family, n, n)).trimmed()
            check(f"appendix {family} {n}x{n}",
                  (got.min_degree(), list(got.coefficients)[md:]),
                  (md, coeffs), "; ".join(notes))

    totals = _load_fixture("grid_totals.json")
    got = engine.table_values("total", "grid", [(n, n) for n in range(1, 7)])
    for n, total in enumerate(got, 1):
        check(f"totals grid {n}x{n}", total, totals[str(n)])

    gamma_rows = _load_fixture("cylinder_gamma.json")["rows"]
    cells = [(m, n) for m in range(1, 9) for n in range(1, 9)]
    got = engine.table_values("gamma", "cylinder", cells)
    for m in range(1, 9):
        check(f"gamma cylinder column m={m}", got[8 * (m - 1):8 * m],
              [gamma_rows[n - 1][m - 1] for n in range(1, 9)])

    mindom = _load_fixture("mindom.json")
    merr = {(e["family"], e["n"]): e for e in mindom.get("errata", [])}
    for family in engine.FAMILIES:
        ns = [n for n in range(2, 9) if str(n) in mindom[family]]
        got = engine.table_values("ngamma", family, [(n, n) for n in ns])
        for n, cnt in zip(ns, got):
            want, note = mindom[family][str(n)], ""
            if (family, n) in merr:
                e = merr[(family, n)]
                want = e["corrected"]
                note = (f"known erratum: table prints {e['printed']}, "
                        f"corrected {e['corrected']}")
            check(f"ngamma {family} {n}x{n}", cnt, want, note)

    for line in report:
        sys.stdout.write(line + "\n")
    sys.stdout.write(f"{len(report) - len(failures)}/{len(report)} checks passed\n")
    if failures:
        label, got, want = failures[0]
        raise VerificationError(f"{label}: got {got}, want {want}")
    return EXIT_OK


# ------------------------------------------------------------------- main

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        env = os.environ.get("DOMCOUNT_MAX_MEM")
        if env is not None:
            try:
                args.max_mem = _integer(1)(env)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                parser.error(f"DOMCOUNT_MAX_MEM: {exc}")
        # looked up per call, so that cmd_* can be replaced
        return globals()[f"cmd_{args.command}"](args)
    except GuardExceeded as exc:
        print(f"domcount: guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except VerificationError as exc:
        print(f"domcount: verification mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"domcount: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"domcount: aborted: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
