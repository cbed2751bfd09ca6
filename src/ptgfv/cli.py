"""Command-line front end.

Subcommands: ``generate`` (structured meshes), ``mesh-info`` (angle/quality
report as JSON), ``solve`` (cell-centered Poisson solve with CSV/JSON
output), ``convergence`` (manufactured-solution rate table as CSV) and
``verify`` (the randomized lemma/stability suite as JSON).

Exit codes: 0 success, 1 usage, 2 I/O or parse error, 3 inadmissible mesh,
4 verification failure.  Every command is deterministic for fixed flags;
the PTG_SEED environment variable overrides the default seed 42.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import CASES, convergence_study, error_norms, lemma_suite, stability_check
from .mesh import (
    MeshError,
    MeshFormatError,
    generate_rhombus_equilateral,
    quality_report,
    read_mesh,
    write_mesh,
)
from .solver import ConvergenceError, DirichletData, assemble, flux_balance_check, solve
from .spaces import interpolate_p0

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INADMISSIBLE = 3
EXIT_VERIFY = 4

BALANCE_FACTOR = 10.0  # balance passes when max residual <= factor * tol * |b|


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _seed(flag: int | None) -> int:
    """``--seed`` if given, else PTG_SEED, else 42; a seed is an integer >= 0."""
    source = "PTG_SEED" if flag is None else "--seed"
    value = os.environ.get(source, "42") if flag is None else flag
    try:
        seed = int(value)
    except ValueError:
        raise UsageError(f"{source} must be an integer, got {value!r}") from None
    if seed < 0:
        raise UsageError(f"{source} must be >= 0, got {seed}")
    return seed


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise UsageError(f"--tol must be a positive finite number, got {tol!r}")


def _print_inadmissible(report) -> int:
    offending = {"admissible": False, "offending_edges": report.offending_edges()}
    print(json.dumps(offending, sort_keys=True))
    return EXIT_INADMISSIBLE


def _load_mesh(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise MeshError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # read_mesh ends lines at "\n" only
        raise MeshFormatError(
            f"cannot read {path}: byte 0x{data[exc.start]:02x} is not UTF-8",
            data.count(b"\n", 0, exc.start) + 1,
        ) from None
    del data  # held through the parse, the bytes add the file's size to peak memory
    return read_mesh(text)


def cmd_generate(args) -> int:
    if args.domain != "rhombus":
        raise UsageError(f"unknown domain {args.domain!r} (known: rhombus)")
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    mesh = generate_rhombus_equilateral(args.n)
    try:
        Path(args.out).write_text(write_mesh(mesh), encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_IO
    print(f"cells {mesh.num_triangles}")
    print(f"edges {mesh.num_edges}")
    print(f"h {_fmt(mesh.h_max)}")
    return EXIT_OK


def cmd_mesh_info(args) -> int:
    mesh = _load_mesh(args.mesh)
    report = quality_report(mesh)
    info = report.to_dict()
    info.update(
        {
            "vertices": mesh.num_vertices,
            "cells": mesh.num_triangles,
            "edges": mesh.num_edges,
            "internal_edges": len(mesh.internal_edges),
            "boundary_edges": len(mesh.boundary_edges),
            "h": mesh.h_max,
            "coefficient_min": float(report.coefficients.min()),
            "coefficient_max": float(report.coefficients.max()),
        }
    )
    print(json.dumps(info, indent=2, sort_keys=True))
    return EXIT_OK


def _csv_section(header: str, values: np.ndarray) -> str:
    """``header`` and one ``index,value`` line per value, the value as ``_fmt``
    writes it; all lines are formatted by one ``%`` call."""
    n = len(values)
    items = [0] * (2 * n)
    items[0::2] = range(n)
    items[1::2] = values.tolist()
    return f"{header}\n" + ("%d,%.17g\n" * n) % tuple(items)


def _write_solution(path: str, solution, tol: float, mesh_file: str) -> None:
    text = _csv_section("cell,u", solution.u) + _csv_section("edge,flux", solution.p)
    Path(path).write_text(text, encoding="utf-8")
    sidecar = {
        "mesh_file": mesh_file,
        "tol": tol,
        "iterations": solution.iterations,
        "residual": solution.residual,
    }
    Path(path + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_solve(args) -> int:
    if (args.case is None) == (args.rhs_const is None):
        raise UsageError("exactly one of --case or --rhs-const is required")
    if args.case is not None and args.case not in CASES:
        raise UsageError(f"unknown case {args.case!r} (known: {', '.join(sorted(CASES))})")
    if args.rhs_const is not None and not math.isfinite(args.rhs_const):
        raise UsageError(f"--rhs-const must be finite, got {args.rhs_const!r}")
    _check_tol(args.tol)
    mesh = _load_mesh(args.mesh)
    report = quality_report(mesh)
    if not report.admissible:
        return _print_inadmissible(report)
    if args.case is not None:
        case = CASES[args.case]
        f_t = interpolate_p0(case.f, mesh)
    else:
        case = None
        f_t = np.full(mesh.num_triangles, args.rhs_const)
    system = assemble(mesh, report.coefficients, f_t, DirichletData.zero(mesh))
    solution = solve(system, tol=args.tol)
    balance = flux_balance_check(mesh, solution, f_t)
    threshold = BALANCE_FACTOR * args.tol * system.rhs_norm
    print(f"cells {mesh.num_triangles}")
    print(f"iterations {solution.iterations}")
    print(f"residual {_fmt(solution.residual)}")
    print(f"balance_max {_fmt(balance.max_cell_residual)}")
    print(f"balance_global {_fmt(balance.global_imbalance)}")
    if case is not None:
        eu, ep, ediv = error_norms(mesh, solution, case)
        print(f"error_u {_fmt(eu)}")
        print(f"error_p {_fmt(ep)}")
        print(f"error_div {_fmt(ediv)}")
    if args.out:
        try:
            _write_solution(args.out, solution, args.tol, args.mesh)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_IO
    ok = solution.residual <= args.tol and balance.passes(threshold)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_convergence(args) -> int:
    try:
        levels = [int(part) for part in args.levels.split(",")]
    except ValueError:
        raise UsageError(f"bad levels {args.levels!r}") from None
    if len(levels) < 2:
        raise UsageError("need at least 2 levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise UsageError("levels must be strictly increasing")
    if levels[0] < 1:
        raise UsageError(f"levels must be >= 1, got {levels[0]}")
    if args.case not in CASES:
        raise UsageError(f"unknown case {args.case!r} (known: {', '.join(sorted(CASES))})")
    _check_tol(args.tol)
    report = convergence_study(CASES[args.case], levels, tol=args.tol)
    rates = [math.nan] + report.rates("combined")
    lines = ["n,h,eu,ep,ediv,combined,rate_combined"]
    for level, rate in zip(report.levels, rates):
        lines.append(
            f"{level.n},{_fmt(level.h)},{_fmt(level.eu)},{_fmt(level.ep)},"
            f"{_fmt(level.ediv)},{_fmt(level.combined)},"
            + ("" if math.isnan(rate) else _fmt(rate))
        )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK if report.final_rate("combined") >= 0.9 else EXIT_VERIFY


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    seed = _seed(args.seed)
    mesh = None
    if args.mesh:
        mesh = _load_mesh(args.mesh)
        report = quality_report(mesh)
        if not report.admissible:
            return _print_inadmissible(report)
    suite = lemma_suite(samples=args.samples, seed=seed)
    output = {"lemmas": dataclasses.asdict(suite) | {"all_passed": suite.all_passed}}
    ok = suite.all_passed
    if mesh is not None:
        try:
            stability = stability_check(mesh, trials=args.trials, seed=seed, report=report)
        except np.linalg.LinAlgError as exc:
            print(f"error: stability constants cannot be evaluated: {exc}", file=sys.stderr)
            return EXIT_VERIFY
        output["stability"] = dataclasses.asdict(stability) | {
            "all_passed": stability.all_passed,
            "max_energy_sqrt": math.sqrt(stability.max_energy),
        }
        ok = ok and stability.all_passed
    output["all_passed"] = ok
    print(json.dumps(output, indent=2, sort_keys=True))
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> _Parser:
    parser = _Parser(prog="ptgfv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a structured mesh file")
    p.add_argument("--domain", default="rhombus")
    p.add_argument("--n", type=int, required=True, help="subdivision count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("mesh-info", help="print a JSON quality report")
    p.add_argument("mesh")
    p.set_defaults(func=cmd_mesh_info)

    p = sub.add_parser("solve", help="solve the Poisson problem on a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--case", default=None)
    p.add_argument("--rhs-const", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("convergence", help="run a convergence study")
    p.add_argument("--case", default="rhombus-sine")
    p.add_argument("--levels", default="8,16,32,64")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("verify", help="run the lemma/stability suite")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--mesh", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
