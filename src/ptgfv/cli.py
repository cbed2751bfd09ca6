"""Command-line front end.

Subcommands: ``generate`` (structured meshes), ``mesh-info`` (angle/quality
report as JSON), ``solve`` (cell-centered Poisson solve with CSV/JSON
output), ``convergence`` (manufactured-solution rate table as CSV) and
``verify`` (the randomized lemma suite and the stability checks as JSON).

Exit codes: 0 success, 1 usage, 2 I/O or parse error, 3 inadmissible mesh,
4 verification failure.  Every command is deterministic for fixed flags;
the PTG_SEED environment variable overrides the default seed 42.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .solver import ConvergenceError, assemble, flux_balance_check, solve
from .spaces import interpolate_p0

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INADMISSIBLE = 3
EXIT_VERIFY = 4

BALANCE_FACTOR = 10.0  # balance passes when max residual <= factor * tol * |b|
MIN_COMBINED_RATE = 0.9  # ``convergence`` passes when the last combined rate
MIN_ECC_RATE = 1.8       # and the last circumcenter rate reach these


class UsageError(Exception):
    pass


class OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _seed(flag: int | None) -> int:
    """``--seed`` if given, else PTG_SEED, else 42; a seed is an integer in
    0..2^64 - 1, the seeds of the package's SplitMix64 stream."""
    source = "PTG_SEED" if flag is None else "--seed"
    value = os.environ.get(source, "42") if flag is None else flag
    try:
        seed = int(value)
    except ValueError:
        raise UsageError(f"{source} must be an integer, got {value!r}") from None
    if not 0 <= seed < 1 << 64:
        raise UsageError(f"{source} must be >= 0 and below 2**64, got {seed}")
    return seed


def _finite_or_null(value):
    """``value`` with every non-finite float in it replaced by None: strict
    JSON (RFC 8259) has no NaN or infinity."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise UsageError(f"--tol must be a positive finite number, got {tol!r}")


def _print_inadmissible(report) -> int:
    offending = {"admissible": False, "offending_edges": report.offending_edges()}
    print(json.dumps(offending, sort_keys=True))
    return EXIT_INADMISSIBLE


def _write_out(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from None


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
    _write_out(args.out, write_mesh(mesh))
    print(f"cells {mesh.num_triangles}")
    print(f"edges {mesh.num_edges}")
    print(f"h {_fmt(mesh.h_max)}")
    return EXIT_OK


def cmd_mesh_info(args) -> int:
    mesh = _load_mesh(args.mesh)
    report = quality_report(mesh)
    info = {
        "theta_min": report.theta_min,
        "theta_max": report.theta_max,
        "theta_min_degrees": math.degrees(report.theta_min),
        "theta_max_degrees": math.degrees(report.theta_max),
        "all_acute": report.all_acute,
        "admissible": report.admissible,
        "offending_edges": report.offending_edges(),
        "vertices": mesh.num_vertices,
        "cells": mesh.num_triangles,
        "edges": mesh.num_edges,
        "internal_edges": len(mesh.internal_edges),
        "boundary_edges": len(mesh.boundary_edges),
        "h": mesh.h_max,
        "coefficient_min": float(mesh.coefficients.min()),
        "coefficient_max": float(mesh.coefficients.max()),
    }
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
    _write_out(path, _csv_section("cell,u", solution.u) + _csv_section("edge,flux", solution.p))
    sidecar = {
        "mesh_file": mesh_file,
        "tol": tol,
        "iterations": solution.iterations,
        "residual": solution.residual,
    }
    _write_out(path + ".json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


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
    system = assemble(mesh, mesh.coefficients, f_t)
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
        _write_solution(args.out, solution, args.tol, args.mesh)
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
    rates, rates_ecc = ([""] + [_fmt(r) for r in report.rates(key)] for key in ("combined", "ecc"))
    lines = ["n,h,eu,ep,ediv,combined,rate_combined,ecc,rate_ecc"]
    for level, rate, rate_ecc in zip(report.levels, rates, rates_ecc):
        lines.append(
            f"{level.n},{_fmt(level.h)},{_fmt(level.eu)},{_fmt(level.ep)},"
            f"{_fmt(level.ediv)},{_fmt(level.combined)},{rate},{_fmt(level.ecc)},{rate_ecc}"
        )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        _write_out(args.out, text)
    ok = (report.final_rate("combined") >= MIN_COMBINED_RATE
          and report.final_rate("ecc") >= MIN_ECC_RATE)
    return EXIT_OK if ok else EXIT_VERIFY


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
        stability = stability_check(mesh, trials=args.trials)
        output["stability"] = dataclasses.asdict(stability) | {
            "all_passed": stability.all_passed,
            "max_energy_sqrt": math.sqrt(stability.max_energy),
        }
        ok = ok and stability.all_passed
    output["all_passed"] = ok
    # strict JSON: a non-finite value, such as the -inf slack of a NaN sample, prints as null
    print(json.dumps(_finite_or_null(output), indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK if ok else EXIT_VERIFY


# Flags that take a number.  argparse reads a value such as ``-1e-3`` as an
# option (it knows negative numbers only without an exponent), so ``main``
# joins a negative number to its flag, or to an abbreviation of the flag,
# with "=", as the user may write it.
NUMBER_FLAGS = ("--rhs-const", "--tol")


def _is_number_flag(token: str) -> bool:
    return len(token) > 2 and any(flag.startswith(token) for flag in NUMBER_FLAGS)


def _is_negative_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


def _join_negative_numbers(argv: list[str]) -> list[str]:
    joined: list[str] = []
    for token in argv:
        if joined and _is_number_flag(joined[-1]) and _is_negative_number(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


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


# Built on the first call of ``main`` and reused: each parse fills a new
# namespace from the flags and their defaults, so no call sees another's.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_join_negative_numbers(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MeshError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
