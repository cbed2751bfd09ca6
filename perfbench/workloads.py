"""The three benchmark workloads.

Each workload makes its inputs from a seed in ``setup``, runs one op per
``run(i)`` call (the only part that is timed) and checks that op's output in
``check(i, result)``, which returns the list of problems found; an empty list
means the op is correct.  Checks use relative tolerances only, because the
results change in the last digits with the BLAS thread count.

``ptgfv`` is imported by the caller before a workload is built, so that its
import counts in the set-up time; every program call goes through a module
attribute (``cli.main``, ``solver.solve``, ...) looked up at call time, so
span wrappers installed on those attributes see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ptgfv import analysis, cli, dual, mesh, solver, spaces

S3 = math.sqrt(3.0)
TOL = 1e-10                 # 90x above the conditioning floor at n=128
BALANCE_FACTOR = 10.0       # per-cell balance limit is FACTOR * TOL * |b|, as in the CLI
JITTER = 0.15               # interior vertices move by at most JITTER * h per coordinate
JITTER_ERROR_BOUND = 0.15   # jittered-mesh error norms within 15% of the equilateral ones
SWEEP_ERROR_BOUND = 1e-6    # a direct solve at the same tol moves them by < 1e-12
VERIFY_TRIALS = 100         # the CLI default of ``verify --trials``


@dataclass(frozen=True)
class Size:
    n: int                  # rhombus subdivisions of the cli-solve and source-sweep meshes
    verify_n: int           # rhombus subdivisions of the verify mesh
    samples: int            # ``verify --samples``
    modes: tuple            # (k, l) skew-sine source modes of source-sweep


SIZES = {
    "full": Size(n=128, verify_n=32, samples=10000,
                 modes=tuple((k, l) for k in range(1, 5) for l in range(1, 5))),
    "toy": Size(n=8, verify_n=8, samples=100, modes=((1, 1), (1, 2))),
}

# (error_u, error_p, error_div) of the rhombus-sine case on the equilateral
# rhombus mesh, at tol=1e-10.
EQUILATERAL_ERRORS = {
    8: (0.06089936580715065, 0.34773510988909645, 2.1086901426458784),
    128: (0.0038067453599972727, 0.02183410285646592, 0.13253540012196324),
}

# (error_u, error_p, error_div) of each skew-sine mode on the equilateral
# rhombus mesh, at tol=1e-10.
SWEEP_ERRORS = {
    8: {
        (1, 1): (0.06089936580715065, 0.34773510988909645, 2.1086901426458784),
        (1, 2): (0.0960326212487743, 0.8342896909920311, 7.609969603963448),
    },
    128: {
        (1, 1): (0.0038067453599972727, 0.02183410285646592, 0.13253540012196324),
        (1, 2): (0.006018928302621494, 0.052582705855113814, 0.48177180535198216),
        (1, 3): (0.008511896548363986, 0.10194177826264997, 1.2622327695159758),
        (1, 4): (0.01109788472912313, 0.1705231931787795, 2.680730822039299),
        (2, 1): (0.006018928302621471, 0.05258270585511365, 0.4817718053519823),
        (2, 2): (0.007613425631636036, 0.087332221955494, 1.0602130612674079),
        (2, 3): (0.009705065062769094, 0.13979575041201633, 2.125341636432739),
        (2, 4): (0.01203735785413022, 0.210312671809243, 3.8535904783967294),
        (3, 1): (0.008511896548363979, 0.10194177826264987, 1.2622327695159747),
        (3, 2): (0.009705065062769106, 0.13979575041201578, 2.1253416364327378),
        (3, 3): (0.01141980121178843, 0.19648256284099616, 3.5778245959128316),
        (3, 4): (0.013458020145785008, 0.2707330195072207, 5.756615502335402),
        (4, 1): (0.011097884729123129, 0.170523193178779, 2.6807308220393002),
        (4, 2): (0.01203735785413023, 0.21031267180924293, 3.8535904783967307),
        (4, 3): (0.013458020145785014, 0.2707330195072204, 5.756615502335404),
        (4, 4): (0.015225694426903958, 0.34926619408773196, 8.479460552715489),
    },
}


class SetupError(RuntimeError):
    """A workload could not make its inputs."""


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``ptgfv <argv>`` in-process; return exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def rhombus_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and triangles of ``generate_rhombus_equilateral(n)``, in its order."""
    j, i = np.divmod(np.arange((n + 1) ** 2), n + 1)
    vertices = np.column_stack([i / n + j / (2 * n), j * S3 / (2 * n)])
    jj, ii = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    a = jj * (n + 1) + ii
    b, c = a + 1, a + n + 1
    d = c + 1
    triangles = np.stack([np.stack([a, b, c], -1), np.stack([b, d, c], -1)], axis=2)
    return vertices, triangles.reshape(-1, 3)


def jittered_rhombus_grid(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The rhombus grid with interior vertices moved by at most JITTER * h per
    coordinate; the same draw as the test suite's ``jittered_rhombus``."""
    vertices, triangles = rhombus_grid(n)
    j, i = np.divmod(np.arange((n + 1) ** 2), n + 1)
    interior = (i > 0) & (i < n) & (j > 0) & (j < n)
    shift = np.random.default_rng(seed).uniform(-JITTER / n, JITTER / n, size=vertices.shape)
    vertices[interior] += shift[interior]
    return vertices, triangles


def mesh_text(vertices: np.ndarray, triangles: np.ndarray) -> str:
    """The ``ptg-mesh 1`` text format, as a mesh generator outside ptgfv writes it."""
    lines = ["ptg-mesh 1", f"{len(vertices)} {len(triangles)}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in vertices.tolist()]
    lines += [f"{i} {j} {k}" for i, j, k in triangles.tolist()]
    return "\n".join(lines) + "\n"


def rhombus_counts(n: int) -> tuple[int, int]:
    """Cells and edges of the n-subdivided rhombus."""
    return 2 * n * n, 3 * n * n + 2 * n


def relative_misses(names, values, reference, bound: float) -> list[str]:
    """One problem per value farther than ``bound`` (relative) from its reference."""
    return [
        f"{name} {value:.6g} differs from {ref:.6g} by more than {bound:g} (relative)"
        for name, value, ref in zip(names, values, reference)
        if not abs(value / ref - 1.0) <= bound
    ]


def skew_sine_case(k: int, l: int) -> analysis.ManufacturedCase:
    """u = sin(k pi xi) sin(l pi eta) in the rhombus' skew coordinates
    xi = x - y/sqrt(3), eta = 2y/sqrt(3); (1, 1) is the built-in rhombus-sine."""
    a, b = k * math.pi, l * math.pi

    def skew(x, y):
        return x - y / S3, 2.0 * y / S3

    def u(x, y):
        xi, eta = skew(x, y)
        return np.sin(a * xi) * np.sin(b * eta)

    def f(x, y):
        xi, eta = skew(x, y)
        return (4.0 / 3.0) * (
            (a * a + b * b) * np.sin(a * xi) * np.sin(b * eta)
            + a * b * np.cos(a * xi) * np.cos(b * eta)
        )

    def grad_u(x, y):
        xi, eta = skew(x, y)
        cs = a * np.cos(a * xi) * np.sin(b * eta)
        sc = b * np.sin(a * xi) * np.cos(b * eta)
        return cs, -cs / S3 + 2.0 * sc / S3

    return analysis.ManufacturedCase(
        name=f"skew-sine-{k}-{l}", generator=mesh.generate_rhombus_equilateral,
        u=u, f=f, grad_u=grad_u,
    )


class CliSolve:
    """``ptgfv solve --case rhombus-sine`` on a seeded jittered mesh file."""

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.n = size.n
        self.seed = seed
        self.mesh_file = workdir / "jittered.msh"
        self.out_file = workdir / "solution.csv"

    def setup(self) -> None:
        self.mesh_file.write_text(mesh_text(*jittered_rhombus_grid(self.n, self.seed)))

    def input_key(self, i: int):
        return self.seed

    def mesh_input(self):
        return jittered_rhombus_grid(self.n, self.seed)

    def run(self, i: int):
        self.out_file.unlink(missing_ok=True)
        return run_cli([
            "solve", "--mesh", str(self.mesh_file), "--case", "rhombus-sine",
            "--tol", repr(TOL), "--out", str(self.out_file),
        ])

    def check(self, i: int, result) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"solve exited {code}: {err.strip()}"]
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        cells, edges = rhombus_counts(self.n)
        problems = []
        if fields.get("cells") != str(cells):
            problems.append(f"cells {fields.get('cells')}, expected {cells}")
        if not float(fields["residual"]) <= TOL:
            problems.append(f"residual {fields['residual']} above {TOL}")
        with self.out_file.open(encoding="utf-8") as fh:
            rows = sum(1 for _ in fh)
        if rows != cells + edges + 2:
            problems.append(f"{rows} CSV rows, expected {cells + edges + 2}")
        errors = [float(fields[k]) for k in ("error_u", "error_p", "error_div")]
        problems += relative_misses(
            ("error_u", "error_p", "error_div"), errors,
            EQUILATERAL_ERRORS[self.n], JITTER_ERROR_BOUND,
        )
        return problems


class SourceSweep:
    """Library use: one mesh and its coefficients, then a sweep of sources."""

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.n = size.n
        self.modes = size.modes
        self.rng = np.random.default_rng(seed)
        self.sequence: list[tuple[int, int]] = []
        self.reference = SWEEP_ERRORS[size.n]

    def setup(self) -> None:
        self.mesh = mesh.generate_rhombus_equilateral(self.n)
        self.coeffs = dual.cotan_coefficients(self.mesh)
        self.bc = solver.DirichletData.zero(self.mesh)
        self.cases = {mode: skew_sine_case(*mode) for mode in self.modes}

    def input_key(self, i: int):
        # every mode once per cycle, in a new seeded order each cycle
        while len(self.sequence) <= i:
            self.sequence += [self.modes[j] for j in self.rng.permutation(len(self.modes))]
        return self.sequence[i]

    def mesh_input(self):
        return rhombus_grid(self.n)

    def run(self, i: int):
        m, case = self.mesh, self.cases[self.input_key(i)]
        f_t = spaces.interpolate_p0(case.f, m)
        system = solver.assemble(m, self.coeffs, f_t, self.bc)
        solution = solver.solve(system, tol=TOL)
        balance = solver.flux_balance_check(m, solution, f_t)
        errors = analysis.error_norms(m, solution, case)
        return float(np.linalg.norm(system.rhs)), solution.residual, balance, errors

    def check(self, i: int, result) -> list[str]:
        rhs_norm, residual, balance, errors = result
        problems = []
        if not residual <= TOL:
            problems.append(f"residual {residual:.3e} above {TOL}")
        limit = BALANCE_FACTOR * TOL * rhs_norm
        if not balance.max_cell_residual <= limit:
            problems.append(f"cell balance {balance.max_cell_residual:.3e} above {limit:.3e}")
        mode = self.input_key(i)
        problems += relative_misses(
            (f"{mode} error_u", f"{mode} error_p", f"{mode} error_div"), errors,
            self.reference[mode], SWEEP_ERROR_BOUND,
        )
        return problems


class Verify:
    """``ptgfv verify --samples S --seed SEED --mesh F`` on a generated mesh file."""

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.n = size.verify_n
        self.samples = size.samples
        self.seed = seed
        self.mesh_file = workdir / "rhombus.msh"

    def setup(self) -> None:
        code, _, err = run_cli(["generate", "--n", str(self.n), "--out", str(self.mesh_file)])
        if code != 0:
            raise SetupError(f"generate exited {code}: {err.strip()}")

    def input_key(self, i: int):
        return self.seed

    def mesh_input(self):
        return rhombus_grid(self.n)

    def run(self, i: int):
        return run_cli([
            "verify", "--samples", str(self.samples), "--seed", str(self.seed),
            "--mesh", str(self.mesh_file),
        ])

    def check(self, i: int, result) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"verify exited {code}: {err.strip()}"]
        report = json.loads(out)
        problems = [] if report["all_passed"] is True else ["all_passed is not true"]
        if not report["lemmas"]["checks"]:
            problems.append("no lemma checks ran")
        for check in report["lemmas"]["checks"]:
            if check["samples"] != self.samples:
                problems.append(f"{check['check']}: {check['samples']} samples, expected {self.samples}")
        if report["stability"]["trials"] != VERIFY_TRIALS:
            problems.append(f"{report['stability']['trials']} stability trials, expected {VERIFY_TRIALS}")
        return problems


WORKLOADS = {"cli-solve": CliSolve, "source-sweep": SourceSweep, "verify": Verify}
