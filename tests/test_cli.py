import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ptgfv import analysis, cli, dual
from ptgfv import mesh as mesh_module
from ptgfv.cli import main
from ptgfv.mesh import (
    MeshError,
    build_mesh,
    generate_rhombus_equilateral,
    quality_report,
    read_mesh,
    write_mesh,
)
from ptgfv.solver import assemble, solve

from conftest import diagonal_square_mesh, jittered_rhombus, mesh_text
from oracles import cotan_coefficients_reference
from test_dual import ISOSCELES_SLIVERS, NEEDLES
from test_mesh import READ_CASES


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def rhombus_file(tmp_path):
    path = tmp_path / "rhombus4.msh"
    assert main(["generate", "--domain", "rhombus", "--n", "4", "--out", str(path)]) == 0
    return path


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.msh"
    path.write_text(write_mesh(diagonal_square_mesh()), encoding="utf-8")
    return path


def test_generate_counts_and_summary(tmp_path, capsys):
    out = tmp_path / "m.msh"
    code, stdout, _ = run(capsys, "generate", "--n", "1", "--out", str(out))
    assert code == 0
    assert "cells 2" in stdout
    mesh = read_mesh(out.read_text())
    assert mesh.num_triangles == 2

    out16 = tmp_path / "m16.msh"
    code, stdout, _ = run(capsys, "generate", "--n", "16", "--out", str(out16))
    assert code == 0
    assert "cells 512" in stdout


def test_generate_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.msh", tmp_path / "b.msh"]
    outs = []
    for path in paths:
        code, stdout, _ = run(capsys, "generate", "--n", "3", "--out", str(path))
        assert code == 0
        outs.append(stdout)
    assert outs[0] == outs[1]
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_generate_usage_and_io_errors(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--domain", "hexagon", "--n", "1", "--out", "x")
    assert code == 1
    assert "domain" in err
    code, _, err = run(capsys, "generate", "--n", "0", "--out", str(tmp_path / "x"))
    assert code == 1
    code, _, err = run(capsys, "generate", "--n", "1", "--out", str(tmp_path / "no/dir/x"))
    assert code == 2


def test_mesh_info_admissible(rhombus_file, capsys):
    code, stdout, _ = run(capsys, "mesh-info", str(rhombus_file))
    assert code == 0
    info = json.loads(stdout)
    assert info["admissible"] is True
    assert info["cells"] == 32
    assert info["theta_min_degrees"] == pytest.approx(60.0, abs=1e-9)
    assert info["coefficient_min"] == pytest.approx(0.5 / math.sqrt(3.0), rel=1e-12)
    assert info["coefficient_max"] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)


def test_mesh_info_inadmissible_names_edge(square_file, capsys):
    code, stdout, _ = run(capsys, "mesh-info", str(square_file))
    assert code == 0
    info = json.loads(stdout)
    assert info["admissible"] is False
    assert len(info["offending_edges"]) == 1


def test_mesh_info_parse_errors(tmp_path, capsys):
    empty = tmp_path / "empty.msh"
    empty.write_text("")
    code, _, err = run(capsys, "mesh-info", str(empty))
    assert code == 2
    code, _, err = run(capsys, "mesh-info", str(tmp_path / "missing.msh"))
    assert code == 2
    bad = tmp_path / "bad.msh"
    bad.write_text("ptg-mesh 1\n3 1\n0 0\n1 0\n0 1\n0 1 9\n")
    code, _, err = run(capsys, "mesh-info", str(bad))
    assert code == 2
    assert "line 6" in err


@pytest.mark.parametrize("command", ["mesh-info", "solve"])
def test_non_utf8_mesh_names_its_line(tmp_path, capsys, command):
    text = write_mesh(jittered_rhombus(2, seed=3)).encode("utf-8")
    lines = text.split(b"\n")
    lines[4] = lines[4][:3] + b"\xff" + lines[4][3:]
    bad = tmp_path / "bad.msh"
    bad.write_bytes(b"\n".join(lines))
    args = [str(bad)] if command == "mesh-info" else ["--mesh", str(bad), "--rhs-const", "1"]
    code, out, err = run(capsys, command, *args)
    assert code == 2
    assert out == ""
    assert err == f"error: line 5: cannot read {bad}: byte 0xff is not UTF-8\n"


def _mesh_args(command, path):
    return [str(path)] if command == "mesh-info" else ["--mesh", str(path), "--rhs-const", "1"]


@pytest.mark.parametrize("command", ["mesh-info", "solve"])
@pytest.mark.parametrize("separator", ["\f", "\v", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"])
def test_lines_end_at_newline_only(tmp_path, capsys, command, separator):
    # a separator that str.splitlines() would break at stays inside its line:
    # "0 0<sep>1 0" is one row of four tokens on line 3, and the bad index
    # row is still line 6
    bad = tmp_path / "ff.msh"
    bad.write_text(f"ptg-mesh 1\n4 2\n0 0{separator}1 0\n0 1\n1 1\n0 1 x\n1 3 2\n", "utf-8")
    code, out, err = run(capsys, command, *_mesh_args(command, bad))
    assert (code, out) == (2, "")
    assert err == "error: line 3: expected 'x y'\n"
    bad.write_text(f"ptg-mesh 1\n4 2\n0 0\n1 0{separator}\n0 1\n1 1\n0 1 x\n1 3 2\n", "utf-8")
    code, out, err = run(capsys, command, *_mesh_args(command, bad))
    assert (code, out) == (2, "")
    assert err == "error: line 7: indices must be integers\n"


@pytest.mark.parametrize("command", ["mesh-info", "solve"])
def test_non_utf8_line_counts_newlines_only(tmp_path, capsys, command):
    # a form feed before the bad byte is no line break
    bad = tmp_path / "bad.msh"
    bad.write_bytes(b"ptg-mesh 1\n3 1\n0 0\f\n1 \xff0\n0 1\n0 1 2\n")
    code, out, err = run(capsys, command, *_mesh_args(command, bad))
    assert (code, out) == (2, "")
    assert err == f"error: line 4: cannot read {bad}: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize("command", ["mesh-info", "solve"])
def test_numbers_are_ascii_decimals(tmp_path, capsys, command):
    bad = tmp_path / "bad.msh"
    for text, message in [
        ("ptg-mesh 1\n3 1\n0 0\n1_0 0\n0 1\n0 1 2\n", "line 4: coordinates must be decimal floats"),
        ("ptg-mesh 1\n3 1\n0 0\n1 0\n0 \u0661\n0 1 2\n", "line 5: coordinates must be decimal floats"),
        ("ptg-mesh 1\n3 1_0\n0 0\n1 0\n0 1\n0 1 2\n", "line 2: counts must be integers"),
        ("ptg-mesh 1\n\uff13 1\n0 0\n1 0\n0 1\n0 1 2\n", "line 2: counts must be integers"),
        ("ptg-mesh 1\n3 1\n0 0\n1 0\n0 1\n0 1 2_0\n", "line 6: indices must be integers"),
        ("ptg-mesh 1\n3 1\n0 0\n1 0\n0 1\n0 \u0661 2\n", "line 6: indices must be integers"),
    ]:
        bad.write_text(text, "utf-8")
        code, out, err = run(capsys, command, *_mesh_args(command, bad))
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["mesh-info", "solve"])
def test_missing_mesh_names_no_line(tmp_path, capsys, command):
    missing = tmp_path / "nope.msh"
    args = [str(missing)] if command == "mesh-info" else ["--mesh", str(missing), "--rhs-const", "1"]
    code, out, err = run(capsys, command, *args)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read {missing}: No such file or directory\n"


def test_solve_constant_rhs(tmp_path, capsys):
    mesh_path = tmp_path / "r1.msh"
    main(["generate", "--n", "1", "--out", str(mesh_path)])
    capsys.readouterr()
    out = tmp_path / "sol.csv"
    code, stdout, _ = run(
        capsys, "solve", "--mesh", str(mesh_path), "--rhs-const", "1", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "cell,u"
    cells = dict(line.split(",") for line in lines[1:3])
    assert float(cells["0"]) == pytest.approx(0.0625, rel=1e-12)
    assert float(cells["1"]) == pytest.approx(0.0625, rel=1e-12)
    assert "edge,flux" in lines
    sidecar = json.loads((tmp_path / "sol.csv.json").read_text())
    assert sidecar["tol"] == 1e-12
    assert sidecar["iterations"] >= 1


def test_solve_zero_rhs(rhombus_file, capsys):
    code, stdout, _ = run(capsys, "solve", "--mesh", str(rhombus_file), "--rhs-const", "0")
    assert code == 0
    assert "iterations 0" in stdout


def test_solve_with_case_prints_errors(rhombus_file, capsys):
    code, stdout, _ = run(
        capsys, "solve", "--mesh", str(rhombus_file), "--case", "rhombus-sine"
    )
    assert code == 0
    values = dict(line.split() for line in stdout.splitlines())
    for key in ("error_u", "error_p", "error_div"):
        assert math.isfinite(float(values[key]))
        assert float(values[key]) > 0.0


def test_solve_inadmissible_exit_3(square_file, capsys):
    code, stdout, _ = run(capsys, "solve", "--mesh", str(square_file), "--rhs-const", "1")
    assert code == 3
    assert json.loads(stdout)["admissible"] is False


def test_solve_usage_errors(rhombus_file, capsys):
    code, _, err = run(capsys, "solve", "--mesh", str(rhombus_file))
    assert code == 1
    code, _, err = run(
        capsys,
        "solve",
        "--mesh",
        str(rhombus_file),
        "--case",
        "rhombus-sine",
        "--rhs-const",
        "1",
    )
    assert code == 1
    code, _, err = run(capsys, "solve", "--mesh", str(rhombus_file), "--case", "nope")
    assert code == 1
    assert "rhombus-sine" in err  # the known cases are listed


@pytest.mark.parametrize(
    "args, message",
    [
        (["solve", "--case", "rhombus-sine"], "the following arguments are required: --mesh"),
        (["solve", "--mesh", "m", "--case", "rhombus-sine", "--tol", "abc"],
         "argument --tol: invalid float value: 'abc'"),
        (["verify", "--samples", "ten"], "argument --samples: invalid int value: 'ten'"),
        (["frobnicate"], "argument command: invalid choice: "),
    ],
    ids=["no-mesh", "tol-not-a-number", "samples-not-a-number", "unknown-command"],
)
def test_argparse_errors_are_one_usage_line(capsys, args, message):
    # the parser's own errors exit 1 like the commands' usage errors, with
    # no argparse usage block and no traceback
    code, out, err = run(capsys, *args)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_convergence_usage_errors(capsys):
    code, _, err = run(capsys, "convergence", "--levels", "8")
    assert code == 1
    code, _, err = run(capsys, "convergence", "--levels", "16,8")
    assert code == 1
    code, _, err = run(capsys, "convergence", "--levels", "4,x")
    assert code == 1
    for levels in (",8,,16,", "8,,16", "8,16,", ""):
        code, out, err = run(capsys, "convergence", "--levels", levels)
        assert (code, out) == (1, "")
        assert f"bad levels {levels!r}" in err
    code, _, err = run(capsys, "convergence", "--case", "nope", "--levels", "4,8")
    assert code == 1
    code, out, err = run(capsys, "convergence", "--levels", "0,8")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "levels must be >= 1" in err


def test_convergence_small_run(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    code, stdout, _ = run(
        capsys, "convergence", "--levels", "4,8", "--out", str(out)
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "n,h,eu,ep,ediv,combined,rate_combined,ecc,rate_ecc"
    assert len(lines) == 3
    last = lines[-1].split(",")
    assert float(last[6]) >= 0.9
    assert float(last[8]) >= 1.8
    assert out.read_text() == stdout


def _convergence_report(combined_rate, ecc_rate):
    # two levels, h halved, whose final rates are the given ones
    levels = tuple(
        analysis.ConvergenceLevel(n=n, h=1.0 / n, eu=1.0, ep=1.0, ediv=1.0,
                                  combined=2.0**-(k * combined_rate), ecc=2.0**-(k * ecc_rate))
        for k, n in enumerate((4, 8))
    )
    return analysis.ConvergenceReport(case="rhombus-sine", levels=levels)


@pytest.mark.parametrize(
    "combined_rate, ecc_rate, code",
    [(1.0, 1.79, 4), (1.0, 1.81, 0), (0.89, 2.0, 4), (0.91, 2.0, 0)],
)
def test_convergence_gates_at_their_thresholds(capsys, monkeypatch, combined_rate, ecc_rate, code):
    report = _convergence_report(combined_rate, ecc_rate)
    assert report.final_rate("combined") == pytest.approx(combined_rate, rel=1e-12)
    assert report.final_rate("ecc") == pytest.approx(ecc_rate, rel=1e-12)
    monkeypatch.setattr(cli, "convergence_study", lambda case, levels, tol: report)
    assert run(capsys, "convergence", "--levels", "4,8")[0] == code


@pytest.mark.parametrize("factor, code", [(11.0, 4), (9.0, 0)])
def test_solve_balance_gate_at_its_threshold(rhombus_file, capsys, monkeypatch, factor, code):
    # a cell residual of factor * tol * |b| around BALANCE_FACTOR = 10
    from ptgfv.solver import FluxBalanceReport

    mesh = read_mesh(rhombus_file.read_text())
    f_t = np.ones(mesh.num_triangles)
    rhs_norm = assemble(mesh, mesh.coefficients, f_t).rhs_norm
    residual = factor * 1e-10 * rhs_norm
    report = FluxBalanceReport(cell_residuals=np.full(mesh.num_triangles, residual),
                               max_cell_residual=residual, global_imbalance=0.0)
    monkeypatch.setattr(cli, "flux_balance_check", lambda mesh, solution, f_t: report)
    result, stdout, _ = run(capsys, "solve", "--mesh", str(rhombus_file), "--rhs-const", "1",
                            "--tol", "1e-10")
    assert result == code
    assert f"balance_max {cli._fmt(residual)}" in stdout


def test_verify_small_run(capsys):
    code, stdout, _ = run(capsys, "verify", "--samples", "1", "--seed", "42")
    assert code == 0
    report = json.loads(stdout)
    assert report["all_passed"] is True


def test_verify_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, stdout, _ = run(capsys, "verify", "--samples", "40", "--seed", "42")
        assert code == 0
        runs.append(stdout)
    assert runs[0] == runs[1]


def test_verify_seed_env_override(capsys, monkeypatch):
    code, with_flag, _ = run(capsys, "verify", "--samples", "25", "--seed", "7")
    monkeypatch.setenv("PTG_SEED", "7")
    code2, with_env, _ = run(capsys, "verify", "--samples", "25")
    assert code == code2 == 0
    assert with_flag == with_env


def test_verify_with_mesh(rhombus_file, capsys):
    code, stdout, _ = run(
        capsys, "verify", "--samples", "30", "--mesh", str(rhombus_file), "--trials", "20"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["stability"]["passed_h3"] is True
    assert report["stability"]["h1_certified"] >= 0.4
    # the library takes no trial count; the CLI echoes its flag
    assert report["stability"]["trials"] == 20


def test_verify_inadmissible_mesh_exit_3(square_file, capsys):
    code, stdout, _ = run(
        capsys, "verify", "--samples", "5", "--mesh", str(square_file)
    )
    assert code == 3
    assert json.loads(stdout)["admissible"] is False


@pytest.mark.parametrize("command", ["generate", "solve", "convergence"])
def test_unwritable_out_exit_2(rhombus_file, tmp_path, capsys, command):
    # --out names a directory: the command prints what it prints before the
    # write, names the path on stderr and exits 2
    args = {
        "generate": ["generate", "--n", "2"],
        "solve": ["solve", "--mesh", str(rhombus_file), "--case", "rhombus-sine"],
        "convergence": ["convergence", "--levels", "4,8"],
    }[command]
    code, stdout, err = run(capsys, *args, "--out", str(tmp_path))
    assert code == 2
    assert err == f"error: cannot write {tmp_path}: Is a directory\n"
    if command == "generate":
        assert stdout == ""
    else:
        assert (0, stdout, "") == run(capsys, *args)


def test_solve_missing_mesh_exit_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "solve", "--mesh", str(tmp_path / "nope.msh"), "--rhs-const", "1"
    )
    assert code == 2


def test_solve_unreachable_tolerance_exit_4(rhombus_file, capsys):
    # double precision cannot reach 1e-30, so the solver gives up cleanly
    code, _, err = run(
        capsys, "solve", "--mesh", str(rhombus_file), "--rhs-const", "1",
        "--tol", "1e-30",
    )
    assert code == 4
    assert "did not reach" in err


def test_solve_determinism_files(tmp_path, capsys):
    mesh_path = tmp_path / "r2.msh"
    main(["generate", "--n", "2", "--out", str(mesh_path)])
    capsys.readouterr()
    outputs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        code, stdout, _ = run(
            capsys, "solve", "--mesh", str(mesh_path), "--case", "rhombus-sine",
            "--out", str(out),
        )
        assert code == 0
        outputs.append((stdout, out.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_verify_rejects_empty_runs(rhombus_file, capsys):
    for flags in (["--samples", "0"], ["--samples", "-3"], ["--trials", "0", "--mesh", str(rhombus_file)]):
        code, out, err = run(capsys, "verify", *flags)
        assert code == 1, flags
        assert out == ""
        assert "usage error" in err


@pytest.mark.parametrize(
    "flags, env, message",
    [
        (["--seed", "-1"], None, "--seed must be >= 0"),
        ([], "abc", "PTG_SEED must be an integer"),
        ([], "-5", "PTG_SEED must be >= 0"),
        (["--seed", str(2**64)], None, "--seed must be >= 0 and below 2**64, got 18446744073709551616"),
    ],
)
def test_verify_rejects_bad_seeds(capsys, monkeypatch, flags, env, message):
    if env is not None:
        monkeypatch.setenv("PTG_SEED", env)
    code, out, err = run(capsys, "verify", "--samples", "5", *flags)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_solve_and_convergence_reject_bad_tol(rhombus_file, capsys, tol):
    code, out, err = run(capsys, "solve", "--mesh", str(rhombus_file), "--rhs-const", "1", "--tol", tol)
    assert (code, out) == (1, "")
    assert "--tol" in err
    code, out, err = run(capsys, "convergence", "--levels", "4,8", "--tol", tol)
    assert (code, out) == (1, "")
    assert "--tol" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_solve_rejects_non_finite_rhs(rhombus_file, capsys, value):
    code, out, err = run(capsys, "solve", "--mesh", str(rhombus_file), "--rhs-const", value)
    assert (code, out) == (1, "")
    assert "--rhs-const" in err


@pytest.mark.parametrize("flag", ["--rhs-const", "--rhs"])
@pytest.mark.parametrize("value", ["-1e-3", "-1E+2", "-1", "-.5"])
def test_solve_takes_a_negative_rhs_const_without_equals(rhombus_file, capsys, flag, value):
    # argparse reads "-1e-3" as an option unless it is joined with "="
    joined = run(capsys, "solve", "--mesh", str(rhombus_file), f"{flag}={value}")
    spaced = run(capsys, "solve", "--mesh", str(rhombus_file), flag, value)
    assert joined[0] == 0
    assert spaced == joined


def test_solve_and_convergence_read_a_negative_tol_in_exponent_form(rhombus_file, capsys):
    for args in (["solve", "--mesh", str(rhombus_file), "--rhs-const", "1"],
                 ["convergence", "--levels", "4,8"]):
        for flag in ("--tol", "--to"):
            code, out, err = run(capsys, *args, flag, "-1e-3")
            assert (code, out) == (1, "")
            assert "--tol must be a positive finite number, got -0.001" in err


def test_folded_mesh_exit_2(tmp_path, capsys):
    path = tmp_path / "folded.msh"
    path.write_text("ptg-mesh 1\n4 2\n0 0\n1 0\n0.5 1\n0.5 0.5\n0 1 2\n0 1 3\n")
    for args in (["mesh-info", str(path)], ["solve", "--mesh", str(path), "--rhs-const", "1"]):
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert "folded mesh" in err and "(0, 1)" in err


def test_non_finite_coordinate_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.msh"
    path.write_text("ptg-mesh 1\n3 1\nnan 0\n1 0\n0 1\n0 1 2\n")
    code, out, err = run(capsys, "solve", "--mesh", str(path), "--rhs-const", "1")
    assert (code, out) == (2, "")
    assert "line 3: coordinates must be finite" in err


def _reference_csv(solution) -> str:
    lines = ["cell,u"] + [f"{i},{v:.17g}" for i, v in enumerate(solution.u)]
    lines += ["edge,flux"] + [f"{i},{v:.17g}" for i, v in enumerate(solution.p)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rhs", ["-3", "0"])
def test_solve_csv_matches_per_value_format(tmp_path, capsys, rhs):
    # the solution of the same calls in-process is the reference, one value per line
    mesh_path = tmp_path / "jittered.msh"
    mesh_path.write_text(write_mesh(jittered_rhombus(6, seed=5)), encoding="utf-8")
    out = tmp_path / "sol.csv"
    code, _, _ = run(
        capsys, "solve", "--mesh", str(mesh_path), f"--rhs-const={rhs}", "--tol", "1e-12",
        "--out", str(out),
    )
    assert code == 0
    mesh = read_mesh(mesh_path.read_text(encoding="utf-8"))
    f_t = np.full(mesh.num_triangles, float(rhs))
    system = assemble(mesh, dual.cotan_coefficients(mesh), f_t)
    solution = solve(system, tol=1e-12)
    values = np.concatenate([solution.u, solution.p])
    if rhs == "0":
        assert (values == 0.0).all()
    else:
        assert values.min() < 0.0 < values.max()
    assert out.read_text(encoding="utf-8") == _reference_csv(solution)
    sidecar = {"mesh_file": str(mesh_path), "tol": 1e-12, "iterations": solution.iterations,
               "residual": solution.residual}
    assert (tmp_path / "sol.csv.json").read_text(encoding="utf-8") == (
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )


def test_solve_tiny_constant_rhs(tmp_path, capsys):
    # squared entries below 1e-154 underflow, so unscaled norms read such a
    # source as zero or its residual as 0; the solution is linear in the source
    mesh_path = tmp_path / "jittered.msh"
    mesh_path.write_text(write_mesh(jittered_rhombus(6, seed=5)), encoding="utf-8")
    u = {}
    for rhs in ("1", "1e-150", "1e-290"):
        out = tmp_path / f"sol{rhs}.csv"
        code, stdout, _ = run(
            capsys, "solve", "--mesh", str(mesh_path), f"--rhs-const={rhs}", "--out", str(out)
        )
        assert code == 0, rhs
        fields = dict(line.split() for line in stdout.splitlines())
        assert fields["iterations"] == "1"
        assert 0.0 < float(fields["residual"]) <= 1e-12
        rows = out.read_text(encoding="utf-8").splitlines()
        u[rhs] = np.array([float(row.split(",")[1]) for row in rows[1:rows.index("edge,flux")]])
    for rhs in ("1e-150", "1e-290"):
        np.testing.assert_allclose(u[rhs], float(rhs) * u["1"], rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "rhs, code, message",
    [("1e-300", 0, ""), ("1e-310", 4, "subnormal right-hand side"),
     ("1e-320", 4, "subnormal right-hand side")],
)
def test_solve_subnormal_source_is_named(tmp_path, capsys, rhs, code, message):
    # |K| x 1e-310 is below the smallest normal float, so the cell integrals
    # have lost their digits; 1e-300 keeps them and solves
    mesh_path = tmp_path / "rhombus6.msh"
    assert main(["generate", "--n", "6", "--out", str(mesh_path)]) == 0
    capsys.readouterr()
    got, _, err = run(capsys, "solve", "--mesh", str(mesh_path), f"--rhs-const={rhs}")
    assert got == code
    assert message in err
    assert "stagnated" not in err


def _scaled_rhombus(tmp_path, n: int, scale: float):
    base = generate_rhombus_equilateral(n)
    path = tmp_path / f"rhombus{n}x{scale:g}.msh"
    path.write_text(write_mesh(build_mesh(base.vertices * scale, base.triangles)), encoding="utf-8")
    return path


def test_solve_overflowing_source_is_named(tmp_path, capsys):
    # |K| x 1e10 is past the largest float on a mesh scaled by 1e150: the
    # cell integrals are inf, and a NaN residual must not pass as converged
    path = _scaled_rhombus(tmp_path, 4, 1e150)
    code, out, err = run(capsys, "solve", "--mesh", str(path), "--rhs-const", "1e10")
    assert (code, out) == (4, "")
    assert err == "error: non-finite right-hand side: b = inf in cell 0\n"


@pytest.mark.parametrize("scale", [1e154, 1e-160])
def test_verify_stability_does_not_depend_on_the_coordinate_scale(tmp_path, capsys, scale):
    # h3 and h4 are dimensionless: a mesh whose |x - W|^2 nears the largest
    # float, or whose areas are subnormal, passes as the unit mesh does
    path = _scaled_rhombus(tmp_path, 2, scale)
    code, out, err = run(capsys, "verify", "--samples", "10", "--mesh", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["stability"]["all_passed"] is True


def test_write_solution_matches_per_value_format(tmp_path):
    # signed zeros, subnormals, values below 1e-300 and non-finite values
    u = np.array([0.0, -0.0, 1e-310, -5e-324, 2.5e-301, -1.0 / 3.0, 1e300, math.pi])
    p = np.array([-7.0, 0.1, np.nan, np.inf, -np.inf, 123456789.0, -1e-320])
    solution = SimpleNamespace(u=u, p=p, iterations=1, residual=0.0)
    out = tmp_path / "sol.csv"
    cli._write_solution(str(out), solution, 1e-12, "m.msh")
    assert out.read_text(encoding="utf-8") == _reference_csv(solution)


def test_verify_h1_not_applicable_past_a_right_angle(tmp_path, capsys):
    path = tmp_path / "jittered24.msh"
    path.write_text(write_mesh(jittered_rhombus(24)), encoding="utf-8")
    code, stdout, _ = run(
        capsys, "verify", "--samples", "10", "--trials", "5", "--mesh", str(path)
    )
    assert code == 0
    stability = json.loads(stdout)["stability"]
    assert stability["bound_h1"] < 0.0
    assert stability["passed_h1"] is None
    assert stability["all_passed"] is True
    assert stability["h1_certified"] > 0.0
    assert math.degrees(stability["theta_max"]) > 90.0


def _sliver_text(apex: float) -> str:
    """One isosceles triangle with the apex angle ``apex`` at the origin."""
    s = math.tan(apex / 2)
    return f"ptg-mesh 1\n3 1\n0 0\n1 {-s!r}\n1 {s!r}\n0 1 2\n"


def _band_text(eps: float) -> str:
    """The unit square split by its diagonal, with the fourth vertex moved
    off the circle through the other three: the diagonal's coefficient is
    about ``eps``."""
    return f"ptg-mesh 1\n4 2\n0 0\n1 0\n1 1\n{-eps!r} {1 + eps!r}\n0 1 2\n0 2 3\n"


def _needle_text(height: float) -> str:
    """A needle (0,0),(1,0),(0.3,height), its longest edge shared with a
    triangle whose far vertex keeps the edge Delaunay."""
    return f"ptg-mesh 1\n4 2\n0 0\n1 0\n0.3 {height!r}\n0.5 {-10 / height!r}\n0 1 2\n1 0 3\n"


SLIVER_APEXES = (1e-3, 1e-5, 1e-6, 3e-7, 1e-7, 1e-8, 1e-10)

# bad, borderline or adversarial meshes: every file of the reader's cases,
# the band around COEFF_TOL, slivers, needles, coordinates at and past the
# size limit, meshes that fail the angle conditions and an admissible mesh
# with an angle above 90 degrees listed clockwise
CORPUS = {f"read: {name}": text for name, text in READ_CASES.items()}
CORPUS.update({f"band {eps:g}": _band_text(eps) for eps in np.geomspace(4e-13, 1e-11, 9)})
CORPUS["band 7.5e-13"] = _band_text(7.5e-13)
CORPUS.update({f"sliver {apex:g}": _sliver_text(apex) for apex in SLIVER_APEXES})
CORPUS["square"] = write_mesh(diagonal_square_mesh())
CORPUS["right triangle"] = "ptg-mesh 1\n3 1\n0 0\n1 0\n0 1\n0 1 2\n"
CORPUS["obtuse boundary"] = "ptg-mesh 1\n3 1\n0 0\n1 0\n0.5 0.1\n0 1 2\n"
CORPUS.update({f"needle {height:g}": _needle_text(height) for height in NEEDLES})
CORPUS["scale 1e154"] = "ptg-mesh 1\n3 1\n0 0\n1e154 0\n5e153 8.6e153\n0 1 2\n"
CORPUS["scale 1e155"] = "ptg-mesh 1\n3 1\n0 0\n1e155 0\n5e154 8.6e154\n0 1 2\n"
_JITTERED = jittered_rhombus(24, seed=1)
CORPUS["clockwise jittered 24"] = mesh_text(_JITTERED.vertices, _JITTERED.triangles[:, [0, 2, 1]])


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_no_command_raises_and_all_agree_on_admissibility(tmp_path, capsys, name):
    path = tmp_path / "corpus.msh"
    path.write_text(CORPUS[name], encoding="utf-8")
    results = {}
    for command, args in (
        ("mesh-info", [str(path)]),
        ("solve", ["--mesh", str(path), "--rhs-const", "1"]),
        ("verify", ["--samples", "10", "--mesh", str(path)]),
    ):
        code, out, err = run(capsys, command, *args)
        assert code in (0, 2, 3, 4), (command, code, err)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
        results[command] = code, out
    try:
        mesh = read_mesh(CORPUS[name])
    except MeshError:
        assert {code for code, _ in results.values()} == {2}
        return
    report = quality_report(mesh)
    try:
        assemble(mesh, mesh.coefficients, np.ones(mesh.num_triangles))
        accepted = True
    except ValueError:
        accepted = False
    assert report.admissible == accepted
    code, out = results["mesh-info"]
    info = _strict_json(out)
    assert code == 0 and info["admissible"] == report.admissible
    assert info["offending_edges"] == report.offending_edges()
    for command in ("solve", "verify"):
        code, out = results[command]
        if report.admissible:
            assert code in (0, 4), command
        else:
            assert code == 3, command
            assert _strict_json(out) == {
                "admissible": False, "offending_edges": report.offending_edges()
            }


def test_unit_source_is_positive_on_every_admissible_corpus_mesh():
    # an admissible mesh gives an M-matrix: f = 1 gives u > 0 in every cell
    # and, with the zero trace, an inward flux on every boundary edge.  The
    # smallest u, 6.25e-22, is on the 1e-10 sliver
    admissible = []
    for name, text in sorted(CORPUS.items()):
        try:
            mesh = read_mesh(text)
        except MeshError:
            continue
        if not quality_report(mesh).admissible:
            continue
        solution = solve(assemble(mesh, mesh.coefficients, np.ones(mesh.num_triangles)))
        assert solution.u.min() > 0.0, name
        assert solution.p[mesh.boundary_edges].max() < 0.0, name
        admissible.append(name)
    assert len(admissible) == 13


def test_band_mesh_is_inadmissible_for_every_command(tmp_path, capsys):
    # its diagonal coefficient 7.5e-13 is below COEFF_TOL; the opposite
    # angles sum to less than pi - 1e-12
    path = tmp_path / "band.msh"
    path.write_text(_band_text(7.5e-13), encoding="utf-8")
    for args in (["solve", "--mesh", str(path), "--rhs-const", "1"],
                 ["verify", "--samples", "10", "--mesh", str(path)]):
        assert run(capsys, *args) == (3, '{"admissible": false, "offending_edges": [1]}\n', "")
    code, out, _ = run(capsys, "mesh-info", str(path))
    assert code == 0
    assert json.loads(out)["offending_edges"] == [1]


@pytest.mark.parametrize("apex", sorted(ISOSCELES_SLIVERS))
def test_verify_evaluates_isosceles_slivers(tmp_path, capsys, apex):
    # admissible slivers down to an apex of 1e-10 rad: verify evaluates
    # them, at energies near the smooth limit 28.5, to the pinned digits
    path = tmp_path / "sliver.msh"
    path.write_text(_sliver_text(apex), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--samples", "10", "--mesh", str(path))
    assert (code, err) == (0, "")
    stability = json.loads(out)["stability"]
    assert stability["max_energy"] == pytest.approx(ISOSCELES_SLIVERS[apex], rel=1e-12, abs=0)
    assert stability["all_passed"] is True


@pytest.mark.parametrize("height", sorted(NEEDLES))
def test_verify_on_an_admissible_needle(tmp_path, capsys, height):
    path = tmp_path / "needle.msh"
    path.write_text(_needle_text(height), encoding="utf-8")
    code, out, _ = run(capsys, "mesh-info", str(path))
    assert code == 0 and json.loads(out)["admissible"] is True
    code, out, err = run(capsys, "verify", "--samples", "10", "--mesh", str(path))
    assert (code, err) == (0, "")
    stability = json.loads(out)["stability"]
    assert stability["max_energy"] == pytest.approx(NEEDLES[height], rel=1e-12, abs=0)
    assert stability["passed_h3"] is stability["passed_h4"] is True
    assert np.all(dual.solve_delta_k(read_mesh(_needle_text(height)).geometries).energy > 0.0)


@pytest.mark.parametrize("height", sorted(NEEDLES))
def test_needle_coefficients_are_exact(height):
    # each cotangent is dot / |cross| of its corner's edges, with no angle in
    # between: an angle near pi loses ulp(pi) / (pi - theta) to its tangent
    mesh = read_mesh(_needle_text(height))
    np.testing.assert_allclose(
        dual.cotan_coefficients(mesh), cotan_coefficients_reference(mesh), rtol=1e-15, atol=0
    )


def _strict_json(text: str):
    """JSON as the standard defines it: no Infinity or NaN."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_verify_is_scale_free_up_to_1e154(tmp_path, capsys):
    # every stability figure is dimensionless: a triangle whose squared edge
    # lengths sum past the largest float gives the figures of its unit copy
    stability = {}
    for name, corners in [("unit", "0 0\n1 0\n0.5 0.86"), ("big", "0 0\n1e154 0\n5e153 8.6e153")]:
        path = tmp_path / f"{name}.msh"
        path.write_text(f"ptg-mesh 1\n3 1\n{corners}\n0 1 2\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "--samples", "10", "--mesh", str(path))
        assert (code, err) == (0, "")
        stability[name] = _strict_json(out)["stability"]
    unit, big = stability["unit"], stability["big"]
    assert unit.keys() == big.keys()
    for key, value in unit.items():
        if isinstance(value, float):
            # h3 is a round-off figure near 5e-15
            floor = 1e-12 if key == "h3_max_deviation" else 0.0
            assert big[key] == pytest.approx(value, rel=1e-12, abs=floor), key
        else:
            assert big[key] == value, key
    assert big["passed_h1"] is True


@pytest.mark.parametrize("command", [
    ["mesh-info"], ["solve", "--rhs-const", "1", "--mesh"], ["verify", "--samples", "10", "--mesh"],
])
def test_too_large_triangle_exit_2(tmp_path, capsys, command):
    # (0,0),(1e155,0),(5e154,8.6e154) is near-equilateral, not degenerate:
    # its longest edge squared is past the largest float
    path = tmp_path / "big.msh"
    path.write_text(CORPUS["scale 1e155"], encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, *command, str(path)) == (2, "", (
            "error: invalid mesh in file: triangle 0 is too large: "
            "the square of its longest edge, 1e+155, overflows a float\n"
        ))


@pytest.mark.parametrize("args", [
    ["mesh-info"],
    ["solve", "--rhs-const", "1", "--mesh"],
    ["solve", "--case", "rhombus-sine", "--mesh"],
    ["verify", "--samples", "10", "--trials", "3", "--mesh"],
])
def test_each_command_computes_the_coefficients_once(rhombus_file, capsys, monkeypatch, args):
    calls = []
    original = mesh_module.cotan_coefficients

    def counted(mesh):
        calls.append(mesh)
        return original(mesh)

    for module in (mesh_module, dual, analysis, cli):
        if hasattr(module, "cotan_coefficients"):
            monkeypatch.setattr(module, "cotan_coefficients", counted)
    code, _, _ = run(capsys, *args, str(rhombus_file))
    assert code == 0
    assert len(calls) == 1


def test_main_builds_one_parser_and_leaks_no_flag(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; each call parses into a new
    # namespace, so a flag of one call never shows in the next
    monkeypatch.delenv("PTG_SEED", raising=False)
    cli._parser.cache_clear()
    seeded = run(capsys, "verify", "--samples", "25", "--seed", "1")
    unseeded = run(capsys, "verify", "--samples", "25")
    assert unseeded == run(capsys, "verify", "--samples", "25", "--seed", "42")
    assert seeded != unseeded
    path = tmp_path / "m.msh"
    assert run(capsys, "generate", "--n", "2", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "solve", "--mesh", str(path), "--rhs-const", "1")
    assert (code, err) == (0, "") and out.startswith("cells 8\n")
    assert not path.with_name("m.msh.json").exists()   # solve's --out stays unset
    assert cli._parser.cache_info().misses == 1

    parser = cli._parser()
    assert parser.parse_args(["verify", "--seed", "1"]).seed == 1
    assert parser.parse_args(["verify"]).seed is None
    generate = parser.parse_args(["generate", "--n", "2", "--out", "m.msh"])
    solve_args = parser.parse_args(["solve", "--mesh", "m.msh", "--rhs-const", "1"])
    assert (generate.out, solve_args.out) == ("m.msh", None)
    assert not hasattr(solve_args, "n") and not hasattr(solve_args, "domain")


def test_verify_prints_strict_json_for_a_nan_slack(capsys, monkeypatch):
    # a NaN slack makes its check's worst slack -inf, printed as null; the
    # check and the run still fail
    _, passing, _ = run(capsys, "verify", "--samples", "10", "--seed", "3")
    lemma_slacks = analysis._lemma_slacks

    def with_nan(geom):
        slacks, energy_ratio = lemma_slacks(geom)
        slacks["cotangent-sum-identity"] = np.full(len(geom.area), np.nan)
        return slacks, energy_ratio

    monkeypatch.setattr(analysis, "_lemma_slacks", with_nan)
    code, out, err = run(capsys, "verify", "--samples", "10", "--seed", "3")
    assert (code, err) == (4, "")
    report = _strict_json(out)
    checks = {c["check"]: c for c in report["lemmas"]["checks"]}
    assert checks["cotangent-sum-identity"]["worst_slack"] is None
    assert checks["cotangent-sum-identity"]["passed"] is False
    assert report["lemmas"]["all_passed"] is False and report["all_passed"] is False
    # the rest of the record is the passing run's; the witness is the first
    # NaN sample
    expected = _strict_json(passing)
    witness = checks["cotangent-sum-identity"]["witness"]
    assert np.shape(witness) == (3, 2)
    for check in expected["lemmas"]["checks"]:
        if check["check"] == "cotangent-sum-identity":
            check.update(worst_slack=None, passed=False, witness=witness)
    expected["lemmas"]["all_passed"] = expected["all_passed"] = False
    assert report == expected
