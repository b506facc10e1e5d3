import ctypes
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx

import pytest

import trabessel
from trabessel import ClassId, _lapack
from trabessel.cli import _SYSTEM_FLAGS, build_parser, main
from trabessel.solver import _CLASSES

K0_FLAGS = ["--a", "1", "--b", "0", "--Ap", "-1", "--Am", "5",
            "--A1", "-0.25", "--A0", "2"]
L39A_FLAGS = ["--class", "L39A", "--a", "1.5", "--b", "0", "--Ap", "0", "--Am", "2",
              "--A1", "1", "--A0", "0.9375"]
WELL_FLAGS = ["--system", "well", "--Am", "20.5", "--Ap", "-1"]


def run_cli(args, env=None):
    """Run in-process; returns (exit_code, stdout, stderr)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout
    out, err = io.StringIO(), io.StringIO()
    old_env = {}
    env = env or {}
    for k, v in env.items():
        old_env[k] = os.environ.get(k)
        os.environ[k] = v
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    finally:
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


def run_python(args, env=None, **kwargs):
    """Run `python *args` in a fresh interpreter that imports this trabessel;
    returns the CompletedProcess with text stdout and stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(trabessel.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})}, **kwargs)


def test_version():
    code, out, _ = run_cli(["version"])
    assert code == 0
    parts = out.strip().split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_classify_k0():
    code, out, _ = run_cli(["classify"] + K0_FLAGS)
    assert code == 0
    assert "K0: admissible" in out
    assert "b^2 - 1 - 4*A1 = 0" in out


def test_classify_json_schema(tmp_path):
    out_file = tmp_path / "cls.json"
    code, _, _ = run_cli(["classify"] + K0_FLAGS + ["--format", "json",
                                                    "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["config_echo"]["Am"] == 5
    assert doc["classes"][0]["class"] == "K0"


def test_solve_guard_violation_exit2():
    code, _, err = run_cli(["solve", "--class", "K0", "--a", "1", "--b", "0",
                            "--Ap", "-1", "--Am", "2", "--A1", "-0.25",
                            "--A0", "2", "--N", "50"])
    assert code == 2
    assert err == "error: N=50 exceeds the basis bound n_max=1 (mu=-2.0)\n"


def test_solve_csv_first_row(tmp_path):
    out_file = tmp_path / "coeffs.csv"
    code, _, _ = run_cli(["solve", "--class", "K0"] + K0_FLAGS
                         + ["--format", "csv", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "n,f_n"
    assert lines[1] == "0,1"


def test_solve_json_roundtrips_through_api(tmp_path):
    out_file = tmp_path / "coeffs.json"
    code, _, _ = run_cli(["solve", "--class", "K0"] + K0_FLAGS
                         + ["--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    from trabessel import ClassId, OdeParams, expansion_coefficients, resolve_class
    echo = doc["config_echo"]
    p = OdeParams(a=echo["a"], b=echo["b"], A_plus=echo["Ap"],
                  A_minus=echo["Am"], A_one=echo["A1"], A_zero=echo["A0"])
    sol = resolve_class(p, ClassId(echo["klass"]))
    expected = expansion_coefficients(sol, len(doc["coefficients"]) - 1)
    assert doc["coefficients"] == approx(expected)


def test_output_determinism(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["solve", "--class", "K0"] + K0_FLAGS
    run_cli(args + ["--out", str(f1)])
    run_cli(args + ["--out", str(f2)])
    assert f1.read_bytes() == f2.read_bytes()


def test_spectrum_oscillator_json(tmp_path):
    out_file = tmp_path / "spec.json"
    code, _, _ = run_cli(["spectrum", "--system", "oscillator", "--A1", "-0.25",
                          "--Lambda", "0", "--ell", "0", "--lam", "1",
                          "--levels", "4", "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["method"] == "closed_form_eq64"
    assert doc["energies"] == approx([1.5, 3.5, 5.5, 7.5])


def test_spectrum_csv_header(tmp_path):
    out_file = tmp_path / "spec.csv"
    code, _, _ = run_cli(["spectrum", "--system", "well", "--Am", "20.5",
                          "--Ap", "-1", "--lam", "1", "--levels", "3",
                          "--format", "csv", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "k,E_k,method"
    assert lines[1].endswith(",jacobi_matrix")


def test_verify_json_report(tmp_path):
    out_file = tmp_path / "verify.json"
    code, _, _ = run_cli(["verify", "--class", "L39A", "--a", "1.5", "--b", "0",
                          "--Ap", "0", "--Am", "2", "--A1", "1",
                          "--A0", "0.9375", "--n", "3", "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["pass"] is True
    assert doc["max_rel_deviation"] <= 1e-8
    assert set(doc["per_n"]) == {"0", "1", "2", "3"}


def test_verify_threaded_fanout():
    # verify runs its degrees serially; TRA_NUM_THREADS no longer changes anything
    argv = ["verify", "--class", "L39A", "--a", "1.5", "--b", "0", "--Ap", "0",
            "--Am", "2", "--A1", "1", "--A0", "0.9375", "--n", "4"]
    plain = run_cli(argv)
    assert plain[0] == 0 and json.loads(plain[1])["pass"] is True
    assert run_cli(argv, env={"TRA_NUM_THREADS": "4"}) == plain


def test_verify_residual_overflow_exit3():
    code, out, err = run_cli(["verify", "--class", "L39C", "--a", "1.5", "--b", "0",
                              "--Ap", "0", "--Am", "1", "--A1", "-0.25",
                              "--A0", "0.9375", "--tau", "3", "--n", "2",
                              "--with-residual", "--N", "800"])
    assert code == 3
    assert json.loads(out)["pass"] is True
    assert "overflows double precision" in err


def test_verify_overflowing_basis_exit3_without_warnings():
    """Near x = 1e-60 the Laguerre factor overflows from degree 2 on: a
    numerical failure (exit 3), reported without numpy warnings."""
    proc = run_python(["-W", "default", "-m", "trabessel.cli", "verify"] + L39A_FLAGS
                      + ["--n", "40", "--x-min", "1e-60", "--x-max", "1"])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "overflows double precision" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_solve_at_a_huge_a_minus_fails_fast_in_bounded_memory():
    """K0 at A- = 1e9 has n_max near 1e9, but its DeformedB recursion overflows
    within a few degrees: solve stops there with the family's error (exit 2),
    under a 400 MB address-space limit set in the child only."""
    resource = pytest.importorskip("resource")
    limit = 400 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    proc = run_python(
        ["-m", "trabessel.cli", "solve", "--class", "K0", "--a", "1", "--b", "0",
         "--Ap", "-1", "--Am", "1e9", "--A1", "-0.25", "--A0", "2"],
        env={"OPENBLAS_NUM_THREADS": "1"}, timeout=60, preexec_fn=cap_memory)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: DeformedB recursion produced a non-finite value\n"


_K1_MU = ["--class", "K1", "--a", "1", "--Ap", "0", "--mu", "-5.3"]


@pytest.mark.parametrize("argv, err", [
    # coefficients past n_max = 4 before the basis block that overflows on the grid
    (["verify"] + _K1_MU + ["--b", "3", "--Am", "3", "--A1", "2", "--A0", "2", "--n", "9",
                            "--x-min", "1e-3", "--x-max", "1", "--x-count", "20"],
     "error: n=5 exceeds the basis bound n_max=4 (mu=-5.3)"),
    # coefficients past n_max = 4 before the basis block's own bound
    (["verify"] + _K1_MU + ["--b", "0", "--Am", "3", "--A1", "-0.25", "--A0", "2", "--n", "5"],
     "error: n=5 exceeds the basis bound n_max=4 (mu=-5.3)"),
    # HahnQ's q = -1 before s_0 = 0
    (["solve", "--class", "K1", "--a", "1", "--b", "0", "--Ap", "0", "--Am", "-10",
      "--A1", "-0.25", "--A0", "0.25", "--mu", "-2"],
     "error: HahnQ q=-1.0 outside (> -1 or < -N)"),
    # HahnQ's bound names the requested degree
    (["solve", "--class", "C8B", "--a", "1.5", "--b", "0", "--Ap", "0", "--Am", "2",
      "--A1", "-0.25", "--A0", "-0.0625", "--alpha", "-3.25", "--mu", "-12.5"],
     "error: degree 11 exceeds N=3.0 for HahnQ"),
], ids=["verify-overflow", "verify-basis-bound", "solve-s0-HahnQq", "solve-HahnN3"])
def test_the_first_failing_stage_decides_the_error(argv, err):
    """The family, or every degree's coefficients, are checked before the
    stage that uses them: invalid input exits 2 even where a later stage
    would fail too."""
    assert run_cli(argv) == (2, "", err + "\n")


@pytest.mark.parametrize("A_minus", ["1e160", "1e300"])
def test_solve_k0_at_an_extreme_a_minus_fails_the_family_check(A_minus):
    """-n_max - 1/2 rounds to mu there, so the DeformedB rule fails; it comes
    before the s_0 = 0, an underflow, that the C_n products would meet (exit 3)."""
    code, out, err = run_cli(["solve", "--class", "K0", "--a", "1", "--b", "0", "--Ap", "-1",
                              "--Am", A_minus, "--A1", "-0.25", "--A0", "2"])
    assert (code, out) == (2, "")
    assert err == (f"error: DeformedB needs mu < -n_max - 1/2 (mu=-{float(A_minus)}, "
                   f"n_max={float(A_minus)})\n")
    assert len(err) < 200


def test_eval_on_a_huge_grid_prints_no_warnings():
    """eval takes phi_n alone, so the prefactor's log-derivatives, which pass
    through x^2 = inf beyond x = 1e154, are never formed."""
    proc = run_python(["-W", "default", "-m", "trabessel.cli", "eval"] + L39A_FLAGS
                      + ["--N", "5", "--x-min", "1e200", "--x-max", "1e300", "--x-count", "4"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    out = json.loads(proc.stdout)
    assert out["x"] == [1e200, 2.1544346900319308e+233, 4.6415888336129816e+266, 1e300]
    assert out["y"] == [2.3833173333333348e-249, 5.1347015402881062e-291, 0, 0]


def test_eval_series_value(tmp_path):
    out_file = tmp_path / "eval.csv"
    code, _, _ = run_cli(["eval", "--class", "K0"] + K0_FLAGS
                         + ["--N", "0", "--x-min", "1", "--x-max", "2",
                            "--x-count", "2", "--x-spacing", "linear",
                            "--format", "csv", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x,y"
    x0, y0 = lines[1].split(",")
    assert float(x0) == 1.0
    assert float(y0) == approx(math.exp(-0.5), rel=1e-12)


@pytest.mark.parametrize("route", ["flags", "config"])
def test_eval_grid_flags_apply_without_x_min(route, tmp_path):
    """--x-count, --x-max and --x-spacing are kept when --x-min is left at
    its default, the default grid's 0.05."""
    def rows(flags):
        argv = ["eval"] + L39A_FLAGS + ["--N", "5", "--format", "csv"]
        if route == "config":
            cfg = tmp_path / "grid.cfg"
            cfg.write_text("".join(f"{k[2:]} = {v}\n" for k, v in zip(flags[::2], flags[1::2])))
            flags = ["--config", str(cfg)]
        code, out, err = run_cli(argv + flags)
        assert (code, err) == (0, "")
        return [float(line.split(",")[0]) for line in out.splitlines()[1:]]

    assert rows(["--x-count", "3"]) == [0.05, 1.0, 20.0]
    xs = rows(["--x-max", "1", "--x-spacing", "linear"])
    assert len(xs) == 64 and (xs[0], xs[-1]) == (0.05, 1.0)


def test_verify_grid_flags_apply_without_x_min():
    code, out, _ = run_cli(["verify"] + L39A_FLAGS + ["--x-max", "1", "--x-count", "5",
                                                      "--x-spacing", "linear"])
    assert code == 0
    assert json.loads(out)["argmax_x"] in (0.05, 0.2875, 0.525, 0.7625, 1.0)


def test_oracle_numerical_failure_exit3():
    code, _, err = run_cli(["oracle", "--system", "oscillator", "--A1", "-0.25",
                            "--r-min", "1e-6", "--r-max", "2.0",
                            "--grid-size", "500", "--levels", "3"])
    assert code == 3
    assert "edge" in err


def test_oracle_overflowing_potential_exit3_without_warnings():
    """At r = -800 the well's e^{-lam r} overflows: a numerical failure
    (exit 3) on one stderr line, without numpy warnings."""
    proc = run_python(["-W", "default", "-m", "trabessel.cli", "oracle"] + WELL_FLAGS
                      + ["--r-min", "-800", "--r-max", "3", "--grid-size", "500"])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("numerical failure: potential overflows double precision "
                           "on the FD grid\n")
    assert "RuntimeWarning" not in proc.stderr


def test_oracle_domain_too_narrow_for_its_grid_exit2_without_warnings():
    """A domain one ulp wide leaves the grid spacing h with no finite 1/h^2:
    invalid input (exit 2) naming the domain width, without numpy warnings."""
    proc = run_python(["-W", "default", "-m", "trabessel.cli", "oracle"] + WELL_FLAGS
                      + ["--r-min", "1", "--r-max", "1.0000000000000002",
                         "--grid-size", "100"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: fd oracle needs a domain width whose grid spacing h "
                           "has a finite 1/h^2 (got 2.220446049250313e-16)\n")


def _failing(routine, real=_lapack._routine):
    """_lapack._routine, except that `routine` sets its INFO argument to 1
    after the LAPACK call: INFO is its last argument by reference (a pointer),
    before the hidden CHARACTER lengths."""
    def resolve(name):
        fn = real(name)
        if name != routine:
            return fn

        def call(*args):
            fn(*args)
            info = [a for a in args if isinstance(a, ctypes.c_void_p)][-1]
            ctypes.c_int.from_address(info.value).value = 1
        return call
    return resolve


@pytest.mark.parametrize("routine, argv", [
    ("dstevd", ["spectrum"] + WELL_FLAGS),
    ("dstebz", ["oracle"] + WELL_FLAGS + ["--r-min", "-5.7", "--r-max", "-1.2"]),
    ("dstein", ["oracle"] + WELL_FLAGS + ["--r-min", "-5.7", "--r-max", "-1.2"]),
], ids=["spectrum-dstevd", "oracle-dstebz", "oracle-dstein"])
def test_lapack_failure_exit3(monkeypatch, routine, argv):
    monkeypatch.setattr(_lapack, "_routine", _failing(routine))
    code, out, err = run_cli(argv)
    assert (code, out) == (3, "")
    assert err == ("numerical failure: tridiagonal eigensolver failed: "
                   f"{routine} returned LAPACK info=1\n")


def test_morse_levels_that_overflow_exit3():
    """From about A- = 1.3e154 the square (A- - n - 1/2)^2 of the Morse levels
    overflows: one SeriesOverflow line that names them, not a bare OverflowError."""
    morse = ["spectrum", "--system", "well", "--Ap", "0"]
    assert run_cli(morse + ["--Am", "1e155"]) == (
        3, "", "numerical failure: the Morse levels overflow double precision "
               "(A-=1e+155, lam=1.0)\n")
    code, out, err = run_cli(morse + ["--Am", "1e150"])
    assert (code, err) == (0, "")
    assert json.loads(out)["energies"] == [-4.9999999999999995e+299] * 5


@pytest.mark.parametrize("argv, line", [
    (["--system", "well", "--Ap", "0", "--Am", "1e150", "--lam", "1e10"],
     "the Morse levels overflow double precision (A-=1e+150, lam=10000000000.0)"),
    (["--system", "well", "--Am", "20.5", "--Ap", "-1", "--lam", "1e160"],
     "the well's energy map E = -lam^2 A+ z / 8 overflows double precision "
     "(lam=1e+160, A+=-1.0)"),
    (["--system", "oscillator", "--A1", "-0.25", "--Lambda", "0", "--ell", "0",
      "--lam", "1e160"],
     "the eq. 64 levels overflow double precision (lam=1e+160, A1=-0.25)"),
], ids=["morse-product", "well-energy-map", "eq64"])
def test_energy_maps_that_overflow_exit3_naming_their_stage(argv, line):
    """A huge lam overflows lam ** 2 (an OverflowError) or the product that
    follows (inf): either way one SeriesOverflow line that names the stage,
    not the bare OverflowError text or the generic non-finite spectrum."""
    assert run_cli(["spectrum"] + argv) == (3, "", f"numerical failure: {line}\n")


_WELL_ORACLE = ["oracle"] + WELL_FLAGS + ["--r-min", "-5.7", "--r-max", "-1.2",
                                         "--grid-size", "500"]


@pytest.mark.parametrize("command", [["spectrum"] + WELL_FLAGS, _WELL_ORACLE],
                         ids=["spectrum", "oracle"])
@pytest.mark.parametrize("flags, got", [
    (["--ell", "1"], "--ell 1"),
    (["--Lambda", "0.5"], "--Lambda 0.5"),
    (["--A1", "-0.25"], "--A1 -0.25"),
    (["--A1", "0"], "--A1 0.0"),
    (["--A1", "-0.25", "--ell", "2", "--Lambda", "3"], "--ell 2, --Lambda 3.0, --A1 -0.25"),
], ids=["ell", "Lambda", "A1", "A1-zero", "all"])
def test_well_system_refuses_the_oscillator_flags(command, flags, got, tmp_path):
    """The well has no ell, Lambda or A1: given by flag or by config file,
    they exit 2 on one line, where they used to be ignored."""
    want = (2, "", f"error: the well system takes no --ell, --Lambda or --A1 (got {got})\n")
    assert run_cli(command + flags) == want
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{flag[2:]} = {value}\n"
                           for flag, value in zip(flags[::2], flags[1::2])))
    assert run_cli(command + ["--config", str(cfg)]) == want


@pytest.mark.parametrize("command", [["spectrum"] + WELL_FLAGS, _WELL_ORACLE],
                         ids=["spectrum", "oracle"])
def test_well_system_takes_the_oscillator_flags_at_their_defaults(command):
    code, out, err = run_cli(command)
    assert (code, err) == (0, "")
    assert run_cli(command + ["--ell", "0", "--Lambda", "0"]) == (code, out, err)


_OSCILLATOR = ["--system", "oscillator", "--A1", "-0.25"]
_OSCILLATOR_ORACLE = ["oracle"] + _OSCILLATOR + ["--Lambda", "3.75", "--r-min", "1e-6",
                                                 "--r-max", "14", "--grid-size", "500"]


@pytest.mark.parametrize("command, flags, got", [
    (["spectrum"] + _OSCILLATOR, ["--Am", "5"], "--Am, --Ap or --N (got --Am 5.0)"),
    (["spectrum"] + _OSCILLATOR, ["--N", "0"], "--Am, --Ap or --N (got --N 0)"),
    (["spectrum"] + _OSCILLATOR, ["--Am", "5", "--Ap", "3", "--N", "7"],
     "--Am, --Ap or --N (got --Am 5.0, --Ap 3.0, --N 7)"),
    (_OSCILLATOR_ORACLE, ["--Ap", "-1"], "--Am or --Ap (got --Ap -1.0)"),
    (_OSCILLATOR_ORACLE, ["--Am", "20.5", "--Ap", "-1"],
     "--Am or --Ap (got --Am 20.5, --Ap -1.0)"),
], ids=["spectrum-Am", "spectrum-N-zero", "spectrum-all", "oracle-Ap", "oracle-all"])
def test_oscillator_system_refuses_the_well_flags(command, flags, got, tmp_path):
    """The oscillator has no A-, A+ or truncation N: given by flag or by
    config file, they exit 2 on one line, where they used to be ignored."""
    want = (2, "", f"error: the oscillator system takes no {got}\n")
    assert run_cli(command + flags) == want
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{flag[2:]} = {value}\n"
                           for flag, value in zip(flags[::2], flags[1::2])))
    assert run_cli(command + ["--config", str(cfg)]) == want


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--system", "well", "--Am", "20.5"], "well spectrum needs --Am and --Ap"),
    (["oracle", "--system", "well", "--Ap", "-1", "--r-min", "-5.7", "--r-max", "-1.2"],
     "well oracle needs --Am and --Ap"),
    (["spectrum", "--system", "oscillator", "--Am", "5"], "oscillator spectrum needs --A1"),
    (["oracle", "--system", "oscillator", "--r-min", "1e-6", "--r-max", "14"],
     "oscillator oracle needs --A1"),
], ids=["spectrum-well", "oracle-well", "spectrum-oscillator", "oracle-oscillator"])
def test_each_system_needs_its_flags(argv, message):
    assert run_cli(argv) == (2, "", f"error: {message}\n")


def test_verify_writes_json_only(tmp_path):
    """--format csv used to be accepted and JSON written anyway."""
    argv = ["verify"] + L39A_FLAGS
    want = (2, "", "error: verify writes JSON only (got --format csv)\n")
    assert run_cli(argv + ["--format", "csv"]) == want
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = csv\n")
    assert run_cli(argv + ["--config", str(cfg)]) == want
    code, out, err = run_cli(argv + ["--format", "json"])
    assert (code, err) == (0, "") and json.loads(out)["pass"] is True
    assert run_cli(argv) == (code, out, err)


def test_classify_refuses_csv(tmp_path):
    """--format csv used to print the text summary, write no file and exit 0."""
    out_file = tmp_path / "classes.csv"
    argv = ["classify"] + K0_FLAGS
    want = (2, "", "error: classify writes JSON only (got --format csv)\n")
    assert run_cli(argv + ["--format", "csv", "--out", str(out_file)]) == want
    assert not out_file.exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = csv\n")
    assert run_cli(argv + ["--config", str(cfg)]) == want


_SYSTEM_FLAG_VALUES = {
    "spectrum": {"well": {"Am": "20.5", "Ap": "-1", "lam": "1"},
                 "oscillator": {"A1": "-0.25", "Lambda": "0"}},
    "oracle": {"oscillator": {"A1": "-0.25", "lam": "1", "r_min": "0.01", "r_max": "10"}},
}


@pytest.mark.parametrize("command, system, flag", [
    (command, system, flag) for command, systems in _SYSTEM_FLAG_VALUES.items()
    for system, flags in systems.items() for flag in flags])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_system_float_flags_must_be_finite(tmp_path, command, system, flag, value):
    """A non-finite value, by flag or by config file, used to reach the
    numerics: non-finite energies, an overflowing potential or a float-to-int
    conversion, exit 2 or 3 by chance."""
    option = "--" + flag.replace("_", "-")
    others = [f"--{key.replace('_', '-')}={val}"
              for key, val in _SYSTEM_FLAG_VALUES[command][system].items() if key != flag]
    argv = [command, "--system", system] + others
    want = (2, "", f"error: {option} must be finite (got {float(value)})\n")
    assert run_cli(argv + [f"{option}={value}"]) == want
    if flag in ("r_min", "r_max"):   # required flags: a config file cannot give them
        return
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    assert run_cli(argv + ["--config", str(cfg)]) == want


def _float_flag_cases():
    """(argv without the flag, flag, dest) for every float flag of every
    subcommand; each required flag gets its first choice, or 1."""
    subs = build_parser()._subparsers._group_actions[0].choices
    cases = []
    for command, sub in subs.items():
        required = [arg for a in sub._actions if a.required
                    for arg in (a.option_strings[0], a.choices[0] if a.choices else "1")]
        cases += [pytest.param([command] + required, a.option_strings[0], a.dest,
                               id=f"{command}{a.option_strings[0]}")
                  for a in sub._actions if a.type is float]
    return cases


@pytest.mark.parametrize("argv, flag, dest", _float_flag_cases())
@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_every_float_flag_must_be_finite(tmp_path, argv, flag, dest, value):
    """The parser's own float flags, by flag and by config file: a new flag
    is covered here as it is added.  --x-max inf used to fail in the output
    writer, --alpha nan on a float-to-int conversion and --tol inf on A+."""
    want = (2, "", f"error: {flag} must be finite (got {float(value)})\n")
    assert run_cli(argv + [f"{flag}={value}"]) == want
    if flag in argv:   # a required flag: a config file cannot give it
        return
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{dest} = {value}\n")
    assert run_cli(argv + ["--config", str(cfg)]) == want


@pytest.mark.parametrize("argv, flag, value", [
    (["classify"] + K0_FLAGS, "--A1", "-2.5e-1"),
    (["solve", "--class", "K0"] + K0_FLAGS, "--Ap", "-1e0"),
    (["eval", "--class", "K0"] + K0_FLAGS, "--A1", "-25E-2"),
    (["verify"] + L39A_FLAGS, "--Am", "-2e+0"),
    (["spectrum"] + _OSCILLATOR, "--A1", "-2.5e-1"),
    (["oracle"] + WELL_FLAGS + ["--r-min", "-5.7", "--r-max", "-1.2", "--grid-size", "500"],
     "--r-min", "-5.7e0"),
], ids=["classify", "solve", "eval", "verify", "spectrum", "oracle"])
def test_negative_values_in_exponent_notation(argv, flag, value):
    """argparse took a spaced -2.5e-1 for an option: "expected one argument"."""
    got = run_cli(argv + [flag, value])
    assert got == run_cli(argv + [f"{flag}={value}"]) and got[0] == 0


@pytest.mark.parametrize("value", ["-inf", "-Inf", "-INF", "-infinity", "-Infinity",
                                   "-nan", "-NaN", "-NAN"])
def test_spaced_negative_inf_and_nan_are_values(value):
    """argparse took a spaced -inf or -nan for an option: "expected one argument"."""
    argv = ["spectrum"] + _OSCILLATOR[:-2]
    want = (2, "", f"error: --A1 must be finite (got {float(value)})\n")
    assert run_cli(argv + ["--A1", value]) == run_cli(argv + [f"--A1={value}"]) == want


def test_free_flags_the_class_does_not_take_exit_2(tmp_path):
    """K0 used to ignore them and print its own coefficients."""
    argv = ["solve", "--class", "K0"] + K0_FLAGS
    assert run_cli(argv + ["--mu", "-5", "--tau", "3"]) == (
        2, "", "error: K0 does not take free parameters ['mu', 'tau']\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = 3\n")
    assert run_cli(argv + ["--config", str(cfg)]) == (
        2, "", "error: K0 does not take free parameters ['tau']\n")


def test_oscillator_lam_must_be_positive():
    """lam = 0 used to print all-zero energies and exit 0."""
    for lam in ("0", "-1"):
        want = (2, "", f"error: lam must be positive (got {float(lam)})\n")
        assert run_cli(["spectrum"] + _OSCILLATOR + [f"--lam={lam}"]) == want


@pytest.mark.parametrize("command", [_WELL_ORACLE, _OSCILLATOR_ORACLE], ids=["well", "oscillator"])
@pytest.mark.parametrize("lam", ["0", "-1"])
def test_oracle_lam_must_be_positive(command, lam):
    """The potentials read lam unchecked: the well exited 3 on an edge
    magnitude, and the oscillator, reading only lam**4, printed lam = 1's levels."""
    want = (2, "", f"error: lam must be positive (got {float(lam)})\n")
    assert run_cli(command + [f"--lam={lam}"]) == want


def test_well_at_a_huge_a_minus_is_refused_fast_in_bounded_memory():
    """At A- = 1e300 the default N = n_max asks for a Jacobi matrix of 1e300
    rows: it used to end in a MemoryError traceback (exit 1).  The well caps
    the matrix at 100,000 rows and exits 2 at once, here under a 1.5 GB
    address-space limit set in the child only."""
    resource = pytest.importorskip("resource")
    limit = 1536 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    proc = run_python(["-m", "trabessel.cli", "spectrum", "--system", "well",
                       "--Am", "1e300", "--Ap", "-1"],
                      env={"OPENBLAS_NUM_THREADS": "1"}, timeout=30, preexec_fn=cap_memory)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == "error: the well's Jacobi matrix has at most 100000 rows (got 1e+300)\n"


def test_solve_out_of_memory_exits_3_with_one_line():
    """L39A has no basis bound, so nothing bounds --N: at 1e8 the family's
    values outgrow a 64 MB address-space limit, set in the child only, within
    about a second.  A MemoryError carries no message, so the line names it."""
    resource = pytest.importorskip("resource")
    limit = 64 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    proc = run_python(["-m", "trabessel.cli", "solve"] + L39A_FLAGS + ["--N", "100000000"],
                      timeout=60, preexec_fn=cap_memory)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr == ("numerical failure: out of memory: the problem is too large "
                           "for this process\n")


def test_oracle_refuses_an_empty_domain():
    argv = ["oracle"] + _OSCILLATOR + ["--r-min", "2", "--r-max", "1"]
    assert run_cli(argv) == (2, "", "error: domain must satisfy r_min < r_max\n")


def test_well_n_must_be_nonnegative():
    """It used to fail in numpy: zero-size array to reduction operation maximum."""
    assert run_cli(["spectrum"] + WELL_FLAGS + ["--N", "-1"]) == (
        2, "", "error: N must be nonnegative\n")


def test_well_at_integer_a_minus():
    """N = n_max at A- = 3 puts a zero in the denominator of the last Jacobi
    diagonal entry; it used to exit 3 on a bare float division by zero."""
    argv = ["spectrum", "--system", "well", "--Am", "3", "--Ap", "-1", "--format", "csv"]
    assert run_cli(argv) == (
        2, "", "error: coefficient denominator (n+mu)(n+mu+1) vanishes at n=2\n")
    code, out, err = run_cli(argv + ["--N", "1"])
    assert (code, err) == (0, "") and len(out.splitlines()) == 3   # header and two levels


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 1\nb = 0\nAp = -1\nAm = 5\nA1 = -0.25\nA0 = 2  # eq-57 style\n")
    code, out, _ = run_cli(["classify", "--config", str(cfg)])
    assert code == 0 and "K0: admissible" in out
    # flags win over the file: A1 off the constraint removes K0
    code, out, _ = run_cli(["classify", "--config", str(cfg), "--A1", "0.5"])
    assert code == 0 and "K0" not in out


K0_CONFIG = "a = 1\nb = 0\nAp = -1\nAm = 5\nA1 = -0.25\nA0 = 2\n"


def test_config_loses_to_a_flag_equal_to_its_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(K0_CONFIG + "tol = 0.5\n")
    code, out, _ = run_cli(["classify", "--config", str(cfg), "--tol", "1e-12",
                            "--format", "json"])
    assert code == 0
    assert json.loads(out[out.index("{"):])["config_echo"]["tol"] == 1e-12


def test_config_out_is_a_path_not_a_file_descriptor(tmp_path):
    """`out = 1` names the file "1": the JSON goes there and stdout keeps
    only the classify lines."""
    (tmp_path / "run.cfg").write_text(K0_CONFIG + "out = 1\n")
    proc = run_python(["-m", "trabessel.cli", "classify", "--config", "run.cfg",
                       "--format", "json"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("K0: admissible") and "{" not in proc.stdout
    assert json.loads((tmp_path / "1").read_text())["config_echo"]["Am"] == 5.0


def test_config_value_is_typed_by_its_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(K0_CONFIG + "Am = abc\n")
    code, out, err = run_cli(["classify", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --Am: invalid float value: 'abc'\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["func", "command", "lev", "config"])
def test_config_key_must_name_a_flag_of_the_subcommand(tmp_path, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(K0_CONFIG + f"{key} = 3\n")
    assert run_cli(["classify", "--config", str(cfg)]) == (
        2, "", f"error: unknown config key {key!r}\n")


@pytest.mark.parametrize("word, shown", [("false", False), ("0", False), ("yes", True),
                                         ("True", True), ("1", True)])
def test_config_store_true_flag_reads_its_words(tmp_path, word, shown):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"with-residual = {word}\n")
    code, out, _ = run_cli(["verify"] + L39A_FLAGS + ["--config", str(cfg), "--N", "4"])
    assert code == 0 and ("residual(N=4): " in out) == shown


_FORMAT_XML = "config key 'format' must be one of csv, json (got 'xml')"


@pytest.mark.parametrize("argv, line, message", [
    (["classify"] + K0_FLAGS, "format = xml", _FORMAT_XML),
    (["spectrum", "--system", "oscillator", "--A1", "-0.25"], "format = xml", _FORMAT_XML),
    (["eval"] + L39A_FLAGS + ["--N", "5"], "x-spacing = cubic",
     "config key 'x_spacing' must be one of linear, logarithmic (got 'cubic')"),
], ids=["classify-format", "spectrum-format", "eval-x-spacing"])
def test_config_value_must_be_one_of_its_flags_choices(tmp_path, argv, line, message):
    """argparse checks choices in argv only; a config value is checked too."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run_cli(argv + ["--config", str(cfg)]) == (2, "", f"error: {message}\n")


def test_unopenable_user_paths_exit2_with_one_line(tmp_path):
    missing = tmp_path / "no" / "such"
    for argv in (["classify", "--config", str(missing / "run.cfg")],
                 ["classify"] + K0_FLAGS + ["--format", "json", "--out",
                                            str(missing / "x.json")]):
        code, _, err = run_cli(argv)
        assert code == 2 and err.startswith("error: [Errno 2] No such file or directory")
        assert err.count("\n") == 1


def test_missing_params_exit2():
    code, _, err = run_cli(["classify", "--a", "1"])
    assert code == 2
    assert "missing" in err


_CLI_VALUES = st.one_of(st.sampled_from((0.0, 1.0, -1.0, -0.25, 0.5, 2.0)),
                        st.floats(-10.0, 10.0), st.floats(-1e200, 1e200))


@st.composite
def _cli_argv(draw):
    """classify, solve, eval or verify at magnitudes up to 1e200, half of
    them on b^2 = 1 + 4*A1 or A+ = 0, where the classes live; each value is
    passed as --flag=value, since argparse reads a spaced -1e+200 as a flag."""
    cmd = draw(st.sampled_from(("classify", "solve", "eval", "verify")))
    p = {k: draw(_CLI_VALUES) for k in ("a", "b", "Ap", "Am", "A1", "A0")}
    if draw(st.booleans()):
        p["A1"] = (p["b"] * p["b"] - 1) / 4   # inf past 1e154: refused as not finite
    if draw(st.booleans()):
        p["Ap"] = 0.0
    argv = [cmd] + [f"--{k}={v!r}" for k, v in p.items()]
    if cmd != "classify":
        cls = draw(st.sampled_from(("K0", "K1", "C8B", "L39A", "L39B", "L39C")))
        # the free flags the class declares: resolve_class refuses any other
        argv += [f"--class={cls}"] + [f"--{k}={draw(_CLI_VALUES)!r}"
                                      for k in _CLASSES[ClassId(cls)][0].free]
    if cmd in ("solve", "eval"):
        # a bounded N: the default truncation of K0 at |A-| ~ 1e9 runs out of memory
        argv.append(f"--N={draw(st.integers(0, 8))}")
    return argv


@given(argv=_cli_argv())
@example(argv=["classify", "--a=1e+200", "--b=0", "--Ap=-1", "--Am=20.5", "--A1=-0.25",
               "--A0=2"])
@example(argv=["solve", "--class=L39B", "--a=1e+200", "--b=0", "--Ap=0", "--Am=0.5",
               "--A1=-0.25", "--A0=2", "--N=3"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_cli_exits_0_2_or_3_with_at_most_one_line(argv):
    code, _, err = run_cli(argv)
    assert code in (0, 2, 3) and err.count("\n") <= 1, (code, err)


@given(argv=_cli_argv())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_config_route_matches_the_flag_route(argv, tmp_path_factory):
    """Every drawn value moved into a config file (--class stays a flag)
    gives the same exit code, stdout and stderr as passing it as a flag."""
    cfg = tmp_path_factory.getbasetemp() / "property.cfg"
    kept = [arg for arg in argv[1:] if arg.startswith("--class=")]
    cfg.write_text("".join(arg[2:].replace("=", " = ", 1) + "\n"
                           for arg in argv[1:] if arg not in kept))
    assert run_cli(argv[:1] + kept + ["--config", str(cfg)]) == run_cli(argv)


# ordinary values, among them exponent-notation negatives and those of the
# documented K0 and L39A sets, and one in ten from the edge cases
_ARGV_FLOATS = ("0", "1", "-1", "0.5", "-0.25", "1.5", "2", "0.9375", "5", "20.5", "1e-12",
                "-2.5e-1", "-1e0", "-1.005e2")
_ARGV_FLOAT_EDGES = ("-0.0", "1e300", "-1e300", "inf", "-inf", "nan", "-Infinity")
_ARGV_COUNTS = ("0", "1", "3", "50")
# no huge integers: a huge --N runs until memory runs out, which exits 3
# (test_solve_out_of_memory_exits_3_with_one_line) but takes this process's memory
_ARGV_COUNT_EDGES = ("-1", "-0", "1.5", "1e1", "-2.5e-1", "nan", "inf")
_SUBPARSERS = build_parser()._subparsers._group_actions[0].choices


@st.composite
def _subcommand_argv(draw, command):
    """command with each flag of its own parser (bar --config, --out and
    --help) given nine times in ten, in either spelling, and a store_true
    flag without a value; a free flag that the drawn class does not take, or
    a system flag that the drawn system takes no value for, one time in ten."""
    klass = draw(st.sampled_from(_SUBPARSERS["solve"]._option_string_actions["--class"].choices))
    foreign = {"mu", "alpha", "tau"} - set(_CLASSES[ClassId(klass)][0].free)
    if "--system" in _SUBPARSERS[command]._option_string_actions:
        system = draw(st.sampled_from(sorted(_SYSTEM_FLAGS)))
        foreign = {key for key, _ in _SYSTEM_FLAGS[system][1]}
    argv = [command]
    for action in _SUBPARSERS[command]._actions:
        odds = 1 if action.dest in foreign else 9
        if action.dest in ("help", "config", "out") or draw(st.integers(0, 9)) >= odds:
            continue
        if action.nargs == 0:  # store_true: a value would be a stray argument
            argv.append(action.option_strings[0])
            continue
        if action.dest == "klass":
            values = [klass]
        elif action.dest == "system":
            values = [system]
        elif action.choices is not None:
            values = sorted(action.choices)
        elif draw(st.integers(0, 9)):
            values = _ARGV_COUNTS if action.type is int else _ARGV_FLOATS
        else:
            values = _ARGV_COUNT_EDGES if action.type is int else _ARGV_FLOAT_EDGES
        value, flag = draw(st.sampled_from(values)), action.option_strings[0]
        argv += draw(st.sampled_from(([f"{flag}={value}"], [flag, value])))
    return argv


def _assert_the_failure_contract(argv):
    """Exit 0, 2 or 3. A failure writes one `error:` or `numerical failure:`
    line, or (exit 2) the subcommand's usage and one argparse line; never a
    traceback. A RuntimeWarning is an error under the test settings."""
    code, _, err = run_cli(argv)
    assert code in (0, 2, 3) and "Traceback" not in err, (code, err)
    usage = _SUBPARSERS[argv[0]].format_usage()
    if code == 0:
        assert err == ""
    elif code == 2 and err.startswith(usage):
        assert err[len(usage):].startswith(f"trabessel {argv[0]}: error: ")
        assert err[len(usage):].count("\n") == 1, err
    else:
        assert err.startswith(("error: ", "numerical failure: ")) and err.count("\n") == 1, err


@given(argv=st.sampled_from(("classify", "solve")).flatmap(_subcommand_argv))
@example(argv=["classify"] + K0_FLAGS[:6] + ["--Am", "20.5"] + K0_FLAGS[8:])
@example(argv=["solve", "--class", "K0"] + K0_FLAGS[:6] + ["--Am", "100.5"] + K0_FLAGS[8:])
@example(argv=["solve", "--class", "K0"] + K0_FLAGS[:6] + ["--Am", "1e300"] + K0_FLAGS[8:])
@example(argv=["solve"] + L39A_FLAGS + ["--N", "50", "--format", "csv"])
@example(argv=["solve"] + L39A_FLAGS + ["--N", "1.5"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_classify_and_solve_keep_the_failure_contract(argv):
    _assert_the_failure_contract(argv)


@given(argv=st.sampled_from(("eval", "verify", "spectrum", "oracle")).flatmap(_subcommand_argv))
@example(argv=["verify"] + L39A_FLAGS + ["--n", "3", "--with-residual"])
@example(argv=["spectrum"] + WELL_FLAGS + ["--N", "50"])
@example(argv=["oracle"] + WELL_FLAGS + ["--r-min", "-5.7", "--r-max", "-1.2"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_eval_verify_spectrum_and_oracle_keep_the_failure_contract(argv):
    _assert_the_failure_contract(argv)


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "trabessel.cli", "version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_solve_l39c_refuses_beta_free_flag():
    """--beta-free was a second spelling of --tau, and lost silently to it."""
    code, out, err = run_cli(["solve", "--class", "L39C", "--a", "1.5", "--b", "0",
                              "--Ap", "0", "--Am", "1", "--A1", "-0.25",
                              "--A0", "0.9375", "--tau", "3", "--beta-free", "0.1"])
    assert (code, out) == (2, "") and "unrecognized arguments: --beta-free 0.1" in err


def test_verify_degree_range_exit2():
    code, out, err = run_cli(["verify", "--class", "L39A", "--a", "1.5", "--b", "0",
                              "--Ap", "0", "--Am", "2", "--A1", "1",
                              "--A0", "0.9375", "--n", "2", "--n-min", "5"])
    assert code == 2 and out == ""
    assert "--n-min" in err and "--n 2" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--system", "well", "--Am", "20.5", "--Ap", "-1", "--levels", "0"],
    ["spectrum", "--system", "oscillator", "--A1", "-0.25", "--levels", "0"],
    ["spectrum", "--system", "oscillator", "--A1", "-0.25", "--levels", "-3"],
    ["oracle", "--system", "well", "--Am", "20.5", "--Ap", "-1",
     "--r-min", "-5.7", "--r-max", "-1.2", "--levels", "0"],
    ["oracle", "--system", "oscillator", "--A1", "-0.25", "--r-min", "1e-6",
     "--r-max", "14", "--levels", "-1"],
], ids=["spectrum-well-0", "spectrum-oscillator-0", "spectrum-oscillator-neg",
        "oracle-well-0", "oracle-oscillator-neg"])
def test_spectrum_levels_below_one_exit2(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert "n_levels >= 1" in err


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--system", "oscillator", "--A1", "-0.25", "--Lambda", "0",
      "--ell", "0", "--levels", "0"], "n_levels >= 1 (got 0)"),
    (["spectrum", "--system", "well", "--Am", "0.2", "--Ap", "0"],
     "Morse limit needs A- > 1/2 (got 0.2)"),
    (["spectrum", "--system", "well", "--Am", "0.5", "--Ap", "0"],
     "Morse limit needs A- > 1/2 (got 0.5)"),
    (["spectrum", "--system", "well", "--Am", "0.5000000000001", "--Ap", "0"],
     "Morse limit needs A- > 1/2 (got 0.5000000000001)"),
    (["oracle", "--system", "well", "--Am", "20.5", "--Ap", "-1", "--r-min", "0.01",
      "--r-max", "10", "--grid-size", "50"], "fd oracle needs grid_size >= 100 (got 50)"),
    (["solve", "--class", "K0", "--a", "1", "--b", "0", "--Ap", "0", "--Am", "20.5",
      "--A1", "-0.25", "--A0", "2"], "A+ must be nonzero for K0 (residual 0.000e+00)"),
    (["verify", "--class", "K0", "--a", "1", "--b", "0.5", "--Ap", "-1", "--Am", "20.5",
      "--A1", "-0.25", "--A0", "2"], "b^2 = 1 + 4*A1 (residual 2.500e-01)"),
    (["spectrum", "--system", "oscillator", "--A1", "-0.25", "--ell", "-1"],
     "angular momentum ell >= 0 (got -1)"),
    (["oracle", "--system", "oscillator", "--A1", "-0.25", "--ell", "-1", "--r-min", "1e-6",
      "--r-max", "14"], "angular momentum ell >= 0 (got -1)"),
], ids=["levels-count", "morse-value", "morse-at-one-half", "morse-just-above-one-half",
        "grid-size-count", "solver-residual", "solver-relation-residual",
        "spectrum-negative-ell", "oracle-negative-ell"])
def test_constraint_violation_labels_its_number(argv, message):
    """An offending count or value reads "got"; a relation's miss reads "residual"."""
    code, out, err = run_cli(argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


ROOT = Path(__file__).resolve().parents[1]


def _perfbench_workloads():
    """perfbench/workloads.py, loaded without writing bytecode under perfbench/."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


WORKLOADS = _perfbench_workloads()


# Runs one CLI command in a fresh interpreter and reports its exit code and
# the modules it loaded; the command's own output is swallowed.
_IMPORT_PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if sys.argv[1:]:
        from trabessel.cli import main
        code = main(sys.argv[1:])
    else:
        import trabessel
        code = 0
print(json.dumps({"code": code, "loaded": sorted(sys.modules)}))
"""


def _modules_loaded(argv, packages=("scipy", "numpy.f2py"), code=0):
    """The modules of `packages` that a fresh interpreter loads to run the
    command argv, which exits with `code` (a bare `import trabessel` for [])."""
    proc = run_python(["-c", _IMPORT_PROBE] + argv)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == code
    return [m for m in report["loaded"]
            if any(m == p or m.startswith(p + ".") for p in packages)]


@pytest.mark.parametrize("argv", [
    [],
    ["classify"] + K0_FLAGS,
    ["solve", "--class", "K0"] + K0_FLAGS,
    ["eval"] + L39A_FLAGS + ["--N", "20"],
    ["verify"] + L39A_FLAGS + ["--n", "3"],
    ["spectrum", "--system", "oscillator", "--A1", "-0.25"],
], ids=["import", "classify", "solve", "eval", "verify", "spectrum-oscillator"])
def test_commands_without_an_eigensolve_load_no_scipy(argv):
    assert _modules_loaded(argv) == []


# the trabessel modules each benchmark command runs, besides the package,
# cli, _classid, errors and jsonio, which every command loads, and whether
# it loads numpy
_SCALAR_LAYERS = ("solver", "families", "_basisspec", "ode", "_record")
_SOLVER_LAYERS = _SCALAR_LAYERS + ("basis",)
_QUANTUM_LAYERS = ("quantum", "ode", "_record")
_LAYERS_RUN = {"classify": (_SCALAR_LAYERS, False), "solve": (_SCALAR_LAYERS, False),
               "eval": (_SOLVER_LAYERS + ("grid",), True),
               "verify": (_SOLVER_LAYERS + ("grid", "verify"), True),
               "spectrum-well": (_SCALAR_LAYERS + ("quantum", "_lapack"), False),
               "spectrum-oscillator": (_QUANTUM_LAYERS, False),
               "oracle": (_QUANTUM_LAYERS + ("_lapack",), True)}
# the benchmark commands, and a well whose default levels come from a leading
# block of its Jacobi matrix (A- = 20.5 solves all of it)
_GOLDEN = json.loads(WORKLOADS.CLI_GOLDEN.read_text(encoding="utf-8"))
_LAYERS_COMMANDS = {**{key: (argv, _GOLDEN[key]["exit"])
                       for key, argv in WORKLOADS.CLI_COMMANDS.items()},
                    "spectrum-well-Am400.5": (["spectrum", "--system", "well",
                                               "--Am", "400.5", "--Ap", "-1"], 0)}


@pytest.mark.parametrize("key", sorted(_LAYERS_COMMANDS))
def test_each_command_loads_only_the_layers_it_runs(key):
    """The oscillator and FD commands load no solver, families, basis or
    verify; classify, solve and eval no quantum or verify; only the
    eigensolving commands load the LAPACK module; no command loads the
    test oracles (trabessel.oracles); and classify, solve, even one that
    fails, and both spectra, the well's leading block included, do
    Python-float arithmetic without loading numpy.  None loads mpmath, which
    only the oracles use."""
    layers, numpy = next(v for k, v in _LAYERS_RUN.items() if key.startswith(k))
    want = ["trabessel"] + [f"trabessel.{m}" for m in ("cli", "_classid", "errors", "jsonio")
                            + layers]
    argv, code = _LAYERS_COMMANDS[key]
    loaded = _modules_loaded(argv, ("trabessel", "numpy", "mpmath"), code)
    assert [m for m in loaded if m.startswith("trabessel")] == sorted(want)
    assert ("numpy" in loaded) is numpy
    assert not [m for m in loaded if m.startswith("mpmath")]


def test_the_morse_well_loads_neither_numpy_nor_the_solver():
    """The A+ = 0 well's closed-form levels need K0's basis bound, not its
    Jacobi matrix, and no mpmath."""
    argv = ["spectrum", "--system", "well", "--Ap", "0", "--Am", "20.5"]
    want = ["trabessel"] + [f"trabessel.{m}" for m in ("cli", "_classid", "errors", "jsonio",
                                                      "quantum", "ode", "_record",
                                                      "_basisspec")]
    assert _modules_loaded(argv, ("trabessel", "numpy", "scipy", "mpmath")) == sorted(want)


def test_package_import_loads_no_submodule():
    assert _modules_loaded([], ("trabessel",)) == ["trabessel"]


def test_version_and_the_cli_import_load_no_numpy():
    """jsonio encodes Python scalars and lists only, so no module that every
    command loads imports numpy."""
    assert _modules_loaded(["version"], ("numpy",)) == []
    probe = "import sys, trabessel.cli; print('numpy' in sys.modules)"
    proc = run_python(["-c", probe])
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_cli_import_loads_no_dataclasses():
    """The records are plain classes, so a cold start generates no dataclass code."""
    probe = "import sys, trabessel.cli; print('dataclasses' in sys.modules)"
    proc = run_python(["-c", probe])
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize("argv", [
    ["spectrum"] + WELL_FLAGS,
    ["oracle"] + WELL_FLAGS + ["--r-min", "-5.7", "--r-max", "-1.2",
                               "--grid-size", "500"],
], ids=["spectrum-well", "oracle-well"])
def test_eigensolves_load_only_scipys_lapack_wrappers(argv):
    """The eigensolves call LAPACK in the shared object of scipy's compiled
    wrappers, which ctypes opens without importing it: they load no scipy
    module at all (not scipy.linalg, its array-API shim or scipy.special),
    and not the numpy.f2py the shim would pull in."""
    assert _modules_loaded(argv) == []


@pytest.mark.parametrize("key", sorted(WORKLOADS.CLI_COMMANDS))
def test_cli_output_matches_the_benchmark_golden(key):
    """Each benchmark CLI command, in a fresh process, exits and prints as
    recorded in perfbench/cli_golden.json (stdout by sha256)."""
    want = json.loads(WORKLOADS.CLI_GOLDEN.read_text(encoding="utf-8"))[key]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(WORKLOADS.cli_argv(WORKLOADS.CLI_COMMANDS[key]), capture_output=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == want["exit"], proc.stderr
    assert WORKLOADS.stdout_digest(proc.stdout) == want["stdout_sha256"]


@pytest.mark.parametrize("key", sorted(WORKLOADS.CLI_COMMANDS))
def test_config_route_matches_the_benchmark_golden(key, tmp_path):
    """Each benchmark CLI command with every flag that is not required moved
    into a config file exits and prints as its golden records."""
    want = json.loads(WORKLOADS.CLI_GOLDEN.read_text(encoding="utf-8"))[key]
    command, *pairs = WORKLOADS.CLI_COMMANDS[key]
    argv, lines = [command], []
    for flag, value in zip(pairs[::2], pairs[1::2]):
        if flag in ("--class", "--system", "--r-min", "--r-max"):
            argv += [flag, value]
        else:
            lines.append(f"{flag[2:]} = {value}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(lines))
    code, out, _ = run_cli(argv + ["--config", str(cfg)])
    assert code == want["exit"]
    assert WORKLOADS.stdout_digest(out.encode()) == want["stdout_sha256"]
