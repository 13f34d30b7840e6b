import contextlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import thetakernels

CURVE_SPEC = '{"f": [0, -1, 0, 1]}\n'

# child interpreters import the same copy of the package as the tests
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(thetakernels.__file__)),
    os.environ.get("PYTHONPATH")])))


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "thetakernels.cli"] + args,
                          capture_output=True, text=True, env=ENV, **kwargs)


@pytest.fixture()
def curve_file(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(CURVE_SPEC)
    return str(path)


class TestPeriodsCommand:
    def test_square_lattice_report(self, curve_file):
        res = run_cli(["periods", "--curve", curve_file])
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        om = rep["Omega"][0][0]
        assert abs(om[0]) < 1e-9 and abs(om[1] - 1.0) < 1e-9
        assert rep["symmetry_residual"] <= 1e-9
        assert rep["min_im_eigenvalue"] > 0

    def test_malformed_spec(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_cli(["periods", "--curve", str(bad)])
        assert res.returncode == 2
        assert res.stderr.strip()

    def test_missing_curve(self):
        res = run_cli(["periods"])
        assert res.returncode == 2


class TestVerifyCommand:
    def test_unknown_suite(self):
        res = run_cli(["verify", "nope"])
        assert res.returncode == 2

    def test_jets_all_exact(self):
        res = run_cli(["verify", "jets"])
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["pass"]
        assert all(c["residual"] == 0.0 for c in rep["checks"])

    def test_fay_suite(self, curve_file):
        res = run_cli(["verify", "fay", "--curve", curve_file])
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["checks"][0]["residual"] <= 1e-8


class TestProbeCommand:
    def test_deterministic_csv(self, curve_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            res = run_cli(["probe", "--curve", curve_file, "--samples", "25",
                           "--seed", "3", "--format", "csv",
                           "--out", str(out)])
            assert res.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("e_re_0,e_im_0")

    def test_json_report(self, curve_file):
        res = run_cli(["probe", "--curve", curve_file, "--samples", "10",
                       "--seed", "0"])
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["n_samples"] == 10
        assert rep["n_nontrivial"] == 0

    def test_single_sample_rejected(self, curve_file):
        res = run_cli(["probe", "--curve", curve_file, "--samples", "1"])
        assert res.returncode == 2

    def test_huge_collision_tol_is_not_a_warning(self, curve_file, capsys):
        # the squared thresholds overflow to inf, which only adds pairs
        from thetakernels import cli
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["probe", "--curve", curve_file, "--samples", "3",
                             "--collision-tol", "1e200"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert [(c["i"], c["j"]) for c in rep["collisions"]] == \
            [(0, 1), (0, 2), (1, 2)]


class TestArgumentContracts:
    @pytest.mark.parametrize("args", [
        ["probe", "--curve", "CURVE", "--samples", "0"],
        ["probe", "--curve", "CURVE", "--tol", "0"],
        ["eval", "theta", "--omega", "5", "--z", "0"],
        ["verify", "jets", "--order", "1"],
    ])
    def test_bad_input_exits_2(self, curve_file, args):
        res = run_cli([curve_file if a == "CURVE" else a for a in args])
        assert res.returncode == 2
        assert "Traceback" not in res.stderr

    def test_import_leaves_scipy_unloaded(self):
        code = ("import sys, thetakernels.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=ENV)
        assert res.returncode == 0
        assert res.stdout.strip() == "[]"

    def test_numeric_commands_leave_exact_arithmetic_unloaded(self, tmp_path):
        quintic = tmp_path / "quintic.json"
        quintic.write_text('{"f": [0, -1, 0, 0, 0, 1]}')
        code = f"""
import contextlib, io, sys
from thetakernels import cli
for argv in (["eval", "szego", "--curve", {str(quintic)!r},
              "--e", "0.3+0.1j,-0.2+0.05j", "--x1", "2.0", "--x2", "-2.0"],
             ["verify", "fay"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted({{"thetakernels.series", "thetakernels.jets", "fractions",
               "numpy.polynomial"}} & set(sys.modules)))
"""
        res = subprocess.run([sys.executable, "-W", "error", "-c", code],
                             capture_output=True, text=True, env=ENV)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


class TestEvalCommand:
    def test_theta_value(self):
        res = run_cli(["eval", "theta", "--omega", "[[[0,1]]]", "--z", "0"])
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert abs(rep["value"][0] - 1.08643481121331) < 1e-11
        assert abs(rep["value"][1]) < 1e-12

    def test_szego_on_divisor_exits_4(self, curve_file):
        res = run_cli(["eval", "szego", "--curve", curve_file,
                       "--e", "0.5+0.5j", "--x1", "2.0", "--x2", "-2.0"])
        assert res.returncode == 4

    def test_bergman_swap_symmetry(self, curve_file):
        a = run_cli(["eval", "bergman", "--curve", curve_file,
                     "--x1", "2.0", "--x2", "-2.0"])
        b = run_cli(["eval", "bergman", "--curve", curve_file,
                     "--x1", "-2.0", "--x2", "2.0"])
        assert a.returncode == 0 and b.returncode == 0
        va = json.loads(a.stdout)["value"]
        vb = json.loads(b.stdout)["value"]
        assert np.allclose(va, vb, rtol=1e-9)

    def test_wirtinger_eval(self, curve_file):
        res = run_cli(["eval", "wirtinger", "--curve", curve_file,
                       "--e", "0.31+0.17j", "--x1", "2.0"])
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert abs(complex(*rep["value"])
                   - (0.40809817348537 + 0.17383322084278j)) < 1e-8

    @pytest.mark.parametrize("what, x1", [("szego", "3000"), ("klein", "1e6")])
    def test_far_point(self, tmp_path, what, x1):
        # the Abel map's path to x1 is one long leg of graded pieces
        curve = tmp_path / "quintic.json"
        curve.write_text('{"f": [0, -1, 0, 0, 0, 1]}\n')
        res = run_cli(["eval", what, "--curve", str(curve), "--e",
                       "0.3+0.1j,-0.2+0.05j", "--x1", x1, "--x2", "2.0"])
        assert res.returncode == 0, res.stderr
        assert np.all(np.isfinite(json.loads(res.stdout)["value"]))


def assert_one_error_line(res):
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


class TestEvalInputContracts:
    def test_theta_without_z(self):
        assert_one_error_line(run_cli(["eval", "theta", "--omega", "[[1]]"]))

    @pytest.mark.parametrize("what,args", [
        ("szego", ["--x1", "2.0", "--x2", "-2.0"]),
        ("szego", ["--e", "0.3+0.1j", "--x2", "-2.0"]),
        ("klein", ["--e", "0.3+0.1j", "--x1", "2.0"]),
        ("bergman", ["--x1", "2.0"]),
        ("wirtinger", ["--e", "0.3+0.1j"]),
        ("wirtinger", ["--x1", "2.0"]),
    ])
    def test_kernel_without_point_or_class(self, curve_file, what, args):
        assert_one_error_line(run_cli(["eval", what, "--curve", curve_file]
                                      + args))

    @pytest.mark.parametrize("omega", ["[[1, 2], [3]]", "[[1], [2, 3]]",
                                       "[[[0, 1], 2], [3]]"])
    def test_ragged_omega(self, capsys, omega):
        from thetakernels import cli
        assert cli.main(["eval", "theta", "--omega", omega, "--z", "0.1"]) == 2
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert out == "" and len(lines) == 1
        assert lines[0].startswith("error:") and "--omega" in lines[0]
        assert "inhomogeneous" not in err and "sequence" not in err

    @pytest.mark.parametrize("x1", ["nan", "inf", "1e200"])
    @pytest.mark.parametrize("what,args", [
        ("szego", ["--e", "0.3+0.1j", "--x2", "-2.0"]),
        ("wirtinger", ["--e", "0.3+0.1j"]),
    ])
    def test_non_finite_point(self, curve_file, what, args, x1):
        assert_one_error_line(run_cli(["eval", what, "--curve", curve_file,
                                       "--x1", x1] + args))

    @pytest.mark.parametrize("what", ["szego", "klein", "wirtinger"])
    def test_class_of_the_wrong_length(self, tmp_path, what):
        # a one-entry class on y^2 = x^5 - x fails before the Klein
        # kernel's lattice test, with one error line
        curve = tmp_path / "genus2.json"
        curve.write_text('{"f": [0, -1, 0, 0, 0, 1]}')
        res = run_cli(["eval", what, "--curve", str(curve), "--e", "0.3+0.1j",
                       "--x1", "2.0"] + (["--x2", "-2.0"]
                                         if what != "wirtinger" else []))
        assert_one_error_line(res)
        assert "dimension mismatch" in res.stderr

    @pytest.mark.parametrize("argv", [
        ["eval", "theta", "--omega", "[[Infinity]]", "--z", "0.1"],
        ["eval", "theta", "--omega", "[[1, 0], [0, NaN]]", "--z", "0.1,0"],
        ["eval", "theta", "--omega", "[[[0, -Infinity]]]", "--z", "0.1"],
        ["periods", "--curve", "NAN_CURVE"],
        ["periods", "--curve", "INF_CURVE"],
        # the Klein kernel's classes e and -e summed to inf - inf
        ["eval", "klein", "--curve", "CURVE", "--e", "inf", "--x1", "2.0",
         "--x2", "-2.0"],
    ])
    def test_non_finite_input_exits_2_without_warning(self, tmp_path, capsys,
                                                      argv):
        from thetakernels import cli
        for name, spec in (("CURVE", CURVE_SPEC),
                           ("NAN_CURVE", '{"f": [0, -1, NaN, 0, 0, 1]}'),
                           ("INF_CURVE", '{"f": [0, -1, Infinity, 0, 0, 1]}')):
            path = tmp_path / f"{name}.json"
            path.write_text(spec)
            argv = [str(path) if a == name else a for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
        assert caught == []
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "finite" in err

    def test_non_numeric_coefficient(self, tmp_path):
        from thetakernels.curves import curve_from_spec
        with pytest.raises(ValueError):
            curve_from_spec({"f": [None, -1, 0, 1]})
        bad = tmp_path / "null.json"
        bad.write_text('{"f": [null, -1, 0, 1]}')
        assert_one_error_line(run_cli(["periods", "--curve", str(bad)]))

    @pytest.mark.parametrize("argv", [
        ["periods", "--curve", "CURVE"],
        ["eval", "theta", "--omega", "[[true]]", "--z", "0"],
        ["eval", "theta", "--omega", "[[[1, false]]]", "--z", "0"],
        ["eval", "theta", "--omega", "[[1]]", "--z", "[true]"],
    ])
    def test_boolean_entries_exit_2(self, tmp_path, capsys, argv):
        # complex(True) is 1 + 0j: a JSON true must not pass for a number
        from thetakernels import cli
        path = tmp_path / "curve.json"
        path.write_text('{"f": [0, -1, 0, 0, 0, true]}')
        assert cli.main([str(path) if a == "CURVE" else a for a in argv]) == 2
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert out == "" and len(lines) == 1
        assert lines[0].startswith("error:")
        assert "True" in lines[0] or "False" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["periods", "--curve", "CURVE"],
        ["eval", "theta", "--omega", "[" * 50_000 + "]" * 50_000,
         "--z", "0.1"],
        ["eval", "szego", "--curve", "CURVE", "--e", "[" * 50_000,
         "--x1", "2.0", "--x2", "-2.0"],
    ])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, argv):
        # the JSON parser recurses per level: too deep is a bad input
        from thetakernels import cli
        path = tmp_path / "deep.json"
        path.write_text('{"f": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert cli.main([str(path) if a == "CURVE" else a for a in argv]) == 2
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert out == "" and len(lines) == 1
        assert lines[0].startswith("error:") and "nests too deeply" in lines[0]

    @pytest.mark.parametrize("flag", ["--theta-tol", "--tol"])
    def test_bergman_takes_no_theta_tol(self, curve_file, flag):
        # Klein's closed form sums no theta series
        code, err = run_in_process(["eval", "bergman", "--curve", curve_file,
                                    "--x1", "2.0", "--x2", "-2.0", flag,
                                    "1e-10"])
        assert code == 2
        assert f"unrecognized arguments: {flag} 1e-10" in err

    def test_wirtinger_takes_no_order(self, curve_file):
        # the connection reads its germs at one fixed order
        code, err = run_in_process(["eval", "wirtinger", "--curve", curve_file,
                                    "--e", "0.31+0.17j", "--x1", "2.0",
                                    "--order", "8"])
        assert code == 2
        assert "unrecognized arguments: --order 8" in err

    @pytest.mark.parametrize("args", [
        ["eval", "theta", "--omega", "[[[0.2,1.1]]]", "--z", "-0.1+0.2j"],
        ["eval", "szego", "--curve", "CURVE", "--e", "-0.3-0.1j",
         "--x1", "-1.9+0.4j", "--x2", "2.2-0.3j"],
        ["eval", "bergman", "--curve", "CURVE", "--x1", "2.2+0.3j",
         "--x2", "-1.9+0.4j"],
    ])
    def test_negative_complex_value_as_separate_token(self, curve_file, args):
        args = [curve_file if a == "CURVE" else a for a in args]
        joined = []
        for a in args:
            if joined and joined[-1] in ("--z", "--e", "--x1", "--x2"):
                joined[-1] += "=" + a
            else:
                joined.append(a)
        separate, attached = run_cli(args), run_cli(joined)
        assert separate.returncode == 0 and attached.returncode == 0
        assert separate.stdout == attached.stdout

    def test_theta_value_beyond_double_range(self):
        res = run_cli(["eval", "theta", "--omega", "[[1]]", "--z", "1e8j"])
        assert res.returncode == 0
        assert "Traceback" not in res.stderr
        rep = json.loads(res.stdout)
        assert rep["value"] is None
        assert all(np.isfinite(rep["mantissa"])) and np.isfinite(rep["exponent"])


class TestThetaTolReachesSuites:
    """--theta-tol is passed to every theta-dependent call of a verify
    suite; the Bergman kernel, Klein's closed form, has no theta sum."""

    @pytest.mark.parametrize("suite,names", [
        ("theta", ["theta_value", "second_order_theta_basis"]),
        ("kernels", ["prime_form", "szego_kernel"]),
        ("gauss", ["find_theta_zero", "gauss_limit_check"]),
        ("fay", ["klein_kernel", "klein_coordinates"]),
    ])
    def test_tol_is_forwarded(self, tmp_path, monkeypatch, capsys, suite, names):
        from thetakernels import cli
        curve = tmp_path / "genus2.json"
        curve.write_text('{"f": [0, -1, 0, 0, 0, 1]}')
        seen = {name: [] for name in names}
        for name in names:
            def recording(*args, _real=getattr(cli, name), _seen=seen[name],
                          **kwargs):
                _seen.append(kwargs.get("tol"))
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, recording)
        argv = ["verify", suite, "--theta-tol", "1e-10"]
        if suite != "theta":
            argv += ["--curve", str(curve)]
        assert cli.main(argv) in (0, 1)
        capsys.readouterr()
        for name in names:
            assert seen[name] and set(seen[name]) == {1e-10}, name


# ----------------------------------------------------------------------
# Fuzzing: every argv ends in exit code 0, 2, 3 or 4, without a traceback
# ----------------------------------------------------------------------

def run_in_process(argv):
    """(exit code, stderr) of cli.main(argv), run in this process."""
    from thetakernels import cli
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Curve specs and output paths the fuzzed argv refer to by name."""
    root = tmp_path_factory.mktemp("fuzz")
    specs = {"curve.json": CURVE_SPEC, "broken.json": "{not json",
             "null.json": '{"f": [null, -1, 0, 1]}', "scalar.json": "5",
             "list.json": "[0, -1, 0, 1]", "number_f.json": '{"f": 5}',
             "square.json": '{"f": [1, 2, 1]}', "const.json": '{"f": [1]}'}
    for name, text in specs.items():
        (root / name).write_text(text)
    return root


GOOD_POINTS = ["2.0", "-2.0", "2.2+0.3j", "-1.9+0.4j", "[2.2, 0.3]",
               "2.2 + 0.3j"]
GOOD_CLASSES = ["0.3+0.1j", "-0.2-0.1j", "[[0.3, 0.1]]", "[0.3]",
                "0.31 + 0.17j"]
BAD_COMPLEX = ["0.5+0.5j", "0", "1", "1e-7", "nan", "inf", "1e200",
               "1e300j", "-1e300", "[]", "[[1]]", "[null]", '[{"a": 1}]',
               "[1, [2]]", "[null, 1]", "[1, 2, 3]", '"x"', "[", "", ",",
               "0.3,0.1", "abc", "true", "[true]"]
#: (good values, bad values) of each flag
FUZZ_VALUES = {
    "--curve": (["curve.json"],
                ["missing.json", ".", "broken.json", "null.json",
                 "scalar.json", "list.json", "number_f.json", "square.json",
                 "const.json"]),
    "--quadrature-tol": (["1e-11", "1e-6"],
                         ["1e-300", "0", "-1", "nan", "inf", "x"]),
    "--theta-tol": (["1e-12"], ["1e-300", "0", "-1", "nan", "x"]),
    "--tol": (["1e-12"], ["0"]),
    "--collision-tol": (["1e-6", "0.5"], ["0", "inf", "x"]),
    "--seed": (["0", "3"], ["-1", "x"]),
    "--samples": (["2", "5"], ["1", "0", "-3", "x"]),
    "--order": (["6", "8"], ["5", "0", "-1", "x"]),
    "--format": (["json", "csv"], ["xml"]),
    "--out": (["out.json", "out.csv"], ["missing_dir/out.json", "."]),
    "--omega": (["[[1]]", "[[[0, 1]]]"],
                ["[[1, 0.2], [0.2, 1.5]]", "[[-1]]", "[[1, 2]]", "[[null]]",
                 "[[[1]]]", "5", "[]", "[[]]", "{", "[[1e-300]]"]),
    "--z": (GOOD_CLASSES, BAD_COMPLEX),
    "--e": (GOOD_CLASSES, BAD_COMPLEX),
    "--x1": (GOOD_POINTS, BAD_COMPLEX),
    "--x2": (GOOD_POINTS, BAD_COMPLEX),
    "--sheet1": (["1", "-1"], ["0", "2", "x"]),
    "--sheet2": (["1", "-1"], ["0", "2"]),
}
#: the flags each command, each verify suite and each evaluator takes: a
#: fuzzed argv has each of a command's first flags with probability 3/4, a
#: few more of its own, and rarely one of another command
CURVE_SUITE_FLAGS = ("--curve", "--quadrature-tol", "--theta-tol", "--tol",
                     "--out")
EVAL_TOL_FLAGS = ("--theta-tol", "--tol", "--quadrature-tol", "--out")
COMMAND_FLAGS = {
    "periods": ("--curve", "--quadrature-tol", "--out"),
    "probe": ("--curve", "--samples", "--seed", "--theta-tol", "--tol",
              "--collision-tol", "--format", "--quadrature-tol", "--out"),
    "eval theta": ("--omega", "--z", "--theta-tol", "--tol", "--out",
                   "--curve", "--quadrature-tol"),
    "eval szego": ("--curve", "--e", "--x1", "--x2", "--sheet1", "--sheet2")
    + EVAL_TOL_FLAGS,
    "eval klein": ("--curve", "--e", "--x1", "--x2", "--sheet1", "--sheet2")
    + EVAL_TOL_FLAGS,
    "eval bergman": ("--curve", "--x1", "--x2", "--sheet1", "--sheet2",
                     "--quadrature-tol", "--out"),
    "eval wirtinger": ("--curve", "--e", "--x1", "--sheet1")
    + EVAL_TOL_FLAGS,
    "verify theta": ("--seed", "--theta-tol", "--tol", "--out"),
    "verify jets": ("--seed", "--order", "--out"),
    "verify kernels": CURVE_SUITE_FLAGS,
    "verify fay": CURVE_SUITE_FLAGS + ("--seed",),
    "verify gauss": CURVE_SUITE_FLAGS + ("--seed",),
}
COMMANDS = [["periods"], ["probe"]] \
    + [["eval", w] for w in ("theta", "szego", "klein", "bergman",
                             "wirtinger", "nope")] \
    + [["verify", s] for s in ("theta", "kernels", "fay", "jets", "gauss",
                               "nope")]
PATH_FLAGS = ("--curve", "--out")


def own_flags(head):
    """The flags of a command head such as ["verify", "fay"]; an unknown
    verify suite draws from those of verify fay, an unknown evaluator
    from those of eval szego."""
    fallback = {"verify": "verify fay", "eval": "eval szego"}.get(head[0])
    return COMMAND_FLAGS.get(" ".join(head), COMMAND_FLAGS.get(fallback))


@st.composite
def fuzz_argv(draw):
    argv = list(draw(st.sampled_from(COMMANDS)))
    own = own_flags(argv)
    core = {"eval": 5}.get(argv[0], 1)
    flags = [f for f in own[:core] if draw(st.integers(0, 3))]
    flags += draw(st.lists(st.sampled_from(own), max_size=3))
    if not draw(st.integers(0, 9)):
        flags.append(draw(st.sampled_from(sorted(FUZZ_VALUES) + ["--bogus"])))
    for flag in flags:
        good, bad = FUZZ_VALUES.get(flag, (["1"], []))
        value = draw(st.sampled_from(bad if bad and not draw(st.integers(0, 2))
                                     else good))
        if draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


REPRODUCED_INPUTS = [
    ["eval", "theta", "--omega", "[[1]]", "--z", "[[1]]"],
    ["eval", "theta", "--omega", "[[1]]", "--z", "[null]"],
    ["eval", "theta", "--omega", "[[1]]", "--z", '[{"a":1}]'],
    ["eval", "bergman", "--curve", "curve.json", "--x1", "[1,[2]]",
     "--x2", "-2.0"],
    ["eval", "bergman", "--curve", "curve.json", "--x1", "[null,1]",
     "--x2", "-2.0"],
    ["eval", "bergman", "--curve", "curve.json", "--x1", "2.0",
     "--x2", "-2.0", "--sheet1", "0"],
    ["periods", "--curve", "curve.json", "--format", "csv"],
    ["eval", "theta", "--omega", "[[1]]", "--z", "0", "--curve",
     "curve.json"],
    ["verify", "jets", "--curve", "missing.json", "--theta-tol", "1e-3"],
    ["verify", "kernels", "--order", "3", "--seed", "9"],
    ["eval", "theta", "--omega", "[[1]]", "--z", "0", "--x1", "5", "--e",
     "0.3", "--order", "7"],
    ["eval", "bergman", "--curve", "curve.json", "--x1", "2.0", "--x2",
     "-2.0", "--e", "0.3", "--z", "1", "--omega", "[[1]]"],
]


def in_dir(argv, root):
    """argv with the values of path flags made absolute under ``root``."""
    out = []
    for token in argv:
        flag, eq, value = token.partition("=")
        if eq and flag in PATH_FLAGS:
            token = f"{flag}={root / value}"
        elif out and out[-1] in PATH_FLAGS:
            token = str(root / token)
        out.append(token)
    return out


class TestCliFuzz:
    @pytest.mark.parametrize("argv", REPRODUCED_INPUTS)
    def test_reproduced_inputs_exit_2(self, fuzz_dir, argv):
        code, err = run_in_process(in_dir(argv, fuzz_dir))
        assert code == 2
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=fuzz_argv())
    def test_every_argv_has_a_documented_exit_code(self, fuzz_dir, argv):
        code, err = run_in_process(in_dir(argv, fuzz_dir))
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_commands_take_only_their_flags(self, command):
        from thetakernels import cli
        parser = cli.make_parser()
        for flag, (good, _) in FUZZ_VALUES.items():
            _, extra = parser.parse_known_args(command.split()
                                               + [flag, good[0]])
            assert (not extra) == (flag in COMMAND_FLAGS[command]), flag


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The argv of every ``thetakernels ...`` line of the README's
    command-line block."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("thetakernels ")]


class TestReadmeCommands:
    def test_block_is_found(self):
        assert len(readme_commands()) >= 7

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_command_exits_0(self, tmp_path, monkeypatch, argv):
        (tmp_path / "curve.json").write_text(CURVE_SPEC)
        monkeypatch.chdir(tmp_path)
        code, err = run_in_process(argv)
        assert code == 0, err
