import json
import os
import subprocess
import sys

import numpy as np
import pytest

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

    @pytest.mark.parametrize("x1", ["nan", "inf", "1e200"])
    @pytest.mark.parametrize("what,args", [
        ("szego", ["--e", "0.3+0.1j", "--x2", "-2.0"]),
        ("wirtinger", ["--e", "0.3+0.1j"]),
    ])
    def test_non_finite_point(self, curve_file, what, args, x1):
        assert_one_error_line(run_cli(["eval", what, "--curve", curve_file,
                                       "--x1", x1] + args))

    def test_non_numeric_coefficient(self, tmp_path):
        from thetakernels.curves import curve_from_spec
        with pytest.raises(ValueError):
            curve_from_spec({"f": [None, -1, 0, 1]})
        bad = tmp_path / "null.json"
        bad.write_text('{"f": [null, -1, 0, 1]}')
        assert_one_error_line(run_cli(["periods", "--curve", str(bad)]))

    def test_wirtinger_honours_order(self, curve_file, monkeypatch, capsys):
        from thetakernels import cli
        base = ["eval", "wirtinger", "--curve", curve_file,
                "--e", "0.31+0.17j", "--x1", "2.0"]
        orders = []
        real = cli.wirtinger_connection

        def recording(*args, order, **kwargs):
            orders.append(order)
            return real(*args, order=order, **kwargs)

        monkeypatch.setattr(cli, "wirtinger_connection", recording)
        for extra in ([], ["--order", "8"], ["--order", "20"]):
            assert cli.main(base + extra) == 0
        assert orders == [8, 8, 20]
        out = capsys.readouterr().out
        assert out.count('"what": "wirtinger"') == 3
        assert_one_error_line(run_cli(base + ["--order", "5"]))

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
    """--theta-tol is passed to every theta-dependent call of a verify suite."""

    @pytest.mark.parametrize("suite,names", [
        ("theta", ["theta_value", "second_order_theta_basis"]),
        ("kernels", ["prime_form", "bergman_kernel", "bergman_a_period",
                     "szego_kernel"]),
        ("gauss", ["find_theta_zero", "gauss_limit_check"]),
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
