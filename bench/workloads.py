"""The four benchmark workloads: inputs from a seed, timed rounds, checks.

A workload object is built from ``(seed, tiny)``; building it is the
set-up that ``setup_s`` times.  ``round()`` runs one fixed unit of work
and returns a ``Round``.  Only calls into the package are timed; output
checks run afterwards inside ``self.pause()``, which run.py points at
the tracer so that checks add no spans.  After every timed call the
workload records the call's start and end and calls ``self.tick()``,
which run.py points at the speed gauge.
Every failed check or raised exception counts its ops as failed.

See README.md in this directory for why each workload exists, which
layer should dominate it, and which metrics it should move.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from thetakernels import curves, jets, kernels
from thetakernels.series import QC, Series

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# The fixed curves, ascending coefficients of f in y^2 = f(x).
QUINTIC = [0, -1, 0, 0, 0, 1]          # y^2 = x^5 - x       (genus 2)
SEXTIC = [2, 1, 0, 0, 0, 0, 1]         # y^2 = x^6 + x + 2   (genus 2, even degree)
SEPTIC = [0, -1, 0, 0, 0, 0, 0, 1]     # y^2 = x^7 - x       (genus 3)

FAY_RTOL = 1e-8
A_PERIOD_ATOL = 1e-7
KLEIN_RTOL = 1e-10
CLI_RTOL = 1e-12


@dataclass
class Round:
    ops: int = 0
    failed: int = 0
    seconds: float = 0.0          # time spent inside package calls
    samples_ms: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)   # name -> list of values
    errors: list = field(default_factory=list)
    spans: list = field(default_factory=list)   # (start, end) of timed calls

    def add(self, name, value):
        self.extra.setdefault(name, []).append(value)

    def fail(self, ops, message):
        self.failed += ops
        self.errors.append(message)


def _rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _complex_rows(rows):
    return np.array([complex(re, im) for re, im in rows])


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Workload:
    name = ""

    def __init__(self):
        self.pause = contextlib.nullcontext
        self.tick = lambda: None    # run.py points it at the speed gauge
        self.spans = []             # (start, end) of each timed call

    def _timed(self, fn, *args, **kwargs):
        """Run one package call; return its output and its time."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.spans.append((t0, t1))
        self.tick()
        return out, t1 - t0

    def warmup(self):
        """Untimed work that fills lazy state shared by every round."""

    def prelude(self) -> Round:
        """Once-per-run work and reference checks, before the rounds."""
        return Round()

    def round(self) -> Round:
        raise NotImplementedError


# ----------------------------------------------------------------------
# abel_kernels
# ----------------------------------------------------------------------

class AbelKernels(Workload):
    """Kernel ops on the two genus-2 curves; half the pairs are fresh.

    A round evaluates, twice on each curve, one fresh pair and one revisit
    of an earlier pair of that curve (8 ops).  Each op draws a new class e.
    """

    name = "abel_kernels"
    CLEARANCE = 0.3      # distance of sampled points from branch points
    MIN_SEPARATION = 0.5
    A_PERIOD_NODES = 256
    STEPS_PER_CURVE = 2   # 8 ops per round: averages the costly fresh pairs

    def __init__(self, seed, tiny=False):
        super().__init__()
        self.rng = np.random.default_rng([seed, 1])
        self.curves = [curves.build_curve(QUINTIC), curves.build_curve(SEXTIC)]
        self.pairs = [[] for _ in self.curves]

    def _point(self, curve):
        bp = curve.branch_points
        while True:
            x = complex(self.rng.uniform(-2.5, 2.5), self.rng.uniform(-2.5, 2.5))
            sheet = int(self.rng.choice([-1, 1]))
            if np.min(np.abs(bp - x)) > self.CLEARANCE:
                return curve.point(x, sheet)

    def _pair(self, curve):
        x = self._point(curve)
        while True:
            y = self._point(curve)
            if abs(y.x - x.x) > self.MIN_SEPARATION:
                return x, y

    def _class(self, curve):
        g = curve.genus
        a = self.rng.uniform(-0.4, 0.4, g)
        b = self.rng.uniform(-0.4, 0.4, g)
        return a + curve.omega.entries @ b

    def warmup(self):
        # a throwaway curve, so that the measured curves start with empty caches
        curve = curves.build_curve(QUINTIC)
        x, y = curve.point(2.0 + 0.5j, 1), curve.point(-2.0 + 0.5j, -1)
        self._kernel_op(curve, x, y, np.array([0.1 + 0.05j, -0.1 + 0.02j]))

    def _kernel_op(self, curve, x, y, e):
        sz = kernels.szego_kernel(curve, e, x, y)
        wb = kernels.bergman_kernel(curve, x, y)
        kl = kernels.klein_kernel(curve, [e, -e], x, y)
        cc = kernels.klein_coordinates(curve, e)
        wc = kernels.wirtinger_connection(curve, e, x)
        return sz.value, wb.value, kl.value, cc.matrix, wc

    def _check_op(self, curve, x, y, out):
        sz, wb, kl, cc, wc = out
        rhs = wb + complex(curve.eval_differentials(x) @ cc
                           @ curve.eval_differentials(y))
        if not all(map(np.isfinite, (sz, wb, kl, wc))):
            return "non-finite kernel value"
        err = abs(kl - rhs) / abs(kl)
        if not err <= FAY_RTOL:
            return f"Fay identity residual {err:.2e} > {FAY_RTOL:g}"
        return None

    def _a_period_point(self, curve):
        """A point right of both curves' branch points, far from cut 0.

        Near the contour around the cut, the Bergman kernel's double pole
        spoils the fixed-node A-period quadrature (a point 0.05 from the
        contour gave |A-period| = 2.4e-6).  The CLI's kernels suite uses
        the same region.
        """
        x = complex(self.rng.uniform(1.6, 2.6), self.rng.uniform(-0.6, 0.6))
        return curve.point(x, int(self.rng.choice([-1, 1])))

    def prelude(self):
        rnd = Round()
        for curve in self.curves:
            x0 = self._a_period_point(curve)
            rnd.ops += 1
            try:
                val, dt = self._timed(kernels.bergman_a_period, curve, x0, 0,
                                      n_nodes=self.A_PERIOD_NODES)
            except Exception as exc:  # noqa: BLE001 - count and report
                rnd.fail(1, f"bergman_a_period raised {exc!r}")
                continue
            rnd.add("a_period_s", dt)
            if not abs(val) <= A_PERIOD_ATOL:
                rnd.fail(1, f"|A-period| = {abs(val):.2e} > {A_PERIOD_ATOL:g}")
        return rnd

    def round(self):
        rnd = Round()
        for ci, curve in [*enumerate(self.curves)] * self.STEPS_PER_CURVE:
            fresh = self._pair(curve)
            self.pairs[ci].append(fresh)
            earlier = self.pairs[ci][int(self.rng.integers(len(self.pairs[ci])))]
            for kind, (x, y) in (("fresh", fresh), ("revisit", earlier)):
                e = self._class(curve)
                rnd.ops += 1
                try:
                    out, dt = self._timed(self._kernel_op, curve, x, y, e)
                except Exception as exc:  # noqa: BLE001 - count and report
                    rnd.fail(1, f"{kind} op raised {exc!r}")
                    continue
                rnd.seconds += dt
                rnd.add(f"{kind}_ms", 1e3 * dt)
                with self.pause():
                    problem = self._check_op(curve, x, y, out)
                if problem:
                    rnd.fail(1, problem)
        rnd.samples_ms.append(1e3 * rnd.seconds / rnd.ops)
        return rnd


# ----------------------------------------------------------------------
# klein_probe
# ----------------------------------------------------------------------

def probe_extras(curve, rng):
    """Three extra points u, -u, u+1 whose collisions are known in advance."""
    g = curve.genus
    u = rng.uniform(-0.4, 0.4, g) + curve.omega.entries @ rng.uniform(-0.4, 0.4, g)
    return [u, -u, u + 1.0]


def expected_extra_collisions(n):
    return {(n, n + 1, "negation"), (n, n + 2, "equal"),
            (n + 1, n + 2, "negation")}


def reference_probe_calls():
    """The fixed probe calls whose results reference.json records."""
    out = []
    for label, coeffs in (("genus3", SEPTIC), ("genus2", QUINTIC)):
        curve = curves.build_curve(coeffs)
        extras = probe_extras(curve, np.random.default_rng(0))
        out.append((label, curve, dict(n_samples=12, seed=0,
                                       extra_points=extras)))
    return out


def probe_summary(report):
    return {
        "coordinates": [[[complex(z).real, complex(z).imag] for z in c]
                        for c in report.coordinates],
        "collisions": [[c.i, c.j, c.kind] for c in report.collisions],
    }


class KleinProbe(Workload):
    """Repeated finiteness probes; never touches the Abel map.

    A round is one probe on the genus-3 curve and one on the genus-2
    curve at a larger sample count.  An op is one probe sample.
    """

    name = "klein_probe"

    def __init__(self, seed, tiny=False):
        super().__init__()
        self.rng = np.random.default_rng([seed, 2])
        c3, c2 = curves.build_curve(SEPTIC), curves.build_curve(QUINTIC)
        self.calls = [(c3, 8), (c2, 16)] if tiny else [(c3, 40), (c2, 200)]

    def warmup(self):
        kernels.finiteness_probe(curves.build_curve(QUINTIC), 4, seed=1)

    def prelude(self):
        rnd = Round()
        ref = load_reference()["klein_probe"]
        for label, curve, kwargs in reference_probe_calls():
            n = kwargs["n_samples"] + len(kwargs["extra_points"])
            rnd.ops += n
            try:
                rep = kernels.finiteness_probe(curve, **kwargs)
            except Exception as exc:  # noqa: BLE001 - count and report
                rnd.fail(n, f"reference probe {label} raised {exc!r}")
                continue
            got, want = probe_summary(rep), ref[label]
            rel = max(_rel(_complex_rows(a), _complex_rows(b)) for a, b in
                      zip(got["coordinates"], want["coordinates"]))
            if len(got["coordinates"]) != len(want["coordinates"]) \
                    or not rel <= KLEIN_RTOL:
                rnd.fail(n, f"reference probe {label}: Klein coordinates "
                            f"differ (rel {rel:.2e})")
            elif got["collisions"] != want["collisions"]:
                rnd.fail(n, f"reference probe {label}: collisions differ")
        return rnd

    def _check(self, curve, n, tol, rep):
        coords = np.array([np.asarray(c, dtype=complex) for c in rep.coordinates])
        if coords.shape[0] != n + 3:
            return f"expected {n + 3} samples, got {coords.shape[0]}"
        for i in (0, int(self.rng.integers(n))):
            ref = kernels.klein_coordinates(curve, np.asarray(rep.points[i])).vector
            rel = _rel(coords[i], ref)
            if not rel <= KLEIN_RTOL:
                return f"sample {i}: Klein coordinates off by {rel:.2e}"
        norms = np.linalg.norm(coords, axis=1)
        dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
        ii, jj = np.nonzero(np.triu(dist < tol * np.maximum.outer(norms, norms), 1))
        brute = set(zip(ii.tolist(), jj.tolist()))
        got = {(c.i, c.j) for c in rep.collisions}
        if got != brute:
            return f"collision list differs from brute force ({len(got)} vs {len(brute)})"
        kinds = {(c.i, c.j, c.kind) for c in rep.collisions if c.trivial}
        if not expected_extra_collisions(n) <= kinds:
            return "planted trivial collisions missing or misclassified"
        return None

    def round(self):
        rnd = Round()
        for curve, n in self.calls:
            seed = int(self.rng.integers(2 ** 31))
            extras = probe_extras(curve, self.rng)
            ops = n + len(extras)
            rnd.ops += ops
            try:
                rep, dt = self._timed(kernels.finiteness_probe, curve, n,
                                      seed=seed, extra_points=extras)
            except Exception as exc:  # noqa: BLE001 - count and report
                rnd.fail(ops, f"probe raised {exc!r}")
                continue
            rnd.seconds += dt
            with self.pause():
                problem = self._check(curve, n, rep.collision_tol, rep)
            if problem:
                rnd.fail(ops, problem)
        rnd.samples_ms.append(1e3 * rnd.seconds / rnd.ops)
        return rnd


# ----------------------------------------------------------------------
# jet_opers
# ----------------------------------------------------------------------

def serialize_jet(s):
    return {"rank": s.rank, "weight": s.weight, "pole": s.pole,
            "coeffs": [[[[[str(Fraction(c.re)), str(Fraction(c.im))]
                          for c in entry.c] for entry in row]
                        for row in mat] for mat in s.coeffs]}


def _poly(coeffs, n):
    return Series.from_coeffs([QC.of(complex(c)) for c in coeffs], n)


def reference_oper():
    """The fixed build_oper call whose output reference.json records."""
    n = 16
    return jets.build_oper(_poly([1, 2 + 1j, -3], n), {3: _poly([2, -1j, 1], n)},
                           3, 5)


class JetOpers(Workload):
    """Exact oper pipelines over Gaussian rationals at series orders 16-24.

    A round is one pipeline at each order in ``ORDERS``; an op is one
    pipeline.
    """

    name = "jet_opers"
    ORDERS = (16, 20, 24)

    def __init__(self, seed, tiny=False):
        super().__init__()
        self.rng = np.random.default_rng([seed, 3])
        self.orders = (8,) if tiny else self.ORDERS

    def _rpoly(self, deg, n):
        return _poly([complex(self.rng.integers(-4, 5), self.rng.integers(-4, 5))
                      for _ in range(deg + 1)], n)

    def _inputs(self, n):
        r = self._rpoly
        gamma = [[r(1, n) for _ in range(2)] for _ in range(2)]
        # w'(0) = 2 as in the test suite: a seeded w'(0) puts its powers in
        # every denominator of the reversion and swings the op cost by ~2x
        w = Series.zero(n)
        w.c[1] = QC(2)
        for k in (2, 3):
            w.c[k] = QC.of(complex(self.rng.integers(-3, 4), self.rng.integers(-3, 4)))
        s3 = jets.JetKernel(1, 3, 3, [[[r(2, n)]] for _ in range(4)])
        s3.coeffs[0][0][0] = Series.const(1, n)
        return dict(n=n, q=r(2, n), v3=r(2, n), gamma=gamma, q2=r(2, n), w=w, s3=s3)

    def pipeline(self, inp):
        """The exact pipeline; returns its outputs and the time of its calls.

        Each step is timed on its own, so the speed gauge can sample
        between steps.
        """
        spent = 0.0

        def step(fn, *args, **kwargs):
            nonlocal spent
            out, dt = self._timed(fn, *args, **kwargs)
            spent += dt
            return out

        oper = step(jets.build_oper, inp["q"], {3: inp["v3"]}, 3, 5)
        conn = step(jets.ConnectionJet, 2, inp["gamma"])
        mop = step(jets.matrix_oper, conn, oper, {})
        tr = step(jets.trace_map, mop, "trace")
        lhs = step(lambda: jets.det_kernel(mop * jets.flat_extension(conn, 4).swap()))
        tconn = step(jets.ConnectionJet, 1,
                     [[inp["gamma"][0][0] + inp["gamma"][1][1]]])
        rhs = step(lambda: jets.det_kernel(mop)
                   * jets.flat_extension(tconn, 4).swap())
        rho2 = step(jets.projective_jet, inp["q2"], 2, nu=2, m=3)
        quad = step(lambda: jets.quadratic_S(jets.flat_extension(conn, 3) * rho2, 1))
        s4 = step(oper.restrict, 4)
        back = step(lambda: jets.operator_to_kernel(jets.kernel_to_operator(s4)))
        w = inp["w"]
        there = step(jets.change_coordinate, inp["s3"], w)
        again = step(lambda: jets.change_coordinate(there, w.reversion()))
        return dict(oper=oper, tr=tr, lhs=lhs, rhs=rhs, quad=quad, s4=s4,
                    back=back, again=again), spent

    @staticmethod
    def check(inp, out):
        n = inp["n"]
        if not out["oper"].restrict(2) == jets.mu_nu(4, 2, n):
            return "build_oper does not restrict to the canonical jet"
        if not out["tr"] == out["oper"]:
            return "trace map does not project the matrix oper"
        if not out["lhs"] == out["rhs"]:
            return "determinant frame diagram does not commute"
        lim = min(out["quad"].n, 8)
        if not out["quad"].truncate(lim) == inp["q2"].truncate(lim):
            return "quadratic projection anchor fails"
        if not out["back"] == out["s4"]:
            return "kernel/operator round trip is not the identity"
        for j in range(4):
            got, want = out["again"].scalar_coeff(j), inp["s3"].scalar_coeff(j)
            lim = min(got.n, want.n, n - 6)
            if not got.truncate(lim) == want.truncate(lim):
                return "coordinate change round trip is not the identity"
        return None

    def warmup(self):
        inp = self._inputs(6)
        self.check(inp, self.pipeline(inp)[0])

    def prelude(self):
        rnd = Round(ops=1)
        try:
            got = serialize_jet(reference_oper())
        except Exception as exc:  # noqa: BLE001 - count and report
            rnd.fail(1, f"reference build_oper raised {exc!r}")
            return rnd
        if got != load_reference()["jet_opers"]["build_oper"]:
            rnd.fail(1, "build_oper differs from the recorded reference")
        return rnd

    def round(self):
        rnd = Round()
        for n in self.orders:
            inp = self._inputs(n)
            rnd.ops += 1
            try:
                out, dt = self.pipeline(inp)
            except Exception as exc:  # noqa: BLE001 - count and report
                rnd.fail(1, f"pipeline at order {n} raised {exc!r}")
                continue
            rnd.seconds += dt
            with self.pause():
                problem = self.check(inp, out)
            if problem:
                rnd.fail(1, f"order {n}: {problem}")
        rnd.samples_ms.append(1e3 * rnd.seconds / rnd.ops)
        return rnd


# ----------------------------------------------------------------------
# cli_cold
# ----------------------------------------------------------------------

def _cplx_arg(z):
    return f"{z.real:.4f}{z.imag:+.4f}j"


def numbers_agree(a, b, rtol=CLI_RTOL):
    """Structural equality of parsed JSON with relative tolerance on floats."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(numbers_agree(a[k], b[k], rtol)
                                            for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(numbers_agree(x, y, rtol)
                                        for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))
    return a == b


class CliCold(Workload):
    """Fresh-interpreter CLI commands, one at a time.

    A round runs each command once as ``python -m thetakernels.cli``;
    its latency sample is the mean time of its commands.
    Complex options are passed as ``--x2=-1.9+0.4j``: argparse reads a
    separate value that starts with '-' as an option and exits with 2.
    """

    name = "cli_cold"

    def __init__(self, seed, tiny=False):
        super().__init__()
        rng = np.random.default_rng([seed, 4])
        self.workdir = None
        g2 = "curve_genus2.json"
        g3 = "curve_genus3.json"
        x1 = complex(rng.uniform(1.6, 2.6), rng.uniform(-0.6, 0.6))
        x2 = complex(rng.uniform(-2.6, -1.6), rng.uniform(-0.6, 0.6))
        e = rng.uniform(-0.3, 0.3, 2) + 1j * rng.uniform(-0.2, 0.2, 2)
        samples = 20 if tiny else 100
        self.argv = {
            "periods": ["periods", f"--curve={g3}"],
            "eval": ["eval", "szego", f"--curve={g2}",
                     "--e=" + ",".join(_cplx_arg(z) for z in e),
                     f"--x1={_cplx_arg(x1)}", f"--x2={_cplx_arg(x2)}",
                     f"--sheet1={int(rng.choice([-1, 1]))}",
                     f"--sheet2={int(rng.choice([-1, 1]))}"],
            "probe": ["probe", f"--curve={g2}", f"--samples={samples}",
                      f"--seed={int(rng.integers(1000))}"],
            "verify": ["verify", "fay", f"--curve={g2}",
                       f"--seed={int(rng.integers(1000))}"],
        }
        self.curve_files = {g2: QUINTIC, g3: SEPTIC}
        self.first_stdout = {}
        self.inproc = {}
        self.env = None

    def prepare(self, workdir, env):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for fname, coeffs in self.curve_files.items():
            (self.workdir / fname).write_text(json.dumps({"f": coeffs}) + "\n")
        self.env = env

    def run_subprocess(self, argv):
        cmd = [sys.executable, "-m", "thetakernels.cli", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                              capture_output=True, timeout=120)
        t1 = time.perf_counter()
        self.spans.append((t0, t1))
        self.tick()
        return proc, t1 - t0

    def run_inprocess(self, argv):
        from thetakernels import cli
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                rc = cli.main(list(argv))
                dt = time.perf_counter() - t0
        finally:
            os.chdir(cwd)
        return rc, buf.getvalue(), dt

    def warmup(self):
        for argv in self.argv.values():
            self.run_subprocess(argv)

    def prelude(self):
        rnd = Round()
        for name, argv in self.argv.items():
            rnd.ops += 1
            try:
                rc, text, _ = self.run_inprocess(argv)
            except Exception as exc:  # noqa: BLE001 - count and report
                rnd.fail(1, f"in-process {name} raised {exc!r}")
                continue
            if rc != 0:
                rnd.fail(1, f"in-process {name} exited {rc}")
                continue
            self.inproc[name] = json.loads(text)
        return rnd

    def _check(self, name, proc):
        if proc.returncode != 0:
            return f"{name} exited {proc.returncode}: {proc.stderr[-300:]!r}"
        first = self.first_stdout.setdefault(name, proc.stdout)
        if proc.stdout != first:
            return f"{name}: stdout differs from the first invocation"
        data = json.loads(proc.stdout)
        if name not in self.inproc or not numbers_agree(data, self.inproc[name]):
            return f"{name}: output disagrees with the in-process result"
        if name == "verify" and data.get("pass") is not True:
            return "verify fay reported a failed check"
        return None

    def round(self):
        rnd = Round()
        for name, argv in self.argv.items():
            rnd.ops += 1
            try:
                proc, dt = self.run_subprocess(argv)
            except subprocess.TimeoutExpired:
                rnd.fail(1, f"{name} timed out")
                continue
            rnd.seconds += dt
            rnd.add(f"cli_{name}_s", dt)
            problem = self._check(name, proc)
            if problem:
                rnd.fail(1, problem)
        rnd.samples_ms.append(1e3 * rnd.seconds / rnd.ops)
        return rnd


WORKLOADS = {w.name: w for w in (AbelKernels, KleinProbe, JetOpers, CliCold)}


def make(name, seed, tiny=False):
    return WORKLOADS[name](seed, tiny)

