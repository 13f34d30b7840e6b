"""Benchmark of the thetakernels layers, one workload per process.

    python3 bench/run.py --workload abel_kernels --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The load
is closed-loop with one serial client: whole rounds of the workload run
back to back until ``--seconds`` have passed.  Every output is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same rounds untraced and then traced, wrapping the public entry point of
each layer (see tracer.py), and reports the per-layer metrics.  Human-
readable details go to earlier stdout lines; the last line is one JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread in this process and in every child it starts; numpy is
# imported later, so this takes effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "thetakernels-bench"

# Names only: importing workloads.py here would import the package before
# a --setup-only child starts its timer.
WORKLOADS = ("abel_kernels", "klein_probe", "jet_opers", "cli_cold")
SETUP_REPEATS = 5
SETUP_GAUGE_SAMPLES = 10
CLI_START_REPEATS = 5
CLI_INPROC_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

CLI_LAYER_UNITS = {"cli.interp_s": "s", "cli.import_s": "s"}
CLI_LAYER_UNITS.update({f"cli.{c}.inproc_s": "s"
                        for c in ("periods", "eval", "probe", "verify")})


def per_layer_units():
    import tracer
    units = {}
    for name in tracer.layer_metrics(tracer.Tracer()):
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_us"):
            units[name] = "us"
        else:
            units[name] = "count"
    units.update(CLI_LAYER_UNITS)
    units["trace.overhead_frac"] = "ratio"
    units["trace.wall_s"] = "s"
    return units


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes, for the smoke tests")
    p.add_argument("--setup-only", action="store_true",
                   help="internal: time one set-up in this fresh process")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# Set-up time: several fresh interpreters, median
# ----------------------------------------------------------------------

def setup_once(args):
    """Body of a --setup-only child: import the package and build inputs.

    Prints the set-up time and then the gauge's scale, from samples
    taken right after the set-up, in the same process.
    """
    t0 = time.perf_counter()
    if args.workload == "cli_cold":
        import thetakernels.cli  # noqa: F401
    else:
        import workloads
        workloads.make(args.workload, args.seed, args.tiny)
    setup_s = time.perf_counter() - t0
    from gauge import Gauge
    gauge = Gauge()
    for _ in range(SETUP_GAUGE_SAMPLES):
        gauge.sample()
    print(repr(setup_s), repr(gauge.scale()))


def measure_setup(args):
    """Median set-up time over fresh children, scaled and raw."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times, scaled = [], []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
        setup_s, scale = map(float, proc.stdout.split()[-2:])
        times.append(setup_s)
        scaled.append(setup_s * scale)
    return statistics.median(scaled), statistics.median(times)


def wall_of(cmd):
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Rounds and statistics
# ----------------------------------------------------------------------

class Totals:
    def __init__(self):
        self.ops = 0              # ops in timed rounds
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0
        self.samples_ms = []
        self.extra = {}           # from untimed rounds
        self.errors = []
        self.rounds = 0
        self.timed = []           # the timed rounds themselves

    def merge(self, other):
        """Count another pass's ops and failures (not its timings)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors

    def add(self, rnd, timed=True):
        self.attempted += rnd.ops
        self.failed += rnd.failed
        self.errors += rnd.errors
        if not timed:
            for k, v in rnd.extra.items():
                self.extra.setdefault(k, []).extend(v)
        else:
            self.timed.append(rnd)
            self.rounds += 1
            self.ops += rnd.ops
            self.seconds += rnd.seconds
            self.samples_ms += rnd.samples_ms


def run_rounds(wl, totals, seconds=None, count=None, tracer=None):
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round = totals.rounds
        wl.spans = []
        rnd = wl.round()
        rnd.spans = wl.spans
        totals.add(rnd)
        if count is not None and totals.rounds >= count:
            return
        if count is None and time.perf_counter() - start >= seconds:
            return


def tail(samples):
    """Latency with ten samples above it, and its percentile name."""
    s = sorted(samples)
    n = len(s)
    if n > 10:
        return s[n - 11], f"p{100.0 * (n - 10) / n:.1f}"
    return s[-1], "max"


def scaled(totals, gauge):
    """The timed rounds again, each scaled to reference speed.

    Each timed call is scaled by the gauge samples around it; a round's
    factor is the mean of its calls' factors, weighted by their times.
    """
    out = Totals()
    for rnd in totals.timed:
        spent = sum(t1 - t0 for t0, t1 in rnd.spans)
        f = (sum((t1 - t0) * gauge.scale(t0, t1) for t0, t1 in rnd.spans)
             / spent if spent else 1.0)     # a round whose calls all raised
        out.add(dataclasses.replace(
            rnd, seconds=rnd.seconds * f,
            samples_ms=[ms * f for ms in rnd.samples_ms],
            extra={k: [v * f for v in vs] for k, vs in rnd.extra.items()}))
    return out


def latency_metrics(totals):
    tail_ms, tail_name = tail(totals.samples_ms)
    return {"ops_per_s": totals.ops / totals.seconds,
            "op_p50_ms": statistics.median(totals.samples_ms),
            "op_tail_ms": tail_ms}, tail_name


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------

def end_to_end(args):
    """End-to-end metrics, scaled to reference speed (see gauge.py)."""
    import workloads
    from gauge import Gauge, start_gauge
    setup_s, raw_setup_s = measure_setup(args)
    wl = workloads.make(args.workload, args.seed, args.tiny)
    if args.workload == "cli_cold":
        wl.prepare(WORKDIR, child_env())
    wl.warmup()
    totals = Totals()
    totals.add(wl.prelude(), timed=False)
    gauge = start_gauge() if args.workload == "cli_cold" else Gauge()
    wl.tick = gauge.tick
    gauge.tick()
    run_rounds(wl, totals, seconds=args.seconds)
    gauge.tick()
    raw, _ = latency_metrics(totals)
    raw["setup_s"] = raw_setup_s
    timed = scaled(totals, gauge)
    metrics, tail_name = latency_metrics(timed)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb(children=args.workload == "cli_cold")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "rounds": totals.rounds, "ops": totals.ops,
        "latency_samples": len(totals.samples_ms),
        "op_tail_percentile": tail_name,
        "fail_frac": totals.failed / totals.attempted,
        "setup_repeats": 1 if args.tiny else SETUP_REPEATS,
        "raw": raw,
        **gauge.report(),
    }
    extra = {k: [v * gauge.scale() for v in vs] for k, vs in totals.extra.items()}
    for rnd in timed.timed:
        for k, vs in rnd.extra.items():
            extra.setdefault(k, []).extend(vs)
    for name, values in sorted(extra.items()):
        key = name if name.endswith("_s") else f"{name[:-3]}_p50_ms"
        report[key] = statistics.median(values)
        report[f"{key}_samples"] = len(values)
    return totals, metrics, report


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------

def traced_numeric(args, tr):
    """Same rounds untraced then traced; the traced pass fills ``tr``."""
    import workloads
    passes, walls = [], []
    for traced in (False, True):
        if traced:
            tr.install()
        wl = workloads.make(args.workload, args.seed, args.tiny)
        totals = Totals()
        if traced:
            wl.pause = tr.paused_context
            with tr.paused_context():
                wl.warmup()
        else:
            wl.warmup()
        t0 = time.perf_counter()
        totals.add(wl.prelude(), timed=False)
        prelude_s = time.perf_counter() - t0
        if traced:
            run_rounds(wl, totals, count=passes[0].rounds, tracer=tr)
        else:
            run_rounds(wl, totals, seconds=args.seconds / 2)
        walls.append(prelude_s + totals.seconds)
        passes.append(totals)
    passes[0].merge(passes[1])
    return passes[0], walls, {}


def traced_cli(args, tr):
    import workloads
    totals = Totals()
    wl = workloads.CliCold(args.seed, args.tiny)
    wl.prepare(WORKDIR, child_env())
    repeats = 1 if args.tiny else CLI_START_REPEATS
    interp = statistics.median(
        wall_of([sys.executable, "-c", "pass"]) for _ in range(repeats))
    imported = statistics.median(
        wall_of([sys.executable, "-c", "import thetakernels.cli"])
        for _ in range(repeats))
    extra = {"cli.interp_s": interp, "cli.import_s": imported - interp}
    totals.add(wl.prelude(), timed=False)     # warms the in-process path
    walls = [0.0, 0.0]
    outputs = {}
    for traced in (False, True):
        if traced:
            tr.install()
        rnd = workloads.Round()
        for name, argv in wl.argv.items():
            tr.round = name
            times = []
            for _ in range(1 if args.tiny else CLI_INPROC_REPEATS):
                rnd.ops += 1
                rc, text, dt = wl.run_inprocess(argv)
                times.append(dt)
                outputs.setdefault(name, text)
                if rc != 0:
                    rnd.fail(1, f"in-process {name} exited {rc}")
                elif text != outputs[name]:
                    rnd.fail(1, f"in-process {name}: output differs between runs")
            walls[traced] += sum(times)
            if not traced:
                extra[f"cli.{name}.inproc_s"] = statistics.median(times)
        totals.add(rnd, timed=False)
    return totals, walls, extra


def per_layer(args):
    import tracer
    tr = tracer.Tracer()
    try:
        if args.workload == "cli_cold":
            totals, walls, extra = traced_cli(args, tr)
        else:
            totals, walls, extra = traced_numeric(args, tr)
    finally:
        tr.uninstall()
    metrics = {name: 0.0 for name in CLI_LAYER_UNITS}
    metrics.update(tracer.layer_metrics(tr))
    metrics.update(extra)
    metrics["trace.overhead_frac"] = (walls[1] - walls[0]) / walls[0]
    metrics["trace.wall_s"] = walls[1]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "untraced_s": walls[0], "traced_s": walls[1], "spans": len(tr.spans),
        "fail_frac": totals.failed / max(totals.attempted, 1),
    }
    return totals, metrics, report


# ----------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "thetakernels" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package sources at {SRC}; run from the "
                         "root of a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup_once(args)
        return 0
    if args.trace:
        totals, metrics, report = per_layer(args)
        units = per_layer_units()
    else:
        totals, metrics, report = end_to_end(args)
        units = END_TO_END_UNITS
    for err in totals.errors[:10]:
        sys.stderr.write(f"check failed: {err}\n")
    report["errors"] = totals.errors[:10]
    print(json.dumps({"report": report, "metrics": metrics}, sort_keys=True))
    result = {
        "correct": totals.failed == 0 and totals.attempted > 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
