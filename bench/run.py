"""Benchmark of the stresstruss pipeline on its built-in fixtures.

    python3 bench/run.py --workload bar --seed 0 --seconds 30 --trace 0

Each invocation runs one workload closed loop for ``--seconds`` seconds:
one pipeline run at a time, each in its own child process (worker.py), the
next only after the previous one has finished and its outputs have been
checked. A run that takes longer than RUN_BOUND_S is killed and counted
as failed.
The setup samples are taken between the runs, spread over the same
seconds, so that both see the same state of a shared machine.

With ``--trace 0`` the end-to-end metrics are reported: ``pipeline_s``,
``setup_s``, ``peak_rss_mb``, ``success_rate``, ``alignment_frac`` and
``lambda_star``. With ``--trace 1`` plain and traced runs alternate, and
the per-layer metrics of tracer.UNITS are reported, medians over the
traced runs; ``trace.overhead_s`` is the traced minus the plain median.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, per-run samples, jitter) goes to
``bench/out/<workload>-seed<seed>-trace<0|1>/record.json``, and the spans
of traced run ``n`` to ``spans-<n>.json`` beside it.

Workloads: the README's cantilever (fixed at x=0, -100 N in y at the free
end, radius_policy 0.0015) on three meshes chosen to load different layers,
plus ``smoke``, the test suite's small box, for selftest.py.

  bar        the bending-bar fixture (1,800 tets), rho 10, the default
             30-iteration frame fit: frames and lbfgs take ~85% of the time,
             ~2,300 small energy evaluations.
  bar-dense  the same mesh, rho 15, 3-iteration fit: ~3,700 raw members, so
             the per-member loops of extract, simplify, geometry and verify
             dominate and the frame kernel is nearly bypassed.
  box-8x     the bar refined 2x per axis (14,400 tets), rho 10, 3-iteration
             fit: per-tet cost (fea, param, extract, mesh builds) and few
             large frame evaluations, with a graph about the size of bar's.

Seed 0 runs the fixtures unjittered. Any other seed sets the fixture
jitter to ``jitter_for(seed)``, one of JITTERS; the program sees only the
generated config.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:          # single-threaded baseline, before numpy
    os.environ[_var] = "1"

import tracer  # noqa: E402  (reads numpy, so after the thread pinning)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

RUN_BOUND_S = 60.0     # one pipeline run; bar takes ~17 s here
RUNS_END_S = 150.0     # no run starts or goes on after this
DEADLINE_S = 170.0     # nor a setup sample: the invocation has 180 s
SETUP_SAMPLES = 12     # spread over the run, so they see the same machine
TRACED_RUNS = 2        # at least, and as many plain runs between them
GOLDEN = 0.6180339887498949

CANTILEVER = {
    "material": {"young_modulus": 2.3e9, "poisson_ratio": 0.3,
                 "yield_strength": 4.8e7},
    "boundary_conditions": {
        "dirichlet": [
            {"selector": {"type": "box", "min": [-1e-9, -1.0, -1.0],
                          "max": [1e-9, 1.0, 1.0]}}
        ],
        "neumann": [
            {"selector": {"type": "box", "min": [0.1999999, -1.0, -1.0],
                          "max": [0.2000001, 1.0, 1.0]},
             "force": [0.0, -100.0, 0.0]}
        ],
    },
    "radius_policy": 0.0015,
}
BAR_SIZE = [0.2, 0.05, 0.05]
SHORT_FIT = {"outer_iterations": 3}

WORKLOADS = {
    "bar": {"mesh": {"fixture": "bar"}, "rho": 10.0},
    "bar-dense": {"mesh": {"fixture": "bar"}, "rho": 15.0,
                  "frame_fit": SHORT_FIT},
    "box-8x": {"mesh": {"fixture": "box", "divisions": [24, 10, 10],
                        "size": BAR_SIZE},
               "rho": 10.0, "frame_fit": SHORT_FIT},
    "smoke": {
        "mesh": {"fixture": "box", "divisions": [6, 2, 2],
                 "size": [0.12, 0.04, 0.04]},
        "boundary_conditions": {
            "dirichlet": [
                {"selector": {"type": "box", "min": [-1e-9, -1.0, -1.0],
                              "max": [1e-9, 1.0, 1.0]}}
            ],
            "neumann": [
                {"selector": {"type": "box", "min": [0.1199999, -1.0, -1.0],
                              "max": [0.1200001, 1.0, 1.0]},
                 "force": [100.0, 0.0, 0.0]}
            ],
        },
        "rho": 6.0,
        "radius_policy": 0.003,
    },
}

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "alignment_frac": "ratio",
    "lambda_star": "factor",
}


# The fixture jitters a nonzero seed chooses among. verify.frame_fem
# rejects a solve whose residual exceeds 1e-8 (1 + ||f||), a tolerance that
# does not scale with the stiffness (~1e8), and then spends minutes in an
# eigensolve to name a mechanism that is not there (ROADMAP item 3). The
# residual moves erratically with the jitter: on bar-dense it is 1.04 of the
# tolerance at jitter 0.0225 and 1.075 at 0.066027, but 0.52-0.60 at
# 0.0025 either side of both and 0.32 at 0.066. A jitter drawn from a band
# would hit such a point on some seeds, and every run of that seed would
# fail. Each value below was run on every workload: verify's residual stays
# under 0.67 of the tolerance (verify.resid_ratio, reported with --trace 1,
# shows the margin), and the bar's frame fit makes 2,004-2,083 energy
# evaluations, so that the seed varies the mesh without varying the work
# much. vet_jitters.py checks them again.
JITTERS = (0.070, 0.072, 0.074, 0.090, 0.102, 0.110, 0.112, 0.114)


def jitter_for(seed: int) -> float:
    """Fixture jitter of a seed: 0 for seed 0, otherwise one of JITTERS."""
    if seed == 0:
        return 0.0
    return JITTERS[int(len(JITTERS) * ((seed * GOLDEN) % 1.0))]


def workload_doc(name: str, jitter: float) -> dict:
    doc = json.loads(json.dumps({**CANTILEVER, **WORKLOADS[name]}))
    if jitter:
        doc["mesh"]["jitter"] = jitter
    return doc


def machine_env() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def setup_sample(config: Path, env: dict, end: float) -> float:
    """Cold import plus config parse, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(WORKER), "setup", str(config)], env=env,
        capture_output=True, text=True, check=True,
        timeout=max(0.0, end - time.monotonic()))
    return json.loads(out.stdout)["setup_s"]


def bounded_run(config: Path, work: Path, n: int, traced: bool,
                env: dict, bound: float) -> dict:
    """Run the pipeline once in its own worker process, killed after
    ``bound`` seconds; return the worker's record of the run, or a failed
    record when the worker was killed or left none."""
    record = work / f"run{n}.json"
    cmd = [sys.executable, str(WORKER), "run", str(config),
           str(work / f"run{n}"), str(record), str(n), str(int(traced))]
    with open(work / "worker.log", "ab") as log:
        try:
            code = subprocess.run(cmd, stdout=log, stderr=log, env=env,
                                  cwd=ROOT, timeout=bound).returncode
            error = f"worker exited with {code} and no record"
        except subprocess.TimeoutExpired:   # run() has killed and reaped it
            error = f"run exceeded its bound of {bound:.1f} s"
    shutil.rmtree(work / f"run{n}", ignore_errors=True)
    if record.is_file():
        return json.loads(record.read_text())
    return {"ok": False, "traced": traced, "error": error, "seconds": bound}


def closed_loop(config: Path, work: Path, seconds: int, trace: int,
                env: dict, deadline: float, run_bound: float,
                between_runs) -> list[dict]:
    """One run at a time, each started after the previous one has ended,
    until ``seconds`` have passed. With ``trace`` the runs alternate plain
    and traced, at least TRACED_RUNS of each. ``between_runs(elapsed)`` is
    called before each run. No run starts after ``deadline`` or is let run
    past it."""
    runs: list[dict] = []
    start = time.monotonic()
    while time.monotonic() < deadline:
        between_runs(time.monotonic() - start)
        bound = min(run_bound, deadline - time.monotonic())
        if bound <= 0:
            break
        traced = bool(trace) and len(runs) % 2 == 1
        runs.append(bounded_run(config, work, len(runs), traced, env,
                                bound))
        if (time.monotonic() - start >= seconds
                and (not trace or len(runs) >= 2 * TRACED_RUNS)):
            break
    return runs


def mark_inconsistent(runs: list[dict]) -> None:
    """Fail every run whose outputs differ from the first good run, and
    every traced run whose exact counters differ from the first traced."""
    first = None
    counters = None
    for r in runs:
        if not r["ok"]:
            continue
        sig = (r["hashes"], r["alignment_frac"], r["lambda_star"])
        first = first or sig
        if sig != first:
            r["ok"] = False
            r["error"] = "outputs differ from the first run"
            continue
        if r["traced"]:
            exact = {k: r["layers"][k] for k in tracer.EXACT_COUNTERS}
            counters = counters or exact
            if exact != counters:
                r["ok"] = False
                r["error"] = f"exact counters {exact} != {counters}"


def tail(values: list[float]):
    """(q, value) of the highest of p99/p95/p90/p50 with at least ten
    samples above it, or None."""
    for q in (99, 95, 90, 50):
        if len(values) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def end_to_end(runs: list[dict], setup: list[float]) -> dict:
    ok = [r for r in runs if r["ok"]]
    times = [r["seconds"] for r in (ok or runs)]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "pipeline_s": statistics.median(times),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
        "success_rate": len(ok) / len(runs),
        "alignment_frac": ok[0]["alignment_frac"] if ok else 0.0,
        "lambda_star": ok[0]["lambda_star"] if ok else 0.0,
    }


def per_layer(runs: list[dict]) -> dict:
    ok = [r for r in runs if r["ok"]]
    traced = [r for r in ok if r["traced"]]
    plain = [r["seconds"] for r in ok if not r["traced"]]
    metrics = {k: 0.0 for k in tracer.UNITS}
    if traced:
        for k in traced[0]["layers"]:
            metrics[k] = statistics.median(r["layers"][k] for r in traced)
        if plain:
            metrics["trace.overhead_s"] = (
                statistics.median(r["seconds"] for r in traced)
                - statistics.median(plain))
    return metrics


def summary_lines(metrics: dict, units: dict, samples: dict) -> list[str]:
    lines = []
    for name, value in metrics.items():
        text = f"{name:24s} {value:.6g} {units[name]}"
        values = samples.get(name)
        if values:
            text += f"  median of n={len(values)}"
            t = tail(values)
            if t:
                text += f", p{t[0]} {t[1]:.6g}"
        lines.append(text)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()
    runs_end, deadline = began + RUNS_END_S, began + DEADLINE_S

    if not (ROOT / "src" / "stresstruss" / "pipeline.py").is_file():
        print(f"stresstruss sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    jitter = jitter_for(args.seed)
    doc = workload_doc(args.workload, jitter)
    work = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    env = child_env()

    setup: list[float] = []
    setup_errors: list[str] = []

    def sample_setup(elapsed: float) -> None:
        """Take the setup samples due by ``elapsed``, none after the
        deadline. One that fails or is cut by the deadline is an error,
        and no more are taken after it."""
        due = min(SETUP_SAMPLES,
                  1 + int(SETUP_SAMPLES * elapsed / args.seconds))
        while (not args.trace and not setup_errors and len(setup) < due
               and time.monotonic() < deadline):
            try:
                setup.append(setup_sample(config, env, deadline))
            except (subprocess.SubprocessError, ValueError, KeyError) as exc:
                setup_errors.append(f"setup sample: {exc}")

    if not args.trace:
        sample_setup(0.0)       # warms byte-code and cache; not kept
        setup.clear()
    runs = closed_loop(config, work, args.seconds, args.trace, env,
                       runs_end, RUN_BOUND_S, sample_setup)
    sample_setup(args.seconds)
    mark_inconsistent(runs)
    failed = sum(not r["ok"] for r in runs)
    if args.trace:
        metrics, units = per_layer(runs), tracer.UNITS
        samples = {}
    else:
        metrics, units = end_to_end(runs, setup), END_TO_END_UNITS
        samples = {"pipeline_s": [r["seconds"] for r in runs if r["ok"]],
                   "setup_s": setup}

    record = {
        "workload": args.workload, "seed": args.seed, "jitter": jitter,
        "seconds": args.seconds, "trace": args.trace,
        "environment": machine_env(), "setup_samples": setup,
        "setup_errors": setup_errors, "runs": runs, "metrics": metrics,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    env_rec = record["environment"]
    print(f"workload {args.workload} seed {args.seed} jitter {jitter} "
          f"runs {len(runs)} failed {failed}")
    print("environment " + json.dumps(env_rec, sort_keys=True))
    for r in runs:
        if not r["ok"]:
            print(f"failed run: {r['error']}")
    for error in setup_errors:
        print(error)
    for line in summary_lines(metrics, units, samples):
        print(line)
    print(json.dumps({
        "correct": failed == 0 and not setup_errors,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
