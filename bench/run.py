"""frontal-lab benchmark: seeded CLI workloads run in-process through cli.main.

    python3 bench/run.py --workload closed-form --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` and nowhere else.  One process is one run: it measures the import
(set-up) time, then repeats passes over the workload's job list, one job
at a time with the default Config, until --seconds is spent (at least two
passes).  Output checks run between passes, outside the timed region.
Every time is reported at reference machine speed (see calibrate.py);
the raw pass times are kept in the run record.

--trace 0 prints the end-to-end metrics.  --trace 1 first checks the
tracer against cProfile on one small job, then alternates an untraced
and a traced pass and prints the per-layer metrics; its spans go to
bench/out/, never into reports.  The last stdout line is the result
object; a failed job or check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from tracing import Tracer, self_test  # noqa: E402
from workloads import WORKLOADS, JobOutput, equal  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 3   # fresh-interpreter imports, besides this process's
SELF_TEST_JOB = ["blaschke", "--entry", "ex-5.9", "--grid", "9x9", "--json"]
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "t = time.perf_counter(); import frontal_lab.cli; "
                "t = time.perf_counter() - t; import calibrate; "
                "print(t, calibrate.scale(calibrate.kernel_times(3)))")

KNOWN_DEFECTS = [
    "blaschke --entry gen-extendable-nc --domain=-0.8,0.8,-0.8,0.8 --grid 3x3 "
    "runs about a minute on a 2-core VM (8,602 integrate_jet calls), then "
    "exits 3 with InsufficientJetOrder: blaschke_field catches it, "
    "blaschke_verify does not. Not timed here; the fix should add this job "
    "in its own benchmark change.",
    "--set quad_nodes=8 leaves generator entries at 32 nodes (the same "
    "integrate_jet call counts), because the generator closures capture "
    "config=DEFAULT; test_catalog.py::TestExtendableNcGenerator::"
    "test_affine_normal_field_across_singular_line also runs at 32 nodes.",
    "argparse rejects --domain -0.8,...; the value has to be passed as "
    "--domain=....",
    "export --entry ex-5.10 --what structure --grid 33x33 with a tilted "
    "constant field (--field=0.01,0,1 or --field=0,0.2,1) writes a file on "
    "which reconstruct --input exits 4: compatibility residual 4e-3 and "
    "1.2e-3 against gates near 2.5e-5. The spline of the now rational "
    "structure data is not accurate enough. Not timed here.",
]
CONDITIONS_WHY = [
    "default Config and no --set: a benchmark that set threads would keep "
    "the threads knob alive, and --set quad_nodes is ignored by generator "
    "entries",
    "FRONTAL_LAB_THREADS removed from the environment for the same reason",
]


def import_library():
    """Import frontal_lab from this checkout's src/; return (cli, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "frontal_lab", "__init__.py")):
        raise SystemExit(f"no frontal_lab sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import frontal_lab.cli as cli
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"frontal_lab imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli, elapsed


def setup_samples(first):
    """(raw, calibrated) import times of frontal_lab.cli, numpy and scipy
    included: this process's own, then fresh interpreters'."""
    samples = [first]
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        t, factor = map(float, done.stdout.split()[-2:])
        samples.append((t, t * factor))
    return samples


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:     # an escaped fault fails the job, with its trace
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def _files(root):
    found = set()
    for base, _, names in os.walk(root):
        found.update(os.path.join(base, n) for n in names)
    return found


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_pass(cli, jobs, out_dir):
    """One pass over the jobs; times cover cli.main calls only.  Each job
    is followed, and the first preceded, by calibration kernels, which
    set the pass's speed factor."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    results, seen = [], set()
    kernels = calibrate.kernel_times()
    for job in jobs:
        argv = job.args(out_dir)
        t0, c0 = time.perf_counter(), time.process_time()
        rc, stdout, stderr = run_job(cli, argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        kernels += calibrate.kernel_times()
        now = _files(out_dir)
        results.append({"job": job, "rc": rc, "stdout": stdout,
                        "stderr": stderr, "wall": wall, "cpu": cpu,
                        "files": sorted(now - seen)})
        seen = now
    for res in results:
        res["scale"] = calibrate.scale(kernels)
    return results


def check_pass(results, out_dir, reference):
    """Checks of one pass's outputs; fills each result's 'checks'."""
    for k, res in enumerate(results):
        out = JobOutput(res["rc"], res["stdout"], res["stderr"], out_dir)
        checks = res["job"].check(out)
        digest = [hashlib.sha256(res["stdout"].encode()).hexdigest()] + [
            (os.path.relpath(p, out_dir), _digest(p)) for p in res["files"]]
        if len(reference) <= k:
            reference.append(digest)
        checks.append(equal("report bytes identical to the run's first pass",
                            digest == reference[k], True))
        res["checks"] = checks
        res["ok"] = all(c.ok for c in checks)


def pass_summary(results):
    """Calibrated pass and per-kind times, plus the raw pass wall time."""
    kinds = {}
    for res in results:
        kind = res["job"].kind
        kinds[kind] = kinds.get(kind, 0.0) + res["wall"] * res["scale"]
    return {"wall": sum(r["wall"] * r["scale"] for r in results),
            "cpu": sum(r["cpu"] * r["scale"] for r in results),
            "raw_wall": sum(r["wall"] for r in results), "kinds": kinds}


def output_points(cli, jobs):
    """Grid points the jobs ask for (their --grid or the parser default)."""
    parser = cli.build_parser()
    total = 0
    for job in jobs:
        grid = getattr(parser.parse_args(job.args(OUT)), "grid", None)
        if grid:
            nx, ny = grid.lower().split("x")
            total += int(nx) * int(ny)
    return total


def median(values):
    return statistics.median(values) if values else 0.0


def conditions(args, passes):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "passes": passes,
            "conditions": CONDITIONS_WHY, "known_defects": KNOWN_DEFECTS}


def job_record(res):
    return {"argv": res["job"].argv, "rc": res["rc"], "wall_s": res["wall"],
            "checks": [vars(c) for c in res["checks"]],
            "stderr": res["stderr"][-2000:]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("FRONTAL_LAB_THREADS", None)
    cli, first_import = import_library()
    factor = calibrate.scale(calibrate.kernel_times(3))
    setup = setup_samples((first_import, first_import * factor))
    jobs = WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(OUT, "work", tag)
    os.makedirs(OUT, exist_ok=True)

    mismatches = self_test(cli, SELF_TEST_JOB) if args.trace else []

    reference, passes, traced, layers, spans = [], [], [], [], []
    t_start = time.perf_counter()
    while True:
        pair_t0 = time.perf_counter()
        results = run_pass(cli, jobs, out_dir)
        check_pass(results, out_dir, reference)
        passes.append(results)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                results = run_pass(cli, jobs, out_dir)
            finally:
                tracer.uninstall()
            check_pass(results, out_dir, reference)
            traced.append(results)
            factor = results[0]["scale"]
            layers.append({k: v * factor if k.endswith("_s") else v
                           for k, v in tracer.layer_metrics(
                               output_points(cli, jobs)).items()})
            spans.append(tracer.spans())
        step = time.perf_counter() - pair_t0
        n_done = len(passes) if not args.trace else len(traced)
        if (n_done >= (1 if args.trace else MIN_PASSES)
                and time.perf_counter() - t_start + step > args.seconds):
            break

    all_runs = [r for p in passes + traced for r in p]
    failed = sum(not r["ok"] for r in all_runs)
    numeric = [c.digits() for r in all_runs for c in r["checks"]
               if c.digits() is not None]
    summaries = [pass_summary(p) for p in passes]
    kinds = sorted({k for s in summaries for k in s["kinds"]})

    if args.trace:
        import numpy as np
        traced_wall = median([pass_summary(p)["wall"] for p in traced])
        plain_wall = median([s["wall"] for s in summaries])
        metrics = {name: {"value": median([m[name] for m in layers]),
                          "unit": unit}
                   for name, unit in _layer_units(layers[0])}
        metrics["trace.overhead_frac"] = {
            "value": traced_wall / plain_wall - 1.0, "unit": "ratio"}
        for kind in ("analyze", "blaschke", "check", "catalog", "export",
                     "reconstruct", "reconstruct_file"):
            metrics[f"cmd.{kind}_s"] = {"value": median(
                [s["kinds"].get(kind, 0.0) for s in summaries]), "unit": "s"}
        with open(os.path.join(OUT, f"trace-{tag}.npz"), "wb") as fh:
            np.savez(fh, **{f"pass{k}_{name}": arr
                            for k, sp in enumerate(spans)
                            for name, arr in sp.items()})
    else:
        metrics = {
            "wall_s": {"value": median([s["wall"] for s in summaries]),
                       "unit": "s"},
            "cpu_s": {"value": median([s["cpu"] for s in summaries]),
                      "unit": "s"},
            "setup_s": {"value": median([c for _, c in setup]),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "accuracy_digits": {"value": min(numeric) if numeric else 0.0,
                                "unit": "digits"},
        }

    report = {
        "run": conditions(args, {"untraced": len(passes),
                                 "traced": len(traced)}),
        "end_to_end": {
            **{f"{k}_s": median([s["kinds"].get(k, 0.0) for s in summaries])
               for k in kinds},
            "fail_frac": failed / len(all_runs),
            "failed": failed, "attempted": len(all_runs),
        },
        "setup_samples_s": setup,
        "pass_wall_s": [s["wall"] for s in summaries],
        "raw_pass_wall_s": [s["raw_wall"] for s in summaries],
        "pass_speed_factor": [p[0]["scale"] for p in passes],
        "self_test_mismatches": mismatches,
        "jobs": [job_record(r) for r in all_runs if not r["ok"]]
                or [job_record(r) for r in passes[0]],
    }
    with open(os.path.join(OUT, f"run-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, default=str)
    shutil.rmtree(out_dir, ignore_errors=True)

    for name, m in sorted(metrics.items()):
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in sorted(report["end_to_end"].items()):
            unit = ("s" if name.endswith("_s") else
                    "ratio" if name == "fail_frac" else "count")
            print(f"{name:48s} {value:.6g} {unit}")
    print(f"{'passes':48s} {len(passes)} untraced, {len(traced)} traced")
    for line in mismatches:
        print(f"tracer self-test mismatch: {line}")
    correct = failed == 0 and not mismatches
    print(json.dumps({"correct": correct, "attempted": len(all_runs),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _layer_units(sample):
    for name in sample:
        if name.endswith("_s"):
            yield name, "s"
        elif name.endswith(("calls", "targets")):
            yield name, "count"
        elif name.endswith("points"):
            yield name, "points"
        elif name.endswith("lanes_p50"):
            yield name, "lanes"
        elif name.endswith("bytes_written"):
            yield name, "B"
        else:
            yield name, "ratio"


if __name__ == "__main__":
    sys.exit(main())
