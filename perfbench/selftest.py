#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload, runs run.py --tiny
untraced and traced and checks that every metric BENCHMARK.json names
is printed with its unit. Then checks that the benchmark fails (non-zero
status, "correct": false, failed > 0) when one stored reference output
or digest is corrupted, also one that only a traced run's probe checks;
that the harness refuses to run with TB_PARALLEL_SOLVER set; and that
run.py exits non-zero without a result in a directory holding only
BENCHMARK.json and perfbench/. Temporary files go under
.bench_build/selftest/. Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORK_DIR = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOADS = ("server_sweep", "server_stream", "fleet_mixed",
             "prep_functional")

failures = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def run(workload, trace, extra=(), env=None, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd + list(extra), cwd=cwd, env=env,
                       capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return p.returncode, result, p


def check_metrics(result, specs, positive_units):
    """Every named metric, with its unit, finite, and > 0 where its unit
    is in positive_units (None: every metric)."""
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in specs}:
        return False
    for m in specs:
        got = metrics[m["name"]]
        value = got.get("value")
        positive = positive_units is None or m["unit"] in positive_units
        if got.get("unit") != m["unit"] or \
                not isinstance(value, (int, float)) or \
                not math.isfinite(value) or (positive and value <= 0):
            return False
    return True


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(WORK_DIR, exist_ok=True)

    # Untraced: every metric > 0. Traced: every time > 0, the layers a
    # workload does not run included (they are probed).
    runs = ((0, spec["end_to_end"], None),
            (1, spec["per_layer"], ("s", "ms", "us")))
    for w in WORKLOADS:
        for trace, specs, positive_units in runs:
            rc, res, p = run(w, trace)
            ok = rc == 0 and res is not None and res["correct"] and \
                res["failed"] == 0 and res["attempted"] >= 1 and \
                check_metrics(res, specs, positive_units)
            if not ok:
                sys.stderr.write(p.stderr[-2000:])
            expect(ok, "%s trace=%d: correct, every metric with its unit"
                   % (w, trace))

    with open(os.path.join(HERE, "references.json")) as f:
        refs = json.load(f)
    for w, kind in (("server_sweep", "outputs"), ("fleet_mixed", "outputs"),
                    ("prep_functional", "digests")):
        bad = json.loads(json.dumps(refs))
        table = bad[kind][w + "_tiny"]
        key = sorted(table)[0]
        if kind == "outputs":
            table[key] *= 1.001
        else:
            table[key] = "0" * 16
        path = os.path.join(WORK_DIR, "references-%s.json" % w)
        with open(path, "w") as f:
            json.dump(bad, f)
        rc, res, _ = run(w, 0, ["--references", path])
        expect(rc != 0 and res is not None and not res["correct"] and
               res["failed"] > 0,
               "%s: a corrupted reference (%s) fails the run" % (w, key))

    # Probes are checked too: a traced prep_functional run probes the
    # session layers with a session that has a server_sweep reference.
    bad = json.loads(json.dumps(refs))
    bad["outputs"]["server_sweep"]["Resnet-50/TrainBox/64"] *= 1.001
    path = os.path.join(WORK_DIR, "references-probe.json")
    with open(path, "w") as f:
        json.dump(bad, f)
    rc, res, _ = run("prep_functional", 1, ["--references", path])
    expect(rc != 0 and res is not None and res["failed"] == 1,
           "a corrupted probe reference fails a traced run, counted once")

    env = dict(os.environ, TB_PARALLEL_SOLVER="4")
    rc, res, _ = run("server_sweep", 0, env=env)
    expect(rc == 0 and res is not None and res["correct"],
           "run.py unsets TB_PARALLEL_SOLVER for the measured process")
    exe = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
    p = subprocess.run([exe, "--workload", "server_sweep", "--seed", "1",
                        "--seconds", "0.1", "--trace", "0", "--tiny",
                        "--out", os.path.join(WORK_DIR, "refused.json")],
                       env=env, capture_output=True, timeout=60)
    expect(p.returncode != 0, "the harness refuses TB_PARALLEL_SOLVER")

    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, res, _ = run("server_sweep", 0, cwd=bare,
                     script=os.path.join(bare, "perfbench", "run.py"))
    expect(rc != 0 and res is None,
           "without the program sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
