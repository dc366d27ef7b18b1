#!/usr/bin/env python3
"""perfbench: the repository's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (which compiles the
repository's src/ tree) into .bench_build/, runs one workload for about
S seconds, checks every output against perfbench/references.json and
prints the metrics named in BENCHMARK.json. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit status is 0 only when every output check passed.

Maintenance options (not used by a normal run):
    --tiny             small inputs, for perfbench/selftest.py
    --references PATH  check against another references file
    --record           store this run's outputs as the references
                       (see perfbench/README.md before using it)
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# What one operation of ops_per_s is, per workload.
OPERATION = {"server_sweep": "session", "server_stream": "session",
             "fleet_mixed": "fleet job", "prep_functional": "prepared sample"}
DEADLINE_S = 170.0  # a run must end within 180 s


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def build(build_dir, deadline):
    """Configure (once) and build the harness; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no program sources (src/CMakeLists.txt) next to perfbench/")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=deadline - time.monotonic()).returncode:
            die("configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=deadline - time.monotonic()).returncode:
        die("build failed")
    return os.path.join(build_dir, "perfbench")


def environment(seed):
    """What the run depends on, and the child environment to use."""
    env = dict(os.environ)
    # TB_PARALLEL_SOLVER switches every FluidNetwork to the parallel scan
    # when it is constructed; the benchmark measures the serial default.
    parallel = env.pop("TB_PARALLEL_SOLVER", None)
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    record = {"commit": commit or "unknown", "nproc": os.cpu_count(),
              "seed": seed, "TB_PARALLEL_SOLVER": parallel}
    return record, env


def check(res, refs, workload, tiny):
    """Compare outputs and digests with the references.

    Returns (attempted, failed, messages). Every checked item carries
    the id of the operation it belongs to, so an operation that fails
    several checks (in the harness and here) counts once. A reference
    with no output at all counts as one more attempted and failed item.
    """
    table = workload + ("_tiny" if tiny else "")
    tol = refs["rel_tol"]
    failures = list(res["failures"])
    failed = set(res["failed_ops"])
    attempted = res["attempted"]

    seen = set()
    for key, value, op, ref_table in res["outputs"]:
        ref_table = ref_table or table
        if ref_table == table:
            seen.add(key)
        ref = refs["outputs"].get(ref_table, {}).get(key)
        if ref is None or value is None or \
                abs(value - ref) > tol * max(abs(ref), 1e-300):
            failed.add(op)
            failures.append("%s = %r, reference %r" % (key, value, ref))
    missing = sorted(set(refs["outputs"].get(table, {})) - seen)

    expected = refs["digests"].get(table, {})
    for key, value, op in res["digests"]:
        if expected.get(key) != value:
            failed.add(op)
            failures.append("digest %s = %s, reference %s"
                            % (key, value, expected.get(key)))
    missing += ["digest " + key for key in sorted(
        set(expected) - {d[0] for d in res["digests"]})]

    for key in missing:
        failures.append("%s: no output" % key)
    return attempted + len(missing), len(failed) + len(missing), failures


def paper_err_pct(res, refs):
    """Mean relative error of the Fig 19 headline numbers at 256
    accelerators against the paper; None without the needed sessions."""
    out = {key: value for key, value, _, table in res["outputs"]
           if not table}
    tb_speedups, acc_speedups = [], []
    for model in refs["paper"]["models"]:
        try:
            base = out["%s/Baseline/256" % model]
            tb_speedups.append(out["%s/TrainBox/256" % model] / base)
            acc_speedups.append(out["%s/B+Acc/256" % model] / base)
        except KeyError:
            return None
    sim = {"trainbox_mean_speedup": statistics.mean(tb_speedups),
           "trainbox_max_speedup": max(tb_speedups),
           "acc_mean_speedup": statistics.mean(acc_speedups)}
    paper = refs["paper"]["fig19_256"]
    errs = [abs(sim[k] - paper[k]) / paper[k] for k in paper]
    return 100.0 * statistics.mean(errs), sim


def end_to_end(res, operation):
    """End-to-end metric values, and what each was measured over."""
    lat = res["op_ms"]
    p95 = percentile(lat, 95)
    values = {
        "setup_s": statistics.median(res["setup_s"]),
        "ops_per_s": res["ops"] / res["elapsed_s"],
        "op_p50_ms": percentile(lat, 50),
        "op_p95_ms": p95,
        "peak_rss_mb": res["info"]["peak_rss_mb"],
    }
    counts = {
        "setup_s": "%d set-ups" % len(res["setup_s"]),
        "ops_per_s": "%d ops (one per %s) in %.2f s wall, %.2f s "
                     "main-thread CPU" % (res["ops"], operation,
                                            res["elapsed_s"], res["cpu_s"]),
        "op_p50_ms": "%d samples, one per %s" % (len(lat), res["op_unit"]),
        "op_p95_ms": "%d samples, %d beyond p95"
                     % (len(lat), sum(v > p95 for v in lat)),
        "peak_rss_mb": "1 process",
    }
    return values, counts


def record_references(path, refs, res, workload, tiny):
    table = workload + ("_tiny" if tiny else "")
    refs["outputs"][table] = {k: v for k, v, _, t in res["outputs"] if not t}
    if res["digests"]:
        refs["digests"][table] = {k: v for k, v, _ in res["digests"]}
    with open(path, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print("perfbench: recorded %d outputs for %s in %s"
          % (len(refs["outputs"][table]), table, path), file=sys.stderr)


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPERATION))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--references",
                    default=os.path.join(HERE, "references.json"))
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    with open(args.references) as f:
        refs = json.load(f)

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    # The first run in a checkout compiles the program (up to 900 s).
    first = not os.path.isfile(os.path.join(build_dir, "perfbench"))
    exe = build(build_dir, start + (880.0 if first else DEADLINE_S))
    env_record, env = environment(args.seed)

    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    out_path = os.path.join(out_dir, stem + ".json")
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out_dir, stem + ".spans.json")]
    if args.tiny:
        cmd.append("--tiny")
    budget = (start + (890.0 if first else DEADLINE_S)) - time.monotonic()
    try:
        rc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                            timeout=max(budget, 1.0)).returncode
    except subprocess.TimeoutExpired:
        die("workload did not finish within the deadline")
    if rc != 0 or not os.path.isfile(out_path):
        die("perfbench exited with status %d" % rc)
    with open(out_path) as f:
        res = json.load(f)

    if args.record:
        record_references(args.references, refs, res, args.workload,
                          args.tiny)
        with open(args.references) as f:
            refs = json.load(f)

    attempted, failed, failures = check(res, refs, args.workload, args.tiny)
    for line in failures[:20]:
        print("perfbench: check failed: " + line, file=sys.stderr)

    env_record.update(build_type=res["build_type"],
                      compiler=res["compiler"],
                      run_info=res["info"])
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed,
                                             args.trace))
    print("environment: " + json.dumps(env_record, sort_keys=True))

    paper = paper_err_pct(res, refs) if args.workload == "server_sweep" \
        else None
    if args.trace:
        values, counts = dict(res["layers"]), {}
        if paper is not None:
            values["trainbox.paper_err_pct"] = paper[0]
        metric_specs = spec["per_layer"]
    else:
        values, counts = end_to_end(res, OPERATION[args.workload])
        metric_specs = spec["end_to_end"]

    metrics = {}
    for m in metric_specs:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-32s %14.6g %-8s %s" % (m["name"], value, m["unit"],
                                          counts.get(m["name"], "")))
    print("  %-32s %14.6g %-8s %d failed of %d attempted"
          % ("error_rate", failed / max(attempted, 1), "ratio", failed,
             attempted))
    if paper is not None:
        print("  %-32s %14.6g %-8s simulated %s vs paper %s (simulated, "
              "deterministic)" % ("paper_err_pct", paper[0], "%",
                                  json.dumps(paper[1], sort_keys=True),
                                  json.dumps(refs["paper"]["fig19_256"],
                                             sort_keys=True)))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
