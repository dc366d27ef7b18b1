#!/usr/bin/env python3
"""Check that tb_report's CSV is its JSON flattened, one row per leaf.

Usage: check_report_csv.py TB_REPORT

Runs TB_REPORT on a rich session, a metrics-free session and the
fleet-chaos fleet, writing --json and --csv, and reads both back with
nothing but the standard json and csv modules, so the check does not
share code with the C++ writer it checks.

The expected rows follow the documented flattening rule
(docs/OBSERVABILITY.md, "Exporters"): every JSON leaf is one
section,key,value row, in JSON order, with the same value text. The
section is the dotted path of the enclosing objects and lists (the
report's root section for a top-level leaf). A list element that is an
object is named by its first member's value (resource name, bottleneck
rank, job name); a scalar list element is keyed by its index.
"""

import csv
import json
import os
import subprocess
import sys
import tempfile

RUNS = [
    ("session", ["--preset", "trainbox", "--accs", "256", "--elastic",
                 "--ingest", "--corrupt", "1e-4", "--checks",
                 "--prep-smoke", "8"]),
    ("session", ["--preset", "baseline", "--accs", "32", "--no-metrics"]),
    ("fleet", ["--fleet-chaos"]),
]


def text(value):
    """The JSON leaf's text as the CSV writes it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value  # strings, and numbers kept verbatim by the parser


def flatten(node, path, root, rows):
    if isinstance(node, dict):
        members = list(node.items())
    else:
        members = []
        for i, value in enumerate(node):
            if isinstance(value, dict):
                members.append((text(next(iter(value.values()))), value))
            else:
                members.append((str(i), value))
    for key, value in members:
        if isinstance(value, (dict, list)):
            flatten(value, path + [key], root, rows)
        else:
            rows.append([".".join(path) or root, key, text(value)])
    return rows


def check(tb_report, root, args, workdir):
    json_path = os.path.join(workdir, "report.json")
    csv_path = os.path.join(workdir, "report.csv")
    label = " ".join(args)
    proc = subprocess.run([tb_report, *args, "--json", json_path,
                           "--csv", csv_path], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        print(f"FAIL [{label}]: tb_report exited {proc.returncode}")
        print(proc.stderr)
        return False
    with open(json_path) as f:
        doc = json.load(f, parse_float=str, parse_int=str)
    with open(csv_path, newline="") as f:
        table = list(csv.reader(f))

    errors = []
    if not table or table[0] != ["section", "key", "value"]:
        errors.append("missing section,key,value header")
    body = table[1:]
    for n, row in enumerate(body, start=2):
        if len(row) != 3:
            errors.append(f"line {n}: {len(row)} columns: {row}")
    expected = flatten(doc, [], root, [])
    if len(body) != len(expected):
        errors.append(f"{len(body)} CSV rows for {len(expected)} JSON "
                      f"leaves")
    for n, (got, want) in enumerate(zip(body, expected), start=2):
        if got != want:
            errors.append(f"line {n}: CSV {got} != JSON leaf {want}")
            break
    if errors:
        print(f"FAIL [{label}]")
        for e in errors[:10]:
            print("  " + e)
        return False
    print(f"ok   [{label}]: {len(expected)} leaves == {len(body)} rows")
    return True


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    ok = True
    with tempfile.TemporaryDirectory() as workdir:
        for root, args in RUNS:
            ok = check(sys.argv[1], root, args, workdir) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
