#!/usr/bin/env python3
"""Check that tb_report --list names every preset by its own CLI name.

Usage: check_preset_list.py TB_REPORT

Reads the "presets:" block of TB_REPORT --list, one
"  cli-name  Preset Name — description" line per preset. For each line
it runs a short session with --preset cli-name and checks that the
JSON report's config.preset is the name --list printed next to it, so
the listing and the option parser cannot disagree.
"""

import json
import subprocess
import sys


def main():
    tool = sys.argv[1]
    listing = subprocess.run([tool, "--list"], check=True,
                             capture_output=True, text=True).stdout
    lines = listing.split("presets:\n", 1)[1].split("models:\n", 1)[0]
    failures = 0
    seen = set()
    for line in lines.splitlines():
        cli, rest = line.split(None, 1)
        listed = rest.split(" — ", 1)[0].strip()
        seen.add(listed)
        report = subprocess.run(
            [tool, "--preset", cli, "--accs", "8", "--warmup", "1",
             "--measure", "1", "--json", "-"],
            check=True, capture_output=True, text=True).stdout
        ran = json.loads(report)["config"]["preset"]
        if ran != listed:
            print(f"--list says {cli} is {listed!r}, but --preset {cli} "
                  f"runs {ran!r}")
            failures += 1
    if len(seen) != 7:
        print(f"--list names {len(seen)} distinct presets, expected 7")
        failures += 1
    print("preset list: " + ("ok" if failures == 0 else
                             f"{failures} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
