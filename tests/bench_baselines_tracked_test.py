#!/usr/bin/env python3
"""Every bench baseline a regression guard reads must be committed (stdlib only).

scripts/check_bench_regression.py compares a fresh BENCH_*.json against the
file passed as --baseline. A baseline that git does not track is missing from
every fresh checkout, so its guard fails on an unchanged tree. This suite
extracts each `--baseline <path>` from the CI workflow and scripts/verify.sh
and fails if `git ls-files --error-unmatch` rejects one.

Outside a git checkout there is nothing to ask, so the script exits 77, which
ctest reports as skipped (SKIP_RETURN_CODE).
"""

import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
# Files that invoke the guard, relative to ROOT; both run from ROOT, so their
# baseline paths are ROOT-relative too.
GUARD_CALLERS = [".github/workflows/ci.yml", "scripts/verify.sh"]
SKIP_RETURN_CODE = 77

_BASELINE_RE = re.compile(r"--baseline[ \t]+['\"]?([^\s'\"\\]+)")


def extract_baselines(text):
    """Returns every path given to --baseline in `text`, in order."""
    return _BASELINE_RE.findall(text)


def in_git_checkout():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--is-inside-work-tree"],
                                capture_output=True, text=True, check=False)
    except OSError:
        return False
    return result.returncode == 0 and result.stdout.strip() == "true"


def is_tracked(path):
    result = subprocess.run(["git", "-C", ROOT, "ls-files", "--error-unmatch", "--", path],
                            capture_output=True, text=True, check=False)
    return result.returncode == 0


class ExtractTest(unittest.TestCase):
    def test_finds_paths_across_continuation_lines(self):
        text = ("python3 scripts/check_bench_regression.py \\\n"
                "  --fresh out/BENCH_a.json \\\n"
                "  --baseline BENCH_a.json \\\n"
                "  --row r\n"
                "check --baseline \"sub/BENCH_b.json\"\n")
        self.assertEqual(extract_baselines(text), ["BENCH_a.json", "sub/BENCH_b.json"])

    def test_ignores_other_flags(self):
        self.assertEqual(extract_baselines("--fresh BENCH_x.json --baseline-ish y"), [])


class TrackedTest(unittest.TestCase):
    def test_every_guard_baseline_is_committed(self):
        untracked = []
        for caller in GUARD_CALLERS:
            with open(os.path.join(ROOT, caller), encoding="utf-8") as f:
                for path in extract_baselines(f.read()):
                    if not is_tracked(path):
                        untracked.append(f"{caller}: --baseline {path}")
        self.assertEqual(untracked, [],
                         "baselines read by a regression guard but not tracked by git "
                         "(commit them or drop the guard)")


if __name__ == "__main__":
    if not in_git_checkout():
        print(f"{ROOT} is not a git checkout; skipping")
        sys.exit(SKIP_RETURN_CODE)
    unittest.main()
