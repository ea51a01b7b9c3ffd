#!/usr/bin/env python3
"""Self-test for tools/detlint.py, run as a ctest.

Two assertions:
  1. Fixtures fire: detlint over tools/testdata/ must produce exactly
     the findings frozen in tools/testdata/expected_findings.txt —
     proving each rule detects its bug class and each negative case
     (sorted harvest, ordered map, justified allow) stays silent.
  2. The tree is clean: detlint over src/ must report zero findings.

Run from anywhere: paths are resolved relative to this file.
"""

import io
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import detlint  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(REPO, "tools", "testdata", "expected_findings.txt")


def run(paths):
    captured = io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout = captured
    sys.stderr = io.StringIO()  # swallow the "N finding(s)" summary
    try:
        status = detlint.main(["--root", REPO] + paths)
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return status, captured.getvalue()


def main():
    failures = []

    status, out = run(["tools/testdata"])
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    if out != golden:
        failures.append(
            "fixture findings diverge from %s:\n--- expected\n%s--- got\n%s"
            % (GOLDEN, golden, out))
    if status != 1:
        failures.append("fixtures must exit 1 (findings), got %d" % status)

    status, out = run(["src"])
    if status != 0 or out:
        failures.append(
            "src/ must be detlint-clean, got exit %d with:\n%s"
            % (status, out))

    if failures:
        for f in failures:
            print("FAIL: %s" % f)
        return 1
    print("detlint selftest: OK (fixtures fire, src/ clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
