#!/usr/bin/env python3
"""Self-test for tools/lint/cextend_lint.py against its fixture tree.

Asserts, per check, that the positive fixture fires, the negative fixture
stays silent, and that the waiver-comment syntax (plus the sorted-drain and
``(void)`` idioms) suppresses findings.
"""

import os
import re
import subprocess
import sys
import unittest

REPO_ROOT = os.environ.get(
    "CEXTEND_REPO_ROOT",
    os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..")),
)
LINTER = os.path.join(REPO_ROOT, "tools", "lint", "cextend_lint.py")
FIXTURES = os.path.join(REPO_ROOT, "tools", "lint", "fixtures")

FINDING_RE = re.compile(r"^(?P<path>\S+?):(?P<line>\d+): \[(?P<check>[A-Z]\d) ")
SUPPRESSED_RE = re.compile(
    r"^(?P<path>\S+?):(?P<line>\d+): suppressed \[(?P<check>[A-Z]\d)\] "
    r"\((?P<reason>[a-z-]+)\)"
)


def run_lint(extra_args=()):
    proc = subprocess.run(
        [sys.executable, LINTER, "--root", FIXTURES, "--verbose", *extra_args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    findings = {}  # path -> set of (check, line)
    suppressed = {}  # path -> set of (check, reason)
    for line in proc.stdout.splitlines():
        m = SUPPRESSED_RE.match(line)
        if m:
            suppressed.setdefault(m.group("path"), set()).add(
                (m.group("check"), m.group("reason")))
            continue
        m = FINDING_RE.match(line)
        if m:
            findings.setdefault(m.group("path"), set()).add(
                (m.group("check"), int(m.group("line"))))
    return proc, findings, suppressed


class LintFixtureTest(unittest.TestCase):
    maxDiff = None

    @classmethod
    def setUpClass(cls):
        cls.proc, cls.findings, cls.suppressed = run_lint()

    def checks_for(self, path):
        return {check for check, _ in self.findings.get(path, set())}

    def test_exit_code_signals_findings(self):
        # Fixture tree contains positives, so the linter must exit 1 (not 0
        # "clean", not 2 "internal error").
        self.assertEqual(self.proc.returncode, 1, self.proc.stderr)

    def test_d1_fires_on_positive(self):
        path = "src/core/d1_positive.cc"
        self.assertEqual(self.checks_for(path), {"D1"})
        # Both the range-for and the explicit .begin() iterator loop fire.
        self.assertEqual(len(self.findings[path]), 2)

    def test_d1_silent_on_negative(self):
        self.assertEqual(self.checks_for("src/core/d1_negative.cc"), set())

    def test_d1_sorted_drain_suppresses(self):
        self.assertIn(("D1", "sorted-drain"),
                      self.suppressed.get("src/core/d1_negative.cc", set()))

    def test_d1_waiver_suppresses(self):
        path = "src/core/d1_waived.cc"
        self.assertEqual(self.checks_for(path), set())
        self.assertIn(("D1", "waiver"), self.suppressed.get(path, set()))

    def test_d2_fires_on_positive(self):
        path = "src/core/d2_positive.cc"
        self.assertEqual(self.checks_for(path), {"D2"})
        # random_device, rand(), time(), std::hash<ptr>, pointer-keyed map.
        self.assertEqual(len(self.findings[path]), 5)

    def test_d2_silent_on_negative(self):
        self.assertEqual(self.checks_for("src/core/d2_negative.cc"), set())

    def test_d2_exempts_util_rng(self):
        # util/rng.cc is the blessed home for randomness primitives.
        self.assertEqual(self.checks_for("src/util/rng.cc"), set())

    def test_s1_fires_on_positive(self):
        path = "src/core/s1_positive.cc"
        self.assertEqual(self.checks_for(path), {"S1"})
        # Free function, StatusOr factory, and member call all fire.
        self.assertEqual(len(self.findings[path]), 3)

    def test_s1_silent_on_negative(self):
        self.assertEqual(self.checks_for("src/core/s1_negative.cc"), set())

    def test_t1_fires_on_positive(self):
        path = "src/core/t1_positive.cc"
        self.assertEqual(self.checks_for(path), {"T1"})
        # Mutable file-scope static and mutable thread_local both fire.
        self.assertEqual(len(self.findings[path]), 2)

    def test_t1_silent_on_negative(self):
        self.assertEqual(self.checks_for("src/core/t1_negative.cc"), set())

    def test_check_filter(self):
        # --checks restricts which detectors run.
        proc, findings, _ = run_lint(("--checks", "D2"))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        all_checks = {c for per_file in findings.values() for c, _ in per_file}
        self.assertEqual(all_checks, {"D2"})


if __name__ == "__main__":
    unittest.main()
