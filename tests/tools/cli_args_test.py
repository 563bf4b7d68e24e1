#!/usr/bin/env python3
"""Input checks of cextend_cli that fire before any solve.

A malformed numeric flag prints the usage and exits 2 without writing an
output file; an R1 or R2 table whose key column holds a NULL or a repeated
key is refused with exit 1. Every case runs on a three-person instance whose
arguments are otherwise valid, so the check under test is the only reason a
run can fail.

Usage: cli_args_test.py <path-to-cextend_cli>
"""

import os
import subprocess
import sys
import tempfile
import unittest

CLI = None  # set from argv in __main__

SPEC = 'dc one_owner: !(t0.Rel = "Owner" & t1.Rel = "Owner")\n'
PERSONS = "pid,Rel,hid\n1,Owner,\n2,Owner,\n3,Child,\n"


class CliArgsTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.write("spec.txt", SPEC)

    def write(self, name, text):
        with open(os.path.join(self.dir.name, name), "w") as f:
            f.write(text)

    def run_cli(self, housing, *extra, persons=PERSONS):
        self.write("persons.csv", persons)
        self.write("housing.csv", housing)
        return subprocess.run(
            [CLI, "--r1=persons.csv", "--r1-schema=pid:int,Rel:str,hid:int",
             "--r2=housing.csv", "--r2-schema=hid:int,Area:str",
             "--key1=pid", "--fk=hid", "--key2=hid",
             "--constraints=spec.txt", "--out-r1=r1_hat.csv",
             "--out-r2=r2_hat.csv", *extra],
            cwd=self.dir.name, capture_output=True, text=True, timeout=60)

    def wrote_output(self):
        return os.path.exists(os.path.join(self.dir.name, "r1_hat.csv"))

    def test_valid_run_succeeds(self):
        proc = self.run_cli("hid,Area\n1,Chicago\n2,NYC\n", "--threads=1",
                            "--seed=7", "--timeout-ms=0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(self.wrote_output())

    def test_malformed_numeric_flags_exit_2(self):
        housing = "hid,Area\n1,Chicago\n2,NYC\n"
        for flag in ["--threads=abc", "--threads=", "--threads=2x",
                     "--seed=xyz", "--seed=-3",
                     "--seed=99999999999999999999", "--timeout-ms=-5",
                     "--timeout-ms=1e3", "--shards=+4",
                     "--max-resident-shards= 2", "--max-attempts=1.5"]:
            with self.subTest(flag=flag):
                proc = self.run_cli(housing, flag)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("bad argument: " + flag, proc.stderr)
                self.assertIn("usage:", proc.stderr)
                self.assertFalse(self.wrote_output())

    def test_duplicate_r2_key_is_refused(self):
        proc = self.run_cli("hid,Area\n1,Chicago\n1,NYC\n")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("repeats key 1", proc.stderr)
        self.assertFalse(self.wrote_output())

    def test_null_r2_key_is_refused(self):
        proc = self.run_cli("hid,Area\n1,Chicago\n,NYC\n")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("NULL", proc.stderr)
        self.assertFalse(self.wrote_output())

    def test_null_or_repeated_r1_key_is_refused(self):
        housing = "hid,Area\n1,Chicago\n2,NYC\n"
        for persons, message in [
                ("pid,Rel,hid\n1,Owner,\n1,Owner,\n,Child,\n", "NULL"),
                ("pid,Rel,hid\n1,Owner,\n2,Owner,\n1,Child,\n",
                 "repeats key 1")]:
            with self.subTest(persons=persons):
                proc = self.run_cli(housing, persons=persons)
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertIn("R1 key", proc.stderr)
                self.assertIn(message, proc.stderr)
                self.assertFalse(self.wrote_output())


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    CLI = os.path.abspath(sys.argv.pop(1))
    unittest.main()
