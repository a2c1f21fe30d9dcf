#!/usr/bin/env python3
"""Self-checks of BENCHMARK.json: it parses, round-trips unchanged through
JSON, and keeps to its schema (keys, name and unit formats, bounds, and a
run length that fits the measurement campaign).

    python3 perfbench/test_contract.py

The steady-window arithmetic, the frame oracle and seeded input
generation are checked by the Rust tests:

    cargo test --release --offline --manifest-path perfbench/Cargo.toml
"""

import json
import os
import re
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        text = f.read()
    return text, json.loads(text)


class BenchmarkJson(unittest.TestCase):
    def test_round_trips(self):
        text, doc = load()
        again = json.loads(json.dumps(doc))
        self.assertEqual(doc, again)
        self.assertEqual(json.loads(json.dumps(doc, indent=2)), doc)
        self.assertLessEqual(len(text.encode()), 64 * 1024)

    def test_shape(self):
        _, doc = load()
        self.assertEqual(
            set(doc),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertTrue(1 <= len(doc["paths"]) <= 16)
        for p in doc["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)), p)
        self.assertTrue(1 <= len(doc["command"]) <= 32)
        for arg in doc["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertIsInstance(doc["run_seconds"], int)
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        # a campaign of 4 + 22 runs per workload, each about run_seconds
        # plus a few seconds of set-up, must finish within 3420 s with two
        # builds
        runs = 4 + 22 * len(doc["workloads"])
        self.assertLess(runs * (doc["run_seconds"] + 5), 3420 - 2 * 120)

        names = []
        for w in doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        e2e = doc["end_to_end"]
        self.assertTrue(1 <= len(e2e) <= 16)
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))
        layers = doc["per_layer"]
        self.assertTrue(1 <= len(layers) <= 128)
        for m in layers:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertIn(m["better"], ("lower", "higher"))
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names are used once")


if __name__ == "__main__":
    unittest.main()
