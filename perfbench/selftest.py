#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  1. the metric names and units a run prints match BENCHMARK.json
     (end_to_end with --trace 0, per_layer with --trace 1), and
     perfbench/layers.json documents exactly those metrics;
  2. a deliberately wrong expected verdict (--wrong-expectation) is
     counted as failed and makes the result read "correct": false, while
     the run still exits 0 with its result line;
  3. the same seed gives byte-identical generated inputs, and (for the
     seeded workloads) another seed gives different ones.
Finally, run.py in a directory holding only BENCHMARK.json and perfbench/
must exit nonzero without printing a result.

Exits 0 when every check holds; prints each failure otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "5",
           "--seconds", "0.2", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None and not {"correct", "attempted", "failed",
                                   "metrics"} <= set(result):
        result = None
    return proc.returncode, result, proc.stderr


def dump(workload, seed, tag):
    path = os.path.join(SCRATCH, f"inputs-{workload}-{seed}-{tag}.bin")
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--toy", "--dump-inputs", path]
    code = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                          check=False).returncode
    if code != 0 or not os.path.isfile(path):
        return None
    with open(path, "rb") as f:
        return f.read()


def main():
    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expect(set(layers["per_layer"]) == set(declared[1]),
           "layers.json per_layer names match BENCHMARK.json")
    expect(set(declared[0]) <= set(layers["end_to_end"]),
           "layers.json documents every end_to_end metric")
    expect(set(layers["workloads"]) == {w["name"] for w in bench["workloads"]},
           "layers.json workloads match BENCHMARK.json")

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, result, err = run(workload, trace, "--toy")
            printed = ({k: v["unit"] for k, v in result["metrics"].items()}
                       if result else None)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace {trace}: correct toy run"
                   + ("" if code == 0 else f" (exit {code}: {err[-300:]})"))
            expect(printed == declared[trace],
                   f"{workload} trace {trace}: printed metrics and units "
                   "match BENCHMARK.json")

        code, result, _ = run(workload, 0, "--toy", "--wrong-expectation")
        expect(code == 0 and result is not None and result["failed"] > 0
               and not result["correct"],
               f"{workload}: a wrong expected verdict counts as failed and "
               "reads correct false")

        first, again = dump(workload, 11, "a"), dump(workload, 11, "b")
        expect(first is not None and first == again,
               f"{workload}: same seed, byte-identical inputs")
        if workload != "large-800":  # its model has no random part
            other = dump(workload, 12, "a")
            expect(other is not None and other != first,
                   f"{workload}: another seed, other inputs")

    isolated = os.path.join(SCRATCH, "isolated")
    shutil.rmtree(isolated, ignore_errors=True)
    os.makedirs(isolated)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
    shutil.copytree(HERE, os.path.join(isolated, "perfbench"))
    code, result, _ = run("batch-mixed", 0, cwd=isolated,
                          script=os.path.join(isolated, "perfbench", "run.py"))
    expect(code != 0 and result is None,
           "without the library sources: nonzero exit, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
