#!/usr/bin/env python3
"""Self-test of the benchmark itself, at a tiny scale (about a minute).

    python3 perfbench/selftest.py

For every workload it checks that the end-to-end and the traced run
print every metric of BENCHMARK.json with its unit and pass the
correctness gate. It then checks the gate itself: references recorded at
the tiny scale are matched; a deliberately wrong reference is counted in
failed_frac instead of being accepted; a held-out seed says that no
reference exists; and a machine definition that sets a host-speed key
is refused. Temporary files go to .bench_build/selftest.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_build", "selftest")
SCALE = "0.02"


def bench(workload, trace=0, seed=0, extra=()):
    """Run the benchmark; return (exit code, stdout, last-line JSON)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
           "--trace", str(trace), "--scale", SCALE] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, proc.stdout, result


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def check_metrics(workload, out, result, specs):
    """Every metric in @p specs is in the JSON and the text, with unit."""
    check(result is not None, f"{workload}: no result line")
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0,
          f"{workload}: run failed:\n{out}")
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in specs},
          f"{workload}: metric names {sorted(metrics)}")
    for m in specs:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"],
              f"{workload}: {m['name']} unit {got['unit']} != {m['unit']}")
        line = rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}$"
        check(re.search(line, out, re.M),
              f"{workload}: no text line for {m['name']}")
    check(re.search(r"^failed_frac\s+0\s", out, re.M),
          f"{workload}: failed_frac line missing")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    refs = os.path.join(WORKDIR, "references.json")

    for w in spec["workloads"]:
        name = w["name"]
        code, out, result = bench(name, extra=["--refs", refs,
                                               "--record-refs"])
        check(code == 0, f"{name}: exit {code}\n{out}")
        check_metrics(name, out, result, spec["end_to_end"])
        check("reference: none exists" in out,
              f"{name}: reference claimed before recording")

        code, out, result = bench(name, trace=1, extra=["--refs", refs])
        check(code == 0, f"{name} traced: exit {code}\n{out}")
        check_metrics(name, out, result, spec["per_layer"])
        check("reference: every job must match" in out,
              f"{name}: recorded reference not used")
        print(f"ok   {name}: end-to-end and traced metrics, recorded "
              f"reference matched")

    # A wrong reference must fail the run, not pass silently.
    with open(refs) as f:
        doc = json.load(f)
    first = spec["workloads"][0]["name"]
    job = next(iter(doc["workloads"][first]["jobs"]))
    doc["workloads"][first]["jobs"][job]["cycles"] += 1
    wrong = os.path.join(WORKDIR, "wrong.json")
    with open(wrong, "w") as f:
        json.dump(doc, f)
    code, out, result = bench(first, extra=["--refs", wrong])
    check(code == 0 and result is not None, f"wrong ref: exit {code}")
    check(not result["correct"] and result["failed"] >= 1,
          f"wrong reference accepted:\n{out}")
    frac = re.search(r"^failed_frac\s+(\S+)", out, re.M)
    check(frac and float(frac.group(1)) > 0, "failed_frac stayed 0")
    print(f"ok   wrong reference for {first}/{job} counted in failed_frac "
          f"({frac.group(1)})")

    # A held-out seed has no reference and says so.
    code, out, result = bench(first, seed=7, extra=["--refs", refs])
    check(code == 0 and result["correct"], f"held-out seed:\n{out}")
    check("reference: none exists for seed 7" in out,
          "held-out seed did not say that no reference exists")
    print("ok   held-out seed runs the audit and repeat checks only")

    # Machines set modelled keys only.
    machines = os.path.join(HERE, "machines")
    for cfg in os.listdir(machines):
        with open(os.path.join(machines, cfg)) as f:
            text = f.read()
        check(not re.search(r"^\s*cpu\.(l0|batch)", text, re.M),
              f"{cfg} sets a host-speed key")
    tampered = os.path.join(WORKDIR, "tampered")
    shutil.copytree(machines, os.path.join(tampered, "machines"))
    with open(os.path.join(tampered, "machines", first + ".cfg"), "a") as f:
        f.write("cpu.l0_entries = 512\n")
    code, out, result = bench(first, extra=["--bench-dir", tampered,
                                            "--refs", refs])
    check(code != 0 and result is None,
          "a machine setting cpu.l0_entries was accepted")
    print("ok   machine definitions hold modelled keys only")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}")
        sys.exit(1)
