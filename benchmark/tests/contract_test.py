"""Contract smoke test for dbsp_bench.

Runs every workload declared in BENCHMARK.json once with --quick, untraced
and traced, and checks that the last stdout line is the result object with
exactly the declared metric names and units. Then checks strict flag
handling: malformed flags exit with status 2 and a message.

usage: contract_test.py DBSP_BENCH BENCHMARK_JSON
"""

import json
import subprocess
import sys
import tempfile


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def run(bench, args):
    return subprocess.run([bench] + args, capture_output=True, text=True, timeout=300)


def check_result(bench, out_dir, workload, trace, declared):
    proc = run(bench, ["--workload", workload, "--seed", "1", "--quick",
                       "--trace", str(trace), "--out", out_dir])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s trace=%d exited %d\n%s" % (workload, trace, proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s trace=%d: %s" % (workload, trace, lines[-1]))
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if printed != wanted:
        fail("%s trace=%d: printed metrics %s, declared %s" % (workload, trace, printed, wanted))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("%s: %s is not a number" % (workload, name))
        if trace == 0 and m["value"] == 0:
            fail("%s: end-to-end metric %s is 0" % (workload, name))
    print("ok %s trace=%d (%d metrics)" % (workload, trace, len(printed)))


def check_bad_flag(bench, args, message):
    proc = run(bench, args)
    if proc.returncode != 2 or message not in proc.stderr:
        fail("%s: exit %d, stderr %r" % (args, proc.returncode, proc.stderr))
    print("ok rejects %s" % args)


def main():
    bench, declaration = sys.argv[1], sys.argv[2]
    with open(declaration) as f:
        decl = json.load(f)
    with tempfile.TemporaryDirectory(prefix="bench_contract_", dir=".") as out_dir:
        for w in decl["workloads"]:
            check_result(bench, out_dir, w["name"], 0, decl["end_to_end"])
            check_result(bench, out_dir, w["name"], 1, decl["per_layer"])
    check_bad_flag(bench, ["--nonsense"], "unknown flag")
    check_bad_flag(bench, ["--workload", "no-such-workload"], "invalid --workload")
    check_bad_flag(bench, ["--seed", "12abc"], "invalid --seed")
    check_bad_flag(bench, ["--seed"], "usage")
    check_bad_flag(bench, ["--trace", "2"], "invalid --trace")
    check_bad_flag(bench, ["--seconds", "0"], "invalid --seconds")
    print("contract: PASS")


if __name__ == "__main__":
    main()
