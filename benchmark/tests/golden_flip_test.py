"""A damaged golden file must fail the run.

Runs hmm-sim at seed 1 against copies of the seed-1 golden file. The intact
copy must pass. Each damaged copy must exit non-zero with failed > 0 (an
error rate above zero):

- one flipped bit in the last mantissa digit of the first charged cost;
- a golden key deleted (the run produces a value the file lacks);
- a golden key added (the file holds a value the run no longer produces).

usage: golden_flip_test.py DBSP_BENCH GOLDEN_JSON WORK_DIR
"""

import copy
import json
import os
import re
import subprocess
import sys


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def run(bench, doc, work, name):
    path = os.path.join(work, name + ".json")
    with open(path, "w") as f:
        json.dump(doc, f)
    proc = subprocess.run([bench, "--workload", "hmm-sim", "--seed", "1", "--quick",
                           "--golden", path, "--out", work],
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def flip_cost(entry):
    first = entry["inputs"][0]
    m = re.fullmatch(r"(-?0x[0-9a-f]\.[0-9a-f]*)([0-9a-f])(p[+-]\d+)", first["cost"])
    if not m:
        fail("unexpected cost format %r" % first["cost"])
    first["cost"] = m.group(1) + ("%x" % (int(m.group(2), 16) ^ 1)) + m.group(3)


def delete_key(entry):
    del entry["inputs"]


def add_key(entry):
    entry["retired_count"] = 1


def main():
    bench, golden, work = sys.argv[1], sys.argv[2], sys.argv[3]
    os.makedirs(work, exist_ok=True)
    with open(golden) as f:
        doc = json.load(f)

    code, result = run(bench, doc, work, "intact")
    if code != 0 or not result or not result["correct"]:
        fail("intact golden file: exit %d, result %s" % (code, result))

    for damage in (flip_cost, delete_key, add_key):
        damaged = copy.deepcopy(doc)
        damage(damaged["workloads"]["hmm-sim"])
        code, result = run(bench, damaged, work, damage.__name__)
        if code == 0 or not result or result["correct"] or result["failed"] < 1:
            fail("%s: damaged golden file was accepted: exit %d, result %s"
                 % (damage.__name__, code, result))
        rate = result["failed"] / result["attempted"]
        print("%s: exit %d, error_rate %g -> PASS" % (damage.__name__, code, rate))


if __name__ == "__main__":
    main()
