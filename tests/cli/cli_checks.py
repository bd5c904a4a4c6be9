#!/usr/bin/env python3
"""End-to-end checks of tlbsim_cli that need more than an exit code.

  cli_checks.py exports CLI          a run with --metrics-json, --trace-json,
                                     --flows-json and --log-level info
                                     writes files that parse as JSON/NDJSON
  cli_checks.py queries CLI          an app-only run writes --queries-json
                                     NDJSON that parses
  cli_checks.py same-table CLI A B   --config A and --config B print the
                                     same result table
  cli_checks.py late-arrivals CLI    flows whose Poisson arrival lies past
                                     the clock never start: none completes
  cli_checks.py no-sample CLI        a mean or percentile over no completed
                                     flow or query prints n/a, not 0

Each check runs in a fresh temporary directory and exits non-zero, with the
reason, when it fails.
"""
import json
import os
import subprocess
import sys
import tempfile


def run(args, cwd):
    proc = subprocess.run(args, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def ndjson(path):
    with open(path) as f:
        records = [json.loads(line) for line in f]
    if not records:
        sys.exit(f"{path} is empty")
    return records


def exports(cli, tmp):
    run([cli, "--scheme", "tlb", "--flows", "100", "--audit",
         "--metrics-json", "m.json", "--trace-json", "t.json",
         "--flows-json", "f.ndjson", "--log-level", "info"], tmp)
    for name in ("m.json", "t.json"):
        with open(os.path.join(tmp, name)) as f:
            json.load(f)
    ndjson(os.path.join(tmp, "f.ndjson"))


def queries(cli, tmp):
    run([cli, "--scheme", "tlb", "--workload", "none", "--audit",
         "--app", "queries=40,fan-out=8,placement=spread",
         "--queries-json", "q.ndjson"], tmp)
    ndjson(os.path.join(tmp, "q.ndjson"))


def same_table(cli, tmp, first, second):
    a = run([cli, "--config", first], tmp)
    b = run([cli, "--config", second], tmp)
    if "tlbsim_cli results" not in a:
        sys.exit(f"no result table:\n{a}")
    if a != b:
        sys.exit(f"--config {first}:\n{a}\n--config {second}:\n{b}")


def late_arrivals(cli, tmp):
    out = run([cli, "--load", "1e-12", "--flows", "20", "--audit"], tmp)
    rows = dict(line.rsplit(None, 1) for line in out.splitlines()
                if line.startswith(("completed flows", "total flows")))
    if rows != {"completed flows": "0", "total flows": "20"}:
        sys.exit(f"expected 0 of 20 flows completed:\n{out}")


def no_sample(cli, tmp):
    flow_rows = ("short AFCT ms", "short p99 ms", "long goodput Mbps")
    qct_rows = ("app QCT mean ms", "app QCT p99 ms")
    runs = [
        # No flow starts, so none completes.
        (["--load", "1e-12", "--flows", "20"], flow_rows, ()),
        # Every query completes, but there are no static flows.
        (["--workload", "none", "--app", "queries=20"], flow_rows, qct_rows),
        # The hard stop comes before any query can complete.
        (["--workload", "none", "--app", "queries=20",
          "--max-duration-ms", "0.01"], flow_rows + qct_rows, ()),
    ]
    for args, empty, sampled in runs:
        out = run([cli, *args, "--audit"], tmp)
        rows = dict(line.rsplit(None, 1) for line in out.splitlines()
                    if line.startswith(empty + sampled))
        for row in empty:
            if rows.get(row) != "n/a":
                sys.exit(f"{' '.join(args)}: expected '{row}' n/a:\n{out}")
        for row in sampled:
            if rows.get(row, "n/a") == "n/a":
                sys.exit(f"{' '.join(args)}: expected a '{row}' value:\n"
                         f"{out}")


def main():
    checks = {"exports": exports, "queries": queries, "same-table": same_table,
              "late-arrivals": late_arrivals, "no-sample": no_sample}
    if len(sys.argv) < 3 or sys.argv[1] not in checks:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        checks[sys.argv[1]](sys.argv[2], tmp, *sys.argv[3:])


if __name__ == "__main__":
    main()
