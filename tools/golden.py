#!/usr/bin/env python3
"""golden: compare small runs' outputs with stored SHA-256 digests.

Each cell is one run of a binary with fixed arguments, executed in a fresh
temporary directory so every output file has a fixed name. The digests of
its stdout and of the files it writes are compared with the manifest
(tests/golden/manifest, one `<sha256>  <cell>/<file>` line per output).
A sweep's stdout carries wall times and thread-order progress lines, so
the sweep cells digest only their JSON and NDJSON, which print every
metric at full precision: a one-ULP change in a reported metric moves
them, and the --jobs 1 and --jobs 4 digests must agree.

    tools/golden.py --build build            # check every cell
    tools/golden.py --build build --cell app_spread
    tools/golden.py --build build --update   # rewrite the manifest

The digests hold only for the toolchain they were taken with (GCC 12 on
x86-64 Linux): compilers differ in floating-point contraction, so ctest
registers the cells for GCC 12 only. Its Debug,
Release and RelWithDebInfo builds agree because every CLI cell passes
--audit; without it, Debug's default audit would add the `audit checks`
rows and move the event counts.

A change that moves a digest on purpose runs --update and says in
CHANGES.md which digest moved and why.

Exit status: 0 when every digest matches, 1 on a mismatch or a failed
run, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import subprocess
import sys
import tempfile
import time


def sweep_cell(jobs: int):
    return ("tlbsim_cli",
            ["sweep", "--schemes", "letflow,tlb", "--loads", "0.6",
             "--seeds", "1,2", "--flows", "60", "--audit",
             "--jobs", str(jobs), "--json", "sweep.json",
             "--flows-json", "flows.ndjson"],
            ["sweep.json", "flows.ndjson"])


# Every --list-schemes name, in its order.
ALL_SCHEMES = ("ecmp,wcmp,rps,drill,presto,letflow,conga,hermes,round-robin,"
               "flow-level,shortest-queue,fixed-granularity,tlb")


def schemes_cell(workload_args: list[str]):
    return ("tlbsim_cli",
            ["sweep", "--schemes", ALL_SCHEMES, *workload_args,
             "--seeds", "1", "--flows", "60", "--audit", "--metrics",
             "--jobs", "4", "--json", "sweep.json"],
            ["sweep.json"])


# One link per fault kind: down/up, a rate cut, delay inflation, gray loss.
ALL_FAULT_KINDS = ("leaf0-spine1,down@5ms,up@20ms;"
                   "leaf1-spine2,rate=0.25@3ms,rate=1@30ms;"
                   "leaf2-spine3,delay=4@2ms;leaf3-spine0,drop=0.02@1ms")


# name -> (binary, arguments, outputs digested; "stdout" is the run's)
CELLS = {
    "ext_fattree": ("ext_fattree", [], ["stdout"]),
    "tlb_200": ("tlbsim_cli",
                ["--scheme", "tlb", "--flows", "200", "--audit"],
                ["stdout"]),
    "tlb_exports": ("tlbsim_cli",
                    ["--scheme", "tlb", "--flows", "60", "--audit",
                     "--metrics-json", "metrics.json",
                     "--trace-json", "trace.json",
                     "--flows-json", "flows.ndjson"],
                    ["stdout", "metrics.json", "trace.json",
                     "flows.ndjson"]),
    "app_spread": ("tlbsim_cli",
                   ["--workload", "none", "--audit",
                    "--app", "queries=40,fan-out=8,placement=spread",
                    "--queries-json", "queries.ndjson"],
                   ["stdout", "queries.ndjson"]),
    "letflow_fault": ("tlbsim_cli",
                      ["--scheme", "letflow", "--flows", "150", "--audit",
                       "--fault", "leaf0-spine1,down@5ms,up@50ms"],
                      ["stdout"]),
    "faults_all_kinds": ("tlbsim_cli",
                         ["--scheme", "tlb", "--flows", "120", "--seed", "5",
                          "--audit", "--fault", ALL_FAULT_KINDS,
                          "--flows-json", "flows.ndjson"],
                         ["stdout", "flows.ndjson"]),
    "app_over_fault": ("tlbsim_cli",
                       ["--scheme", "tlb", "--flows", "100", "--audit",
                        "--fault", "leaf1-spine1,down@40ms,up@55ms;"
                        "leaf1-spine2,rate=0.25@3ms,rate=1@30ms;"
                        "leaf2-spine3,delay=4@2ms;leaf3-spine0,drop=0.02@1ms",
                        "--app", "queries=60,fan-out=8,response-dist=websearch,"
                        "response-bytes=2000000,timeout-ms=5,max-retries=2",
                        "--queries-json", "queries.ndjson",
                        "--flows-json", "flows.ndjson"],
                       ["stdout", "queries.ndjson", "flows.ndjson"]),
    # Counters summed at run end over a non-TLB scheme's flow tables,
    # retired app senders and an applied fault plan.
    "metrics_app_fault": ("tlbsim_cli",
                          ["--scheme", "conga", "--flows", "100", "--seed",
                           "5", "--audit", "--fault", ALL_FAULT_KINDS,
                           "--app", "queries=60,fan-out=8,timeout-ms=5,"
                           "max-retries=2",
                           "--metrics-json", "metrics.json"],
                          ["stdout", "metrics.json"]),
    "sweep_jobs1": sweep_cell(1),
    "sweep_jobs4": sweep_cell(4),
    "schemes_websearch": schemes_cell(["--loads", "0.6"]),
    "schemes_basicmix": schemes_cell(["--workload", "basicmix"]),
}

# Where each binary sits in a build tree.
BINARIES = {
    "tlbsim_cli": "tools/tlbsim_cli",
    "ext_fattree": "bench/ext_fattree",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cell(name: str, binary: pathlib.Path) -> dict[str, str]:
    """Runs one cell; returns {"<cell>/<file>": digest}."""
    _, args, files = CELLS[name]
    with tempfile.TemporaryDirectory(prefix=f"golden-{name}-") as tmp:
        start = time.monotonic()
        proc = subprocess.run([str(binary), *args], cwd=tmp,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
        elapsed = time.monotonic() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError(f"{name}: exit status {proc.returncode}")
        digests = {}
        for f in files:
            data = (proc.stdout if f == "stdout"
                    else (pathlib.Path(tmp) / f).read_bytes())
            digests[f"{name}/{f}"] = sha256(data)
    print(f"golden: {name} ran in {elapsed:.2f} s", file=sys.stderr)
    return digests


def read_manifest(path: pathlib.Path) -> dict[str, str]:
    digests = {}
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        digest, key = line.split(maxsplit=1)
        digests[key] = digest
    return digests


def write_manifest(path: pathlib.Path, digests: dict[str, str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["# SHA-256 of each golden cell's outputs; "
             "rewrite with tools/golden.py --update"]
    lines += [f"{digests[key]}  {key}" for key in sorted(digests)]
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    manifest = (pathlib.Path(__file__).resolve().parent.parent / "tests" /
                "golden" / "manifest")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build",
                        help="build tree holding the binaries "
                             "(default: build)")
    parser.add_argument("--cell", action="append", choices=sorted(CELLS),
                        help="run only this cell (repeatable)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the manifest instead of comparing")
    args = parser.parse_args()

    build = pathlib.Path(args.build).resolve()
    names = args.cell or sorted(CELLS)
    if args.update and args.cell:
        print("golden: --update rewrites every cell; drop --cell",
              file=sys.stderr)
        return 2

    got: dict[str, str] = {}
    for name in names:
        binary = build / BINARIES[CELLS[name][0]]
        if not binary.is_file():
            print(f"golden: no {binary}", file=sys.stderr)
            return 2
        try:
            got.update(run_cell(name, binary))
        except RuntimeError as err:
            print(f"golden: {err}", file=sys.stderr)
            return 1

    if args.update:
        write_manifest(manifest, got)
        print(f"golden: wrote {len(got)} digests to {manifest}",
              file=sys.stderr)
        return 0

    want = read_manifest(manifest)
    failures = 0
    for key in sorted(got):
        if key not in want:
            print(f"golden: {key} has no digest in {manifest}",
                  file=sys.stderr)
            failures += 1
        elif got[key] != want[key]:
            print(f"golden: {key} moved: {want[key]} -> {got[key]}",
                  file=sys.stderr)
            failures += 1
    for key in sorted(want):
        if key.split("/")[0] in names and key not in got:
            print(f"golden: {key} is in the manifest but no cell writes it",
                  file=sys.stderr)
            failures += 1
    if failures:
        print(f"golden: {failures} digest(s) differ", file=sys.stderr)
        return 1
    print(f"golden: {len(got)} digests match", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
