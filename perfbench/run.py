"""pcup benchmark: one workload per process, or all of them.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run from the repository root.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.  The lines before it give the environment, the
checks, every metric with its unit and direction, and with --trace 1
the ROADMAP baseline cross-check.  The exit code is 0 only when every
check passed.
"""

import os
import sys

# BLAS must see these before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("desk-train", "paper-train", "eval-dense")


def print_report(report: dict) -> None:
    w = report["workload"]
    print(f"== {w} seed {report['seed']}: {report['setups']} setups, "
          f"{report['repeats']} repeats")
    for c in report["checks_failed"]:
        print(f"  CHECK FAILED {c['name']}: {c['detail']}")
    print(f"  checks: {report['checks_passed']} passed, "
          f"{len(report['checks_failed'])} failed")
    for name, m in report["end_to_end"].items():
        print(f"  {w:12s} {name:22s} {m['value']:.6g} {m['unit']} "
              f"({m['better']} is better)")
    if "untrained_pass" in report:
        p = report["untrained_pass"]
        print(f"  {w:12s} untrained pass: heldout_chamfer {p['chamfer']:.6g}, "
              f"dense_accuracy {p['dense_accuracy']:.6g}")
    for name, m in report.get("per_layer", {}).items():
        print(f"  {w:12s} {name:32s} {m['value']:.6g} {m['unit']}")
    for row in report.get("baseline", []):
        verdict = "agrees" if row["agrees"] else "DISAGREES"
        print(f"  baseline {row['row']}: ROADMAP {row['baseline']} "
              f"{row['unit']}, measured {row['measured']:.4g} -> {verdict}")
    print("report " + json.dumps(report))


def run_one(args) -> int:
    import harness  # after the BLAS pin

    env = harness.environment()
    print("environment " + json.dumps(env))
    threads = env["blas_threads"]
    if not threads or any(n != 1 for n in threads.values()):
        print(f"perfbench: BLAS thread pin did not take: {threads}",
              file=sys.stderr)
        return 3
    w = harness.WORKLOADS[args.workload]
    span_file = ROOT / ".perfbench" / f"spans-{w.name}-seed{args.seed}.jsonl"
    report = harness.run_workload(w, args.seed, args.seconds, bool(args.trace),
                                  span_file)
    report["environment"] = env
    print_report(report)
    e2e, per_layer = harness.declared_metrics()
    print(harness.result_line(report, per_layer if args.trace else e2e))
    return 0 if report["correct"] else 1


def split_rows(reports: dict):
    """Acceptance layer-split comparisons across the traced workloads."""
    def layer(w, name):
        return reports[w]["per_layer"][name]["value"]
    rows = []
    if "desk-train" in reports:
        rows.append(("kdtree dominates desk-train training",
                     layer("desk-train", "kdtree.train_share") > 0.5))
    if {"desk-train", "paper-train"} <= reports.keys():
        rows.append(("network+adam share larger on paper-train than desk-train",
                     layer("paper-train", "network.adam_train_share")
                     > layer("desk-train", "network.adam_train_share")))
    if "paper-train" in reports:
        rows.append(("subsample dominates paper-train setup",
                     layer("paper-train", "sampling.subsample_setup_share") > 0.5))
    if {"desk-train", "eval-dense"} <= reports.keys():
        rows.append(("kdtree build share larger on eval-dense than desk-train",
                     layer("eval-dense", "kdtree.build_share")
                     > layer("desk-train", "kdtree.build_share")))
    return rows


def run_all(args) -> int:
    reports = {}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
        for line in proc.stdout.splitlines():
            if line.startswith("report "):
                reports[name] = json.loads(line[len("report "):])
    if args.trace:
        print("== layer split")
        for label, holds in split_rows(reports):
            print(f"  {label}: {'holds' if holds else 'DOES NOT HOLD'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    for w, r in reports.items():
        section = r["per_layer" if args.trace else "end_to_end"]
        metrics.update({f"{w}/{n}": {"value": section[n]["value"],
                                     "unit": section[n]["unit"]}
                        for n in names if n in section})
    print(json.dumps({
        "correct": code == 0 and len(reports) == len(WORKLOAD_NAMES),
        "attempted": sum(r["attempted"] for r in reports.values()) or 1,
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics}))
    return code or (0 if len(reports) == len(WORKLOAD_NAMES) else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pcup" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} holds no pcup sources or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
