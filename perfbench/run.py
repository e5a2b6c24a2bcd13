"""dp2guard benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each experiment runs `dp2guard.harness.run_experiment(cfg, out_dir=...)` in
a fresh worker process (closed loop, one experiment at a time, no
concurrency), so the artifacts are those of `dp2guard run`.  Experiments
repeat until `--seconds` is used up; the workload seed reaches the program
only as `ExperimentConfig.seed`.

`--trace 0` installs no wrappers and reports the end-to-end metrics.
`--trace 1` alternates untraced and traced experiments and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  Every
experiment is checked; the last stdout line is the JSON summary and the
exit code is 1 if any check failed.  `--rounds` shortens each experiment
(for the smoke test).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

# A run must end within 180 s; workers that are still going by then fail.
RUN_DEADLINE_S = 170.0
VERIFY_REPEATS = 5
HISTORY_ROUNDS = 2
HISTORY_TOLERANCE = 1e-3
# Message header on the wire: kind u8, round u32, sender u32, length u64.
# The analytic channel sizes below are built from it and the ring layout
# (d u32, scale u8, then 8 bytes a word).
WIRE_HEADER_BYTES = 17
# One BLAS thread (at most nproc): a run then occupies one core, and its
# timings do not depend on what other tenants do with the second.  The
# count is recorded with every result.
BLAS_THREADS = 1

MLP_784 = dict(model="mlp", synth_features=784, synth_classes=10, hidden=64)
LOGREG_784 = dict(model="logreg", synth_features=784, synth_classes=10)


# name -> (rounds per experiment, ExperimentConfig fields).  README.md says
# which layers each workload stresses and which it bypasses.
WORKLOADS = {
    "secure-wide": (5, dict(aggregator="dp2guard", n_clients=100, partition="iid",
                            local_mode="epoch", **MLP_784)),
    "adaptive-fang": (8, dict(aggregator="dp2guard", n_clients=50, adv_ratio=0.2,
                              attack={"kind": "fang"}, **LOGREG_784)),
    "secure-long": (500, dict(aggregator="dp2guard", model="logreg", synth_features=20,
                              synth_classes=10, n_clients=20, partition="dirichlet",
                              alpha=1.0, local_mode="batch", adv_ratio=0.2,
                              attack={"kind": "label_flip"})),
    "plain-minmax": (5, dict(aggregator="multikrum", n_clients=100, adv_ratio=0.2,
                             attack={"kind": "minmax", "direction": "-mean"}, **MLP_784)),
}

END_TO_END_UNITS = {
    "rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """A worker failed or the run overran its deadline."""


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_worker(spec: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline passed before a worker could start")
    Path(spec["out_dir"]).mkdir(parents=True)  # fresh: a stale ledger would be extended
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS))
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker overran the run deadline ({exc.timeout:.0f} s)") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def experiment_checks(rep: dict, cfg: dict, traced: bool) -> list[str]:
    """Problems with one experiment's outputs; empty when all checks pass."""
    rounds = cfg["rounds"]
    problems = []
    if len(rep["round_s"]) != rounds:
        problems.append(f"{len(rep['round_s'])} rounds reported, {rounds} configured")
    if not 0.0 <= rep["accuracy"] <= 1.0:
        problems.append(f"accuracy {rep['accuracy']} outside [0, 1]")
    if cfg["aggregator"] != "dp2guard":
        return problems
    led = rep.get("ledger")
    if led is None:
        return problems + ["dp2guard run wrote no ledger"]
    if led["verify"] is not None:
        problems.append(f"ledger.verify_file flags block {led['verify']}")
    if led["blocks"] != rounds:
        problems.append(f"{led['blocks']} ledger blocks for {rounds} rounds")
    if "history_error" in rep and not rep["history_error"] <= HISTORY_TOLERANCE:
        problems.append(f"masked update differs from the plaintext weighted sum "
                        f"by {rep['history_error']:.3g}")
    if traced:
        n, d, h = cfg["n_clients"], rep["dim"], WIRE_HEADER_BYTES
        expected = {
            "servers.bytes.client_to_s": rounds * 2 * n * (h + 10 + 8 * d),
            "servers.bytes.s1_to_s2": rounds * (h + 4 + n * (12 + 5 + 8 * d)),
            "servers.bytes.ledger_to_s1": rounds * (h + 4 + 12 * n + 5 + 8 * d),
        }
        for name, want in expected.items():
            if rep["layers"][name] != want:
                problems.append(f"{name} = {rep['layers'][name]}, analytic {want}")
    return problems


def end_to_end(reports: list[dict]) -> dict[str, float]:
    round_s = [t for rep in reports for t in rep["round_s"]]
    return {
        "rounds_per_s": len(round_s) / sum(round_s),
        "setup_s": statistics.median(rep["wall_s"] - sum(rep["round_s"]) for rep in reports),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reports),
    }


def details(reports: list[dict]) -> dict[str, dict]:
    """End-to-end metrics that BENCHMARK.json does not bound (README.md says
    why): per-round median and p99 (when at least ten rounds lie beyond
    it), final accuracy, ledger verify time on dp2guard runs and detection
    quality on attacked runs."""
    round_s = [t for rep in reports for t in rep["round_s"]]
    out = {"round_s.p50": (statistics.median(round_s), "s"),
           "final_accuracy": (reports[0]["accuracy"], "fraction")}
    if len(round_s) >= 1000:  # at least ten rounds beyond the p99
        out["round_s.p99"] = (statistics.quantiles(round_s, n=100)[98], "s")
    if "ledger" in reports[0]:
        out["verify_s"] = (statistics.median(rep["ledger"]["verify_s"] for rep in reports), "s")
    precision = [p for p in reports[0]["precision"] if p is not None]
    recall = [r for r in reports[0]["recall"] if r is not None]
    if precision:
        out["detect_precision"] = (statistics.fmean(precision), "fraction")
        out["detect_recall"] = (statistics.fmean(recall), "fraction")
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "trace.spans":
        return "count"
    if name.startswith("servers.bytes.") or name.endswith("file_bytes"):
        return "bytes"
    if name.endswith("accept_ratio"):
        return "ratio"
    return "s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="rounds per experiment (default: the workload's own)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dp2guard" / "harness.py").is_file():
        print(f"error: no dp2guard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    default_rounds, config = WORKLOADS[args.workload]
    cfg = dict(config, rounds=args.rounds or default_rounds, seed=args.seed)
    out_root = OUT / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S

    reports: list[tuple[str, bool, dict]] = []
    attempted: list[str] = []
    failures: dict[str, list[str]] = {}  # experiment -> problems

    def attempt(traced: bool, history: bool, run_cfg: dict, name: str) -> dict | None:
        attempted.append(name)
        spec = {"config": run_cfg, "out_dir": str(out_root / name), "trace": traced,
                "history": history, "verify_repeats": VERIFY_REPEATS}
        try:
            rep = run_worker(spec, deadline)
        except BenchError as exc:
            failures[name] = [str(exc)]
            return None
        problems = experiment_checks(rep, run_cfg, traced)
        if problems:
            failures[name] = problems
        return rep

    # Timed experiments until --seconds is used up (at least two, so that
    # repeat determinism is checked).  In a traced run they alternate
    # untraced/traced, and the untraced ones give the overhead baseline.
    kinds = (False, True) if args.trace else (False,)
    while not failures:
        for traced in kinds:
            name = f"exp{len(attempted)}"
            rep = attempt(traced, False, cfg, name)
            if rep is not None:
                reports.append((name, traced, rep))
        elapsed = time.monotonic() - start
        if len(reports) >= 2 and elapsed * (1 + len(kinds) / len(reports)) > args.seconds:
            break

    history = None
    if cfg["aggregator"] == "dp2guard":
        history = attempt(False, True, dict(cfg, rounds=HISTORY_ROUNDS), "history")

    for name, _, rep in reports[1:]:
        if rep["digest"] != reports[0][2]["digest"]:
            failures.setdefault(name, []).append(
                f"artifacts differ from those of {reports[0][0]} (same seed)")

    untraced = [rep for _, traced, rep in reports if not traced]
    traced_reps = [rep for _, traced, rep in reports if traced]
    summary: dict[str, object] = {
        "workload": args.workload,
        "env": {
            "git_commit": git_commit(),
            "seed": args.seed,
            "python": platform.python_version(),
            "numpy": reports[0][2]["numpy"] if reports else "unknown",
            "blas": reports[0][2]["blas"] if reports else "unknown",
            "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)),
        },
        "experiments": [{"name": name, "traced": traced, "wall_s": rep["wall_s"],
                         "round_s": rep["round_s"], "peak_rss_mb": rep["peak_rss_mb"]}
                        for name, traced, rep in reports],
        "ledger_head": reports[0][2].get("ledger", {}).get("head") if reports else None,
        "history_error": history["history_error"] if history else None,
        "failures": failures,
        "config": cfg,
    }
    metrics: dict[str, dict] = {}
    shown: dict[str, dict] = {}  # metrics plus the unbounded ones
    if untraced and not args.trace:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(untraced).items()}
        shown = details(untraced)
    elif traced_reps and untraced:
        layer = {name: statistics.median(rep["layers"][name] for rep in traced_reps)
                 for name in traced_reps[0]["layers"]}
        layer["trace.overhead_s"] = (statistics.median(rep["wall_s"] for rep in traced_reps)
                                     - statistics.median(rep["wall_s"] for rep in untraced))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layer.items()}
    failed = len(failures)
    shown = metrics | shown | {"failed_checks": {"value": failed,
                                                 "unit": f"of {len(attempted)}"}}
    summary["metrics"] = shown
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "result.json").write_text(json.dumps(summary, indent=2) + "\n",
                                          encoding="utf-8")

    for name, problems in failures.items():
        for problem in problems:
            print(f"check failed: {name}: {problem}")
    print(json.dumps({k: summary[k] for k in ("workload", "env", "ledger_head", "history_error")}))
    for name, m in shown.items():
        print(f"{name:36s} {m['value']:<14.6g} {m['unit']}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(attempted), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
