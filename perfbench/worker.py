"""Run one dp2guard experiment in this process; print its measurements as
one JSON line.

    python3 perfbench/worker.py '<spec json>'

The spec holds `config` (an ExperimentConfig dict), `out_dir`, `trace`
(install the span wrappers from spans.py), `history` (record_history=True
and check the masked update against the plaintext weighted sum) and
`verify_repeats` (timed `ledger.verify_file` calls).  Interpreter start-up
and imports happen before the timed region.
"""
from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from dp2guard.harness import ExperimentConfig, run_experiment  # noqa: E402
from dp2guard.ledger import verify_file  # noqa: E402

TRACE_FILE = "trace.jsonl"


def artifact_digest(out: Path) -> str:
    """SHA-256 over every artifact the run wrote (names and bytes)."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != TRACE_FILE:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def history_error(result, eta: float) -> float:
    """Largest entry gap between the applied update (prev - next) / eta and
    the plaintext tau-weighted sum of the submitted gradients, over rounds
    whose starting parameters are recorded (round 1 on)."""
    worst = 0.0
    for r in range(1, len(result.params_history)):
        applied = (result.params_history[r - 1] - result.params_history[r]) / eta
        tau, grads = result.weight_history[r], result.gradient_history[r]
        expected = sum(tau[cid] * grads[cid] for cid in sorted(tau))
        worst = max(worst, float(np.max(np.abs(applied - expected))))
    return worst


def main(spec: dict) -> dict:
    cfg = ExperimentConfig.from_dict(spec["config"])
    out = Path(spec["out_dir"])
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    started = time.perf_counter()
    try:
        result = run_experiment(cfg, out_dir=out, record_history=spec["history"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = result.metrics
    report = {
        "wall_s": wall,
        "round_s": [m.wall_time for m in metrics],
        "accuracy": metrics[-1].accuracy,
        "precision": [m.precision for m in metrics],
        "recall": [m.recall for m in metrics],
        "peak_rss_mb": peak_rss_mb,
        "digest": artifact_digest(out),
        "dim": int(result.final_params.shape[0]),
        "numpy": np.__version__,
        "blas": "{name} {version}".format(
            **np.show_config(mode="dicts")["Build Dependencies"]["blas"]),
    }
    ledger_path = out / "ledger.jsonl"
    if ledger_path.exists():
        times = []
        for _ in range(spec["verify_repeats"]):
            t0 = time.perf_counter()
            bad = verify_file(ledger_path)
            times.append(time.perf_counter() - t0)
        lines = ledger_path.read_bytes().splitlines()
        report["ledger"] = {
            "verify": bad,
            "verify_s": statistics.median(times),
            "blocks": len(lines),
            "head": json.loads(lines[-1])["hash"],
            "file_bytes": ledger_path.stat().st_size,
        }
    if spec["history"]:
        report["history_error"] = history_error(result, cfg.eta)
    if tracer is not None:
        tracer.write_jsonl(out / TRACE_FILE)
        layers = tracer.layer_metrics()
        layers["ledger.file_bytes"] = report.get("ledger", {}).get("file_bytes", 0)
        report["layers"] = layers
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
