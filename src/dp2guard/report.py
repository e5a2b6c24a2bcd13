"""A run's output files other than the ledger: per-round metrics, detection
and attack CSVs, the resolved config, and the SVG charts."""
from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence, TextIO

from . import defense
from .config import ExperimentConfig
from .errors import OutputExists

# Files a run writes into its output directory.
ARTIFACTS = ("ledger.jsonl", "metrics.csv", "plot.svg", "resolved-config.json",
             "detection.csv", "attack.csv")
CSV_HEADER = "round,accuracy,precision,recall,mean_trust_benign,mean_trust_malicious"


def refuse_artifacts(out_path: Path, names: Sequence[str] = ARTIFACTS) -> None:
    """Raise OutputExists if `out_path` holds any of `names`, whose earlier
    copies would pass for this run's; a run checks before any work."""
    for name in names:
        if (out_path / name).exists():
            raise OutputExists(f"{out_path / name} already exists; "
                               "write each run to a fresh directory")


def open_detection(out_path: Path) -> TextIO:
    """detection.csv, created with its header line; it takes each dp2guard
    round's lines from `write_detection`."""
    fh = (out_path / "detection.csv").open("x", encoding="utf-8")
    fh.write("round,client_id,s,c,cluster,benign\n")
    return fh


def write_detection(fh: TextIO, round_no: int, detection: defense.DetectionResult) -> None:
    """The round's detection.csv lines; row k of the round is client k."""
    for k, (s, c) in enumerate(detection.features):
        flag = int(k in detection.benign)
        fh.write(f"{round_no},{k},{float(s)!r},{float(c)!r},{1 - flag},{flag}\n")


def write_run(cfg: ExperimentConfig, metrics: Sequence[Any], out_path: Path) -> None:
    """The files a finished run writes from its `harness.RoundMetrics`:
    metrics.csv, plot.svg, resolved-config.json and, where a round crafted
    a gradient, attack.csv."""
    emit_metrics(metrics, out_path / "metrics.csv")
    plot_metrics(metrics, out_path / "plot.svg",
                 title=f"{cfg.aggregator} on {cfg.dataset}")
    (out_path / "resolved-config.json").write_text(cfg.to_json() + "\n",
                                                   encoding="utf-8")
    if any(m.crafted_norm is not None for m in metrics):
        attack_lines = ["round,crafted_norm"]
        attack_lines += [f"{m.round},{m.crafted_norm!r}" for m in metrics
                         if m.crafted_norm is not None]
        (out_path / "attack.csv").write_text("\n".join(attack_lines) + "\n",
                                             encoding="utf-8")


def emit_metrics(metrics: Sequence[Any], path: str | Path) -> None:
    """CSV with one row per round; absent metrics serialize as empty fields."""
    if not metrics:
        raise ValueError("no metrics to emit")
    lines = [CSV_HEADER]
    for m in metrics:
        cells = [str(m.round), repr(m.accuracy)]
        for value in (m.precision, m.recall, m.mean_trust_benign, m.mean_trust_malicious):
            cells.append("" if value is None else repr(value))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def plot_metrics(metrics: Sequence[Any], path: str | Path,
                 title: str = "accuracy") -> None:
    """Accuracy-versus-round line chart as a standalone SVG."""
    points = [(float(m.round), m.accuracy) for m in metrics]
    _svg_chart({title: points}, path, "round", "accuracy")


def plot_ratio_sweep(series: dict[str, list[tuple[float, float]]],
                     path: str | Path) -> None:
    """Final accuracy versus adversary ratio, one line per labelled sweep."""
    _svg_chart(series, path, "adv_ratio", "final accuracy")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_chart(series: dict[str, list[tuple[float, float]]], path: str | Path,
               xlabel: str, ylabel: str) -> None:
    width, height, margin = 640, 420, 56
    xs = [x for pts in series.values() for x, _ in pts]
    if not xs:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, 1.0  # both charts plot accuracies
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">{xlabel}</text>',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height / 2:.1f})">{ylabel}</text>',
    ]
    for k in range(5):
        xv = x_lo + k * (x_hi - x_lo) / 4
        yv = y_lo + k * (y_hi - y_lo) / 4
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - margin + 16}" '
                     f'text-anchor="middle" font-size="10">{xv:.3g}</text>')
        parts.append(f'<text x="{margin - 6}" y="{sy(yv) + 4:.1f}" '
                     f'text-anchor="end" font-size="10">{yv:.3g}</text>')
    for idx, (label, pts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin}" y="{margin + 14 * idx}" '
                     f'text-anchor="end" font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
