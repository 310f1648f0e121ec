"""Run-report artifacts: SVG charts and the per-phase timing table.

SVG is written by hand so reports stay dependency-free and diffable.
"""

from __future__ import annotations

import csv
from pathlib import Path
from statistics import median

from .errors import MissingHistory

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0:
        span = 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def _frame(title: str, xlab: str, ylab: str, xlo, xhi, ylo, yhi) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black"/>',
        f'<text x="{_W / 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle" font-size="12">{xlab}</text>',
        f'<text x="16" y="{_H / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H / 2})">{ylab}</text>',
        f'<text x="{_ML}" y="{_H - _MB + 16}" font-size="10">{xlo:g}</text>',
        f'<text x="{_W - _MR}" y="{_H - _MB + 16}" text-anchor="end" font-size="10">{xhi:g}</text>',
        f'<text x="{_ML - 4}" y="{_H - _MB}" text-anchor="end" font-size="10">{ylo:g}</text>',
        f'<text x="{_ML - 4}" y="{_MT + 10}" text-anchor="end" font-size="10">{yhi:g}</text>',
    ]


def _bounds(vals):
    lo, hi = min(vals), max(vals)
    if lo == hi:
        pad = abs(lo) * 0.05 or 0.5
    else:
        pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def line_chart_svg(xs, ys, title, xlab, ylab) -> str:
    xlo, xhi = _bounds(xs)
    ylo, yhi = _bounds(ys)
    px = _scale(xs, xlo, xhi, _ML, _W - _MR)
    py = _scale(ys, ylo, yhi, _H - _MB, _MT)
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    parts = _frame(title, xlab, ylab, xlo, xhi, ylo, yhi)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="2"/>')
    for x, y in zip(px, py):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#1f6fb2"/>')
    parts.append("</svg>")
    return "\n".join(parts)


_PALETTE = ("#c23b23", "#1f6fb2", "#3a7d44", "#7b4fa6")


def scatter_svg(series: dict, title, xlab, ylab) -> str:
    all_x = [x for xs, _ in series.values() for x in xs]
    all_y = [y for _, ys in series.values() for y in ys]
    xlo, xhi = _bounds(all_x)
    ylo, yhi = _bounds(all_y)
    parts = _frame(title, xlab, ylab, xlo, xhi, ylo, yhi)
    for idx, (label, (xs, ys)) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        px = _scale(xs, xlo, xhi, _ML, _W - _MR)
        py = _scale(ys, ylo, yhi, _H - _MB, _MT)
        for x, y in zip(px, py):
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{color}" fill-opacity="0.7"/>')
        parts.append(
            f'<text x="{_W - _MR - 8}" y="{_MT + 18 + 16 * idx}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _read_csv(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


def render_report(run_dir) -> list[Path]:
    """Emit hv.svg, pareto.svg and timing.txt into ``run_dir``."""
    run_dir = Path(run_dir)
    history_path = run_dir / "history.csv"
    if not history_path.exists():
        raise MissingHistory(f"{history_path} not found")
    history = _read_csv(history_path)
    if not history:
        raise MissingHistory(f"{history_path} has no rows")

    outputs = []
    gens = [int(r["generation"]) for r in history]
    hv_norm = [float(r["hv_normalized"]) for r in history]
    hv_svg = run_dir / "hv.svg"
    hv_svg.write_text(
        line_chart_svg(gens, hv_norm, "Hypervolume vs generation", "generation",
                       "hypervolume / initial")
    )
    outputs.append(hv_svg)

    series = {}
    # the generations history.csv records, whatever else checkpoints/ holds
    for label, gen in (("initial", gens[0]), ("final", gens[-1])):
        objectives = run_dir / "checkpoints" / f"gen_{gen:04d}" / "objectives.csv"
        if objectives.exists():
            rows = _read_csv(objectives)
            series[label] = (
                [float(r["J1"]) for r in rows],
                [float(r["J2"]) for r in rows],
            )
    if not series:
        series["final"] = ([], [])
    if all(len(xs) == 0 for xs, _ in series.values()):
        series = {"empty": ([0.0], [0.0])}
    pareto_svg = run_dir / "pareto.svg"
    pareto_svg.write_text(
        scatter_svg(series, "Objective space", "J1 (max stress)", "J2 (volume fraction)")
    )
    outputs.append(pareto_svg)

    timing_path = run_dir / "timing.txt"
    timing_path.write_text(_timing_table(run_dir, history))
    outputs.append(timing_path)
    return outputs


def _timing_table(run_dir: Path, history: list[dict]) -> str:
    phases = {"evaluation": 0.0, "crossover": 0.0, "selection": 0.0}
    tpath = run_dir / "timings.csv"
    if tpath.exists():
        for row in _read_csv(tpath):
            phases["evaluation"] += float(row["eval_seconds"])
            phases["crossover"] += float(row["crossover_seconds"])
            phases["selection"] += float(row["selection_seconds"])
    total = sum(phases.values())
    lines = [
        f"generations: {len(history)}",
        "",
        f"{'phase':<12}{'seconds':>12}{'share':>9}",
    ]
    for name, secs in phases.items():
        share = 100.0 * secs / total if total > 0 else 0.0
        lines.append(f"{name:<12}{secs:>12.2f}{share:>8.1f}%")
    lines.append(f"{'total':<12}{total:>12.2f}{100.0 if total > 0 else 0.0:>8.1f}%")
    opath = run_dir / "offspring.csv"
    if opath.exists():
        lines += ["", *_crossover_table(_read_csv(opath))]
    return "\n".join(lines) + "\n"


def _crossover_table(offspring: list[dict]) -> list[str]:
    """Children, median sweeps, converged barycenters and linear fallbacks per generation.

    Rows bred by the linear operator carry no barycenter, so their generation
    prints "-" in the barycenter columns.
    """
    by_gen: dict[int, list[dict]] = {}
    for row in offspring:
        by_gen.setdefault(int(row["generation"]), []).append(row)
    lines = [f"{'generation':<12}{'children':>10}{'sweeps_p50':>12}{'converged':>11}"
             f"{'linear_fallback':>17}"]
    for gen, rows in sorted(by_gen.items()):
        bary = [r for r in rows if r["sweeps"]]
        if bary:
            sweeps = f"{median(int(r['sweeps']) for r in bary):g}"
            converged = str(sum(int(r["converged"]) for r in bary))
            fallbacks = str(sum(int(r["linear_fallback"]) for r in bary))
        else:
            sweeps = converged = fallbacks = "-"
        lines.append(f"{gen:<12}{len(rows):>10}{sweeps:>12}{converged:>11}{fallbacks:>17}")
    return lines
