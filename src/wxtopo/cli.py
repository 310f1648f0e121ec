"""Command-line entry points for seeding, evolving, morphing and reporting.

Exit codes: 0 ok, 2 config or validation error, 3 overwrite guard,
4 extinct population, 5 internal error.
"""

from __future__ import annotations

import argparse
import math
import shutil
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from . import benchmark
from .config import PRESETS, RunConfig, check_config, dump_config, load_config
from .crossover import wasserstein_crossover
from .errors import ConfigError, ExtinctPopulation, GridMismatch, WxTopoError
from .evolve import _fmt, evolve_loop
from .grid_field import read_field, write_field
from .hf_eval import hf_evaluate
from .report import render_report
from .topopt_lf import seed_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OVERWRITE = 3
EXIT_EXTINCT = 4
EXIT_INTERNAL = 5

SEED_FILES = "lf_*.dfld"


class _OverwriteGuard(Exception):
    pass


def _check_overwrite(paths: list[Path], force: bool):
    existing = [p for p in paths if p.exists()]
    if existing and not force:
        raise _OverwriteGuard(
            f"refusing to overwrite {existing[0]} (pass --force to allow)"
        )


def _load(args) -> RunConfig:
    if args.config:
        cfg = load_config(args.config, preset=args.preset)
    else:
        from .config import parse_config_text

        cfg = parse_config_text("", preset=args.preset)
    if getattr(args, "seed_rng", None) is not None:
        cfg = check_config(replace(cfg, rng_seed=args.seed_rng), "--seed-rng")
    return cfg


def _write_resolved(cfg: RunConfig, out: Path):
    (out / "resolved.cfg").write_text(dump_config(cfg))


def cmd_seed(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    manifest = out / "manifest.csv"
    # seed files of an earlier sweep would join this one's in evolve
    stale = sorted(out.glob(SEED_FILES))
    _check_overwrite([manifest, *stale], args.force)
    grid = cfg.grid()
    results = seed_sweep(
        cfg.model(),
        benchmark.cracked_plate_bc(grid),
        cfg.lf_n_s1,
        cfg.lf_n_s2,
        cfg.lf_p_norm,
        max_iter=cfg.lf_max_iter,
        bounds=cfg.lf_bounds(),
        move=cfg.lf_move,
        workers=args.workers,
    )
    for path in stale:
        path.unlink()
    out.mkdir(parents=True, exist_ok=True)
    _write_resolved(cfg, out)
    ok = 0
    with manifest.open("w") as fh:
        fh.write("k,s1,s2,R,V,objective,volume_residual,iterations,non_improving,error\n")
        for k, res in enumerate(results):
            if res.ok:
                write_field(res.density, out / f"lf_{k:03d}.dfld")
                obj = res.objective_history[-1]
                fh.write(
                    f"{k},{_fmt(res.seed.s1)},{_fmt(res.seed.s2)},{_fmt(res.radius)},"
                    f"{_fmt(res.volume)},{_fmt(obj)},{_fmt(res.constraint_residual)},"
                    f"{res.iterations},{int(res.non_improving)},\n"
                )
                ok += 1
            else:
                fh.write(
                    f"{k},{_fmt(res.seed.s1)},{_fmt(res.seed.s2)},{_fmt(res.radius)},"
                    f"{_fmt(res.volume)},,,0,,{res.error}\n"
                )
    print(f"seeded {ok}/{len(results)} designs into {out}")
    return EXIT_OK if ok > 0 else EXIT_INTERNAL


def cmd_evolve(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    # a longer earlier run leaves checkpoints and front fields this one would not replace
    stale = [out / "checkpoints", out / "pareto"]
    _check_overwrite([out / "history.csv", *stale], args.force)
    seeds_dir = Path(args.seeds)
    seed_files = sorted(seeds_dir.glob(SEED_FILES))
    if len(seed_files) < 2:
        raise ConfigError(f"{seeds_dir} holds {len(seed_files)} seed fields, need >= 2")
    seeds = [read_field(p) for p in seed_files]

    grid = cfg.grid()
    for fld in seeds:
        if fld.grid != grid:
            raise GridMismatch(f"seed grid {fld.grid} != configured grid {grid}")
    hf_cfg = cfg.hf()
    model = cfg.model()
    bc_ref = benchmark.cracked_plate_bc(hf_cfg.refined(grid))

    def evaluator(field):
        return hf_evaluate(field, model, bc_ref, hf_cfg)

    for path in stale:
        shutil.rmtree(path, ignore_errors=True)
    out.mkdir(parents=True, exist_ok=True)
    _write_resolved(cfg, out)
    population, history = evolve_loop(
        cfg.evolve(),
        seeds,
        evaluator,
        crossover_operator=args.operator,
        workers=args.workers,
        run_dir=out,
    )
    front_dir = out / "pareto"
    front_dir.mkdir(exist_ok=True)
    from .evolve import non_dominated_sort

    ranks = non_dominated_sort([m.objectives.j for m in population.members])
    with (front_dir / "objectives.csv").open("w") as fh:
        fh.write("candidate_id,J1,J2\n")
        for m, r in zip(population.members, ranks):
            if r == 0:
                write_field(m.field, front_dir / f"pareto_{m.id:05d}.dfld")
                fh.write(f"{m.id},{_fmt(m.objectives.j[0])},{_fmt(m.objectives.j[1])}\n")
    final = history[-1]
    print(
        f"evolved {final.generation + 1} generations, normalized hypervolume "
        f"{final.hv_normalized:.4f}, front size {final.front_size}"
    )
    return EXIT_OK


def cmd_morph(args) -> int:
    field_a = read_field(args.field_a)
    field_b = read_field(args.field_b)
    if field_a.grid != field_b.grid:
        raise GridMismatch("input fields live on different grids")
    try:
        weights = [float(w) for w in args.weights.split(",") if w.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad weight list {args.weights!r}") from exc
    if not weights or any(not 0.0 <= w <= 1.0 for w in weights):
        raise ConfigError("weights must lie in [0, 1]")
    if not 0 < args.epsilon < math.inf:
        raise ConfigError(f"--epsilon must be positive and finite, got {args.epsilon!r}")
    if not args.tau >= 0:
        raise ConfigError(f"--tau must be >= 0, got {args.tau!r}")
    if args.max_iter < 1:
        raise ConfigError(f"--max-iter must be >= 1, got {args.max_iter}")
    out = Path(args.out)
    targets = [out / f"morph_{i:02d}.dfld" for i in range(len(weights))]
    _check_overwrite(targets + [out / "morph_reports.csv"], args.force)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "morph_reports.csv").open("w") as fh:
        fh.write("weight,file,iterations,residual,converged\n")
        for i, (w, target) in enumerate(zip(weights, targets)):
            sink = []
            child = wasserstein_crossover(
                (field_a, field_b), w, args.epsilon, args.tau,
                max_iter=args.max_iter, report_sink=sink,
            )
            write_field(child, target)
            fh.write(f"{_fmt(w)},{target.name},{sink[0].csv_row()}\n")
    print(f"wrote {len(weights)} morphs into {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load(args)
    candidate = read_field(args.field)
    hf_cfg = cfg.hf()
    if candidate.grid != cfg.grid():
        raise GridMismatch(f"field grid {candidate.grid} != configured grid {cfg.grid()}")
    bc = benchmark.cracked_plate_bc(hf_cfg.refined(candidate.grid))
    obj = hf_evaluate(candidate, cfg.model(), bc, hf_cfg)
    print(f"J1={_fmt(obj.j[0])} J2={_fmt(obj.j[1])} feasible={int(obj.feasible)}")
    return EXIT_OK


def cmd_report(args) -> int:
    outputs = render_report(args.run_dir)
    print("wrote " + ", ".join(str(p) for p in outputs))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wxtopo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="key = value config file")
            p.add_argument("--preset", choices=PRESETS, default="paper2d")
            p.add_argument("--seed-rng", type=int, default=None, help="override rng.seed")
        p.add_argument("--force", action="store_true", help="allow overwriting outputs")

    p = sub.add_parser("seed", help="run the seeded low-fidelity sweep")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_seed)

    p = sub.add_parser("evolve", help="run the evolutionary loop from seeds")
    common(p)
    p.add_argument("--seeds", required=True, help="directory with lf_*.dfld files")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--operator", choices=("wasserstein", "linear"), default="wasserstein")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("morph", help="barycentric morphs between two fields")
    p.add_argument("field_a")
    p.add_argument("field_b")
    p.add_argument("--weights", default="0,0.25,0.5,0.75,1")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--tau", type=float, default=1e-7)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--out", required=True)
    common(p, config=False)
    p.set_defaults(func=cmd_morph)

    p = sub.add_parser("eval", help="evaluate one candidate field")
    common(p)
    p.add_argument("field")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="render hv.svg, pareto.svg and timing.txt")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _OverwriteGuard as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERWRITE
    except ExtinctPopulation as exc:
        print(f"error: every candidate became infeasible: {exc}", file=sys.stderr)
        return EXIT_EXTINCT
    except WxTopoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:  # noqa: BLE001 - last-resort diagnostics for exit 5
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
