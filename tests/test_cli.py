import csv
import re

import numpy as np
import pytest

from wxtopo import DensityField, GridSpec, cli, read_field, report, write_field
from wxtopo.cli import main
from wxtopo.config import dump_config, load_config, parse_config_text
from wxtopo.errors import ConfigError

from conftest import gaussian_field

TINY = """
grid.nx = 12
grid.ny = 24
lf.n_s1 = 1
lf.n_s2 = 2
lf.max_iter = 20
lf.v_min = 0.45
hf.r_h = 0.04
xo.eps_min = 5e-3
xo.eps_max = 5e-2
xo.tau = 1e-5
xo.max_iter = 300
evolve.n_pop = 4
evolve.n_xo = 4
evolve.t_max = 1
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


class TestConfig:
    def test_defaults_follow_published_table(self):
        cfg = parse_config_text("")
        assert cfg.evolve_n_pop == 100 and cfg.evolve_n_xo == 100
        assert cfg.evolve_t_max == 100
        assert cfg.xo_eps_min == 1e-6 and cfg.xo_eps_max == 1e-4
        # the output-side gap s <= 1e-4 keeps the child within ~2e-3 of a
        # run to s <= 1e-8 (README, crossover)
        assert cfg.xo_tau == 1e-4
        assert (cfg.lf_r_min, cfg.lf_r_max) == (0.03, 0.12)
        assert (cfg.lf_v_min, cfg.lf_v_max) == (0.30, 0.60)
        assert cfg.hf_r_h == 0.01
        assert cfg.lf_n_s1 * cfg.lf_n_s2 == 100

    def test_desk_preset_scales_down(self):
        cfg = parse_config_text("", preset="desk")
        assert cfg.grid_nx == 50 and cfg.grid_ny == 100
        assert cfg.evolve_n_pop == 20
        assert cfg.lf_n_s1 * cfg.lf_n_s2 == 24
        assert (cfg.xo_tau, cfg.xo_max_iter) == (1e-4, 1500)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus.key"):
            parse_config_text("bogus.key = 3")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="grid.nx"):
            parse_config_text("grid.nx = banana")

    def test_round_trip(self, tmp_path):
        cfg = parse_config_text("grid.nx = 17\nxo.tau = 2.5e-8")
        path = tmp_path / "resolved.cfg"
        path.write_text(dump_config(cfg))
        again = load_config(path)
        assert again == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\ngrid.nx = 33  # trailing\n")
        assert cfg.grid_nx == 33

    @pytest.mark.parametrize("line, problem", [
        ("grid.nx = 1", "at least 2 cells"),
        ("xo.max_iter = 0", "max_iter >= 1"),
        ("xo.tau = -1", "tau >= 0"),
        ("xo.eps_min = -1", "eps_min"),
        ("evolve.hv_window = -1", "hv_window must be >= 1"),
        ("lf.n_s1 = 0", "seed axis"),
        ("lf.n_s2 = -3", "seed axis"),
        ("lf.max_iter = 0", "max_iter must be >= 1"),
        ("lf.move = 0", "move limit"),
        ("lf.p_norm = 2", r"q_rel \* p_norm > 1"),
        ("fem.q_rel = 0.1", r"q_rel \* p_norm > 1"),
        ("lf.p_norm = 0.5\nfem.q_rel = 4", "p_norm must be >= 1"),
        ("lf.r_min = 0", "r_min"),
        ("lf.v_max = 1.5", "v_max <= 1"),
        ("xo.tau = nan", "'xo.tau'.*not a finite number"),
        ("xo.eps_max = inf", "'xo.eps_max'.*not a finite number"),
        ("hf.r_h = nan", "'hf.r_h'.*not a finite number"),
        ("grid.lx = inf", "'grid.lx'.*not a finite number"),
        ("grid.ly = -inf", "'grid.ly'.*not a finite number"),
        ("evolve.hv_rel_tol = nan", "'evolve.hv_rel_tol'.*not a finite number"),
        ("rng.seed = -1", "rng_seed >= 0"),
    ])
    def test_out_of_range_value_rejected(self, line, problem):
        with pytest.raises(ConfigError, match=problem):
            parse_config_text(line)


class TestSeedCommand:
    def test_smallest_sweep(self, tiny_cfg, tmp_path, monkeypatch):
        sweep = cli.seed_sweep

        def flag_second(*args, **kwargs):
            # 20 LF iterations are too few for the stall check, so mark one
            # run by hand to see both values reach the manifest
            results = sweep(*args, **kwargs)
            results[1].non_improving = True
            return results

        monkeypatch.setattr(cli, "seed_sweep", flag_second)
        out = tmp_path / "seeds"
        code = main(["seed", "--config", str(tiny_cfg), "--out", str(out)])
        assert code == 0
        fields = sorted(out.glob("lf_*.dfld"))
        assert len(fields) == 2
        manifest = (out / "manifest.csv").read_text().splitlines()
        assert len(manifest) == 3
        assert manifest[0] == (
            "k,s1,s2,R,V,objective,volume_residual,iterations,non_improving,error"
        )
        rows = list(csv.DictReader(manifest))
        assert [r["non_improving"] for r in rows] == ["0", "1"]
        assert (out / "resolved.cfg").exists()
        fld = read_field(fields[0])
        assert fld.grid == GridSpec(12, 24, 1.0, 2.0)

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not.a.key = 1")
        code = main(["seed", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()  # no writes before validation

    def test_out_of_range_config_exits_2(self, tiny_cfg, tmp_path):
        bad = tmp_path / "bad.cfg"
        for line in ("grid.nx = 1", "lf.n_s1 = 0", "lf.max_iter = 0", "lf.move = -0.1",
                     "lf.p_norm = 1.5", "xo.tau = nan"):
            bad.write_text(line)
            code = main(["seed", "--config", str(bad), "--out", str(tmp_path / "o")])
            assert code == 2, line
            assert not (tmp_path / "o").exists(), line
        code = main(["seed", "--config", str(tiny_cfg), "--out", str(tmp_path / "o"),
                     "--seed-rng", "-1"])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_overwrite_guard(self, tiny_cfg, tmp_path):
        out = tmp_path / "seeds"
        assert main(["seed", "--config", str(tiny_cfg), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["seed", "--config", str(tiny_cfg), "--out", str(out)]) == 3
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after
        assert main(["seed", "--config", str(tiny_cfg), "--out", str(out), "--force"]) == 0

    def test_forced_smaller_sweep_leaves_no_earlier_seed_files(self, tiny_cfg, tmp_path,
                                                               monkeypatch):
        out = tmp_path / "seeds"
        wide = tmp_path / "wide.cfg"
        wide.write_text(TINY.replace("lf.n_s1 = 1", "lf.n_s1 = 2"))
        assert main(["seed", "--config", str(wide), "--out", str(out)]) == 0
        assert len(list(out.glob("lf_*.dfld"))) == 4
        # seed files alone trip the guard, since evolve would read them
        (out / "manifest.csv").unlink()
        assert main(["seed", "--config", str(tiny_cfg), "--out", str(out)]) == 3
        assert len(list(out.glob("lf_*.dfld"))) == 4
        sweep = cli.seed_sweep

        def fail_second(*args, **kwargs):
            results = sweep(*args, **kwargs)
            results[1].density, results[1].error = None, "RuntimeError: injected"
            return results

        monkeypatch.setattr(cli, "seed_sweep", fail_second)
        assert main(["seed", "--config", str(tiny_cfg), "--out", str(out), "--force"]) == 0
        # neither the 2x2 sweep's extra runs nor the failed run's old file survive
        assert [p.name for p in out.glob("lf_*.dfld")] == ["lf_000.dfld"]


class TestEvolveCommand:
    def run_seed(self, tiny_cfg, tmp_path):
        out = tmp_path / "seeds"
        assert main(["seed", "--config", str(tiny_cfg), "--out", str(out)]) == 0
        return out

    def test_smoke_and_history_rows(self, tiny_cfg, tmp_path):
        seeds = self.run_seed(tiny_cfg, tmp_path)
        run = tmp_path / "run"
        code = main(
            ["evolve", "--config", str(tiny_cfg), "--seeds", str(seeds),
             "--out", str(run), "--operator", "wasserstein"]
        )
        assert code == 0
        rows = (run / "history.csv").read_text().splitlines()
        assert len(rows) == 3  # header + generations 0..1
        assert (run / "pareto").is_dir()
        assert list((run / "pareto").glob("pareto_*.dfld"))

    def test_determinism_byte_identical(self, tiny_cfg, tmp_path):
        seeds = self.run_seed(tiny_cfg, tmp_path)
        runs = []
        for name in ("a", "b"):
            run = tmp_path / name
            assert main(
                ["evolve", "--config", str(tiny_cfg), "--seeds", str(seeds),
                 "--out", str(run), "--seed-rng", "5"]
            ) == 0
            runs.append(run)
        h1 = (runs[0] / "history.csv").read_bytes()
        h2 = (runs[1] / "history.csv").read_bytes()
        assert h1 == h2
        fields1 = sorted(p.relative_to(runs[0]) for p in runs[0].rglob("*.dfld"))
        fields2 = sorted(p.relative_to(runs[1]) for p in runs[1].rglob("*.dfld"))
        assert fields1 == fields2
        for rel in fields1:
            assert (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes()

    def test_operator_ab_harness(self, tiny_cfg, tmp_path):
        seeds = self.run_seed(tiny_cfg, tmp_path)
        for op in ("wasserstein", "linear"):
            run = tmp_path / f"run_{op}"
            assert main(
                ["evolve", "--config", str(tiny_cfg), "--seeds", str(seeds),
                 "--out", str(run), "--operator", op]
            ) == 0
            assert (run / "history.csv").exists()

    def test_forced_shorter_run_leaves_no_earlier_checkpoints(self, tiny_cfg, tmp_path):
        seeds = self.run_seed(tiny_cfg, tmp_path)
        run = tmp_path / "run"
        assert main(["evolve", "--config", str(tiny_cfg), "--seeds", str(seeds),
                     "--out", str(run)]) == 0
        assert (run / "checkpoints" / "gen_0001").is_dir()
        short = tmp_path / "short.cfg"
        short.write_text(TINY.replace("evolve.t_max = 1", "evolve.t_max = 0"))
        args = ["evolve", "--config", str(short), "--seeds", str(seeds), "--out", str(run)]
        assert main(args + ["--force"]) == 0
        assert [p.name for p in (run / "checkpoints").iterdir()] == ["gen_0000"]
        with (run / "pareto" / "objectives.csv").open() as fh:
            front = {f"pareto_{int(r['candidate_id']):05d}.dfld" for r in csv.DictReader(fh)}
        assert {p.name for p in (run / "pareto").glob("*.dfld")} == front
        # checkpoints alone trip the guard
        (run / "history.csv").unlink()
        assert main(args) == 3

    def test_progress_line_per_generation_on_stderr(self, tiny_cfg, tmp_path, capsys):
        seeds = self.run_seed(tiny_cfg, tmp_path)
        capsys.readouterr()
        run = tmp_path / "run"
        assert main(["evolve", "--config", str(tiny_cfg), "--seeds", str(seeds),
                     "--out", str(run)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("evolved 2 generations")  # stdout keeps one line
        assert len(captured.out.splitlines()) == 1
        lines = captured.err.splitlines()
        pattern = (r"generation (\d+) hv_normalized=(\S+) evals=(\d+) infeasible=(\d+) "
                   r"crossover_s=\d+\.\d\d converged=(\d+)/(\d+)")
        parsed = [re.fullmatch(pattern, line) for line in lines]
        assert all(parsed), lines
        with (run / "history.csv").open() as fh:
            history = list(csv.DictReader(fh))
        with (run / "evals.csv").open() as fh:
            evals = list(csv.DictReader(fh))
        with (run / "offspring.csv").open() as fh:
            offspring = list(csv.DictReader(fh))
        assert len(parsed) == len(history) == 2
        for m, row in zip(parsed, history):
            gen = row["generation"]
            rows = [r for r in evals if r["generation"] == gen]
            bred = [r for r in offspring if int(r["generation"]) == int(gen) + 1]
            assert m.group(1) == gen
            assert float(m.group(2)) == pytest.approx(float(row["hv_normalized"]), abs=1e-4)
            assert int(m.group(3)) == len(rows)
            assert int(m.group(4)) == sum(r["feasible"] == "0" for r in rows)
            assert int(m.group(5)) == sum(r["converged"] == "1" for r in bred)
            assert int(m.group(6)) == len(bred)
        assert parsed[0].group(6) == "4" and parsed[-1].group(6) == "0"

    def test_negative_rng_seed_exits_2(self, tiny_cfg, tmp_path):
        seeds = self.run_seed(tiny_cfg, tmp_path)
        run = tmp_path / "run"
        assert main(
            ["evolve", "--config", str(tiny_cfg), "--seeds", str(seeds),
             "--out", str(run), "--seed-rng", "-1"]
        ) == 2
        assert not run.exists()

    def test_too_few_seeds_exits_2(self, tiny_cfg, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(
            ["evolve", "--config", str(tiny_cfg), "--seeds", str(empty),
             "--out", str(tmp_path / "run")]
        ) == 2


class TestMorphCommand:
    def write_blobs(self, tmp_path):
        g = GridSpec(24, 24, 24.0, 24.0)
        a = gaussian_field(g, 7.0, 12.0, 2.0)
        b = gaussian_field(g, 17.0, 12.0, 2.0)
        pa, pb = tmp_path / "a.dfld", tmp_path / "b.dfld"
        write_field(a, pa)
        write_field(b, pb)
        return pa, pb

    def test_endpoint_weight(self, tmp_path):
        pa, pb = self.write_blobs(tmp_path)
        out = tmp_path / "morph"
        code = main(
            ["morph", str(pa), str(pb), "--weights", "1.0", "--epsilon", "2.0",
             "--tau", "1e-8", "--out", str(out)]
        )
        assert code == 0
        child = read_field(out / "morph_00.dfld")
        a = read_field(pa)
        assert abs(child.centroid()[0] - a.centroid()[0]) <= 1.0

    def test_weight_sweep_monotone(self, tmp_path):
        pa, pb = self.write_blobs(tmp_path)
        out = tmp_path / "morph"
        code = main(
            ["morph", str(pa), str(pb), "--weights", "0,0.5,1", "--epsilon", "2.0",
             "--tau", "1e-8", "--out", str(out)]
        )
        assert code == 0
        files = sorted(out.glob("morph_*.dfld"))
        assert len(files) == 3
        xs = [read_field(p).centroid()[0] for p in files]
        assert xs[0] > xs[1] > xs[2]  # weight on A grows, centroid walks B -> A
        report = (out / "morph_reports.csv").read_text().splitlines()
        assert report[0] == "weight,file,iterations,residual,converged,restarts"
        assert len(report) == 4
        assert all(int(row.split(",")[5]) >= 0 for row in report[1:])

    def test_forced_shorter_morph_leaves_no_earlier_morph_files(self, tmp_path):
        pa, pb = self.write_blobs(tmp_path)
        out = tmp_path / "morph"
        args = ["morph", str(pa), str(pb), "--epsilon", "2.0", "--out", str(out)]
        assert main(args) == 0
        assert len(list(out.glob("morph_*.dfld"))) == 5
        keep = out / "morph_notes.dfld"  # not a name the command writes
        keep.write_bytes(b"x")
        (out / "morph_reports.csv").unlink()
        # the earlier morph files alone trip the guard
        assert main(args + ["--weights", "0,1"]) == 3
        assert main(args + ["--weights", "0,1", "--force"]) == 0
        assert sorted(p.name for p in out.glob("morph_*.dfld")) == [
            "morph_00.dfld", "morph_01.dfld", "morph_notes.dfld"
        ]
        assert len((out / "morph_reports.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("flag, value", [
        ("--epsilon", "0"), ("--epsilon", "-1"), ("--epsilon", "inf"), ("--epsilon", "nan"),
        ("--max-iter", "0"), ("--tau", "-1"),
    ])
    def test_out_of_range_option_exits_2(self, tmp_path, flag, value):
        pa, pb = self.write_blobs(tmp_path)
        assert main(
            ["morph", str(pa), str(pb), "--epsilon", "2.0", "--out", str(tmp_path / "m"),
             flag, value]
        ) == 2
        assert not (tmp_path / "m").exists()

    def test_grid_mismatch_exits_2(self, tmp_path):
        pa, _ = self.write_blobs(tmp_path)
        g = GridSpec(12, 12, 24.0, 24.0)
        other = tmp_path / "c.dfld"
        write_field(gaussian_field(g, 7.0, 12.0, 2.0), other)
        assert main(
            ["morph", str(pa), str(other), "--weights", "0.5", "--epsilon", "2.0",
             "--out", str(tmp_path / "m")]
        ) == 2

    def test_infinite_extent_exits_2(self, tmp_path, capsys):
        paths = self.write_blobs(tmp_path)
        for path in paths:
            raw = bytearray(path.read_bytes())
            raw[13:21] = np.array([np.inf]).astype("<f8").tobytes()  # lx
            path.write_bytes(bytes(raw))
        assert main(
            ["morph", *map(str, paths), "--epsilon", "2.0", "--out", str(tmp_path / "m")]
        ) == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        pa, _ = self.write_blobs(tmp_path)
        missing = tmp_path / "absent.dfld"
        assert main(
            ["morph", str(pa), str(missing), "--epsilon", "2.0", "--out", str(tmp_path / "m")]
        ) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err
        assert not (tmp_path / "m").exists()


class TestEvalCommand:
    def test_prints_objectives(self, tiny_cfg, tmp_path, capsys):
        g = GridSpec(12, 24, 1.0, 2.0)
        field = DensityField(g, np.ones(g.n))
        path = tmp_path / "solid.dfld"
        write_field(field, path)
        assert main(["eval", "--config", str(tiny_cfg), str(path)]) == 0
        out = capsys.readouterr().out
        assert "J1=" in out and "feasible=1" in out

    def test_out_of_range_config_exits_2(self, tiny_cfg, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(tiny_cfg.read_text() + "xo.eps_min = -1\n")
        g = GridSpec(12, 24, 1.0, 2.0)
        path = tmp_path / "solid.dfld"
        write_field(DensityField(g, np.ones(g.n)), path)
        assert main(["eval", "--config", str(bad), str(path)]) == 2

    def test_missing_field_exits_2(self, tiny_cfg, tmp_path, capsys):
        missing = tmp_path / "absent.dfld"
        assert main(["eval", "--config", str(tiny_cfg), str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err


class TestReportCommand:
    def make_run(self, tiny_cfg, tmp_path, operator="wasserstein"):
        seeds = tmp_path / "seeds"
        main(["seed", "--config", str(tiny_cfg), "--out", str(seeds)])
        run = tmp_path / "run"
        main(["evolve", "--config", str(tiny_cfg), "--seeds", str(seeds), "--out", str(run),
              "--operator", operator])
        return run

    @staticmethod
    def crossover_rows(run):
        lines = (run / "timing.txt").read_text().splitlines()
        head = [i for i, line in enumerate(lines) if line.split()[:2] == ["generation", "children"]]
        if not head:
            return None
        assert lines[head[0]].split() == [
            "generation", "children", "sweeps_p50", "converged", "restarts", "linear_fallback"
        ]
        return [line.split() for line in lines[head[0] + 1:]]

    def test_crossover_table(self, tiny_cfg, tmp_path):
        run = self.make_run(tiny_cfg, tmp_path)
        assert main(["report", str(run)]) == 0
        with (run / "offspring.csv").open() as fh:
            offspring = list(csv.DictReader(fh))
        assert len(offspring) == 4 and {r["generation"] for r in offspring} == {"1"}
        assert self.crossover_rows(run) == [[
            "1", "4", f"{np.median([int(r['sweeps']) for r in offspring]):g}",
            str(sum(int(r["converged"]) for r in offspring)),
            str(sum(int(r["restarts"]) for r in offspring)),
            str(sum(int(r["linear_fallback"]) for r in offspring)),
        ]]
        # a run directory from before offspring.csv had restarts still reports
        rows = [line.split(",") for line in (run / "offspring.csv").read_text().splitlines()]
        restarts = rows[0].index("restarts")
        (run / "offspring.csv").write_text(
            "".join(",".join(r[:restarts] + r[restarts + 1:]) + "\n" for r in rows)
        )
        assert main(["report", str(run)]) == 0
        assert [row[4] for row in self.crossover_rows(run)] == ["-"]
        # a run directory from before offspring.csv still reports
        (run / "offspring.csv").unlink()
        assert main(["report", str(run)]) == 0
        assert self.crossover_rows(run) is None
        assert "generations: 2" in (run / "timing.txt").read_text()

    def test_crossover_table_linear_operator(self, tiny_cfg, tmp_path):
        run = self.make_run(tiny_cfg, tmp_path, operator="linear")
        assert main(["report", str(run)]) == 0
        assert self.crossover_rows(run) == [["1", "4", "-", "-", "-", "-"]]

    def test_artifacts_emitted(self, tiny_cfg, tmp_path):
        run = self.make_run(tiny_cfg, tmp_path)
        assert main(["report", str(run)]) == 0
        for name in ("hv.svg", "pareto.svg", "timing.txt"):
            assert (run / name).exists()

    def test_final_front_is_the_last_recorded_generation(self, tmp_path, monkeypatch):
        # a run stopped after checkpointing generation 1 but before recording
        # its history row: the report's final front is generation 0's
        run = tmp_path / "run"
        run.mkdir()
        (run / "history.csv").write_text(
            "generation,hv,hv_normalized,front_size,front_union,n_feasible\n0,1.0,1.0,2,2,2\n"
        )
        for gen, j1 in ((0, "3.0"), (1, "5.0")):
            gdir = run / "checkpoints" / f"gen_{gen:04d}"
            gdir.mkdir(parents=True)
            (gdir / "objectives.csv").write_text(f"candidate_id,born,J1,J2\n0,0,{j1},0.4\n")
        charts = []
        monkeypatch.setattr(report, "scatter_svg",
                            lambda series, *a: charts.append(series) or "<svg/>")
        assert main(["report", str(run)]) == 0
        assert charts == [{"initial": ([3.0], [0.4]), "final": ([3.0], [0.4])}]

    def test_missing_history_exits_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) == 2

    def test_svg_axes_contain_points(self, tiny_cfg, tmp_path):
        run = self.make_run(tiny_cfg, tmp_path)
        main(["report", str(run)])
        svg = (run / "hv.svg").read_text()
        frame = re.search(
            r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="(\d+)" fill="none"', svg
        )
        x0, y0, w, h = (float(v) for v in frame.groups())
        for cx, cy in re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)"', svg):
            assert x0 - 1e-6 <= float(cx) <= x0 + w + 1e-6
            assert y0 - 1e-6 <= float(cy) <= y0 + h + 1e-6


def test_resolved_config_reproduces_run(tiny_cfg, tmp_path):
    seeds = tmp_path / "seeds"
    assert main(["seed", "--config", str(tiny_cfg), "--out", str(seeds)]) == 0
    resolved = seeds / "resolved.cfg"
    seeds2 = tmp_path / "seeds2"
    assert main(["seed", "--config", str(resolved), "--out", str(seeds2)]) == 0
    for name in ("lf_000.dfld", "lf_001.dfld", "manifest.csv"):
        assert (seeds / name).read_bytes() == (seeds2 / name).read_bytes()


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", ["seed", "evolve"])
def test_workers_below_one_exit_2(tiny_cfg, tmp_path, capsys, command, workers):
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    g = GridSpec(12, 24, 1.0, 2.0)
    for k in range(2):
        write_field(DensityField(g, np.full(g.n, 0.4 + 0.1 * k)), seeds / f"lf_{k:03d}.dfld")
    out = tmp_path / "out"
    extra = ["--seeds", str(seeds)] if command == "evolve" else []
    assert main(
        [command, "--config", str(tiny_cfg), "--out", str(out), "--workers", workers, *extra]
    ) == 2
    assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()
