import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recontree import dists, sim
from recontree.cli import build_parser, main
from recontree.kernel import Params, RawParams
from recontree.tree import ReconTree, from_newick, to_newick


def run(args):
    return main(args)


def assert_usage_error(args, message, capsys):
    """Exit code 2, one line on stderr naming the problem, nothing on stdout."""
    assert run(args) == 2
    out, err = capsys.readouterr()
    assert message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out == ""


class TestDensity:
    def test_pendant_given_n_csv(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["density", "--law", "pendant", "--lam", "1",
                    "--grid", "0:3:7", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# law: pendant | n")
        assert lines[1] == "s,pdf,cdf"
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 7
        # Yule pendant is Exp(2): pdf at 0 is 2
        assert float(rows[0][1]) == pytest.approx(2.0)

    def test_mixed_law_emits_atom_row(self, tmp_path):
        out = tmp_path / "d.csv"
        run(["density", "--law", "pendant", "--scenario", "given-n-age",
             "--n", "5", "--x1", "2", "--mu", "0.5", "--grid", "0:2:5",
             "-o", str(out)])
        last = out.read_text().splitlines()[-1].split(",")
        assert last[1] == "atom"
        assert float(last[2]) == pytest.approx(0.1)  # 2/(5*4)

    def test_raw_params_accepted(self, tmp_path):
        out = tmp_path / "d.csv"
        run(["density", "--law", "pendant", "--lam-hat", "2", "--mu-hat", "0.5",
             "--f", "0.5", "--grid", "0:2:5", "-o", str(out)])
        header = out.read_text().splitlines()[0]
        assert "lam_hat=2.0" in header and "lam=1.0" in header

    def test_rejects_mixed_param_styles(self, capsys):
        assert_usage_error(["density", "--law", "pendant", "--lam", "1", "--f", "0.5",
                            "--grid", "0:1:5"], "not both", capsys)

    def test_rejects_bad_grid(self, capsys):
        assert_usage_error(["density", "--law", "pendant", "--grid", "0:1"],
                           "grid must be min:max:points", capsys)

    @pytest.mark.parametrize("grid, message", [
        ("0:1:1", "at least 2 points"),
        ("1:0:5", "0 <= min < max"),
    ])
    def test_rejects_bad_grid_values(self, grid, message, capsys):
        assert_usage_error(["density", "--law", "pendant", "--grid", grid],
                           message, capsys)

    def test_rejects_huge_grid_before_allocating(self, tmp_path, capsys, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", no_grid)
        out = tmp_path / "d.csv"
        assert_usage_error(["density", "--law", "pendant", "--grid", "0:1:1000000000000",
                            "-o", str(out)],
                           "recontree density: grid takes at most 1e+06 points", capsys)
        assert not out.exists()

    def test_rejects_extinction_for_yule_law(self, capsys):
        assert_usage_error(["density", "--law", "diversity", "--scenario", "given-n",
                            "--n", "5", "--mu", "0.5", "--grid", "0:2:5"],
                           "requires mu = 0", capsys)

    def test_missing_flag(self, capsys):
        assert_usage_error(["density", "--law", "root-edge", "--grid", "0:2:5"],
                           "--n is required", capsys)

    @pytest.mark.parametrize("args, message", [
        (["--law", "root-edge", "--n", "1"], "n must be >= 2"),
        (["--law", "speciation-time", "--n", "6", "--k", "1", "--x1", "2"],
         "k must lie in"),
        (["--law", "interior", "--scenario", "given-age"], "takes --scenario given-n"),
    ])
    def test_bad_arguments_exit_before_output(self, args, message, capsys):
        assert_usage_error(["density", *args, "--grid", "0:2:5"], message, capsys)

    def test_readme_law_table_is_the_law_table(self):
        # the README's --law table lists every density row of dists.LAWS, in order
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = text.split("\n| `--law` |", 1)[1].splitlines()[2:]
        readme = [[cell.strip() for cell in line.strip("|").split("|")]
                  for line in itertools.takewhile(lambda line: line.startswith("|"), lines)]
        flags = lambda args: f"`{' '.join(f'--{a}' for a in args)}`" if args else "—"
        assert readme == [[f"`{row.law}`", f"`{row.scenario}`" if row.scenario else "—",
                           flags(row.args), f"`{row.dist}`" + " (μ = 0)" * row.pure_birth]
                          for row in dists.LAWS if row.dist]

    def test_hypoexp_large_k(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["density", "--law", "hypoexp", "--k", "100", "--grid", "0:8:9",
                    "-o", str(out)]) == 0
        cdf = [float(l.split(",")[2]) for l in out.read_text().splitlines()[2:]]
        assert cdf[0] == 0.0 and cdf == sorted(cdf) and cdf[-1] < 1.0

    def test_speciation_time_law(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["density", "--law", "speciation-time", "--n", "6", "--k", "3",
                    "--x1", "2", "--mu", "0.5", "--grid", "0:2:9",
                    "-o", str(out)]) == 0


class TestSimulate:
    def test_scenarios_are_sims_table(self):
        # --scenario offers exactly the keys of sim.SCENARIOS, in order
        scenario = next(a for a in _subcommands()["simulate"]._actions
                        if a.dest == "scenario")
        assert scenario.choices == list(sim.SCENARIOS)

    def test_ndjson_given_n(self, tmp_path):
        out = tmp_path / "trees.ndjson"
        assert run(["simulate", "--scenario", "given-n", "--n", "6",
                    "--reps", "5", "--seed", "42", "-o", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        man = lines[0]["manifest"]
        assert man["seed"] == 42 and man["count"] == 5
        assert man["params"] == {"lam": 1.0, "mu": 0.0}
        for i, rec in enumerate(lines[1:]):
            assert set(rec) == {"id", "newick", "n", "x1", "seed", "stream_id"}
            assert rec["id"] == i and rec["n"] == 6
            t = from_newick(rec["newick"])
            assert t.n == 6
            assert t.mrca_age == pytest.approx(rec["x1"])

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--scenario", "given-n-age", "--n", "5", "--x1",
                "1.5", "--mu", "0.4", "--reps", "3", "--seed", "7"]
        run(args + ["-o", str(a)])
        run(args + ["-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_stream_id_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["simulate", "--scenario", "given-age", "--x1", "1.0",
                "--reps", "3", "--seed", "7"]
        run(base + ["-o", str(a)])
        run(base + ["--stream-id", "1", "-o", str(b)])
        assert a.read_text() != b.read_text()

    def test_newick_format(self, tmp_path):
        out = tmp_path / "t.nwk"
        run(["simulate", "--scenario", "given-n", "--n", "4", "--reps", "2",
             "--seed", "1", "--format", "newick", "-o", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("[{")
        for l in lines[1:]:
            assert from_newick(l).n == 4

    def test_rejection_requires_raw(self, capsys):
        assert_usage_error(["simulate", "--scenario", "rejection-given-age", "--x1", "1",
                            "--mu", "-0.5", "--reps", "1"], "raw parameters", capsys)

    def test_rejection_given_age(self, tmp_path):
        out = tmp_path / "t.ndjson"
        assert run(["simulate", "--scenario", "rejection-given-age", "--x1", "1",
                    "--lam-hat", "1", "--mu-hat", "0", "--f", "1",
                    "--reps", "3", "--seed", "3", "-o", str(out)]) == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()][1:]
        assert all(abs(r["x1"] - 1.0) < 1e-9 for r in recs)

    def test_rejection_streams_the_lockstep_engine(self, tmp_path, monkeypatch):
        def per_tree(*args, **kwargs):
            raise AssertionError("the per-tree oracle was called")

        monkeypatch.setattr(sim, "sample_rejection_given_age", per_tree)
        monkeypatch.setattr(sim, "simulate_forward", per_tree)
        out = tmp_path / "t.ndjson"
        assert run(["simulate", "--scenario", "rejection-given-age", "--x1", "1",
                    "--lam-hat", "2", "--mu-hat", "0.5", "--f", "0.5",
                    "--reps", "50", "--seed", "5", "-o", str(out)]) == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()][1:]
        assert [r["id"] for r in recs] == list(range(50))
        for r in recs:
            assert r["x1"] == 1.0
            assert from_newick(r["newick"]).n == r["n"]

    def test_rejection_size_guard(self, tmp_path, capsys):
        # the lockstep engine refuses e^50 lineages per side before any draw
        out = tmp_path / "f"
        start = time.perf_counter()
        assert_usage_error(["simulate", "--scenario", "rejection-given-age",
                            "--lam-hat", "5", "--x1", "10", "-o", str(out)],
                           "mean lineage count per side", capsys)
        assert time.perf_counter() - start < 1.0
        assert not out.exists()

    def test_rejection_hopeless_rates(self, tmp_path, capsys):
        # acceptance rate 7.4e-8: this ran 20 s and ended in a RuntimeError traceback
        out = tmp_path / "f"
        start = time.perf_counter()
        assert_usage_error(["simulate", "--scenario", "rejection-given-age", "--lam-hat", "1",
                            "--mu-hat", "0", "--f", "0.0001", "--x1", "1", "--reps", "1",
                            "--seed", "1", "-o", str(out)],
                           "gives an acceptance rate of 7.39e-08, below 1/10000000", capsys)
        assert time.perf_counter() - start < 1.0
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        (["--scenario", "given-n", "--n", "1"], "n must be >= 2"),
        (["--scenario", "given-n-age", "--n", "4", "--x1", "-1"], "x1 must be > 0"),
        (["--scenario", "given-age", "--x1", "70", "--mu", "0.4"], "mean tip count"),
        (["--scenario", "given-age", "--x1", "1", "--f", "2"], "f must lie in"),
    ])
    def test_library_errors_exit_2(self, args, message, capsys):
        assert_usage_error(["simulate", *args, "--reps", "2", "--seed", "1"],
                           message, capsys)

    @pytest.mark.parametrize("fmt", ["ndjson", "newick"])
    def test_failed_first_draw_leaves_no_file(self, fmt, tmp_path, capsys):
        out = tmp_path / "f"
        assert_usage_error(["simulate", "--scenario", "given-n", "--n", "1",
                            "--format", fmt, "-o", str(out)], "n must be >= 2", capsys)
        assert not out.exists()

    def test_rejection_bad_x1_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "f"
        assert_usage_error(["simulate", "--scenario", "rejection-given-age", "--x1", "0",
                            "--lam-hat", "1", "-o", str(out)], "x1 must be > 0", capsys)
        assert not out.exists()

    def test_zero_reps_writes_the_manifest(self, tmp_path):
        out = tmp_path / "f"
        assert run(["simulate", "--scenario", "given-n", "--n", "4", "--reps", "0",
                    "--seed", "1", "-o", str(out)]) == 0
        assert [json.loads(l)["manifest"]["count"]
                for l in out.read_text().splitlines()] == [0]

    def test_negative_reps_exit_2(self, tmp_path, capsys):
        out = tmp_path / "f"
        assert_usage_error(["simulate", "--scenario", "given-n", "--n", "4", "--reps",
                            "-3", "--seed", "1", "-o", str(out)],
                           "--reps must be >= 0", capsys)
        assert not out.exists()

    # the per-tree path each record is held to: to_newick over tree_stream, and
    # json.dumps of the record's dict; given x1 with blocks of several batches
    @pytest.mark.parametrize("fmt", ["ndjson", "newick"])
    @pytest.mark.parametrize("args, sampler", [
        (["--scenario", "given-n", "--n", "7"], partial(sim.batch_yule_given_n, 7, 1.0)),
        (["--scenario", "given-n-age", "--n", "7", "--x1", "1.5", "--mu", "0.5"],
         partial(sim.batch_given_n_age, 7, 1.5, Params(1.0, 0.5))),
        (["--scenario", "given-age", "--x1", "1.5", "--mu", "0.4"],
         partial(sim.batch_given_age, 1.5, Params(1.0, 0.4))),
        (["--scenario", "rejection-given-age", "--x1", "1", "--lam-hat", "2", "--mu-hat",
          "0.5", "--f", "0.5"], partial(sim.batch_forward_given_age, 1.0, RawParams(2, 0.5, 0.5))),
    ], ids=["given-n", "given-n-age", "given-age", "rejection-given-age"])
    def test_records_are_the_per_tree_text(self, args, sampler, fmt, tmp_path, monkeypatch):
        monkeypatch.setattr(sim, "BATCH_NODES", 60)
        out = tmp_path / "f"
        assert run(["simulate", *args, "--reps", "40", "--seed", "9", "--stream-id", "3",
                    "--format", fmt, "-o", str(out)]) == 0
        trees = sim.tree_stream(sampler(40, sim.RngStream(9, 3).generator()))
        if fmt == "newick":
            want = [to_newick(t) for t in trees]
        else:
            want = [json.dumps({"id": i, "newick": to_newick(t), "n": t.n, "x1": t.mrca_age,
                                "seed": 9, "stream_id": 3}) for i, t in enumerate(trees)]
        assert out.read_text().splitlines()[1:] == want

    @pytest.mark.parametrize("fmt", ["ndjson", "newick"])
    def test_builds_no_recon_tree(self, fmt, tmp_path, monkeypatch):
        built = []
        init = ReconTree.__init__
        monkeypatch.setattr(ReconTree, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        assert run(["simulate", "--scenario", "given-age", "--x1", "1.5", "--mu", "0.4",
                    "--reps", "50", "--seed", "2", "--format", fmt,
                    "-o", str(tmp_path / "f")]) == 0
        assert sim.sample_given_age(1.5, Params(1.0, 0.4), np.random.default_rng(2)).n >= 2
        assert len(built) == 1  # the probe above, so the patch sees every tree built

    def test_given_n_rejects_extinction(self, capsys):
        assert_usage_error(["simulate", "--scenario", "given-n", "--n", "5",
                            "--mu", "0.5", "--reps", "1"], "pure birth", capsys)

    def test_missing_flag(self, capsys):
        assert_usage_error(["simulate", "--scenario", "given-age", "--reps", "1"],
                           "--x1 is required", capsys)


class TestVerify:
    def test_single_check_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["verify", "--check", "limit_constant", "--reps", "1000",
                    "--seed", "5", "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["seed"] == 5
        rep = payload["reports"][0]
        assert set(rep) == {"check", "n_samples", "seed", "ks", "moments",
                            "atom", "pass", "wall_time_s"}
        assert "PASS limit_constant" in capsys.readouterr().err

    def test_sampled_check_json(self, tmp_path):
        out = tmp_path / "f.json"
        code = run(["verify", "--check", "yule_pendant_n", "--reps", "1000",
                    "--seed", "5", "-o", str(out)])
        payload = json.loads(out.read_text())
        assert code == (0 if payload["pass"] else 1)
        assert [r["check"] for r in payload["reports"]] == ["yule_pendant_n"]
        assert isinstance(payload["reports"][0]["ks"]["pass"], bool)

    def test_rejection_stats_in_report(self, tmp_path):
        out = tmp_path / "t.json"
        run(["verify", "--check", "transform_equivalence", "--reps", "1000",
             "--seed", "5", "-o", str(out)])
        reports = json.loads(out.read_text())["reports"]
        assert len(reports) == 3
        for rep in reports:
            rej = rep["rejection"]
            assert rej["accepted"] == 1000 and rej["attempts"] >= 1000
            assert rej["acceptance_rate"] == rej["accepted"] / rej["attempts"]

    def test_unknown_check_exit_2(self, capsys):
        assert run(["verify", "--check", "bogus", "--reps", "1000"]) == 2
        assert "valid names" in capsys.readouterr().err


class TestExpect:
    def test_text_table(self, capsys):
        assert run(["expect", "--lam", "1", "--n", "10", "--x1", "1"]) == 0
        text = capsys.readouterr().out
        assert "E[pendant | n]" in text
        assert "E[diversity | n=10]" in text
        assert "0.8158457" in text

    def test_mean_given_age_in_the_critical_band(self, capsys):
        # at |lam - mu| <= 1e-8 lam the kernels took their critical forms, and
        # this line read 1.000000657; test_dists holds the 50-digit reference
        assert run(["expect", "--lam", "1", "--mu", "0.9999999901", "--n", "5",
                    "--x1", "1e8"]) == 0
        assert "E[pendant | x1=100000000.0]       1.000000138\n" in capsys.readouterr().out

    def test_json(self, capsys):
        assert run(["expect", "--format", "json", "--mu", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"] == {"lam": 1.0, "mu": 0.5}
        # extinction set: Yule-only rows are absent
        assert "E[pendant | n]" in payload["values"]
        assert not any(k.startswith("E[diversity") for k in payload["values"])

    def test_env_seed(self, tmp_path, monkeypatch):
        seeds = []
        for env in ("99", "100"):  # read again on each call
            monkeypatch.setenv("RECONTREE_SEED", env)
            out = tmp_path / env
            assert run(["simulate", "--scenario", "given-n", "--n", "3", "--reps", "1",
                        "-o", str(out)]) == 0
            seeds.append(json.loads(out.read_text().splitlines()[0])["manifest"]["seed"])
        assert seeds == [99, 100]

    @pytest.mark.parametrize("env", ["-3", "abc", "1.5"])
    def test_bad_env_seed_exits_2(self, env, tmp_path, monkeypatch, capsys):
        # "abc" exited 2 with "invalid literal for int()", naming no variable
        monkeypatch.setenv("RECONTREE_SEED", env)
        out = tmp_path / "f"
        assert_usage_error(["simulate", "--scenario", "given-n", "--n", "3", "-o", str(out)],
                           f"RECONTREE_SEED must be an integer >= 0, got {env!r}", capsys)
        assert not out.exists()


class TestBadInput:
    @pytest.mark.parametrize("args, message", [
        (["simulate", "--scenario", "given-n-age", "--n", "3", "--x1", "inf"],
         "x1 must be > 0 and finite"),
        (["simulate", "--scenario", "given-age", "--x1", "inf"], "x1 must be > 0 and finite"),
        (["simulate", "--scenario", "rejection-given-age", "--x1", "inf", "--lam-hat", "1"],
         "x1 must be > 0 and finite"),
        (["density", "--law", "pendant", "--grid", "0:inf:4"],
         "grid must satisfy 0 <= min < max < inf"),
        (["density", "--law", "pendant", "--grid", "nan:1:4"],
         "grid must satisfy 0 <= min < max < inf"),
        (["density", "--law", "pendant", "--scenario", "given-age", "--x1", "inf",
          "--grid", "0:1:4"], "x1 must be > 0 and finite"),
        (["expect", "--x1", "inf"], "x1 must be > 0 and finite"),
        (["expect", "--x1", "nan", "--mu", "0.5"], "x1 must be > 0 and finite"),
        # non-finite rates wrote nan rows or means and exited 0
        (["density", "--law", "pendant", "--scenario", "given-n", "--lam", "inf",
          "--grid", "0:1:4"], "lam must be > 0 and finite"),
        (["density", "--law", "pendant", "--mu", "nan", "--grid", "0:1:4"],
         "mu must be finite"),
        (["expect", "--mu", "nan"], "mu must be finite"),
        (["expect", "--lam-hat", "inf"], "lambda_hat must be > 0 and finite"),
        (["simulate", "--scenario", "given-n", "--n", "5", "--lam-hat", "inf"],
         "lambda_hat must be > 0 and finite"),
    ])
    def test_non_finite_input_exits_2(self, args, message, tmp_path, capsys, recwarn):
        out = tmp_path / "f"
        assert_usage_error([*args, "-o", str(out)], f"recontree {args[0]}: {message}", capsys)
        assert not out.exists()
        assert len(recwarn) == 0

    @pytest.mark.parametrize("args", [
        # p0(x1) is subnormal, so 2/p0(x1) overflowed: inf and nan rows, exit 0
        ["density", "--law", "pendant", "--scenario", "given-age", "--lam", "1",
         "--x1", "1e-310", "--grid", "0:1e-310:3"],
        ["density", "--law", "speciation-time", "--k", "3", "--n", "5", "--x1", "1e-310",
         "--grid", "0:1e-310:3"],
        ["expect", "--n", "5", "--x1", "1e-310"],
        # (n - 3)/p0(x1) overflows
        ["density", "--law", "pendant", "--scenario", "given-n-age", "--n", "1000000000",
         "--x1", "1e-300", "--grid", "0:1e-300:3"],
    ])
    def test_age_below_the_float_range_exits_2(self, args, tmp_path, capsys, recwarn):
        out = tmp_path / "f"
        assert_usage_error([*args, "-o", str(out)],
                           f"recontree {args[0]}: --x1 is too small for p0 and n/p0", capsys)
        assert not out.exists()
        assert len(recwarn) == 0

    def test_smallest_served_age(self, tmp_path, recwarn):
        out = tmp_path / "f"
        assert run(["expect", "--n", "5", "--x1", "1e-300", "--format", "json",
                    "-o", str(out)]) == 0
        values = json.loads(out.read_text())["values"].values()
        assert all(math.isfinite(v) and v > 0 for v in values)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("args, message", [
        # d^2 underflowed in the kernel: a nan pdf with RuntimeWarnings, exit 0
        (["density", "--law", "pendant", "--lam", "1e-300", "--grid", "0:2:3"],
         "lam must lie in [1e-100, 1e+100], got 1e-300"),
        (["density", "--law", "diversity", "--n", "5", "--lam", "1e300", "--grid", "0:2:3"],
         "lam must lie in [1e-100, 1e+100], got 1e+300"),
        (["expect", "--lam", "1e300"], "lam must lie in [1e-100, 1e+100]"),
        (["expect", "--mu=-1e300"], "|mu| must be <= 1e+100"),
        (["expect", "--lam-hat", "1e300", "--f", "0.5"], "lam must lie in [1e-100, 1e+100]"),
        (["simulate", "--scenario", "given-n", "--n", "5", "--lam", "1e-300"],
         "lam must lie in [1e-100, 1e+100]"),
        # past the float range the pendant means refuse (lam + |mu|) x1,
        # naming the flag as the age guard's other message does
        (["expect", "--lam", "1e100", "--mu", "5e99", "--x1", "1e300"],
         "(lam + |mu|) --x1 must be > 0 and finite, got inf"),
        # so do the laws and the samplers: lam x1 = inf made p0(x1) = 0, so
        # every tree had two tips, and the law warned, then refused a nan atom
        (["simulate", "--scenario", "given-age", "--lam", "1e100", "--mu", "1e100",
          "--x1", "1e300", "--reps", "1", "--seed", "1"],
         "(lam + |mu|) x1 must be > 0 and finite, got inf"),
        (["density", "--law", "pendant", "--scenario", "given-age", "--lam", "1e100",
          "--x1", "1e300", "--grid", "0:1e300:3"],
         "(lam + |mu|) --x1 must be > 0 and finite, got inf"),
        # E[diversity | x1] = 2 (e^(lam x1) - 1)/lam is past the float range
        (["expect", "--x1", "800"], "math range error"),
        # numpy refused these with "expected non-negative integer", naming no flag
        (["simulate", "--scenario", "given-n", "--n", "5", "--seed=-1"],
         "--seed must be an integer >= 0, got -1"),
        (["simulate", "--scenario", "given-n", "--n", "5", "--stream-id=-1"],
         "--stream-id must be >= 0, got -1"),
        (["verify", "--check", "yule_pendant_n", "--reps", "1000", "--seed=-1"],
         "--seed must be an integer >= 0, got -1"),
        # the numeric-only checks never read reps, and wrote "reps": -5 with exit 0
        (["verify", "--check", "limit_constant", "--reps=-5"],
         "reps must be >= 1000, got -5"),
    ])
    def test_out_of_range_input_exits_2(self, args, message, tmp_path, capsys, recwarn):
        out = tmp_path / "f"
        assert_usage_error([*args, "-o", str(out)], f"recontree {args[0]}: {message}", capsys)
        assert not out.exists()
        assert len(recwarn) == 0

    # a subnormal x1 wrote subnormal branch lengths with exit 0, and the
    # critical forward oracle ran without end at x1 = 1e300
    @pytest.mark.parametrize("x1", ["1e-310", "1e300"])
    @pytest.mark.parametrize("scenario", [["given-n-age", "--n", "5"], ["given-age"],
                                          ["rejection-given-age"]],
                             ids=["given-n-age", "given-age", "rejection-given-age"])
    @pytest.mark.parametrize("rates", [[], ["--mu", "0.4"], ["--mu", "1"], ["--mu=-0.5"]],
                             ids=["yule", "mu0.4", "critical", "mu-0.5"])
    def test_extreme_age_writes_only_normal_numbers(self, x1, scenario, rates, tmp_path,
                                                    recwarn):
        out = tmp_path / "f"
        code = run(["simulate", "--scenario", *scenario, "--lam", "1", *rates, "--x1", x1,
                    "--reps", "3", "--seed", "1", "-o", str(out)])
        assert code in (0, 2)
        assert len(recwarn) == 0
        if code == 2:
            assert not out.exists()
            return
        numbers = [float(v) for v in re.findall(
            r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|nan|inf", out.read_text())]
        assert numbers and all(v == 0.0 or sys.float_info.min <= abs(v) < math.inf
                               for v in numbers)

    @pytest.mark.parametrize("args", [
        # lam s past the float range warned of an overflow, in every pure-birth
        # law with no end and in the kernel
        ["--law", "pendant", "--lam", "1e100", "--grid", "0:1e300:5"],
        ["--law", "interior", "--lam", "1e100", "--grid", "0:1e300:5"],
        ["--law", "root-edge", "--n", "5", "--lam", "1e100", "--grid", "1e300:1e301:3"],
        ["--law", "hypoexp", "--k", "3", "--lam", str(2**70), "--grid", "0:1e300:5"],
        # and made the diversity pdf inf - inf
        ["--law", "diversity", "--n", "5", "--lam", "1e100", "--grid", "0:1e300:5"],
        # a count past int64 reached gammaln as an object array: a TypeError traceback
        ["--law", "diversity", "--n", str(2**70), "--grid", "0:2:5"],
        # the rounded p0(s) passed p0(x1), and G > 1 wrote nan rows
        ["--law", "speciation-time", "--k", "3", "--n", "5", "--x1", "1.5", "--lam", "1e100",
         "--mu", "1e100", "--grid", "0:2:5"],
        ["--law", "speciation-time", "--k", "2", "--n", str(2**70), "--x1", "1.5",
         "--lam", "1e100", "--mu", "1e100", "--grid", "0:2:5"],
        # the atom's -2 (log c + r) overflowed before c^2 = 0 met it: exit 2 on a nan atom
        ["--law", "pendant", "--scenario", "given-age", "--x1", "8e207", "--lam", "1e100",
         "--mu=-1e100", "--grid", "0:1e-90:3"],
    ])
    def test_extreme_scales_write_only_finite_numbers(self, args, tmp_path, recwarn):
        out = tmp_path / "d.csv"
        assert run(["density", *args, "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row if v != "atom")
        assert len(recwarn) == 0

    def test_huge_age_is_served(self, tmp_path, recwarn):
        # lam x1 = 1e200: the pendant means' quadrature breakpoints outgrew its
        # subdivision limit, and scipy raised "The input is invalid."
        out = tmp_path / "e.json"
        assert run(["expect", "--lam", "1e100", "--mu", "5e99", "--x1", "1e100", "--n", "5",
                    "--format", "json", "-o", str(out)]) == 0
        values = json.loads(out.read_text())["values"]
        assert values["E[pendant | n=5, x1=1e+100]"] == pytest.approx(1e99, rel=1e-12)
        assert all(np.isfinite(v) for v in values.values())
        assert len(recwarn) == 0

    # mu_hat = lambda_hat with f < 1 rounded mu one ulp past lam, and the
    # critical rates were refused with "mu must be <= lam"
    @pytest.mark.parametrize("lh", ["0.1", "0.3", "1", "2", "3", "7"])
    @pytest.mark.parametrize("f", ["0.01", "0.1", "0.2", "0.3", "0.5", "0.7", "0.9", "0.99"])
    def test_critical_raw_rates_are_served(self, lh, f, tmp_path, recwarn):
        out = tmp_path / "e.json"
        assert run(["expect", "--lam-hat", lh, "--mu-hat", lh, "--f", f, "--n", "5",
                    "--x1", "2", "--format", "json", "-o", str(out)]) == 0
        result = json.loads(out.read_text())
        assert Params(**result["params"]).is_critical
        assert all(math.isfinite(v) for v in result["values"].values())
        assert len(recwarn) == 0

    def test_large_negative_mu_is_served(self, tmp_path, recwarn):
        # D(s) = lam - mu e^{-ds} cancelled at -mu >> lam: expect ended in a
        # ZeroDivisionError traceback, and density wrote nan rows with exit 0
        out = tmp_path / "e.json"
        assert run(["expect", "--n", "5", "--x1", "1", "--mu=-1e20", "--format", "json",
                    "-o", str(out)]) == 0
        values = json.loads(out.read_text())["values"]
        assert len(values) == 4 and all(np.isfinite(v) for v in values.values())
        out = tmp_path / "d.csv"
        assert run(["density", "--law", "pendant", "--scenario", "given-n-age", "--n", "5",
                    "--x1", "1", "--mu=-1e20", "--grid", "0.1:0.9:3", "-o", str(out)]) == 0
        text = out.read_text()
        assert "nan" not in text and "inf" not in text
        assert text.splitlines()[2:] == ["0.1,0,0.9", "0.5,0,0.9", "0.9,0,0.9", "1,atom,0.1"]
        assert len(recwarn) == 0

    @pytest.mark.parametrize("args", [
        ["density", "--law", "pendant", "--grid", "0:1:4"],
        ["simulate", "--scenario", "given-n", "--n", "4", "--reps", "2", "--seed", "1"],
        ["verify", "--check", "limit_constant", "--reps", "1000", "--seed", "1"],
        ["expect"],
    ])
    def test_unwritable_output_exits_2(self, args, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x"
        assert_usage_error([*args, "-o", str(out)],
                           f"recontree {args[0]}: [Errno 2] No such file or directory", capsys)
        assert not out.parent.exists()


_MEMORY_LIMITED_SCRIPT = """
import resource, sys
limit = 2 << 30  # 2 GiB of address space for this process only
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from recontree.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestSizeBounds:
    # without a bound each of these asked for 8 GB to 745 GiB; under the
    # child's own 2 GiB limit a missing bound ends in a MemoryError traceback
    @pytest.mark.parametrize("args, message", [
        (["simulate", "--scenario", "given-n-age", "--n", "1000000000", "--x1", "1"],
         "n must be <= 1e+06, got 1000000000"),
        (["simulate", "--scenario", "given-n", "--n", "1000000000"],
         "n must be <= 1e+06, got 1000000000"),
        (["verify", "--reps", "100000000000", "--check", "yule_pendant_n"],
         "reps must be <= 1e+07, got 100000000000"),
    ])
    def test_oversized_run_exits_2_before_allocating(self, args, message, tmp_path):
        out = tmp_path / "f"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _MEMORY_LIMITED_SCRIPT, *args, "-o", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"recontree {args[0]}: {message}\n"
        assert proc.stdout == ""
        assert not out.exists()


def test_closed_stdout_ends_quietly_with_141(tmp_path):
    # a reader that stops early (``recontree simulate | head -1``) is not bad
    # input: the run used to print "[Errno 32] Broken pipe" and exit 2
    src = Path(__file__).resolve().parents[1] / "src"
    with subprocess.Popen(
            [sys.executable, "-m", "recontree.cli", "simulate", "--scenario", "given-n",
             "--n", "5", "--reps", "200000", "--seed", "1"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert json.loads(proc.stdout.readline())["manifest"]["seed"] == 1
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""


class TestCachedParser:
    """``build_parser`` is cached; no call may see another call's arguments."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_append_option_starts_empty(self, tmp_path, capsys):
        parse = build_parser().parse_args
        assert parse(["verify", "--check", "a"]).check == ["a"]
        assert parse(["verify", "--check", "b"]).check == ["b"]
        # end to end: a left-over "bogus" would make the second call exit 2
        assert run(["verify", "--check", "bogus", "--reps", "1000"]) == 2
        out = tmp_path / "r.json"
        assert run(["verify", "--check", "limit_constant", "--reps", "1000", "--seed", "1",
                    "-o", str(out)]) == 0
        reports = json.loads(out.read_text())["reports"]
        assert [r["check"] for r in reports] == ["limit_constant"]

    def test_defaults_come_back(self, tmp_path):
        parse = build_parser().parse_args
        given = ["density", "--law", "pendant", "--scenario", "given-n-age", "--n", "5",
                 "--x1", "2", "--grid", "0:2:5"]
        plain = ["density", "--law", "pendant", "--grid", "0:2:5"]
        first = parse(given)
        assert (first.scenario, first.n, first.x1) == ("given-n-age", 5, 2.0)
        second = parse(plain)
        assert (second.scenario, second.n, second.x1) == ("given-n", None, None)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run([*given, "-o", str(a)]) == 0
        assert run([*plain, "-o", str(b)]) == 0
        assert b.read_text().splitlines()[0] == "# law: pendant | n; lam=1.0 mu=0.0"


# Run in a fresh interpreter, so that no other test has loaded scipy yet.
_SCIPY_SUBMODULES_SCRIPT = """
import os, sys
from recontree import cli, dists, kernel, mc, sim, tree

out = ["-o", os.path.join(sys.argv[1], "out")]
simulate = ["simulate", "--reps", "5", "--seed", "1", "--scenario"]
density = ["density", "--grid", "0:2:5", "--law"]
for argv in (
    [*simulate, "given-n", "--n", "6"],
    [*simulate, "given-n-age", "--n", "6", "--x1", "2", "--mu", "0.5"],
    [*simulate, "given-age", "--x1", "1", "--mu", "0.5"],
    [*simulate, "rejection-given-age", "--x1", "1", "--lam-hat", "1", "--mu-hat", "0.5"],
    [*density, "pendant", "--mu", "0.5"],
    [*density, "pendant", "--scenario", "given-n-age", "--n", "6", "--x1", "2"],
    [*density, "pendant", "--scenario", "given-age", "--x1", "2", "--mu", "0.5"],
    [*density, "interior"],
    [*density, "root-edge", "--n", "6"],
    [*density, "root-edge", "--scenario", "given-age", "--x1", "2"],
    [*density, "hypoexp", "--k", "4"],
):
    assert cli.main([*argv, *out]) == 0, argv
loaded = [m for m in ("scipy.integrate", "scipy.special", "scipy.stats") if m in sys.modules]
assert not loaded, f"loaded {loaded}"
# diversity and expect load scipy.special on first use, and no command loads
# scipy.integrate: every quadrature is dists' own Gauss-Legendre rule
assert cli.main([*density, "diversity", "--n", "5", *out]) == 0
assert cli.main(["expect", *out]) == 0
assert "scipy.special" in sys.modules
assert "scipy.integrate" not in sys.modules, "expect loaded scipy.integrate"
"""


def _run_fresh(script, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_closed_form_laws_and_samplers_load_no_scipy_submodule(tmp_path):
    _run_fresh(_SCIPY_SUBMODULES_SCRIPT, tmp_path)


# Every density law, expect and simulate, in one fresh interpreter: none of
# them loads scipy.stats or scipy.integrate, and neither does verify (see below).
_NO_SCIPY_STATS_SCRIPT = """
import os, sys
from recontree import cli, dists

values = {"n": "6", "k": "3", "x1": "2"}
runs = [["simulate", "--scenario", "given-n-age", "--n", "6", "--x1", "2", "--reps", "5",
         "--seed", "1"], ["expect", "--mu", "0"], ["expect", "--mu", "0.5"]]
for row in dists.LAWS:
    if row.dist:
        scenario = ["--scenario", row.scenario] if row.scenario else []
        runs.append(["density", "--law", row.law, "--grid", "0:2:5", *scenario,
                     *(a for f in row.args for a in (f"--{f}", values[f]))])
for argv in runs:
    assert cli.main([*argv, "-o", os.path.join(sys.argv[1], "out")]) == 0, argv
    assert "scipy.stats" not in sys.modules, argv
    assert "scipy.integrate" not in sys.modules, argv
"""


def test_density_expect_and_simulate_load_no_scipy_stats(tmp_path):
    _run_fresh(_NO_SCIPY_STATS_SCRIPT, tmp_path)


# The whole verify suite, in a fresh interpreter: its two-sample KS and
# chi-square p-values come from numpy and scipy.special, not scipy.stats, and
# its masses and means from dists' own quadrature, not scipy.integrate.
_VERIFY_NO_SCIPY_STATS_SCRIPT = """
import os, sys
from recontree import cli

out = ["-o", os.path.join(sys.argv[1], "v.json")]
assert cli.main(["verify", "--reps", "1000", "--seed", "20260824", *out]) == 0
assert "scipy.stats" not in sys.modules, "verify loaded scipy.stats"
assert "scipy.integrate" not in sys.modules, "verify loaded scipy.integrate"
"""


def test_verify_loads_no_scipy_stats(tmp_path):
    _run_fresh(_VERIFY_NO_SCIPY_STATS_SCRIPT, tmp_path)


# -- argv built from the parser, with extreme numbers: every run ends with exit
# 0, 1 or 2, writes no nan or inf, and leaves no output file after exit 2

_EXTREMES = ("0", "-1", "1e-310", "1e300", "-1e20", str(2**70), "inf", "nan")
# one valid value per numeric flag; verify runs only limit_constant, which
# draws nothing, and simulate at most 3 trees
_VALID = {"lam": "1", "mu": "0.4", "lam_hat": "2", "mu_hat": "0.5", "f": "0.5", "n": "5",
          "k": "3", "x1": "1.5", "seed": "7", "stream_id": "1"}
_RAW, _TRANSFORMED = {"lam_hat", "mu_hat", "f"}, {"lam", "mu"}
_NON_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)


def _subcommands() -> dict:
    return next(a for a in build_parser()._actions if a.dest == "command").choices


@st.composite
def _argv(draw, command: str) -> list:
    """argv for ``command``: each flag now and then left out, each number
    valid or extreme, and rates given raw, transformed or (rarely) both."""
    style = draw(st.sampled_from(["raw", "transformed"] * 4 + ["both"]))
    argv = [command]
    for action in _subcommands()[command]._actions:
        dest = action.dest
        if not action.option_strings or dest in ("help", "output"):
            continue
        if command == "verify" and dest == "check":
            argv.append("--check=limit_constant")
            continue
        if dest in (_TRANSFORMED if style == "raw" else _RAW if style == "transformed" else ()):
            continue
        # a required flag is left out one time in ten, any other one time in four
        if not draw(st.sampled_from([True] * (9 if action.required else 3) + [False])):
            continue
        # a number is extreme one time in four
        number = lambda valid: (draw(st.sampled_from([valid] * 3 + [None]))
                                or draw(st.sampled_from(_EXTREMES)))
        if action.choices is not None:
            value = draw(st.sampled_from(list(action.choices)))
        elif dest == "grid":
            value = f"{number('0')}:{number('2')}:{number('10')}"
        elif dest == "reps" and command == "simulate":
            # 2^70 trees are a valid count, but not one a test can run
            value = number("3")
            if value == str(2**70):
                value = "3"
        else:
            value = number("1000" if dest == "reps" else _VALID[dest])
        argv.append(f"{action.option_strings[0]}={value}")
    return argv


class TestArgvProperty:
    @pytest.mark.parametrize("command", ["density", "simulate", "verify", "expect"])
    def test_exit_codes_and_output(self, command):
        @settings(max_examples=100, deadline=None)
        @given(argv=_argv(command))
        def check(argv):
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "out"
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                        warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        code = main([*argv, "-o", str(out)])
                    except SystemExit as exc:  # argparse refuses its usage with 2
                        code = exc.code
                assert code in (0, 1, 2), (code, stderr.getvalue())
                assert "Traceback" not in stderr.getvalue()
                if code == 2:
                    assert not out.exists()
                    return
                assert code == 1 or stdout.getvalue() == ""
                text = out.read_text()
                assert text and not _NON_FINITE.search(text), text

        check()
