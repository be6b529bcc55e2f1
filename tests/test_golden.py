"""Byte-for-byte golden outputs of ``density``, ``expect`` and ``simulate``.

Every law/scenario entry of ``recontree density`` is covered on a small
grid, in the Yule case and at mu = 0.5 wherever the law allows it.  The
files in ``tests/golden/`` are the reference; regenerate them only when an
output is meant to change, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import pathlib

import pytest

from recontree.cli import build_parser, main
from recontree.dists import LAWS

GOLDEN = pathlib.Path(__file__).parent / "golden"

SUB = ["--mu", "0.5"]

CASES = {
    "density-pendant-given-n-yule.csv":
        ["density", "--law", "pendant", "--scenario", "given-n", "--grid", "0:3:7"],
    "density-pendant-given-n-mu0.5.csv":
        ["density", "--law", "pendant", "--scenario", "given-n", *SUB, "--grid", "0:3:7"],
    "density-pendant-given-n-age-yule.csv":
        ["density", "--law", "pendant", "--scenario", "given-n-age", "--n", "6",
         "--x1", "2", "--grid", "0:2:9"],
    "density-pendant-given-n-age-mu0.5.csv":
        ["density", "--law", "pendant", "--scenario", "given-n-age", "--n", "6",
         "--x1", "2", *SUB, "--grid", "0:2:9"],
    "density-pendant-given-n-age-raw.csv":
        ["density", "--law", "pendant", "--scenario", "given-n-age", "--n", "5",
         "--x1", "1.5", "--lam-hat", "2", "--mu-hat", "0.5", "--f", "0.5",
         "--grid", "0:1.5:7"],
    "density-pendant-given-age-yule.csv":
        ["density", "--law", "pendant", "--scenario", "given-age", "--x1", "1.5",
         "--grid", "0:1.5:7"],
    "density-pendant-given-age-mu0.5.csv":
        ["density", "--law", "pendant", "--scenario", "given-age", "--x1", "1.5",
         *SUB, "--grid", "0:1.5:7"],
    "density-interior-given-n-yule.csv":
        ["density", "--law", "interior", "--grid", "0:3:7"],
    "density-root-edge-given-n-yule.csv":
        ["density", "--law", "root-edge", "--scenario", "given-n", "--n", "5",
         "--grid", "0:4:9"],
    "density-root-edge-given-age-yule.csv":
        ["density", "--law", "root-edge", "--scenario", "given-age", "--x1", "1.5",
         "--grid", "0:2:9"],
    "density-speciation-time-yule.csv":
        ["density", "--law", "speciation-time", "--n", "6", "--k", "3", "--x1", "2",
         "--grid", "0:2:9"],
    "density-speciation-time-mu0.5.csv":
        ["density", "--law", "speciation-time", "--n", "6", "--k", "3", "--x1", "2",
         *SUB, "--grid", "0:2:9"],
    "density-hypoexp-yule.csv":
        ["density", "--law", "hypoexp", "--k", "5", "--grid", "0:4:9"],
    "density-diversity-given-n-yule.csv":
        ["density", "--law", "diversity", "--n", "5", "--grid", "0:10:11"],
    "expect-yule.txt":
        ["expect", "--lam", "1", "--n", "10", "--x1", "1"],
    "expect-yule.json":
        ["expect", "--lam", "1", "--n", "10", "--x1", "1", "--format", "json"],
    "expect-mu0.5.txt":
        ["expect", *SUB, "--n", "6", "--x1", "2"],
    "expect-mu0.5.json":
        ["expect", *SUB, "--n", "6", "--x1", "2", "--format", "json"],
    "simulate-given-n.ndjson":
        ["simulate", "--scenario", "given-n", "--n", "6", "--reps", "5", "--seed", "7"],
    "simulate-given-n-age.ndjson":
        ["simulate", "--scenario", "given-n-age", "--n", "6", "--x1", "2", *SUB,
         "--reps", "5", "--seed", "7"],
    "simulate-given-age.ndjson":
        ["simulate", "--scenario", "given-age", "--x1", "1.5", "--mu", "0.4",
         "--reps", "5", "--seed", "7"],
    "simulate-rejection-given-age.ndjson":
        ["simulate", "--scenario", "rejection-given-age", "--x1", "1", "--lam-hat", "2",
         "--mu-hat", "0.5", "--f", "0.5", "--reps", "5", "--seed", "7"],
}


def test_every_density_law_has_a_golden_file():
    served = {(row.law, row.scenario) for row in LAWS if row.dist}
    covered = set()
    for argv in CASES.values():
        if argv[0] == "density":
            args = build_parser().parse_args(argv)
            key = (args.law, args.scenario)
            covered.add(key if key in served else (args.law, None))
    assert covered == served


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        main(argv + ["-o", str(GOLDEN / name)])
