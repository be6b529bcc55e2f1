"""Each demo prints exactly its golden output.

The demos seed every stream, so their printed tables are fixed.  A change
that moves a sample or a law value shows up here as a text mismatch.
Regenerate a golden only when the output is meant to change, and say why in
CHANGES.md:

    PYTHONPATH=src python demos/<name>.py > tests/golden/demo-<name>.txt
"""

import contextlib
import io
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_golden(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    want = (ROOT / "tests" / "golden" / f"demo-{name}.txt").read_text()
    assert out.getvalue() == want
