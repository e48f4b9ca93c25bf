"""The six demos run in-process and print exactly their pinned output.

Each demo is deterministic (fixed seeds and exact enumeration), so the
sha256 of its stdout pins every number it prints.  Demos 04 and 06 go
through ``mixture_check`` and ``verify_nonsignaling``.  The digests were
captured with numpy 2.4 on x86-64, like those in ``test_golden.py``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DIGESTS = {
    "01_pr_box.py": "2887db9bce7eadc8e42e000f3268d02f8708e00cbb46cce5958b1b4c188c9f6c",
    "02_classical_rac.py": "bc78845ab7b5353a32db5b3f03ef4288330402dc8974424ec8607661fdf4778c",
    "03_qrac_round.py": "5ba272cdd953d75fa692ef0326354996ce50163695a593a65190df094b461c20",
    "04_superposed_choice.py": "b550d142dc05dd9a2de3266a2bf81566e24a33f8debde5b1ebb3388ce0ea1cfb",
    "05_dense_coding.py": "19d2394748d9364bd90987222092419a5bdbc986611096a4b77e21c089855632",
    "06_channel_analysis.py": "e2ec83f845965ff3652793ec6d3bd1298ecc01c3000acd37f29e365bff581bc2",
}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_output_matches_digest(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[demo]
