"""The benchmark's own reports reproduce pinned bytes.

``bench/run.py`` times the reports of ``bench/workloads.py`` and holds
each to the sha256 of its stdout (``details.digests``).  These tests pin
those digests for every report of all three workloads at seed 1, keyed
as the benchmark keys them (``workload/experiment/seed``), so a change
that claims the same bytes is checked on the exact inputs its timing is
measured on.  The workloads are loaded as ``test_bench_spans.py`` loads
them.  The digests were captured with numpy 2.4 on x86-64, like those
in ``test_golden.py``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from qracbox.cli import main
from test_bench_spans import _workloads

SEED = 1

DIGESTS = {
    "rounds/qrac/2032329983": "0dc2dee2c1ca031bd47a8bd8226da137ce19fc75943ed4be4241d4acc8f5fd9c",
    "rounds/qrac-qubit-only/2198257139": "aebace9bafbbd75c7003ec37774028cba0d65485f34bee08befdcc280591e722",
    "rounds/nonsignaling/395584478": "3350f5267920264367953442041341f134c31dd5d32a84da1bc7bd92a0515fbe",
    "rounds/tomography/3112949092": "772642495e7da6346e6ab0fa842553af0d34e6a0a34f9b5e08584d556bb3f5e0",
    "channel/tomography/2228177951": "6127306a07b40bbd05cd9aeb9076fe33592e0f61c61a874b6caf0e52c18079f6",
    "channel/nonsignaling/1425381069": "f2ed1cd1e444ed8b1ba0711e8dffbd9df3f1fdb8e5eeb5675b31159324281720",
    "channel/dilation/3978353973": "8ca53b87ee493c69b9109369329f09426fab71813b410a9a4f0396073e6a4fbc",
    "channel/mixture/3497958812": "810f34b660d19e45b1141629a133a62e44911837481933bd5af783f41acd94a6",
    "channel/mixture/3266447723": "7f65be93d3a3fb2d3fbc18c1d3432bfa610ed8c9f498b602cd4193c19a3cee9b",
    "channel/mixture/1471535068": "da2173494b095063bb2c608b0a3228c42dc9984845c18fe176bb540b4edfd474",
    "channel/mixture/3559799981": "01997c413574b5708cc5f1a7edd0d57a80d23afc05e7ad31b705628938089697",
    "channel/mixture/4059161375": "7eeec2914d82be70d4dc4f2a0fedf72ed2952ffd78b892caf9766be2071eb4a3",
    "channel/mixture/2128092448": "48f26ed69074bf333ec8458d77ed9de1eb2ce88d3bc97b8bda62458adeaa1a31",
    "channel/mixture/3662159326": "312c546f2ae50b4b0f50b06447c299a97a41589600658356a2bc9a17b1d27038",
    "racbox/racbox/2762783682": "78e3aaaa4a0768522703543115c35cb66b580ce8e4edf644cff7198ee3994fa8",
}


def _reports() -> list[tuple[str, object]]:
    with pytest.MonkeyPatch.context() as patch:
        workloads = _workloads(patch)
        return [
            (f"{workload}/{report.experiment}/{report.seed}", report)
            for workload in workloads.WORKLOADS
            for report in workloads.build(workload, SEED)
        ]


REPORTS = _reports()


def test_every_report_is_pinned():
    assert [key for key, _ in REPORTS] == list(DIGESTS)


@pytest.mark.parametrize("key, report", REPORTS, ids=[key for key, _ in REPORTS])
def test_report_matches_pinned_digest(key, report):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(report.argv)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[key]
