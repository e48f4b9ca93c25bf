"""Every method span the benchmark traces sees traffic from its workloads.

``bench/layers.py`` wraps the methods of ``_METHOD_SPANS`` and reports
each label's calls.  A label whose methods no report reaches reads 0 on
every workload, so the benchmark shows nothing for it.  These tests run
one pass of each workload through ``cli.main`` with a counting wrapper on
every listed method, and ask that each label count at least one call;
and that ``qrac.channel_branches``, whose span counts branches by
``len()`` of its result, is reached on ``channel`` and ``rounds`` with
a length equal to the branches its result yields.
The table is the one ``test_bench_names.py`` reads with
``ast.literal_eval``, and the workloads are loaded from
``bench/workloads.py``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.util
import io
import sys
from collections import Counter

import pytest

from qracbox import qrac
from qracbox.cli import main
from test_bench_names import BENCH, METHOD_SPANS


def _workloads(patch: pytest.MonkeyPatch):
    """``bench/workloads.py`` as a module, registered while ``patch`` lasts."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    patch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def span_calls() -> Counter:
    """Calls per label over one pass of every workload at seed 1."""
    calls: Counter = Counter()

    def counting(label, method):
        @functools.wraps(method)
        def counted(*args, **kwargs):
            calls[label] += 1
            return method(*args, **kwargs)

        return counted

    with pytest.MonkeyPatch.context() as patch:
        workloads = _workloads(patch)
        for label, layer, cls_name, method in METHOD_SPANS:
            cls = getattr(importlib.import_module(f"qracbox.{layer}"), cls_name)
            patch.setattr(cls, method, counting(label, vars(cls)[method]))
        for workload in workloads.WORKLOADS:
            for report in workloads.build(workload, 1):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(list(report.argv)) == 0, report.argv
    return calls


@pytest.mark.parametrize("label", sorted({span[0] for span in METHOD_SPANS}))
def test_method_span_sees_traffic(span_calls, label):
    assert span_calls[label] > 0


ENUMERATING = ("channel", "rounds")


@pytest.fixture(scope="module")
def enumerations() -> dict[str, list[tuple[int, int]]]:
    """Per workload, (len(), branches iterated) of each ``channel_branches`` result of a pass.

    The wrapper is bound in every package namespace that holds the
    function, as ``bench/layers.py`` binds its span.
    """
    original = qrac.channel_branches
    calls: dict[str, list[tuple[int, int]]] = {workload: [] for workload in ENUMERATING}
    active = []

    def recording(*args, **kwargs):
        table = original(*args, **kwargs)
        calls[active[-1]].append((len(table), sum(1 for _ in table)))
        return table

    with pytest.MonkeyPatch.context() as patch:
        workloads = _workloads(patch)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qracbox" and vars(module).get("channel_branches") is original:
                patch.setattr(module, "channel_branches", recording)
        for workload in ENUMERATING:
            active.append(workload)
            for report in workloads.build(workload, 1):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(list(report.argv)) == 0, report.argv
    return calls


@pytest.mark.parametrize("workload", ENUMERATING)
def test_channel_branches_span_sees_traffic_and_counts_branches(enumerations, workload):
    # ``bench/layers.py`` counts ``qrac.channel_branches.branches`` as len() of each result
    assert enumerations[workload]
    assert all(length == branches > 0 for length, branches in enumerations[workload])
