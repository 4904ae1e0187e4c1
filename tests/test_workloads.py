"""The benchmark's workloads run through their own oracles: cycles 0-2 of
seed 1 of every workload, so a change that breaks a benchmark oracle fails
here and not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    # the module defines a dataclass, whose decorator looks the module up in
    # sys.modules, so it is registered before it runs
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("index", range(3))
def test_cycle_meets_its_oracles(name, index):
    workload = WORKLOADS[name]()
    for op in workload.cycle(1, index):
        op.check(op.run())
