"""The generator is a pure function of (workload, seed).

    python3 -m pytest perfbench/test_workloads.py
"""

import pytest

from workloads import HEADER, WORKLOADS, generate_csv


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_csv_bytes(name):
    workload = WORKLOADS[name]
    first = generate_csv(workload, 7).encode()
    assert generate_csv(workload, 7).encode() == first
    assert generate_csv(workload, 8).encode() != first
    lines = first.decode().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == workload.rows + 1
