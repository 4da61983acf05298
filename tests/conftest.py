"""Test session set-up.

numpy's BLAS is pinned to one thread before anything imports numpy: on
a busy two-core machine a threaded BLAS made the dense references stall
at random, by up to ten times a draw's usual time.  A setting already
in the environment is kept.

`--slow` also runs the tests marked `slow`: the full sweeps that hold
the layout search to its copy-and-flood reference, and the replay of
the benchmark suite's schedules against the full-flood bus reference.
"""

import os

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


def pytest_addoption(parser):
    parser.addoption("--slow", action="store_true",
                     help="also run the tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: a long sweep, run with --slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="a long sweep; run with --slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
