"""Suite-wide options.

``--perfopts-off=all`` (or a comma-separated list of ``PerfOptions`` field
names) switches those optimization layers off process-wide for the whole
session, so any equivalence harness can be re-run against the naive paths:
``pytest --perfopts-off=all tests/exec tests/kfailure``. Tests that assert
an optimization's own effect pin its flag with ``perfopts.configured``.
"""

from repro import perfopts


def pytest_addoption(parser):
    parser.addoption(
        "--perfopts-off",
        default="",
        help="'all' or comma-separated repro.perfopts flags to disable",
    )


def pytest_configure(config):
    names = config.getoption("--perfopts-off")
    if not names:
        return
    flags = perfopts.FLAG_NAMES if names == "all" else names.split(",")
    for flag in flags:
        setattr(perfopts.OPTS, flag, False)
