"""The perf-flag contract: one process-wide switch, scoped by save/restore.

No test here assumes the flags start on: the suite also runs under
``--perfopts-off=all``, so each test pins the values it reads.
"""

import threading

import pytest

from repro import perfopts
from repro.distsim.master import DistributedRouteSimulation
from repro.obs import RunContext
from repro.workload.routes import generate_input_routes
from repro.workload.wan import WanParams, generate_wan


def test_configured_blocks_nest_and_unwind():
    with perfopts.configured(spread_memo=True):
        with perfopts.configured(spread_memo=False):
            assert perfopts.OPTS.spread_memo is False
            with perfopts.configured(spread_memo=True):
                assert perfopts.OPTS.spread_memo is True
            assert perfopts.OPTS.spread_memo is False
        assert perfopts.OPTS.spread_memo is True


def test_bare_assignment_is_seen_everywhere_and_reset_restores_defaults():
    before = {name: getattr(perfopts.OPTS, name) for name in perfopts.FLAG_NAMES}
    try:
        perfopts.OPTS.topo_index = False
        seen = []
        thread = threading.Thread(
            target=lambda: seen.append(perfopts.OPTS.topo_index)
        )
        thread.start()
        thread.join()
        assert seen == [False]
        perfopts.reset()
        assert perfopts.OPTS == perfopts.PerfOptions()
    finally:
        for name, value in before.items():
            setattr(perfopts.OPTS, name, value)


def test_configured_restores_flags_when_its_block_raises():
    with perfopts.configured(route_ecs=True):
        with pytest.raises(RuntimeError):
            with perfopts.configured(route_ecs=False):
                raise RuntimeError("boom")
        assert perfopts.OPTS.route_ecs is True


def test_misspelt_flag_assignment_raises():
    with pytest.raises(AttributeError):
        perfopts.OPTS.spread_mem = False


def test_configured_rejects_unknown_flags():
    with pytest.raises(ValueError, match="bogus"):
        with perfopts.configured(bogus=False):
            pass


@pytest.mark.parametrize("route_ecs", [False, True])
def test_distsim_worker_threads_read_the_flags(route_ecs):
    model, inventory = generate_wan(
        WanParams(regions=2, cores_per_region=2, seed=3)
    )
    inputs = generate_input_routes(inventory, n_prefixes=24, seed=4)
    ctx = RunContext("test")
    with perfopts.configured(route_ecs=route_ecs):
        DistributedRouteSimulation(model).run(
            inputs, subtasks=3, workers=2, ctx=ctx
        )
    groups = ctx.counters().get("route_sim.ec_groups", 0)
    assert (groups > 0) is route_ecs
