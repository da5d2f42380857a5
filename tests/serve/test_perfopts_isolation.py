"""Cross-job perfopts isolation: concurrent jobs must not leak flags.

The satellite audit of this PR found the original ``perfopts.OPTS`` was one
process-global mutable dataclass — job A disabling ``spread_memo`` would
turn it off for job B running concurrently. These tests pin the fix: scoped
overrides are thread-local frames over a process-wide base, and concurrent
serve jobs carrying different flag sets each see exactly their own.
"""

import asyncio
import threading

from repro import perfopts
from repro.serve import Scheduler
from repro.serve.runner import JobRunner
from repro.serve.state import HotState

from tests.serve.conftest import PLAN


class TestThreadFrames:
    def test_two_threads_see_their_own_flags(self):
        barrier = threading.Barrier(2)
        seen = {}

        def worker(name, value):
            with perfopts.configured(spread_memo=value):
                barrier.wait(timeout=5.0)
                seen[name] = perfopts.OPTS.spread_memo
                barrier.wait(timeout=5.0)

        threads = [
            threading.Thread(target=worker, args=("on", True)),
            threading.Thread(target=worker, args=("off", False)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"on": True, "off": False}
        # The process-wide base never moved.
        assert perfopts.OPTS.spread_memo is True

    def test_frames_nest_and_unwind(self):
        assert perfopts.OPTS.spread_memo is True
        with perfopts.configured(spread_memo=False):
            assert perfopts.OPTS.spread_memo is False
            with perfopts.configured(spread_memo=True):
                assert perfopts.OPTS.spread_memo is True
            assert perfopts.OPTS.spread_memo is False
        assert perfopts.OPTS.spread_memo is True

    def test_bare_assignment_outside_frames_hits_the_base(self):
        try:
            perfopts.OPTS.topo_index = False
            assert perfopts.effective().topo_index is False
        finally:
            perfopts.reset()
        assert perfopts.OPTS.topo_index is True


class TestConcurrentJobs:
    def test_concurrent_jobs_with_different_flags_stay_isolated(
        self, snapshot_path, other_snapshot_path
    ):
        """Two overlapping verify jobs, opposite flags, equal answers.

        The flags are semantically transparent, so the proof of isolation is
        sharper than inspecting internals: run the same two jobs again
        sequentially with *default* flags and require byte-identical
        fingerprints. A leak (job B inheriting job A's disabled caches, or
        the base flipping mid-run) cannot corrupt results — but this also
        pins that the flag plumbing itself doesn't poison either run, and
        that the process-wide base survives the jobs untouched.
        """

        def spec(path, flags):
            return {
                "kind": "verify",
                "snapshot_path": path,
                "plan": dict(PLAN),
                "perf_flags": flags,
                "no_cache": True,
            }

        all_off = {name: False for name in perfopts.FLAG_NAMES}
        all_on = {name: True for name in perfopts.FLAG_NAMES}

        async def run_pair():
            scheduler = Scheduler(JobRunner(HotState()), slots=2)
            await scheduler.start()
            off_job = scheduler.submit(spec(snapshot_path, all_off))
            on_job = scheduler.submit(spec(other_snapshot_path, all_on))
            while not (off_job.finished and on_job.finished):
                await asyncio.sleep(0.01)
            await scheduler.stop()
            assert off_job.state == "done", off_job.error
            assert on_job.state == "done", on_job.error
            return off_job.result, on_job.result

        off_result, on_result = asyncio.run(run_pair())

        async def run_defaults():
            scheduler = Scheduler(JobRunner(HotState()), slots=1)
            await scheduler.start()
            first = scheduler.submit(spec(snapshot_path, {}))
            second = scheduler.submit(spec(other_snapshot_path, {}))
            while not (first.finished and second.finished):
                await asyncio.sleep(0.01)
            await scheduler.stop()
            return first.result, second.result

        base_first, base_second = asyncio.run(run_defaults())
        assert off_result["rib_fingerprint"] == base_first["rib_fingerprint"]
        assert on_result["rib_fingerprint"] == base_second["rib_fingerprint"]
        assert off_result["verdict"] == base_first["verdict"]
        assert on_result["verdict"] == base_second["verdict"]
        # No job leaked its overrides into the process-wide base.
        assert perfopts.effective() == perfopts.PerfOptions()
