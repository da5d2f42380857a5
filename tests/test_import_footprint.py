"""The entry points pull in no process-pool or shared-memory machinery.

Every simulation runs in one process (the distributed layer is a thread
pool plus the makespan model), so importing the CLI, the daemon and the
k-failure engine must not load ``concurrent.futures.process`` or
``multiprocessing.shared_memory``. Checked in a fresh interpreter, because
this test session may already have imported them.
"""

import subprocess
import sys

PROBE = """
import sys
import repro.cli, repro.serve.server, repro.kfailure
print(",".join(
    name for name in ("multiprocessing.shared_memory", "concurrent.futures.process")
    if name in sys.modules
))
"""


def test_entry_points_load_no_process_pool_or_shared_memory():
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == ""
