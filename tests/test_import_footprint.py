"""The cold path starts without numpy.

Campaigns, executor workers and the store CLIs never compute with numpy;
only figure queries (IPC histograms, binned timelines) do, and they import
it when first called.  A fresh interpreter imports the cold entry points,
runs a one-cell campaign into both store tiers, re-runs it warm, exports the
cell's ``.prv`` trace and lists both stores, and numpy must still be
unloaded at the end.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import contextlib
    import io
    import sys

    import repro.campaign.__main__
    import repro.campaign.runner
    import repro.exec.worker
    import repro.results.store
    import repro.store.cli
    import repro.traces.store
    from repro.campaign import CampaignSpec, ClusterRef, SyntheticWorkloadRef, run_campaign
    from repro.results import ResultStore
    from repro.results.__main__ import main as results_cli
    from repro.traces import TraceStore
    from repro.traces.__main__ import main as traces_cli
    from repro.workload.generator import WorkloadSpec
    from repro.workload.runner import DROM

    root = sys.argv[1]
    spec = CampaignSpec(
        name="footprint",
        workloads=(
            SyntheticWorkloadRef(
                spec=WorkloadSpec(njobs=2, work_scale=0.04, iterations=12), seed=0
            ),
        ),
        scenarios=(DROM,),
        clusters=(ClusterRef(nnodes=4),),
    )
    store, traces = ResultStore(root + "/m"), TraceStore(root + "/t")
    cold = run_campaign(spec, store=store, trace_store=traces)
    warm = run_campaign(spec, store=ResultStore(root + "/m"), trace_store=TraceStore(root + "/t"))
    assert cold.executed == 1 and warm.executed == 0, (cold, warm)
    (key,) = traces.keys()
    with contextlib.redirect_stdout(io.StringIO()):
        assert traces_cli(["export", key, "--store", root + "/t", "--out", root + "/x"]) == 0
        assert traces_cli(["ls", "--store", root + "/t"]) == 0
        assert results_cli(["ls", "--store", root + "/m"]) == 0
    print(sorted(p for p in sys.modules if p == "numpy" or p.startswith("numpy.")))
    """
)


def test_cold_path_never_imports_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", done.stdout
    assert len(list((tmp_path / "x").glob("*.prv"))) == 1
