"""``peak_rss_mb``: the high-water mark of the estimate and score flows.

The benchmark's own process is no good for this: its high-water mark
also depends on how set-up, the campaign rounds and the pool's
result-receiving thread left the heap, and it varied by 10-20% between
runs of the same seed.  So :func:`measure` forks a child right after the
technology-table warm-up, while the heap's history is still the same
every run, and the child runs one estimate pass and one score pass (the
flows whose arrays dominate memory) on the run's inputs and reports its
own ``ru_maxrss``, which starts from the parent's resident set at the
fork.  The child also sends back its simulated outputs, which must equal
the timed rounds' (see :func:`check_outputs`).
"""

from __future__ import annotations

import json
import os
import resource
import signal
import traceback

import flows
from repro.tech.table_builder import default_tables
from repro.telemetry.tracer import NULL_TRACER


def _probe(workload, inputs) -> dict:
    checks = flows.Checks()
    outputs = flows.Outputs()
    out = flows.Round()
    flows.estimate_pass(workload, inputs, NULL_TRACER, checks, outputs, out)
    analyzer = flows.score_analyzer(workload, inputs, default_tables())
    flows.score_pass(analyzer, inputs, NULL_TRACER, checks, outputs, out)
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed": checks.failed,
        "outputs": outputs.values,
    }


def measure(workload, inputs) -> dict:
    """Run :func:`_probe` in a forked child and return what it reports."""
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(reader)
            with os.fdopen(writer, "w") as pipe:
                json.dump(_probe(workload, inputs), pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(writer)
    try:
        with os.fdopen(reader) as pipe:
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        __, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"memory probe exited with status {status}")
    return json.loads(payload)


def check_outputs(probe: dict, outputs: flows.Outputs, checks: flows.Checks) -> None:
    """The child's checks passed and its outputs equal the timed rounds'."""
    checks.check(probe["failed"] == 0, "a check failed in the memory probe")
    for section in ("estimate", "score"):
        mine = json.loads(json.dumps(outputs.values[section]))
        checks.check(
            probe["outputs"][section] == mine,
            f"memory probe {section} outputs differ from the timed rounds'",
        )
