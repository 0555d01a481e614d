"""Conv steps under the default BLAS threads: no helper fork, no stall.

``repro train``, ``repro bench run`` and tier-1 leave BLAS threaded.  There
the helper of ``repro.nn.parallel`` must never fork, since threaded BLAS
already fills the cores.  Each run here is a fresh interpreter with the
default BLAS thread count; it checks that the helper is never taken while
a 1×1 Conv2D runs fwd+bwd 200 times, and that no call takes more than 10×
the median (a quick ``repro bench run`` once read 188 ms for this step
against 2–5 ms).

Threaded OpenBLAS stalls without the helper too: on a 2-vCPU VM a tight
loop of this step showed a burst of 190–200 ms calls about once in 30 s
with every call inline, and none with one BLAS thread.  So an interpreter
that trips the wall-time bound runs once more, and only a second trip
fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# 10 untimed warm-up calls, then 200 timed ones; prints the slowest and the
# median call in s, and the forks the helper took
PROBE = """
import json, statistics, time
import numpy as np
from repro.nn import Conv2D
from repro.obs.metrics import MetricsRegistry, set_registry
registry = MetricsRegistry(enabled=True)
set_registry(registry)
layer = Conv2D(32, 32, 1, rng=np.random.default_rng(0))
x = np.random.default_rng(0).normal(size=(32, 32, 16, 16))
g = np.random.default_rng(1).normal(size=(32, 32, 16, 16))
times = []
for _ in range(210):
    t = time.perf_counter()
    layer.forward(x)
    layer.backward(g)
    times.append(time.perf_counter() - t)
times = times[10:]
print(json.dumps([max(times), statistics.median(times),
                  registry.counter("nn.helper.taken").value]))
"""


def _probe(env):
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out)


def test_conv_steps_never_stall_under_default_blas_threads():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for run in range(3):
        for attempt in range(2):
            slowest, median, taken = _probe(env)
            assert taken == 0, f"interpreter {run}: the helper forked {taken} times"
            if slowest <= 10 * median:
                break
        assert slowest <= 10 * median, (
            f"interpreter {run}, twice: slowest call {slowest * 1e3:.1f} ms, "
            f"median {median * 1e3:.2f} ms")
