"""The benchmark's layer spans still find every method they wrap.

``perfbench/spans.py`` replaces methods of the serve, core and exec
layers by name before a traced run starts (and ``perfbench/launch.py``
wraps ``repro.serve.shard._worker_main``), so deleting or renaming one
of them stops the traced server before it accepts a connection.  This
test installs the wrappers in a subprocess, so the wrapped classes never
leak into the rest of the suite, and drives one request of each kind
plus two sweep cells through them.  It reads ``perfbench/`` and never
edits it.
"""

import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json

import spans

recorder = spans.SpanRecorder()
spans.install(recorder)

import repro.serve.frontends
import repro.serve.shard
from repro.exec import ExperimentSpec, make_engine
from repro.serve import SessionManager
from repro.workloads.spec2000 import benchmark

assert callable(repro.serve.shard._worker_main)
series = benchmark("applu_in").mem_series(257).tolist()
requests = [
    {"op": "hello"},
    {"op": "sample", "session": "s1", "interval": 0, "mem_per_uop": series[0]},
    {"op": "sample_batch", "session": "s1", "start_interval": 1,
     "samples": series[1:]},
    {"op": "snapshot", "session": "s1"},
    {"op": "predict", "session": "s1"},
    {"op": "stats", "session": "s1"},
]
manager = SessionManager()
answers = [
    json.loads(repro.serve.frontends.handle_line(
        manager, json.dumps(request, separators=(",", ":"))
    ))
    for request in requests
]
cells = [
    ExperimentSpec.create(
        "predictor_accuracy", benchmark="applu_in", n_intervals=200,
        predictor="GPHT_8_1024",
    ),
    ExperimentSpec.create(
        "comparison", benchmark="applu_in", n_intervals=100,
        governor="gpht", policy="table2",
    ),
]
report = make_engine().run(cells)
for cell in cells:
    report.value(cell)
print(json.dumps({
    "answers": [[answer["op"], answer["ok"]] for answer in answers],
    "names": sorted({span[0] for span in recorder.spans if span is not None}),
    "layers": sorted(spans.LAYERS),
}))
"""


def test_every_wrapped_method_exists_and_every_span_has_a_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO / "perfbench")]
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["answers"] == [
        [op, True]
        for op in (
            "hello", "sample", "sample_batch", "snapshot", "predict", "stats"
        )
    ]
    names = set(result["names"])
    assert {"serve.protocol.handle_line", "exec.engine.run"} <= names
    assert names <= set(result["layers"]), names - set(result["layers"])
