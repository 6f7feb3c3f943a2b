"""Behaviour of the five whole-program analyses on fixture projects."""

from pathlib import Path

from repro.devtools.analyze.analyses.async_blocking import (
    AsyncBlockingAnalysis,
)
from repro.devtools.analyze.analyses.checkpoint import (
    CheckpointCompletenessAnalysis,
)
from repro.devtools.analyze.analyses.layering import LayeringAnalysis
from repro.devtools.analyze.analyses.protocol import (
    ProtocolConformanceAnalysis,
)
from repro.devtools.analyze.analyses.taint import DeterminismTaintAnalysis
from repro.devtools.analyze.engine import AnalyzeEngine
from repro.devtools.analyze.project import Project, load_project

FIXTURES = Path(__file__).parent / "fixtures" / "analyze"


def _findings(analysis, sources):
    project = Project.from_sources(sources)
    return list(analysis.check(project))


class TestCheckpointCompleteness:
    def test_complete_pair_is_clean(self):
        source = (
            "class P:\n"
            "    def __init__(self, depth):\n"
            "        self._depth = depth\n"
            "        self._window = []\n"
            "    def export_state(self):\n"
            "        return {'w': list(self._window)}\n"
            "    def restore_state(self, state):\n"
            "        self._window = list(state['w'])\n"
        )
        assert _findings(CheckpointCompletenessAnalysis(), {"m": source}) == []

    def test_missing_field_is_flagged_with_location(self):
        source = (
            "class P:\n"
            "    def __init__(self):\n"
            "        self._window = []\n"
            "        self._hits = 0\n"
            "    def export_state(self):\n"
            "        return {'w': list(self._window)}\n"
            "    def restore_state(self, state):\n"
            "        self._window = list(state['w'])\n"
        )
        findings = _findings(
            CheckpointCompletenessAnalysis(), {"m": source}
        )
        assert len(findings) == 1
        assert findings[0].line == 4
        assert "P._hits" in findings[0].message

    def test_export_only_gap_names_the_missing_half(self):
        source = (
            "class P:\n"
            "    def __init__(self):\n"
            "        self._hits = 0\n"
            "    def export_state(self):\n"
            "        return {'hits': self._hits}\n"
            "    def restore_state(self, state):\n"
            "        pass\n"
        )
        findings = _findings(
            CheckpointCompletenessAnalysis(), {"m": source}
        )
        assert len(findings) == 1
        assert "not written by 'restore_state'" in findings[0].message
        assert "not read" not in findings[0].message

    def test_classmethod_restore_stores_count(self):
        source = (
            "class S:\n"
            "    def __init__(self):\n"
            "        self._count = 0\n"
            "    def snapshot(self):\n"
            "        return {'count': self._count}\n"
            "    @classmethod\n"
            "    def from_snapshot(cls, state):\n"
            "        session = cls()\n"
            "        session._count = int(state['count'])\n"
            "        return session\n"
        )
        assert _findings(CheckpointCompletenessAnalysis(), {"m": source}) == []

    def test_trivial_raise_only_pair_is_skipped(self):
        source = (
            "class Base:\n"
            "    def __init__(self):\n"
            "        self._anything = []\n"
            "    def export_state(self):\n"
            "        raise NotImplementedError\n"
            "    def restore_state(self, state):\n"
            "        raise NotImplementedError\n"
        )
        assert _findings(CheckpointCompletenessAnalysis(), {"m": source}) == []

    def test_class_with_only_one_half_is_skipped(self):
        source = (
            "class Partial:\n"
            "    def __init__(self):\n"
            "        self._state = []\n"
            "    def snapshot(self):\n"
            "        return {}\n"
        )
        assert _findings(CheckpointCompletenessAnalysis(), {"m": source}) == []


class TestAsyncBlocking:
    def test_blocking_two_frames_deep_is_found(self):
        project, errors, _ = load_project([str(FIXTURES / "badproj")])
        assert errors == []
        findings = list(AsyncBlockingAnalysis().check(project))
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path.endswith("serve/handlers.py")
        assert finding.line == 15
        assert "time.sleep" in finding.message
        assert "handlers.handle -> handlers._relay" in finding.message

    def test_non_blocking_async_is_clean(self):
        project, errors, _ = load_project([str(FIXTURES / "goodproj")])
        assert errors == []
        assert list(AsyncBlockingAnalysis().check(project)) == []

    def test_blocking_outside_async_reach_is_ignored(self):
        sources = {
            "app.serve.front": (
                "async def handle(line):\n    return line\n"
            ),
            "app.serve.batch": (
                "import time\n\n"
                "def offline_job():\n    time.sleep(1)\n"
            ),
        }
        assert _findings(AsyncBlockingAnalysis(), sources) == []

    def test_executor_handoff_is_not_an_edge(self):
        sources = {
            "app.serve.front": (
                "import time\n\n"
                "def blocking():\n    time.sleep(1)\n\n"
                "async def handle(loop):\n"
                "    await loop.run_in_executor(None, blocking)\n"
            ),
        }
        assert _findings(AsyncBlockingAnalysis(), sources) == []

    def test_direct_open_in_async_serve_is_flagged(self):
        sources = {
            "app.serve.front": (
                "async def handle(path):\n"
                "    with open(path) as fh:\n"
                "        return fh.name\n"
            ),
        }
        findings = _findings(AsyncBlockingAnalysis(), sources)
        assert len(findings) == 1
        assert "open()" in findings[0].message


class TestDeterminismTaint:
    def test_taint_through_helper_reaches_dumps(self):
        project, errors, _ = load_project([str(FIXTURES / "badproj")])
        assert errors == []
        findings = list(DeterminismTaintAnalysis().check(project))
        taint = [f for f in findings if f.path.endswith("tainted.py")]
        assert len(taint) == 1
        assert taint[0].line == 18

    def test_seeded_random_is_deterministic(self):
        sources = {
            "m": (
                "import json\n"
                "from random import Random\n\n"
                "def series(seed):\n"
                "    rng = Random(seed)\n"
                "    data = [rng.random() for _ in range(4)]\n"
                "    return json.dumps(data)\n"
            )
        }
        assert _findings(DeterminismTaintAnalysis(), sources) == []

    def test_unseeded_random_into_digest_is_flagged(self):
        sources = {
            "m": (
                "import hashlib\n"
                "import random\n\n"
                "def fingerprint():\n"
                "    value = random.random()\n"
                "    return hashlib.sha256(str(value).encode())\n"
            )
        }
        findings = _findings(DeterminismTaintAnalysis(), sources)
        assert len(findings) == 1

    def test_env_read_into_payload_is_flagged(self):
        sources = {
            "m": (
                "import json\n"
                "import os\n\n"
                "def payload():\n"
                "    home = os.environ.get('HOME')\n"
                "    return json.dumps({'home': home})\n"
            )
        }
        assert len(_findings(DeterminismTaintAnalysis(), sources)) == 1

    def test_wall_clock_in_telemetry_only_is_clean(self):
        sources = {
            "m": (
                "import time\n\n"
                "def measure(fn):\n"
                "    started = time.perf_counter()\n"
                "    value = fn()\n"
                "    return value, time.perf_counter() - started\n"
            )
        }
        assert _findings(DeterminismTaintAnalysis(), sources) == []

    def test_destination_handle_taint_is_not_a_payload_sink(self):
        sources = {
            "m": (
                "import json\n"
                "import os\n\n"
                "def write(entry):\n"
                "    root = os.environ.get('CACHE_DIR', '/tmp')\n"
                "    with open(root + '/x.json', 'w') as fh:\n"
                "        json.dump(entry, fh)\n"
            )
        }
        assert _findings(DeterminismTaintAnalysis(), sources) == []


class TestLayering:
    def test_core_importing_serve_is_flagged(self):
        project, errors, _ = load_project([str(FIXTURES / "badproj")])
        assert errors == []
        findings = list(LayeringAnalysis().check(project))
        assert len(findings) == 1
        assert findings[0].path.endswith("core/layers.py")
        assert "'core' must not import layer 'serve'" in findings[0].message

    def test_module_scope_cycle_is_detected(self):
        sources = {
            "pkg.a": "from pkg import b\n",
            "pkg.b": "from pkg import a\n",
        }
        findings = _findings(LayeringAnalysis(), sources)
        assert len(findings) == 1
        assert "import cycle" in findings[0].message

    def test_deferred_cycle_is_allowed(self):
        sources = {
            "pkg.a": "from pkg import b\n",
            "pkg.b": "def late():\n    from pkg import a\n    return a\n",
        }
        assert _findings(LayeringAnalysis(), sources) == []

    def test_obs_module_scope_core_import_is_flagged(self):
        sources = {
            "app.obs.export": "from app.core import kernel\n",
            "app.core.kernel": "",
        }
        findings = _findings(LayeringAnalysis(), sources)
        assert len(findings) == 1
        assert "deferred" in findings[0].message

    def test_obs_lazy_core_import_is_allowed(self):
        sources = {
            "app.obs.export": (
                "def dump():\n    from app.core import kernel\n"
                "    return kernel\n"
            ),
            "app.core.kernel": "",
        }
        assert _findings(LayeringAnalysis(), sources) == []

    def test_devtools_importing_kernel_is_flagged(self):
        sources = {
            "app.devtools.tool": "from app.core import kernel\n",
            "app.core.kernel": "",
        }
        findings = _findings(LayeringAnalysis(), sources)
        assert len(findings) == 1
        assert "self-contained" in findings[0].message


class TestProtocolConformance:
    def test_bad_fixture_yields_every_conformance_finding(self):
        project, errors, _ = load_project([str(FIXTURES / "badproj")])
        assert errors == []
        messages = [
            f.message for f in ProtocolConformanceAnalysis().check(project)
        ]
        assert any("_op_stats" in m for m in messages)
        assert any("_op_orphan" in m for m in messages)
        assert any("'mystery'" in m for m in messages)
        assert any("'never_emitted'" in m for m in messages)
        assert any(
            "'stats' is never exercised" in m for m in messages
        )

    def test_good_fixture_is_clean(self):
        project, errors, _ = load_project([str(FIXTURES / "goodproj")])
        assert errors == []
        assert list(ProtocolConformanceAnalysis().check(project)) == []

    def test_project_without_protocol_module_is_skipped(self):
        assert _findings(
            ProtocolConformanceAnalysis(), {"m": "x = 1\n"}
        ) == []

    def test_duplicate_ops_key_is_flagged(self):
        sources = {
            "app.serve.protocol": (
                "ERROR_CODES = ()\n"
                "def _op_a(payload):\n    return {}\n"
                "_OPS = {'a': _op_a, 'a': _op_a}\n"
            )
        }
        findings = _findings(ProtocolConformanceAnalysis(), sources)
        assert any("duplicate _OPS key" in f.message for f in findings)

    def test_serve_stream_without_limit_is_flagged(self):
        dial = (
            "import asyncio\n"
            "async def dial(port):\n"
            "    return await asyncio.open_connection('h', port)\n"
        )
        sources = {
            "app.serve.link": dial + (
                "async def bounded(port):\n"
                "    return await asyncio.open_connection(\n"
                "        'h', port, limit=1 << 19\n"
                "    )\n"
            ),
            "app.tools.link": dial,  # outside the serve tier
        }
        findings = _findings(ProtocolConformanceAnalysis(), sources)
        assert len(findings) == 1
        assert findings[0].line == 3
        assert "asyncio.open_connection() without limit=" in findings[0].message


class TestEngineOnFixtures:
    def test_bad_project_has_one_finding_per_domain(self):
        report = AnalyzeEngine().run([str(FIXTURES / "badproj")])
        rules = {f.rule for f in report.findings}
        assert rules == {
            "checkpoint-completeness",
            "async-blocking",
            "determinism-taint",
            "layering",
            "protocol-conformance",
        }
        assert report.exit_code == 1

    def test_good_project_is_clean(self):
        report = AnalyzeEngine().run([str(FIXTURES / "goodproj")])
        assert report.findings == []
        assert report.exit_code == 0
