"""Every entry point the benchmark's tracer wraps still resolves.

``perfbench/spans.py`` replaces module attributes by name for its traced
run; a renamed or removed one would fail only there.  Its source is
executed here without importing it as a package or writing beside it.
"""
import types
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    module = types.ModuleType("spans")
    code = compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec")
    exec(code, module.__dict__)
    return module


spans = _load_spans()
HOOKS = [hook[:2] for hook in spans.HOOKS] + [spans.CHUNK_HOOK, spans.LEAF_HOOK]


@pytest.mark.parametrize("module_name, path", HOOKS, ids=[".".join(h) for h in HOOKS])
def test_hook_resolves(module_name, path):
    owner, attr = spans._resolve(module_name, path)
    assert callable(getattr(owner, attr))
