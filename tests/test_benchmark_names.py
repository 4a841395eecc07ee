"""The names that the benchmark under ``perfbench/`` takes from hsskit still
resolve.

The benchmark's own self-tests (``python3 -m pytest perfbench -q``) take about
a minute, so a deletion or rename here that breaks the benchmark would only
show there.  These tests read the benchmark's sources as text and syntax
trees; they neither import nor edit anything under ``perfbench/``.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import hsskit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CALLERS = ("session.py", "test_perfbench.py")


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"), filename=name)


def _dotted(node):
    """``"a.b.c"`` for an attribute chain rooted at the name ``hk``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "hk" and parts:
        return ".".join(reversed(parts))
    return None


def _resolve(dotted):
    obj = hsskit
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    return obj


def _layer_modules():
    """``LAYER_MODULES`` of ``perfbench/tracer.py``, read from its syntax tree."""
    for node in _tree("tracer.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_MODULES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no LAYER_MODULES")


@pytest.mark.parametrize("caller", CALLERS)
def test_every_hk_name_resolves(caller):
    names = {_dotted(node) for node in ast.walk(_tree(caller))} - {None}
    assert names, f"perfbench/{caller} uses no hk.<name>"
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except AttributeError:
            missing.append(name)
    assert not missing, f"perfbench/{caller} uses hk names that hsskit lacks: {missing}"


@pytest.mark.parametrize("caller", CALLERS)
def test_every_hk_call_binds_to_its_signature(caller):
    # Positional arity counts too: MatvecConfig is built from six positional
    # fields.
    calls = [node for node in ast.walk(_tree(caller))
             if isinstance(node, ast.Call) and _dotted(node.func)]
    assert calls
    for call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            continue
        name = _dotted(call.func)
        signature = inspect.signature(_resolve(name))
        try:
            signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"perfbench/{caller}:{call.lineno}: hk.{name}{signature}: {exc}")


def test_every_layer_module_imports():
    layers = _layer_modules()
    assert layers
    for layer in layers:
        importlib.import_module(f"hsskit.{layer}")


def test_asserted_span_names_are_public_layer_functions():
    # The tracer wraps the functions a layer module lists in __all__; a span
    # name that the self-tests expect must stay one of them.
    layers = _layer_modules()
    text = (PERFBENCH / "test_perfbench.py").read_text(encoding="utf-8")
    spans = set(re.findall(r'"(%s)\.(\w+)"' % "|".join(layers), text))
    assert ("greedy", "sss_step_explicit") in spans
    for layer, name in sorted(spans):
        module = importlib.import_module(f"hsskit.{layer}")
        assert name in module.__all__ and inspect.isfunction(getattr(module, name)), f"{layer}.{name}"
