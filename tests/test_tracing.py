"""The benchmark's tracer (bench/tracing.py) still finds every function it
wraps, counts the derivative calls of each construction, and puts every
attribute back when it is uninstalled."""

import gc
import importlib
import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402

import hairpinlang.cli  # noqa: E402,F401  (every module the tracer patches)
from hairpinlang import construction  # noqa: E402
from hairpinlang.expr import parse, parse_map  # noqa: E402


def _hairpin_attributes():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.startswith("hairpinlang")
        for attr, value in vars(module).items()
    }


def test_every_target_is_a_module_level_function():
    for module_name, attr, _layer in tracing.TARGETS:
        module = importlib.import_module(module_name)
        assert inspect.isfunction(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_tracer_counts_derivatives_and_restores_attributes():
    reg = {"H": parse_map("a:a,b:c,c:b")}
    builds = [
        lambda: construction.two_sided_dta(parse("Hr[1,H](a*bc)", reg), reg),
        lambda: construction.effective_automaton(parse("Hl[0,H](a*bc)", reg), reg),
        lambda: construction.regex_dta(parse("(a+b)*c").re),
    ]
    before = _hairpin_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for build in builds:
            calls = tracer.counts["derivation.pd_calls"]
            build()
            assert tracer.counts["derivation.pd_calls"] > calls
    finally:
        tracer.uninstall()
    assert tracer.counts["construction.states"] > 0
    after = _hairpin_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer._on_gc not in gc.callbacks
