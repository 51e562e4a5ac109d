"""The benchmark against the library as it is: a deleted or renamed
function that `perfbench/` wraps, or a parameter that one of its calls
passes and the library no longer takes, fails here, not in a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look it up by name
    return module


def test_tracer_installs_and_self_tests():
    tracing = load("tracing")
    tracer = tracing.Tracer()
    try:  # imports every relkit module, wraps every TRACED site, self-tests
        tracer.install()
    finally:
        tracer.uninstall()
    for modname, names in tracing.REQUIRED_SITES.items():
        for name in names:
            assert not hasattr(getattr(sys.modules[modname], name),
                               "__wrapped_original__")


def test_workload_calls_bind_to_library_signatures():
    """Every `<relkit module>.<name>(...)` and `fails.run(<relkit
    module>.<name>, ...)` call in the workloads binds its positional count
    and keyword names to the callee's signature."""
    workloads = load("workloads")
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: importlib.import_module(f"relkit.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "relkit"
               for alias in node.names}
    relhead, synth = modules["relhead"], modules["synth"]

    def callee(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            return getattr(modules[node.value.id], node.attr)
        return None

    bound, unbound = set(), []
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        fn, args = callee(call.func), call.args
        if fn is None and ast.unparse(call.func) == "fails.run":
            fn, args = callee(args[0]), args[1:]
        if fn is None:
            continue
        keywords = [k.arg for k in call.keywords]
        # predict_scene forwards *args and **kwargs to predict_batch
        signature = inspect.signature(relhead.predict_batch if fn is relhead.predict_scene
                                      else fn)
        if fn is synth.SynthConfig and keywords == [None]:  # SynthConfig(**profile.synth)
            calls = [((), profile.synth) for profile in workloads.PROFILES.values()]
        else:
            assert None not in keywords and not any(isinstance(a, ast.Starred) for a in args), \
                f"workloads.py:{call.lineno}: unpacked arguments: {ast.unparse(call)}"
            calls = [(range(len(args)), dict.fromkeys(keywords))]
        for positional, named in calls:
            try:
                signature.bind(*positional, **named)
            except TypeError as exc:
                unbound.append(f"workloads.py:{call.lineno}: {ast.unparse(call)}: {exc}")
        bound.add(fn.__name__)
    assert not unbound, "\n".join(unbound)
    assert {"train", "predict_scene", "SynthConfig", "extract_from_text"} <= bound
