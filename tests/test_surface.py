"""Guards on the package's surface: nothing the benchmark traces goes missing,
and nothing that no command or traced span reaches comes back."""

import ast
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "spp_teleport"

# Run in a fresh interpreter that imports the package as perfbench/worker.py
# does, so only what that import loads is there for the tracer to wrap.
_TRACED_PROBE = """\
import inspect, json, sys
sys.path.insert(0, sys.argv[1])
from spp_teleport import cli
sys.path.insert(0, sys.argv[2])
import tracer

absent, unresolved = [], []
for module, path, _ in tracer.SPANS + tracer.COUNTED:
    name = f"{tracer.PACKAGE}.{module}"
    if name not in sys.modules:
        absent.append(name)
        continue
    owner, attr = tracer._resolve(sys.modules[name], path)
    if owner is None or attr not in vars(owner):
        unresolved.append(f"{module}.{path}")
tomo = sys.modules[tracer.PACKAGE + ".tomo"]
print(json.dumps({
    "absent": absent,
    "unresolved": unresolved,
    "parameters": {fn: list(inspect.signature(getattr(tomo, fn)).parameters)
                   for fn in ("monte_carlo_errors", "qst_reconstruct")},
}))
"""


def test_every_traced_name_exists_after_the_cli_import():
    # perfbench skips a traced name it cannot find and prints fewer metrics;
    # a traced name may be neither deleted nor renamed
    out = subprocess.run([sys.executable, "-c", _TRACED_PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
                         capture_output=True, text=True, check=True).stdout
    probe = json.loads(out)
    assert probe["absent"] == []
    assert probe["unresolved"] == []
    # the tracer reads these parameters by name
    assert {"trials", "statistic"} <= set(probe["parameters"]["monte_carlo_errors"])
    assert "max_likelihood" in probe["parameters"]["qst_reconstruct"]


# Top-level names kept although nothing in src/ reads them, each with its reason.
ALLOWED_UNREFERENCED = {
    "__version__": "package metadata, read by tools",
    "CLASSICAL_PROCESS_FIDELITY_BOUND": "the published process-fidelity bound that analyze is to report against",
}


def _defined_names(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def _referenced_names(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _traced_top_level_names() -> set:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) in ("SPANS", "COUNTED") for t in stmt.targets):
            names |= {path.split(".")[0] for _, path, _ in ast.literal_eval(stmt.value)}
    return names


def test_every_top_level_name_is_referenced():
    # a name counts as used when a statement other than its own definition, in
    # src/, reads it (by name or as an attribute), or a traced span names it
    statements = [stmt for path in PACKAGE_DIR.glob("*.py") for stmt in ast.parse(path.read_text()).body]
    references = [_referenced_names(stmt) for stmt in statements]
    traced = _traced_top_level_names()
    unreferenced = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = _referenced_names(stmt)
            for name in _defined_names(stmt):
                used = sum(name in refs for refs in references) > (name in own)
                if not (used or name in traced or name in ALLOWED_UNREFERENCED):
                    unreferenced.append(f"{path.name}: {name}")
    assert not unreferenced, f"referenced nowhere: {unreferenced}"


# Defaulted parameters kept although no call in src/ passes them, each with its reason.
ALLOWED_UNPASSED_DEFAULTS = {
    "cli.main(argv)": "the entry point: perfbench and the tests call main(argv), the console script calls main()",
}


def _defaulted_parameters(fn, is_method: bool) -> dict:
    """{name: position or None} of the parameters of `fn` that have a default;
    the position is the one a call site sees, or None for keyword-only."""
    args = fn.args
    positional = args.posonlyargs + args.args
    shift = 1 if is_method and positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    params = {arg.arg: i - shift for i, arg in enumerate(positional) if i >= first}
    params.update({arg.arg: None for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None})
    return params


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call overrides is a constant, and its parameter a knob that does nothing
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    calls = {}  # called name -> [(number of positional arguments, keyword names)]
    for node in (node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)):
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        keywords = {kw.arg for kw in node.keywords}
        if None in keywords or any(isinstance(arg, ast.Starred) for arg in node.args):
            calls.setdefault(name, []).append((math.inf, set()))  # f(*args) or f(**kwargs) may pass anything
        else:
            calls.setdefault(name, []).append((len(node.args), keywords))
    unpassed = []
    for module, tree in trees.items():
        methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unpassed += [f"{module}.{fn.name}({param})"
                             for param, position in _defaulted_parameters(fn, id(fn) in methods).items()
                             if not any(param in keywords or (position is not None and n_pos > position)
                                        for n_pos, keywords in calls.get(fn.name, []))]
    assert sorted(unpassed) == sorted(ALLOWED_UNPASSED_DEFAULTS), (
        f"defaulted parameters that no call in src/ passes: {unpassed}; allowed: {list(ALLOWED_UNPASSED_DEFAULTS)}")


# Dataclasses kept although they define no behaviour, each with its reason.
ALLOWED_VALUE_ONLY_DATACLASSES = {}


def _is_dataclass_decorator(node) -> bool:
    node = node.func if isinstance(node, ast.Call) else node  # @dataclass(frozen=True) or @dataclass
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def test_every_dataclass_has_behaviour():
    # a dataclass whose body defines no method, property or __post_init__ only carries values,
    # which a tuple, a dict or the arguments of a call carry as well
    value_only = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if (isinstance(cls, ast.ClassDef) and any(map(_is_dataclass_decorator, cls.decorator_list))
                    and not any(isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) for stmt in cls.body)):
                value_only.append(f"{path.stem}.{cls.name}")
    assert sorted(value_only) == sorted(ALLOWED_VALUE_ONLY_DATACLASSES), (
        f"dataclasses without behaviour: {value_only}; allowed: {list(ALLOWED_VALUE_ONLY_DATACLASSES)}")


def test_every_tolerance_comparison_passes_rtol():
    # np.allclose and np.isclose add rtol=1e-5 times |second operand| to atol unless told
    # otherwise, so an absolute tolerance without rtol=... is wider than it reads
    missing = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("allclose", "isclose")
                    and "rtol" not in {kw.arg for kw in node.keywords}):
                missing.append(f"{path.name}:{node.lineno}")
    assert not missing, f"np.allclose / np.isclose without rtol=: {missing}"


def test_every_exception_class_maps_to_an_exit_code():
    # main exits 2 on ConfigError and 3 on DataError; anything else is a fault in the package and ends in a
    # traceback, so the package defines no exception class of a third kind
    from spp_teleport import cli, output

    unmapped = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = importlib.import_module(f"spp_teleport.{path.stem}" if path.stem != "__init__" else "spp_teleport")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                if not (obj is cli.ConfigError or issubclass(obj, output.DataError)):
                    unmapped.append(f"{path.stem}.{name}")
    assert not unmapped, f"exception classes that are neither ConfigError nor a DataError: {unmapped}"


def test_every_file_read_and_write_names_its_encoding():
    # without encoding= a text file is read or written in the locale's encoding, so whether a config or a CSV
    # reads, and the bytes a run writes, would depend on the locale
    missing = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        parsers = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                   and isinstance(node.value, ast.Call) and getattr(node.value.func, "attr", None) == "ConfigParser"
                   for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (getattr(func, "id", None) == "open" or getattr(func, "attr", None) in ("read_text", "write_text")
                    or getattr(func, "attr", None) == "read" and getattr(func.value, "id", None) in parsers):
                if "encoding" not in {kw.arg for kw in node.keywords}:
                    missing.append(f"{path.name}:{node.lineno}")
    assert not missing, f"file reads and writes without encoding=: {missing}"
