"""Report the lines of src/spp_teleport that no command-level test run reaches.

Run from the repository root:

    python tests/reach.py

It runs tests/test_cli.py, tests/test_golden.py and tests/test_examples.py
under pytest with a sys.settrace line hook. The hook is loaded by a
sitecustomize module in a temporary directory put first on PYTHONPATH, so it
also follows the CLI subprocesses those tests start. Each traced process writes
the (file, line) pairs it reached when it exits. The script then prints, per
module, every executable line (a line some code object lists in co_lines) that
no process reached, with the function that holds it, and the total on its last
line. It uses only the standard library; pytest runs the tests; pytest does not
collect this file.

It exits 1 when pytest fails, when an unreached line lies outside the functions
ALLOWED_UNREACHED lists, or when an entry there holds no unreached line. An
entry is keyed by module and function, so it does not move with line numbers.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "spp_teleport"
TESTS = ("tests/test_cli.py", "tests/test_golden.py", "tests/test_examples.py")

_STEP_B = "a per-object form kept for the benchmark's traced names; ROADMAP item 2 Step B moves it to the tests"
_GUARD = "output's contract (no NaN is written, columns are well formed): a guard that every command's data meet"
# "module.function" (a method as "module.Class.method", module-level code as "module.<module>"): why no
# command-level test reaches some of its lines
ALLOWED_UNREACHED = {
    "channel.apply_channel": _STEP_B,
    "counts.load_counts_csv": _STEP_B,
    "counts.correlation": _STEP_B,
    "protocol.bell_decompose": _STEP_B,
    "protocol.apply_correction": _STEP_B,
    "protocol.run_teleportation": _STEP_B,
    "qcore.MixedState.__post_init__": _STEP_B,
    "qcore.tensor": _STEP_B,
    "qcore.fidelity_pure": _STEP_B,
    "qcore.bloch_of": _STEP_B,
    "qcore.state_from_bloch": _STEP_B,
    "tomo.sample_measurements": _STEP_B,
    "qcore.density_matrices": "its ValueError guards: only a fault in the package builds a matrix that fails them",
    "output._label": "a label that would need CSV quoting: every label a command writes is a fixed name",
    "output._csv_cell": "an int or a non-finite cell: the rows commands write hold labels and finite floats",
    "output._json_objects": "the empty table: every command writes at least one row",
    "output._nested_template": "an empty list: every matrix a command writes has rows",
    "output.write_table": _GUARD,
    "output._json_column": _GUARD,
    "output.write_json_rows": _GUARD,
    "tomo.qst_reconstruct": "a basis without counts: simulate reconstructs only branches with a shot per basis",
    "cli.<module>": "the __main__ entry: the tests call main() or run the installed console script",
}

# written as sitecustomize.py; {package} and {out} are filled in
_HOOK = """\
import atexit, os, sys, threading

_PACKAGE, _OUT, _seen, _inside = {package!r}, {out!r}, set(), {{}}


def _line(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _inside:
        _inside[name] = os.path.realpath(name).startswith(_PACKAGE)
    if _inside[name]:
        _seen.add((name, frame.f_lineno))
        return _line
    return None


@atexit.register
def _dump():
    with open(os.path.join(_OUT, f"{{os.getpid()}}.txt"), "w") as f:
        f.writelines(f"{{os.path.realpath(name)}}\\t{{line}}\\n" for name, line in _seen)


sys.settrace(_call)
threading.settrace(_call)  # tomo.monte_carlo_errors draws on a thread pool
"""


def executable_lines(path: Path) -> dict:
    """{line: function} for every line a code object compiled from `path` lists in co_lines. The function
    is the innermost def or class holding the line, as "Class.method", or "<module>"; a lambda's or a
    comprehension's lines belong to the def around it."""
    lines, stack = {}, [(compile(path.read_text(), str(path), "exec"), "")]
    while stack:  # outer code objects first, so an inner one's name replaces theirs
        code, outer = stack.pop(0)
        name = outer if code.co_name.startswith("<") else f"{outer}.{code.co_name}".lstrip(".")
        lines.update((line, name or "<module>") for _, _, line in code.co_lines() if line)
        stack.extend((c, name) for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    package = os.path.realpath(PACKAGE_DIR) + os.sep
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "reached")
        out.mkdir()
        Path(tmp, "sitecustomize.py").write_text(_HOOK.format(package=package, out=str(out)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [tmp, os.environ.get("PYTHONPATH")]))}
        status = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *TESTS],
                                cwd=ROOT, env=env).returncode
        reached = {tuple(row.rsplit("\t", 1)) for dump in out.iterdir() for row in dump.read_text().splitlines()}
    missed = total = 0
    holding = set()  # the functions that hold an unreached line
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(line for line in lines if (os.path.realpath(path), str(line)) not in reached)
        total += len(lines)
        missed += len(unreached)
        source = path.read_text().splitlines()
        print(f"{path.name}: {len(unreached)} of {len(lines)} executable lines unreached")
        for line in unreached:
            function = f"{path.stem}.{lines[line]}"
            holding.add(function)
            mark = "" if function in ALLOWED_UNREACHED else "  NOT ALLOWED"
            print(f"  {line:4d}  {function}{mark}: {source[line - 1].strip()}")
    unlisted, stale = sorted(holding - ALLOWED_UNREACHED.keys()), sorted(ALLOWED_UNREACHED.keys() - holding)
    for function in unlisted:
        print(f"unreached and not in ALLOWED_UNREACHED: {function}")
    for function in stale:
        print(f"in ALLOWED_UNREACHED but holds no unreached line: {function}")
    print(f"total: {missed} of {total} executable lines unreached")
    return status or int(bool(unlisted or stale))


if __name__ == "__main__":
    sys.exit(main())
