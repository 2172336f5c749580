"""Report the lines of src/spp_teleport that no command-level test run reaches.

Run from the repository root:

    python tests/reach.py

It runs tests/test_cli.py, tests/test_golden.py and tests/test_examples.py
under pytest with a sys.settrace line hook. The hook is loaded by a
sitecustomize module in a temporary directory put first on PYTHONPATH, so it
also follows the CLI subprocesses those tests start. Each traced process writes
the (file, line) pairs it reached when it exits. The script then prints, per
module, every executable line (a line some code object lists in co_lines) that
no process reached, and the total. It uses only the standard library; pytest
runs the tests. Its exit status is pytest's. pytest does not collect this file.
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


def executable_lines(path: Path) -> set:
    """Every line number a code object compiled from `path` lists in co_lines."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
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
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(line for line in lines if (os.path.realpath(path), str(line)) not in reached)
        total += len(lines)
        missed += len(unreached)
        source = path.read_text().splitlines()
        print(f"{path.name}: {len(unreached)} of {len(lines)} executable lines unreached")
        for line in unreached:
            print(f"  {line:4d}  {source[line - 1].strip()}")
    print(f"total: {missed} of {total} executable lines unreached")
    return status


if __name__ == "__main__":
    sys.exit(main())
