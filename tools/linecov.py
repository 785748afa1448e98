"""Line coverage of ``src/vlaad`` under the tier-1 tests, standard library only.

Usage, from the root of a checkout::

    python tools/linecov.py [extra pytest arguments]

It runs ``python -m pytest -q --continue-on-collection-errors`` with a
``sitecustomize`` module first on ``PYTHONPATH``.  That module installs a
``sys.settrace``/``threading.settrace`` tracer in every Python process that
starts with that path, so a test's child processes are traced too (Python
3.11 has no ``sys.monitoring``).  Each process writes the lines it ran in
``src/vlaad`` beside the module when it exits.

A line is executable when a code object compiled from the file names it in
``co_lines``.  Every executable line that no process ran and that
``ALLOWED`` does not name is printed as ``path:line: source``.  The exit
status is 1 when there is one such line, an ``ALLOWED`` entry that does not
name exactly one unrun line, or a failing test; else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vlaad"

# (file, stripped source line) -> why no test can run it
ALLOWED = {
    ("mil.py", "from .datakit import ClipRecord"):
        "imported for annotations only, under TYPE_CHECKING: importing it at "
        "run time would be circular (datakit imports mil)",
    ("embeddings.py", "..."):
        "the body of the EncoderHandle Protocol's method: a Protocol is never "
        "called, only the encoders that match it",
}

# Written to a fresh directory that goes first on PYTHONPATH.  Kept small:
# every Python process the tests start imports it.
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_PREFIX = {prefix!r}
_OUT = os.path.dirname(os.path.abspath(__file__))
_hits = set()


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    _hits.add((name, frame.f_lineno))
    return _local


def _dump():
    sys.settrace(None)
    path = os.path.join(_OUT, "lines.%d.%s" % (os.getpid(), os.urandom(4).hex()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("%s\\t%d\\n" % hit for hit in _hits)


atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
'''


def executable_lines(path: Path) -> set:
    """Every line that a code object compiled from ``path`` names."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv) -> int:
    with tempfile.TemporaryDirectory(prefix="linecov.") as out:
        Path(out, "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(prefix=str(PACKAGE) + os.sep), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [out, str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        tests = subprocess.run([sys.executable, "-m", "pytest", "-q",
                                "--continue-on-collection-errors", *argv],
                               cwd=ROOT, env=env).returncode
        ran = set()
        for dump in Path(out).glob("lines.*"):
            for row in dump.read_text(encoding="utf-8").splitlines():
                name, line = row.rsplit("\t", 1)
                ran.add((name, int(line)))

    total = missed = 0
    allowed = dict.fromkeys(ALLOWED, 0)  # entry -> unrun lines it names
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) in ran:
                continue
            text = source[line - 1].strip()
            if (path.name, text) in allowed:
                allowed[path.name, text] += 1
                continue
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    stale = [entry for entry, count in allowed.items() if count != 1]
    for entry in stale:  # an entry names exactly one unrun line
        print(f"allowed entry {entry} names {allowed[entry]} unrun lines, not 1")
    run = total - missed - sum(allowed.values())
    print(f"linecov: {run} of {total} executable lines run, {sum(allowed.values())} "
          f"allowed unrun, {missed} unrun; pytest exit {tests}")
    return 1 if missed or stale or tests else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
