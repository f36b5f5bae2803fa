"""List every line of ``src/recency`` that Tier-1 does not execute.

Runs the test suite, ``tests/test_acceptance.py`` deselected, under a
stdlib ``sys.settrace`` line tracer and prints ``file:line`` for each
line inside a function, method or comprehension of ``src/recency`` that
no test ran.  Module-level lines, which run on import, are not counted.
Exits 1 when such a line exists or a test fails, 0 otherwise.

    PYTHONPATH=src python tests/line_coverage.py [extra pytest arguments]

Nothing from ``recency`` may be imported before the tracer starts, so the
script imports only the standard library until then.  Lines run in a
worker process (``RECENCY_THREADS`` > 1) or a subprocess are not seen.
"""

import dis
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "recency")


def executable_lines(path):
    """The lines of ``path`` that hold an instruction of a function,
    method or comprehension body; a def line holds only the entry
    instruction, which reports no line event."""
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    lines, todo = set(), [c for c in module.co_consts if isinstance(c, types.CodeType)]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        lines |= {ins.positions.lineno for ins in dis.get_instructions(code)
                  if ins.opname != "RESUME" and ins.positions.lineno is not None}
    return lines


def main(argv):
    if any(name == "recency" or name.startswith("recency.") for name in sys.modules):
        sys.exit("recency was imported before the tracer started")
    executed = {}

    def trace_calls(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE + os.sep):
            return None
        seen = executed.setdefault(path, set())

        def trace_lines(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        import pytest

        # node ids, which --deselect matches, are relative to the rootdir
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
                              os.path.join(ROOT, "tests"),
                              "--deselect", "tests/test_acceptance.py", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            missed += [(name, line) for line in
                       sorted(executable_lines(path) - executed.get(path, set()))]
    for name, line in missed:
        print(f"src/recency/{name}:{line}")
    print(f"{len(missed)} unexecuted line(s) in src/recency")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
