"""Record which functions of ``src/repro`` a process enters.

Put this directory first on ``PYTHONPATH`` and set ``REACH_OUT`` to a
directory: every Python process started with that environment (and so
every subprocess a harness spawns) imports this module at start-up and,
when it exits, appends one ``file<TAB>first line<TAB>name`` line per
``src/repro`` code object it entered to ``$REACH_OUT/<pid>.txt``.
Without ``REACH_OUT`` it does nothing.

Only function entry is recorded.  On Python 3.12+ each code object costs
one ``sys.monitoring`` callback, after which the event is disabled for
it; older interpreters fall back to a call-only ``sys.settrace`` hook.
"""

import atexit
import os
import sys

_OUT = os.environ.get("REACH_OUT")
_MARK = os.sep + os.path.join("src", "repro") + os.sep
_seen = set()


def _record(code):
    if _MARK in code.co_filename:
        _seen.add(code)


def _dump():
    with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "a", encoding="utf-8") as out:
        for code in _seen:
            relative = code.co_filename.split(_MARK, 1)[1].replace(os.sep, "/")
            out.write(f"{relative}\t{code.co_firstlineno}\t{code.co_name}\n")


def _install_monitoring(monitoring):
    tool = monitoring.COVERAGE_ID
    monitoring.use_tool_id(tool, "reachability")

    def start(code, _offset):
        _record(code)
        return monitoring.DISABLE

    monitoring.register_callback(tool, monitoring.events.PY_START, start)
    monitoring.set_events(tool, monitoring.events.PY_START)


def _install_trace():
    import threading

    def tracer(frame, _event, _arg):
        _record(frame.f_code)
        return None  # call events only: no per-line cost

    sys.settrace(tracer)
    threading.settrace(tracer)


if _OUT:
    if hasattr(sys, "monitoring"):
        _install_monitoring(sys.monitoring)
    else:
        _install_trace()
    atexit.register(_dump)
