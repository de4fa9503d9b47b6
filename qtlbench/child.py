"""One benchmark run in a fresh process: a single ``qtlsim.cli.main(argv)`` call.

usage: python3 child.py RESULT_JSON PHASE TRACE -- QTLSIM_ARGS...

PHASE names the ``qtlsim.training`` function (``train`` or ``evaluate``)
whose first call ends set-up; the time spent inside it is the work the
throughput metric divides by. TRACE is 1 to install the outside-in
tracer, 0 for a timed run whose only hook is that phase boundary.
Timestamps are ``time.monotonic()`` (CLOCK_MONOTONIC), which the parent
process shares, so it can measure from before this process started.
"""
import json
import resource
import sys
import time

from tracer import Tracer, rebind


def phase_hook(training, phase: str, marks: dict):
    """Record first entry into and last outermost exit from ``training.<phase>``."""
    original = getattr(training, phase)
    depth = 0

    def timed(*args, **kwargs):
        nonlocal depth
        if depth == 0:
            marks.setdefault("t_phase_start", time.monotonic())
        depth += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth -= 1
            if depth == 0:
                marks["t_phase_end"] = time.monotonic()

    rebind(original, timed)


def peak_rss_kb() -> int:
    """High-water resident set size of this process image, in KiB.

    ``ru_maxrss`` is not used on Linux: execve keeps the high-water mark of
    the address space the process had before, which here is the parent's.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    result_path, phase, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py RESULT_JSON PHASE TRACE -- QTLSIM_ARGS...")
    argv = sys.argv[5:]

    import qtlsim.cli as cli
    import qtlsim.training as training

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    marks = {}
    phase_hook(training, phase, marks)

    exit_code = cli.main(argv)
    marks["t_end"] = time.monotonic()
    sys.stdout.flush()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = dict(marks, exit_code=exit_code, peak_rss_kb=peak_rss_kb(),
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  trace=tracer.summary() if tracer else None)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
