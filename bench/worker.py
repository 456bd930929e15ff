"""Run one workload's commands through ``proxdyn.cli.main`` in this process.

Usage: python3 worker.py SPEC.json

The spec names the checkout's ``src`` directory, the run directory, the
commands (argv lists in which ``{out}`` stands for the round's output
directory), the seconds to measure and whether to trace.  Rounds of all the
commands run one after another until the seconds are spent; every round is
whole.  In an untraced round a fixed reference piece of work is timed
before the first command and after each command; a command's time divided
by the mean of the two references around it is its cost at the machine's
speed of that moment.  Without tracing, one fresh interpreter is launched
after each round and timed up to ``import proxdyn.cli``, and scaled the same
way.  With tracing, an untraced and a traced round alternate, so the tracing
overhead is measured in the same process.  The result, with the times of each round, the launch times
and this process's peak RSS read after the last round, is written to
``result.json`` in the run directory; the spans go to ``spans.json``.
"""

import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

# About the median time of reference_seconds() on the reference machine (64
# and 69 ms in two runs of several minutes); it turns a command's time in
# reference units back into seconds at that machine's typical speed.
REF_NOMINAL_S = 0.065
_ONE = np.ones(1)


def reference_seconds():
    """Seconds this process takes for a fixed piece of interpreter and numpy work.

    Taken before and after each command of an untraced round and each
    launch, it measures how fast the shared machine runs this process at
    that moment: the mix of a Python loop and one-element numpy calls is
    what the dim-1 workloads do.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(200000):
        total += i * 0.5
    x = _ONE
    for _ in range(20000):
        x = np.maximum(x * 0.5 + _ONE, 0.0)
    return time.perf_counter() - start


def launch_seconds(src):
    """Seconds from launching an interpreter until ``import proxdyn.cli`` is done.

    The child prints the monotonic clock, which all processes share, as soon
    as the import returns.
    """
    code = ("import sys, time; sys.path.insert(0, %r); import proxdyn.cli; "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC))" % src)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, check=True, timeout=60)
    return float(done.stdout) - start


def run_command(cli, argv):
    """Call cli.main(argv); return its exit code, or None if it raised."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception:  # an uncaught error of the program is a failed operation
        code = None
        stderr.write(traceback.format_exc())
    return code, stdout.getvalue(), stderr.getvalue()


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import proxdyn.cli as cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("proxdyn was imported from %s, not from %s" % (cli.__file__, src))
    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # this script's directory leads sys.path

        tracer = Tracer()

    # One core for the worker and every process it launches: the reference
    # then measures the core that the commands and launches run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    rounds = []
    launches = []
    if not spec["trace"]:
        # Unmeasured: leaves the bytecode and page caches as a user of an
        # installed package finds them.
        launch_seconds(spec["src"])
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < spec["seconds"] or (tracer and len(rounds) % 2):
        traced = tracer is not None and len(rounds) % 2 == 1
        out = os.path.join(spec["run_dir"], "round%d" % len(rounds))
        os.makedirs(out)
        argvs = [[arg.replace("{out}", out) for arg in argv] for argv in spec["commands"]]
        results = []
        gc.collect()
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed(cli))
                stack.enter_context(tracer.round())
            refs = [] if traced else [reference_seconds()]
            command_s = []
            for argv in argvs:
                begin = time.perf_counter()
                results.append(run_command(cli, argv))
                command_s.append(time.perf_counter() - begin)
                if not traced:
                    refs.append(reference_seconds())
        for i, (_, stdout, stderr) in enumerate(results):
            with open(os.path.join(out, "cmd%d.stdout" % i), "w") as fh:
                fh.write(stdout.replace(out, "{out}"))
            with open(os.path.join(out, "cmd%d.stderr" % i), "w") as fh:
                fh.write(stderr.replace(out, "{out}"))
        # Each command's time at the machine's typical speed: against the
        # mean of the reference just before and just after it.
        scaled = sum(t * 2 * REF_NOMINAL_S / (a + b) for t, a, b in zip(command_s, refs, refs[1:]))
        rounds.append({"dir": out, "wall_s": sum(command_s), "scaled_wall_s": scaled, "traced": traced,
                       "command_s": command_s, "refs": refs,
                       "codes": [r[0] for r in results]})
        if not spec["trace"]:
            # Scaled like a command, between the round's last reference and
            # one more.
            seconds = launch_seconds(spec["src"])
            after = reference_seconds()
            launches.append({"s": seconds, "scaled_s": seconds * 2 * REF_NOMINAL_S / (refs[-1] + after)})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open(os.path.join(spec["run_dir"], "result.json"), "w") as fh:
        json.dump({"rounds": rounds, "launches": launches, "peak_rss_kb": peak_kb}, fh)
    if tracer is not None:
        with open(os.path.join(spec["run_dir"], "spans.json"), "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    main(sys.argv[1])
