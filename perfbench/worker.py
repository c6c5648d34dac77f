"""One cold workload process: set up, then run each op it is sent.

Speaks one JSON object per line.  The first line it reads is the job,

    {"src": directory holding the cychom package, "spec": spec path,
     "trace": bool}

and once set-up is done it prints {"t_ready": monotonic time}.  Then each
line {"op": [argv, ...]} is one op: its argv lists go through
`cychom.cli.main` one after another, and it prints {"ms": latency,
"calls": captured outputs}.  The line {"end": true}, or the end of its
input, makes it print this process's CPU time and peak RSS, and with
"trace" the outside-in layer trace, and exit.
"""

import contextlib
import io
import json
import resource
import sys
import time


def _call(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:          # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:           # counted as a failed op, never fatal
            err.write(f"{type(exc).__name__}: {exc}")
            rc = -1
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def _send(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> None:
    job = json.loads(sys.stdin.readline())
    sys.path.insert(0, job["src"])
    from cychom import cli
    from cychom.algebra import algebra_from_spec
    if not cli.__file__.startswith(job["src"] + "/"):
        raise SystemExit(f"imported cychom from {cli.__file__}, not {job['src']}")
    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    with open(job["spec"]) as fh:
        algebra_from_spec(json.load(fh))
    _send({"t_ready": time.monotonic()})

    for line in sys.stdin:
        msg = json.loads(line)
        if "op" not in msg:
            break
        t0 = time.perf_counter()
        calls = [_call(cli, argv) for argv in msg["op"]]
        _send({"ms": (time.perf_counter() - t0) * 1e3, "calls": calls})

    ru = resource.getrusage(resource.RUSAGE_SELF)
    result = {"cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mib": ru.ru_maxrss / 1024}
    if tracer is not None:
        result["trace"] = tracer.report()
    _send(result)


if __name__ == "__main__":
    main()
