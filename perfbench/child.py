"""One benchmark pass, run in a fresh interpreter by run.py.

Usage: python3 perfbench/child.py '<job json>'

The job is {"commands": [[argv...], ...], "trace": bool}.  An empty command
list only imports the package (warm-up and set-up probes).  The child imports
pascent.cli first, so the time from spawn to ``imported`` is the set-up a CLI
user pays, then runs every command through ``pascent.cli.main`` with stdout
captured into a SHA-256 sink, and prints one JSON object on its real stdout.
The object carries reference-loop times taken after the import and every
SAMPLE_INTERVAL_S while the commands run; run.py turns them into the
machine's speed during this pass.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import pascent.cli  # noqa: E402  (the import is the set-up being timed)

IMPORTED = time.monotonic()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402

SAMPLE_INTERVAL_S = 0.05
REFERENCE_ITERATIONS = 5000
SETUP_SAMPLES = 5


def reference_s() -> float:
    """Time one fixed run of dict and integer bytecode, the machine's current speed."""
    start = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = i & 31
        acc[key] = acc.get(key, 0) + i * i
    return time.perf_counter() - start


class SpeedSampler:
    """Times reference_s() every SAMPLE_INTERVAL_S of wall time from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so the samples
    follow the machine's speed while the commands run.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, _signum, _frame) -> None:
        self.samples.append(reference_s())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


class _DigestSink(io.RawIOBase):
    """Raw byte sink that keeps a SHA-256, a byte count and, on request, the bytes."""

    def __init__(self, keep: bool):
        super().__init__()
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.kept = bytearray() if keep else None

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha.update(data)
        self.nbytes += len(data)
        if self.kept is not None:
            self.kept += data
        return len(data)


def _clear_caches() -> None:
    # Each CLI invocation starts with cold lru_caches (verify._bundle,
    # patterns._a012); clearing them keeps one process per pass from letting
    # a later command reuse an earlier one's tables, so the command order
    # chosen by the seed does not change the total work.
    for name, module in list(sys.modules.items()):
        if name == "pascent" or name.startswith("pascent."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _bad_reports(text: bytes) -> int:
    """Number of verify JSON lines whose status is not "pass"."""
    bad = 0
    for line in text.decode("utf-8", "replace").splitlines():
        try:
            bad += json.loads(line).get("status") != "pass"
        except (ValueError, AttributeError):
            bad += 1
    return bad


def run_command(argv: list[str]) -> dict:
    """Run one CLI command; never raises, a crash is reported as its exit code."""
    _clear_caches()
    is_verify = bool(argv) and argv[0] == "verify"
    sink = _DigestSink(keep=is_verify)
    stream = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    saved = sys.stdout
    sys.stdout = stream
    try:
        code = pascent.cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is one failed command; keep running the rest
        traceback.print_exc()
        code = "exception"
    finally:
        sys.stdout = saved
        stream.close()
    return {
        "exit_code": code,
        "stdout_sha256": sink.sha.hexdigest(),
        "stdout_bytes": sink.nbytes,
        "bad_reports": _bad_reports(sink.kept) if is_verify else 0,
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    tracer = None
    if job.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    setup_samples = [reference_s() for _ in range(SETUP_SAMPLES)]
    with SpeedSampler() as sampler:
        first = time.perf_counter()
        results = [run_command(argv) for argv in job["commands"]]
        wall_s = time.perf_counter() - first
    out = {
        "imported": IMPORTED,
        "wall_s": wall_s,
        "results": results,
        "setup_samples": setup_samples,
        "samples": sampler.samples,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["fired"] = dict(tracer.fired)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
