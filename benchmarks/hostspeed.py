"""Fixed kernels, owned by the benchmark, that measure the host's current speed.

The shared host alternates between a fast and a slow phase; phases flip
within a second, and their mix drifts over minutes.  Timings are rescaled
by a kernel's time taken in the same process and next to them in time, so
that a run reports them at one reference speed whatever phase it met.

Different work slows by different factors in the slow phase, so each
workload is rescaled by the kernel shaped like its own work:

- ``import``: unmarshal a code object and run it; the code defines frozen
  dataclasses, which ``dataclasses`` builds by compiling generated source,
  much as importing ``doilyspace`` and rendering its output do.
- ``bitmask``: a scan of 11-bit masks against 3-point lines, frozensets as
  dict keys, and JSON and DOT-like rendering, much as the incidence layer's
  scans and searches do.

    python3 benchmarks/hostspeed.py    # prints one probe time of each kernel
"""

from __future__ import annotations

import gc
import json
import marshal
import sys
import time

REPEATS = 3
# a child writes this, the probe time and its own CPU time to stderr
MARKER = "hostspeed-probe-s"

_SOURCE = "from dataclasses import dataclass, field\n" + "".join(
    f"""
@dataclass(frozen=True)
class Point{i}:
    index: int = {i}
    label: str = "p{i}"
    lines: tuple = field(default=())

    def meets(self, mask: int) -> bool:
        return bool(mask >> self.index & 1)
""" for i in range(8))
_BLOB = marshal.dumps(compile(_SOURCE, "<hostspeed>", "exec", dont_inherit=True))


def _import_kernel() -> float:
    start = time.perf_counter()
    namespace: dict = {"__name__": "hostspeed_kernel"}
    exec(marshal.loads(_BLOB), namespace)
    if len(namespace) < 8:  # keep the result alive
        raise AssertionError
    return time.perf_counter() - start


_LINES = tuple([0b111 << i for i in range(0, 12, 3)]
               + [0b1001001 << i for i in range(3)]
               + [0b100010001, 0b1010100, 0b10000100001])


def _bitmask_kernel() -> float:
    start = time.perf_counter()
    found = 0
    for m in range(1, 1 << 11):
        for lm in _LINES:
            hit = (lm & m).bit_count()
            if hit != 1 and hit != 3:
                break
        else:
            found += 1
    keys = {frozenset((i, i + 1, i + 2)): i for i in range(1500)}
    total = sum(keys[frozenset((i, i + 1, i + 2))] for i in range(1500))
    rows = [{"label": f"{i}{i + 1}", "role": "core" if i % 3 else "sector",
             "points": sorted((i, i * 7 % 13, i * 5 % 11))} for i in range(300)]
    text = json.dumps(rows, indent=2) + "\n".join(
        f'  "{r["label"]}" -- "{r["points"][0]}" [role={r["role"]}];' for r in rows)
    if found + total + len(text) <= 0:  # keep every result alive
        raise AssertionError
    return time.perf_counter() - start


# name: (kernel, its time on the reference host in the fast phase, 2 vCPUs,
# Python 3.11.7).  Rescaled times are times at that speed.
KERNELS = {
    "import": (_import_kernel, 0.005),
    "bitmask": (_bitmask_kernel, 0.0033),
}


def scale(probe_s: float, kernel: str) -> float:
    """Factor that takes a time measured next to ``probe_s`` to the reference speed."""
    return KERNELS[kernel][1] / probe_s


def probe(kernel: str = "import") -> float:
    """Wall seconds of the fastest of ``REPEATS`` runs of a kernel.

    The fastest run drops the first run's cold caches and any preemption.
    The cyclic collector is off while the kernel runs: a collection would
    walk this process's heap, and so tie the kernel's time to the caches of
    the code under test.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return min(KERNELS[kernel][0]() for _ in range(REPEATS))
    finally:
        if gc_was_enabled:
            gc.enable()


def report(cpu0: float) -> None:
    """Probe with the ``import`` kernel; write ``MARKER <probe s> <CPU s since cpu0>``.

    For a child process: ``cpu0`` is its ``time.process_time()`` when its
    timed part ended, so the parent can take the probe's CPU time out.
    """
    seconds = probe()
    sys.stderr.write(f"{MARKER} {seconds!r} {time.process_time() - cpu0!r}\n")  # to stderr
    sys.stderr.flush()


def parse(stderr: bytes) -> tuple[float, float] | None:
    """``(probe s, CPU s after the timed part)`` as a child reported them, or None."""
    for line in reversed(stderr.decode("utf-8", "replace").splitlines()):
        if line.startswith(MARKER + " "):
            _, seconds, cpu = line.split()
            return float(seconds), float(cpu)
    return None


if __name__ == "__main__":
    for name in KERNELS:
        print(name, probe(name))
