"""Helper interpreter: the speed kernel and the eigenvalue oracle, out of process.

The benchmark starts one helper per run and asks it, over a pipe, to time
the reference kernel (speed.py) or to compute a spectral radius for the
gate. The helper never imports cantorvis and runs with the garbage collector
off, so nothing the program does to its own interpreter (gc thresholds,
gc.freeze, a large retained heap, numpy loaded or not) moves the kernel's
timing or shows in the benchmark process's peak RSS. It exits when its
standard input closes.

    python3 perfbench/helper.py      # serve requests on stdin/stdout
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def serve() -> None:
    gc.disable()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import gate
    import speed
    for line in sys.stdin:
        op, _, arg = line.strip().partition(" ")
        if op == "kernel":
            t0 = time.perf_counter()
            speed.kernel()
            reply = time.perf_counter() - t0
        elif op == "rho":
            reply = gate.numpy_spectral_radius(json.loads(arg))
        elif op == "state":
            reply = {"gc_enabled": gc.isenabled(), "gc_threshold": gc.get_threshold(),
                     "cantorvis_loaded": "cantorvis" in sys.modules}
        else:
            reply = f"unknown request {op!r}"
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Helper:
    """Client side of one helper process."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.kernel_times: list[float] = []

    def _ask(self, line: str):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("helper process ended")
        return json.loads(reply)

    def calibrate(self) -> float:
        """Seconds the speed kernel takes now."""
        t = self._ask("kernel")
        self.kernel_times.append(t)
        return t

    def spectral_radius(self, adjacency) -> float:
        return self._ask("rho " + json.dumps([list(row) for row in adjacency]))

    def state(self) -> dict:
        return self._ask("state")

    def kernel_median(self) -> float:
        return statistics.median(self.kernel_times) if self.kernel_times else float("nan")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
