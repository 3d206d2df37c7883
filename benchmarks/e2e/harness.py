"""Shared plumbing of the e2e benchmark: process accounting, the
repeatability rules, the estimators, and the SUT process handle.

Nothing here knows about a particular workload.
"""

from __future__ import annotations

import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: Records are 100 B keyless on the wire: 10 B header + 90 B value.
RECORD_SIZE = 100
VALUE_SIZE = 90

#: A hung SUT is killed after this many seconds without an answer on the
#: control channel; the workload then reports failure, not a number.
SUT_TIMEOUT_S = 60.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchFailure(RuntimeError):
    """The run cannot produce a trustworthy number (SUT hung, check failed)."""


# -- /proc accounting (no psutil on this machine) ------------------------------


def cpu_seconds(pid: int) -> float:
    """utime + stime of one process, in seconds; 0.0 once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            data = f.read()
    except OSError:
        return 0.0
    # comm may contain spaces/parens: fields resume after the last ')'.
    fields = data[data.rindex(b")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def rss_bytes(pid: int, *, peak: bool = False) -> int:
    """Resident set (``VmRSS``) or its high-water mark (``VmHWM``)."""
    key = b"VmHWM:" if peak else b"VmRSS:"
    try:
        with open(f"/proc/{pid}/status", "rb") as f:
            for line in f:
                if line.startswith(key):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie does not)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            data = f.read()
    except OSError:
        return False
    return data[data.rindex(b")") + 2 :].split()[0] != b"Z"


def tree_cpu(pids: list[int]) -> float:
    return sum(cpu_seconds(p) for p in pids)


# -- the machine's own speed -------------------------------------------------------

_SPIN_BLOCK = bytes(range(256)) * 4


def spin(steps: int) -> float:
    """A fixed pure-Python + ``zlib.crc32`` loop; returns its wall seconds."""
    crc = x = 0
    start = time.perf_counter()
    for i in range(steps):
        x = (x * 31 + i) & 0xFFFF
        if not i & 63:
            crc = zlib.crc32(_SPIN_BLOCK, crc)
    return time.perf_counter() - start


def calib_mops() -> float:
    """The spin for about 0.1 s, in million steps per second. Run between
    phases and printed as ``machine.calib_mops``: informational, so that
    machine drift can be *seen* beside the numbers."""
    steps = 1_000_000
    return steps / spin(steps) / 1e6


class MachineSpeed:
    """How slow the load generator's own thread runs during a phase.

    This box shares its cores: a fixed single-threaded loop drifts by
    8-20 % (interquartile of 20 s windows; 40 s ones alike; no steal time),
    and a phase in which the load generator's thread is the saturated
    resource — ``core-inproc`` throughout, the client decode of a
    ``gw-scan`` pass — drifts with it by the same factor (README,
    "Machine speed"). Such a phase calls ``maybe()`` between operations,
    when it has nothing in flight; every ``INTERVAL_S`` that runs a
    ~0.4 ms spin. ``slowdown()`` is the median spin time over the
    reference spin time, and the phase's durations are divided by it.
    Phases bound by the SUT process are not corrected: this thread's
    speed says nothing about that process's (it made them worse).
    """

    INTERVAL_S = 0.1
    STEPS = 5000
    #: Seconds the spin takes inside a running phase on this machine on a
    #: usual day. Only a scale: it sets the unit, not the comparison.
    REFERENCE_S = 0.45e-3

    def __init__(self) -> None:
        self.times: list[float] = []
        #: CPU seconds the spins took (not the workload's: subtracted).
        self.cpu_s = 0.0
        self._next = 0.0

    def maybe(self, now: float) -> None:
        if now >= self._next:
            cpu0 = time.process_time()
            self.times.append(spin(self.STEPS))
            self.cpu_s += time.process_time() - cpu0
            self._next = time.perf_counter() + self.INTERVAL_S

    def slowdown(self) -> float:
        if not self.times:
            raise BenchFailure("the machine's speed was never sampled")
        return statistics.median(self.times) / self.REFERENCE_S


# -- the repeatability rules ----------------------------------------------------------

MIN_SLICES = 30
MIN_SAMPLES = 2000
MIN_CPU_S = 5.0
MIN_USER_BYTES = 30_000_000
#: Consecutive parts a phase's latency samples are cut into (see Samples.ms).
WINDOWS = 20


class Rules:
    """What a number needs under it before the benchmark reports it.

    Violations raise :class:`BenchFailure` — the run then prints no result
    at all. A ``--smoke`` or traced run is not held to them: its
    end-to-end numbers are not the benchmark's.
    """

    def __init__(self, strict: bool) -> None:
        self.strict = strict

    def need(self, ok: bool, message: str) -> None:
        if self.strict and not ok:
            raise BenchFailure(message)

    def phase(self, name: str, seconds: float, minimum: float) -> None:
        self.need(seconds >= minimum, f"{name}: timed {seconds:.1f} s, the rule is >= {minimum:g} s")

    def cpu(self, name: str, cpu_s: float) -> None:
        self.need(cpu_s >= MIN_CPU_S, f"{name}: {cpu_s:.1f} CPU-s under the ratio, the rule is >= {MIN_CPU_S:g}")

    def volume(self, name: str, user_bytes: int) -> None:
        self.need(
            user_bytes >= MIN_USER_BYTES,
            f"{name}: {user_bytes / 1e6:.0f} MB under the ratio, the rule is >= {MIN_USER_BYTES / 1e6:g} MB",
        )


# -- estimators ---------------------------------------------------------------


class Slices:
    """Equal-work slices of a timed phase, on the wall clock.

    ``mark(done, now)`` is called with the running count of completed
    units; each time another ``slice_units`` are done it closes a slice.
    The phase's rate is the median slice's: a stall lands in a few slices
    and the median ignores it, where ``total / elapsed`` would average it
    in. ``start()`` may be called again to continue after a gap (the next
    pass of a scan): no slice spans the gap.
    """

    def __init__(self, slice_units: int, capacity: int = 1 << 15) -> None:
        self.slice_units = slice_units
        self.durations = np.zeros(capacity, dtype=np.float64)
        self.units = np.zeros(capacity, dtype=np.float64)
        self.n = 0
        self._done = 0
        self._begin = 0.0

    def start(self, done: int = 0) -> None:
        self._done = done
        self._begin = time.perf_counter()

    def mark(self, done: int, now: float) -> None:
        if done - self._done < self.slice_units or self.n >= len(self.units):
            return
        self.durations[self.n] = now - self._begin
        self.units[self.n] = done - self._done
        self.n += 1
        self._done = done
        self._begin = now

    def rate(self, rules: Rules, name: str) -> float:
        """Units per second of the median slice."""
        rules.need(self.n >= MIN_SLICES, f"{name}: {self.n} slices, the rule is >= {MIN_SLICES}")
        if self.n == 0:
            raise BenchFailure(f"{name}: no complete slice, phase too short for a rate")
        return float(np.median(self.units[: self.n] / self.durations[: self.n]))


class Samples:
    """Latency samples of one phase in a preallocated array, in arrival order."""

    def __init__(self, capacity: int) -> None:
        self.values = np.zeros(capacity, dtype=np.float64)
        self.n = 0

    def add(self, value: float) -> None:
        if self.n < len(self.values):
            self.values[self.n] = value
            self.n += 1

    def extend(self, values: np.ndarray) -> None:
        take = min(len(values), len(self.values) - self.n)
        self.values[self.n : self.n + take] = values[:take]
        self.n += take

    def ms(self, q: float, rules: Rules, name: str) -> float:
        """The ``q`` quantile in milliseconds: the median, over ``WINDOWS``
        consecutive parts of the phase, of each part's ``q`` quantile.

        A neighbour's burst or a collection pause moves the parts it falls
        in; a change to the system moves all of them."""
        rules.need(self.n >= MIN_SAMPLES, f"{name}: {self.n} samples, the rule is >= {MIN_SAMPLES}")
        if self.n == 0:
            raise BenchFailure(f"{name}: no latency samples")
        parts = np.array_split(self.values[: self.n], min(WINDOWS, self.n))
        return float(np.median([np.quantile(part, q) for part in parts])) * 1e3

    def whole_ms(self, q: float) -> float:
        """The plain ``q`` quantile of the whole phase (informational)."""
        return float(np.quantile(self.values[: self.n], q)) * 1e3


# -- the SUT process ------------------------------------------------------------


class SutProcess:
    """Spawn, talk to, measure and reliably reap the SUT launcher.

    The launcher runs in its own session, so the whole tree (launcher +
    forked backup children) can be killed as one process group whatever
    state it is in; ``close()`` is idempotent and safe from ``finally``
    and signal paths.
    """

    def __init__(self, *, trace: bool = False, timeout: float = SUT_TIMEOUT_S) -> None:
        self.trace = trace
        self.timeout = timeout
        self.proc: subprocess.Popen | None = None
        self.info: dict = {}
        self.children: list[int] = []

    def start(self) -> "SutProcess":
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "sut.py"), "--trace", str(int(self.trace))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        self.info = self._read_reply()
        if not self.info.get("ready"):
            self.close()
            raise BenchFailure(f"SUT did not come up: {self.info}")
        self.children = [pid for pid in self.info["children"] if pid]
        return self

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    @property
    def pids(self) -> list[int]:
        return [self.pid, *self.children]

    @property
    def address(self) -> tuple[str, int]:
        return self.info["host"], self.info["port"]

    def _read_reply(self) -> dict:
        assert self.proc is not None and self.proc.stdout is not None
        timeout = self.timeout
        fd = self.proc.stdout.fileno()
        buf = bytearray()
        deadline = time.monotonic() + timeout
        while not buf.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                self.close(graceful_timeout=0.0)  # it is hung: no point asking
                raise BenchFailure(f"SUT silent for {timeout:.0f}s: killed")
            piece = os.read(fd, 1 << 16)
            if not piece:
                code = self.proc.poll()
                self.close()
                raise BenchFailure(f"SUT exited unexpectedly (code {code})")
            buf += piece
        return json.loads(buf)

    def command(self, line: str) -> dict:
        assert self.proc is not None and self.proc.stdin is not None
        try:
            self.proc.stdin.write(line.encode() + b"\n")
            self.proc.stdin.flush()
        except OSError as exc:
            self.close()
            raise BenchFailure(f"SUT control channel broke: {exc!r}") from exc
        return self._read_reply()

    def stats(self) -> dict:
        return self.command("stats")

    def rss(self, *, peak: bool = False) -> int:
        return sum(rss_bytes(p, peak=peak) for p in self.pids)

    def close(self, *, graceful_timeout: float = 20.0) -> bool:
        """Stop the SUT; returns True when it exited cleanly by itself."""
        proc, self.proc = self.proc, None
        if proc is None:
            return True
        clean = False
        try:
            if graceful_timeout > 0 and proc.poll() is None and proc.stdin is not None:
                try:
                    proc.stdin.write(b"quit\n")
                    proc.stdin.flush()
                    proc.stdin.close()
                except OSError:
                    pass
                try:
                    clean = proc.wait(timeout=graceful_timeout) == 0
                except subprocess.TimeoutExpired:
                    clean = False
        finally:
            # Whatever happened above, nothing of the tree may survive.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - unkillable
                pass
            # The children die of the same signal but are not ours to
            # wait() for: poll until each is gone (or a zombie of init's).
            deadline = time.monotonic() + 5.0
            while any(_alive(pid) for pid in self.children) and time.monotonic() < deadline:
                time.sleep(0.01)
            for stream in (proc.stdin, proc.stdout):
                if stream is not None:
                    try:
                        stream.close()
                    except OSError:
                        pass
        return clean

    def __enter__(self) -> "SutProcess":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()
