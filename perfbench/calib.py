"""Host-speed reference: short chunks of fixed pure-Python work, timed between ops.

On a virtual machine whose cores are shared with other tenants, identical
CPU work can run at one or at about two times its best time, in phases that
switch every few seconds and whose mix changes over minutes, and CPU time
moves as much as wall time (README.md, Baseline).  A pass timed alone then
measures the host as much as the program.  ``Pacer`` takes a reference
sample every ``EVERY_S`` seconds of the pass process's CPU time (from an
interval timer, so that long ops are sampled inside too) and after each op
that mostly waited on a child process, and rescales each
stretch of the pass by the reference samples on either side of it: a
stretch that took ``t`` seconds while a reference chunk took ``r`` counts
as ``t * NOMINAL_S / r``, its time at the host speed at which a chunk takes
``NOMINAL_S``, about the fastest a chunk runs on the baseline machine.

The reference uses no part of steiner_ekr, so no change to the package can
move it.  It mixes the kinds of work the package does: bitset arithmetic on
ints (``ekr``), frozenset and dict traffic (enumeration), sorting permuted
tuples (``canon``) and Fraction arithmetic (``bounds``, ``exactnum``).
"""

from __future__ import annotations

import gc
import random
import resource
import signal
from fractions import Fraction
from time import perf_counter, process_time, thread_time

NOMINAL_S = 0.005  # seconds: about the fastest a chunk runs on the baseline machine
CHUNKS = 4  # per sample; the fastest of them is the sample
EVERY_S = 0.3  # seconds of pass between two samples


def chunk() -> int:
    """One fixed unit of reference work; returns a checksum so nothing is optimised away."""
    rng = random.Random(20160102)
    acc = 0
    masks = [rng.getrandbits(64) for _ in range(600)]
    for i in range(0, 597, 3):
        acc += ((masks[i] & masks[i + 1]) | masks[i + 2]).bit_count()
    sets = [frozenset(rng.sample(range(200), 12)) for _ in range(400)]
    seen: dict = {}
    for i, s in enumerate(sets):
        seen[s] = seen.get(s, 0) + 1
        acc += len(s & sets[(i * 7919) % 400])
    perm = list(range(60))
    blocks = [tuple(rng.sample(range(60), 4)) for _ in range(100)]
    for _ in range(10):
        rng.shuffle(perm)
        image = sorted(tuple(sorted(perm[x] for x in b)) for b in blocks)
        acc += image[0][0]
    total = Fraction(0)
    for k in range(1, 140):
        total += Fraction(k * k - 3, k + 7)
    return acc + total.numerator % 97


CHECKSUM = chunk()


def sample() -> tuple[float, float]:
    """(wall, CPU) seconds of the fastest of ``CHUNKS`` reference chunks, GC held off.

    The fastest, not the median: the first chunk after a CLI subprocess or a
    long op runs with cold caches, and an interrupt can land in any chunk;
    neither is the host's speed.  The CPU time leaves out the time the host
    let the process wait, which the wall time counts.
    """
    enabled = gc.isenabled()
    gc.disable()  # a collection of the package's live objects is not reference work
    try:
        walls, cpus = [], []
        for _ in range(CHUNKS):
            t0, c0 = perf_counter(), thread_time()
            if chunk() != CHECKSUM:
                raise RuntimeError("reference loop gave another checksum")
            walls.append(perf_counter() - t0)
            cpus.append(thread_time() - c0)
    finally:
        if enabled:
            gc.enable()
    return min(walls), min(cpus)


def cpu_now() -> float:
    """CPU seconds of this process and of its children that have been waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


def rescaled(stretches, refs) -> float:
    """Each stretch at the nominal speed, by the mean of the samples on either side of it."""
    return sum(t * NOMINAL_S * 2 / (a + b) for t, a, b in zip(stretches, refs, refs[1:]))


class Pacer:
    """Reference samples during one pass, and the pass times rescaled by them.

    ``start`` before the first op, ``tick`` after every op, ``stop`` after
    the last.  ``clock`` is a pass clock that stands still while a sample
    runs.  ``wall_s`` and ``cpu_s`` are the pass's wall time and the CPU
    time of the pass process and its children, both without the samples;
    ``wall_norm_s`` and ``cpu_norm_s`` are the same at the nominal host
    speed, rescaled by the samples' wall and CPU times.  The interval timer
    is per process: pool workers and CLI subprocesses take no samples, and
    the stretch they run in is rescaled by the samples the pass process
    takes around it.
    """

    def __init__(self, every_s: float = EVERY_S):
        self.every_s = every_s
        self.stretches: list[float] = []  # wall seconds between samples
        self.cpu_stretches: list[float] = []
        self.refs: list[float] = []  # wall seconds of a chunk, per sample
        self.ref_cpus: list[float] = []
        self.held_s = 0.0
        self.mark: float | None = None
        self.cpu_mark = 0.0  # cpu_now() at the end of the last sample
        self.own_cpu_mark = 0.0  # process_time() at the end of the last sample
        self.busy = False
        self.old_handler = None

    def _sample(self, *_signal) -> None:
        if self.busy:  # the timer fired inside a sample
            return
        self.busy = True
        t0, c0 = perf_counter(), cpu_now()
        if self.mark is not None:
            self.stretches.append(t0 - self.mark)
            self.cpu_stretches.append(c0 - self.cpu_mark)
        ref, ref_cpu = sample()
        self.refs.append(ref)
        self.ref_cpus.append(ref_cpu)
        self.cpu_mark = cpu_now()
        self.own_cpu_mark = process_time()
        self.mark = perf_counter()
        self.held_s += self.mark - t0
        self.busy = False

    def clock(self) -> float:
        while True:
            held = self.held_s
            now = perf_counter()
            if held == self.held_s:
                return now - held

    def start(self) -> None:
        self._sample()
        self.old_handler = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.every_s, self.every_s)

    def tick(self) -> None:
        # The timer counts this process's CPU time only, so after an op that
        # mostly waited on a child (a CLI subprocess, the pool) sample here.
        waited = perf_counter() - self.mark
        if waited >= self.every_s / 2 and process_time() - self.own_cpu_mark < waited / 2:
            self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self.old_handler)
        self._sample()

    @property
    def wall_s(self) -> float:
        return sum(self.stretches)

    @property
    def cpu_s(self) -> float:
        return sum(self.cpu_stretches)

    @property
    def wall_norm_s(self) -> float:
        return rescaled(self.stretches, self.refs)

    @property
    def cpu_norm_s(self) -> float:
        return rescaled(self.cpu_stretches, self.ref_cpus)
