"""A speed gauge for a shared host, sampled while the program runs.

The speed of a host whose cores other tenants share drifts by 15-40 % over
seconds, and from one benchmark run to the next.  A fixed piece of work,
timed many times during the very intervals in which the program ran, moves
with the host and not with the program; dividing the program's time by it
cancels most of that drift.

``Probe.armed()`` sets a wall-clock timer that, every ``PERIOD_S``, runs
``_work()`` from a signal handler in the main thread and records how long it
took.  The handler runs between the program's bytecodes, so it samples the
host at points spread evenly over the program's time.  It is armed only
around 1-thread calls: in a call with worker threads it would compete with
them for the interpreter lock, and would then time the program's locking as
well as the host.
"""

import contextlib
import signal
import time

import numpy as np

PERIOD_S = 0.1
# _work() takes about this long on the 2-core host of the README's figures;
# rescaled times read as seconds on a host where it takes exactly this long.
REF_S = 0.0035


def _work():
    u = np.random.Generator(np.random.Philox(1)).random(20_000)
    np.sort(np.exp(-u))
    ",".join(f"{x:.17g}" for x in u[:2_000])


class Probe:
    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        started = time.perf_counter()
        _work()
        self.samples.append(time.perf_counter() - started)

    @contextlib.contextmanager
    def armed(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
