"""Run one command and print `wall_s cpu_s maxrss_kb exit_code`.

    python3 perfbench/measure.py CMD ARG...

run.py starts every timed program through this small process. A
child's peak RSS starts at the RSS of the process that spawned it
(Linux folds the spawner's memory into the child's high-water mark at
exec), so spawning from run.py itself, which holds the parsed inputs
and flight dumps, would report run.py's memory. The
program's stdout and stderr are discarded.
"""

import os
import sys
import time

devnull = os.open(os.devnull, os.O_RDWR)
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_DUP2, devnull, 1),
                                   (os.POSIX_SPAWN_DUP2, devnull, 2)])
_, status, ru = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, os.waitstatus_to_exitcode(status))
