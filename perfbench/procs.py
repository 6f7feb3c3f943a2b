"""Processes under test: own process group, clean stop, /proc readings.

Every server the benchmark starts runs in a new session, so it and the
workers it forks share one process group that nothing else is in.  It is
stopped with SIGINT to the group leader -- the path on which ``repro
serve`` shuts its workers down and removes its temporary checkpoint
directory (SIGTERM to the sharded server leaves both behind) -- and the
group is killed afterwards.  A process or checkpoint directory that
outlives the stop is reported as a failure of the run.
"""

from __future__ import annotations

import glob
import os
import shutil
import signal
import socket
import subprocess
import time
from typing import Dict, Iterable, List, Optional, Sequence

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: How long a stopped server may take to exit before it counts as hung.
STOP_TIMEOUT_S = 15.0

#: How long a launched server may take to accept its first connection.
START_TIMEOUT_S = 30.0


def free_port() -> int:
    """A loopback port nothing listens on right now."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields 3.. of /proc/<pid>/stat (after the command name)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rfind(")") + 2 :].split()


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of process group ``pgid``, by pid."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None and int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return sorted(members)


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds ``pid`` has used so far."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def own_cpu_seconds() -> float:
    """User plus system CPU seconds of this process."""
    times = os.times()
    return times.user + times.system


def steal_seconds() -> float:
    """CPU time the hypervisor ran other guests instead of this one.

    Summed over this machine's CPUs (the ``steal`` column of
    /proc/stat); 0.0 where the kernel does not report it.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / CLOCK_TICKS if len(fields) > 8 else 0.0


def peak_rss_mib(pid: int) -> float:
    """VmHWM of ``pid`` in MiB (0.0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """One ``repro serve`` process group.

    Args:
        argv: Command line of the group leader.
        root: Checkout root (the working directory).
        env: Environment, with ``TMPDIR`` inside the run directory so
            checkpoint directories can be checked after the stop.
        log_path: File that takes the server's stdout and stderr.
        cpus: CPUs the group leader, and so every process it starts,
            runs on.
    """

    def __init__(
        self,
        argv: Sequence[str],
        root: str,
        env: Dict[str, str],
        log_path: str,
        cpus: Iterable[int],
    ) -> None:
        self.tmpdir = env["TMPDIR"]
        self.log_path = log_path
        self.launched = time.monotonic()
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                list(argv),
                cwd=root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.pid = self.proc.pid
        os.sched_setaffinity(self.pid, set(cpus))

    def connect(self, port: int) -> socket.socket:
        """Connect to ``port`` as soon as the server accepts."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                sock = socket.create_connection(("127.0.0.1", port), timeout=120)
            except OSError:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"server exited with {self.proc.returncode} before accepting; "
                        f"see {self.log_path}"
                    ) from None
                if time.monotonic() > deadline:
                    raise RuntimeError(f"server did not accept within {START_TIMEOUT_S}s")
                time.sleep(0.002)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock

    def processes(self) -> Dict[str, int]:
        """Role -> pid: ``server`` is the leader, ``worker<i>`` the rest."""
        roles = {"server": self.pid}
        others = [pid for pid in group_members(self.pid) if pid != self.pid]
        for index, pid in enumerate(others):
            roles[f"worker{index}"] = pid
        return roles

    def stop(self) -> List[str]:
        """SIGINT, wait, kill the group; returns what outlived the stop."""
        problems: List[str] = []
        if self.proc.poll() is None:
            os.kill(self.pid, signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"server {self.pid} ignored SIGINT for {STOP_TIMEOUT_S:.0f}s")
        survivors = group_members(self.pid)
        if survivors:
            problems.append(f"server processes outlived the stop: {survivors}")
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if self.proc.poll() is None:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while group_members(self.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        leftovers = glob.glob(os.path.join(self.tmpdir, "repro-serve-checkpoints-*"))
        if leftovers:
            problems.append(f"checkpoint directories outlived the stop: {leftovers}")
            for path in leftovers:
                shutil.rmtree(path, ignore_errors=True)
        if self.proc.returncode not in (0, None):
            problems.append(f"server exited with {self.proc.returncode}; see {self.log_path}")
        return problems
