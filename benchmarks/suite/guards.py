"""Leak guard: a run may not exit 0 with anything of its own left behind.

Before the run, :class:`LeakGuard` notes what ``/dev/shm`` holds and creates
the run's private directory (socket files, the scorer spool).  After it,
:meth:`LeakGuard.leaks` lists every descendant process still in ``/proc``,
every new shared-memory segment of this user, and every file left in the
directory.  ``run.py`` reports the run incorrect and exits 1 on any.
"""

from __future__ import annotations

import os
import shutil
import time
from multiprocessing import resource_tracker

SHM_DIR = "/dev/shm"


def descendants(root: int | None = None) -> list[tuple[int, str]]:
    """``(pid, command)`` of every live or unreaped descendant of ``root``."""
    root = os.getpid() if root is None else root
    children: dict[int, list[tuple[int, str]]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we were looking
        # pid (comm) state ppid ...; comm may itself hold spaces and brackets.
        command = stat[stat.index("(") + 1 : stat.rindex(")")]
        parent = int(stat[stat.rindex(")") + 2 :].split()[1])
        children.setdefault(parent, []).append((int(entry), command))
    found = []
    frontier = [root]
    while frontier:
        for pid, command in children.get(frontier.pop(), []):
            found.append((pid, command))
            frontier.append(pid)
    return found


def stop_resource_tracker() -> None:
    """Stop multiprocessing's tracker process, if this interpreter started one.

    ``spawn`` starts it with the first scorer process and would only let it
    go at interpreter exit — after the leak check, and without waiting for
    it.  ``_stop`` closes its pipe and waits for it.
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


class LeakGuard:
    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self._segments_before = self._segments()
        os.makedirs(run_dir)

    @staticmethod
    def _segments() -> set[str]:
        try:
            return set(os.listdir(SHM_DIR))
        except OSError:
            return set()

    def leaks(self, grace_seconds: float = 2.0) -> list[str]:
        """What the run left behind; removes the run directory when clean."""
        deadline = time.monotonic() + grace_seconds
        while True:
            found = [f"process {pid} ({command})" for pid, command in descendants()]
            if not found or time.monotonic() >= deadline:
                break
            time.sleep(0.05)  # a joined child may take a moment to leave /proc
        for segment in sorted(self._segments() - self._segments_before):
            try:
                mine = os.stat(os.path.join(SHM_DIR, segment)).st_uid == os.getuid()
            except OSError:
                continue
            if mine:
                found.append(f"shared memory {segment}")
        found += [f"file {name}" for name in sorted(os.listdir(self.run_dir))]
        if not found:
            shutil.rmtree(self.run_dir)
        return found
