"""Peak resident set size of this process."""

import resource


def peak_rss_kib() -> int:
    """Peak RSS of this process since it started, in KiB.

    Reads `VmHWM` from /proc/self/status, which counts only this program's
    memory.  `getrusage`'s `ru_maxrss` would not do: on Linux it starts from
    the parent's RSS at fork and survives exec, so a large parent (the shell
    or harness that started the run) would set the figure.  Elsewhere, falls
    back to `ru_maxrss`."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
