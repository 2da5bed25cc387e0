"""``/proc`` readers shared by the process-pool tests."""

import re

_MAPPING = re.compile(r"([0-9a-f]+)-([0-9a-f]+) ")


def smaps_over(pid, addr, nbytes):
    """Summed kB fields of the ``/proc/<pid>/smaps`` mappings overlapping
    ``[addr, addr + nbytes)``, or None when none does.

    An array can span several entries: numpy advises huge pages on the
    2 MiB-aligned body of a large allocation, which splits its mapping.
    """
    lo_addr, hi_addr = addr, addr + nbytes
    totals = None
    inside = False
    with open(f"/proc/{pid}/smaps", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            match = _MAPPING.match(line)
            if match:
                lo, hi = (int(bound, 16) for bound in match.groups())
                inside = lo < hi_addr and lo_addr < hi
                if inside and totals is None:
                    totals = {}
            elif inside:
                key, _, value = line.partition(":")
                parts = value.split()
                if len(parts) == 2 and parts[1] == "kB":
                    totals[key] = totals.get(key, 0) + int(parts[0])
    return totals


def shared_bytes(fields):
    """Resident bytes that another process also maps."""
    return (fields["Shared_Clean"] + fields["Shared_Dirty"]) * 1024
