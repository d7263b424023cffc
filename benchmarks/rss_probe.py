"""Peak-RSS growth of one perturbation call, in a process of its own.

Usage: python3 rss_probe.py read|inject PATH

Prints {"growth_mb": ...}: the growth of ru_maxrss across the call. The
process holds only what the call needs: nothing for `read_wvec`, and for
`inject` the weights mapped straight from the file's payload.
"""

import json
import resource
import sys

import numpy as np

import scalelaws as sl

HEADER_BYTES = 14  # "WVEC", version, dtype code, u64 count


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(mode: str, path: str) -> None:
    if mode == "read":
        before = _peak_mb()
        sl.read_wvec(path)
    elif mode == "inject":
        weights = sl.WeightVector(np.fromfile(path, dtype="<f4", offset=HEADER_BYTES))
        before = _peak_mb()
        sl.inject(weights, 20.0, 0)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps({"growth_mb": _peak_mb() - before}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
