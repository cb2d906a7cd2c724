"""Compare the float text of the exports with repr on random bit patterns.

    python3 tools/check_float_text.py SRC [COUNT] [SEED]

Imports frontal_lab from SRC (the `src/` directory of a checkout), draws
COUNT float64 bit patterns (default 5,000,000), each of the 2^64 equally
likely, from numpy's default_rng(SEED) (default 0), and compares the
text that `structio._format` writes for each with repr of the same
float, in chunks of 65,536.  So NaNs with any payload, infinities,
subnormals and both notations all come up.  Prints the number of values
compared and of mismatches, and the first mismatches in full; exits 1
on any mismatch.
"""

from __future__ import annotations

import os
import sys

import numpy as np

CHUNK = 1 << 16


def main(argv):
    if not 1 <= len(argv) <= 3:
        sys.exit(__doc__)
    sys.path.insert(0, os.path.abspath(argv[0]))
    from frontal_lab import structio

    count = int(argv[1]) if len(argv) > 1 else 5_000_000
    rng = np.random.default_rng(int(argv[2]) if len(argv) > 2 else 0)
    bad = 0
    for start in range(0, count, CHUNK):
        values = rng.integers(0, 1 << 64, size=min(CHUNK, count - start),
                              dtype=np.uint64).view(np.float64)
        got = structio._lines("", "", [structio._format(values)])
        want = "".join(repr(v) + "\n" for v in values.tolist()).encode()
        if got == want:
            continue
        wrong = [(value, line) for value, line, text in zip(
            values.tolist(), got.split(b"\n"), want.split(b"\n"))
            if line != text]
        for value, line in wrong[:max(0, 10 - bad)]:
            print(f"mismatch: {value!r} ({value.hex()}) written as {line!r}")
        bad += len(wrong) or 1      # or the chunk's lines do not pair up
    print(f"{count} values compared with repr, {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
