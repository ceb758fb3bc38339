"""External prediction model for the benchmark, one process per call.

Usage: python3 model.py {linear|logistic} INTERCEPT COEF...

Reads query points as CSV rows on standard input and writes one prediction
per line, the protocol of cohortshap's external-command adapter. Plain
Python, so each call pays process start-up but no numpy import.
"""

import math
import sys


def main(argv) -> int:
    kind, intercept, coef = argv[0], float(argv[1]), [float(c) for c in argv[2:]]
    out = []
    for line in sys.stdin:
        if not line.strip():
            continue
        eta = intercept + sum(c * float(v) for c, v in zip(coef, line.split(",")))
        out.append(repr(1.0 / (1.0 + math.exp(-eta)) if kind == "logistic" else eta))
    sys.stdout.write("\n".join(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
