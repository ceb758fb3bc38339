"""Set-up time of one fresh process: import the package, load the workload
table with its predictions and resolve its similarity rules.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON
Prints the elapsed seconds on standard output.
"""

import sys
import time


def main(argv) -> int:
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    from cohortshap import load_csv, resolve_rules
    from cohortshap.config import RunConfig

    cfg = RunConfig.load(argv[1], {})
    schema = cfg.parsed_schema()
    ds = load_csv(cfg.data, schema, prediction_column=cfg.prediction_column)
    resolve_rules(cfg.rules_for(schema), ds)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
