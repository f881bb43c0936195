"""Randomized property battery across association parameter kinds.

Checks, per kind: sign 0 on constant tables plus monotone response in the
(1,...,1) entry, antisymmetry under category swaps, and invariance under
conditional-pair rescaling.  LOR should pass everything; DI and EX are
expected to fail the invariance column.

    python3 scripts/battery_report.py --kinds lor,di,ex --trials 10000
"""

import argparse
import json
import sys

from bintab import property_battery, resolve_kind, to_jsonable
from bintab.collapsibility import PropertyBatterySummary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kinds", default="lor,di,ex")
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--witnesses", default=None,
                        help="write failing-case payloads as JSON")
    args = parser.parse_args(argv)

    names = PropertyBatterySummary.PROPERTIES
    header = f"{'kind':<10}" + "".join(f"{n:>26}" for n in names)
    print(header)
    print("-" * len(header))
    dumps = {}
    for name in args.kinds.split(","):
        kind = resolve_kind(name.strip())
        summary = property_battery(kind, args.k, args.trials, args.seed)
        row = f"{summary.kind:<10}" + "".join(
            f"{summary.failures[n]:>20}/{args.trials}" for n in names
        )
        print(row)
        dumps[summary.kind] = to_jsonable(summary)
    if args.witnesses:
        with open(args.witnesses, "w", encoding="utf-8") as fp:
            json.dump(dumps, fp, indent=2)
        print(f"wrote {args.witnesses}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
