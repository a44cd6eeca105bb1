"""Record the exact outputs of every item the exact workloads can produce.

    python3 bench/record_reference.py

Runs each candidate of every stratum of ``exact_finite`` and the exact
strata of ``recurrence_deep`` once, requires the item's own checks to pass,
and writes ``bench/reference.json``: per workload, item key -> SHA-256 of
the canonical JSON of its outputs.  Rerun it only when the workload
definitions change; a program change must reproduce the recorded digests.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, load_program


def main() -> int:
    load_program()
    from mpmath import mp

    from workloads import RECORDERS, WORKLOADS, digest

    table: dict = {}
    for name, record in RECORDERS.items():
        workload = WORKLOADS[name]
        digests: dict = {}
        with mp.workdps(workload.dps):
            for stratum in workload.strata():
                for recipe in stratum:
                    item = workload.build(recipe)
                    if not item.exact:
                        continue
                    out = workload.run(item)
                    value = digest(record(out))
                    reason = workload.check(item, out, {item.key: value})
                    if reason is not None:
                        raise SystemExit(f"{name} {item.label}: {reason}")
                    digests[item.key] = value
                    print(f"{name} {item.label} {value[:12]}", file=sys.stderr)
        table[name] = dict(sorted(digests.items()))
    path = BENCH / "reference.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
