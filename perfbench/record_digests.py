"""Regenerate ``digests.json``: the points digest of every pool spec.

Run from the root of a checkout::

    python3 perfbench/record_digests.py

Each spec runs once through ``ExperimentEngine(n_jobs=1)``.  The file
is the benchmark's output oracle, so regenerate it only at a commit
whose results are known to be right, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from checkout import import_repro


def main() -> int:
    import_repro()
    import numpy as np
    from repro.sim.engine import ExperimentEngine

    import specs

    engine = ExperimentEngine(n_jobs=1)
    digests = {}
    for shape in specs.CHECKED_SHAPES:
        for k in range(shape.pool_size):
            spec = shape.pool_spec(k)
            result = engine.run(spec)
            if not result.ok:
                print(f"{specs.digest_key(spec)}: run failed", file=sys.stderr)
                return 1
            digests[specs.digest_key(spec)] = specs.points_digest(result.points)
        print(f"{shape.name}: {shape.pool_size} specs", file=sys.stderr)
    payload = {"numpy": np.__version__, "digests": digests}
    with open(specs.DIGESTS_PATH, "w") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
