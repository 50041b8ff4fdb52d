"""Write ``data/relfree_states.json``: the reference state counts for the
``relfree`` workload.

Each count is the number of distinct evaluation tuples reachable from the
identity tuple by right multiplication with the k generator columns, found
by a plain breadth-first search over ``bytes`` tuples.  It shares no code
with ``monoidlab.equations.rel_free``; only the Cayley tables come from the
catalog.  Run once from the repository root (under a minute):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))

#: (catalog name, k): the three largest builds the workload is about, then
#: medium builds.  B2^1 k=4 and Q^1 k=5 are left out: each takes over 6 s,
#: too long to repeat within a run (see run.py).
BUILDS = (
    ("A2^1", 3),
    ("E^1", 4),
    ("M(xyxy)", 4),
    ("I^1", 5),
    ("J^1", 5),
    ("M(xy)", 5),
    ("Q^1", 4),
    ("M(xyx)", 4),
    ("B0^1", 4),
)


def count_states(table: list[list[int]], identity: int, k: int) -> int:
    n = len(table)
    columns = [
        [assignment[j] for assignment in itertools.product(range(n), repeat=k)]
        for j in range(k)
    ]
    root = bytes([identity]) * (n ** k)
    seen = {root}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for col in columns:
            nxt = bytes([table[a][g] for a, g in zip(cur, col)])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


def main() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from monoidlab.monoids import catalog

    out = []
    for name, k in BUILDS:
        M = catalog(name)
        states = count_states(M.table.tolist(), M.identity, k)
        print(f"{name} k={k}: {states} states", flush=True)
        out.append({"monoid": name, "k": k, "states": states})
    with open(os.path.join(HERE, "data", "relfree_states.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
