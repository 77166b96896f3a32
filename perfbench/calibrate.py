"""Host-speed calibration: fixed work of the kinds the workloads do.

On a shared host the speed drifts by a third or more for minutes at a time.
`Calibration()` times a short fixed task, which `run.py` runs before every
command of a measured repetition, and `run_s` is quoted at the speed where
that task takes `REF_S`.  Spread over the repetition like this, the task
sees the same mix of fast and slow stretches as the commands, even where
the host's speed changes within a few seconds.  The task uses no `sslab`
code, so a change to the program never moves it; it mixes the four kinds of
work the workloads spend their time on, because a faster host speeds each
kind up by a different share:

- set-based graph building and common-neighbour intersections (`graphs`,
  `homcounts` codegree counting);
- a sparse Lanczos solve, `scipy.sparse.linalg.eigsh` (`spectra` Perron);
- dense integer and float matrix products (`homcounts` walk counts);
- a nested-loop walk enumeration in pure Python (`homcounts` backtracking).

Each part takes roughly a quarter of the task, about 0.04 s in all on the
2-vCPU host the benchmark was built on.
"""

from __future__ import annotations

import random
from time import perf_counter

REF_S = 0.04  # task seconds at the reference speed `run_s` is quoted at


class Calibration:
    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(3)
        n = 2000
        m = sp.coo_matrix((np.ones(20000), (rng.integers(0, n, 20000), rng.integers(0, n, 20000))),
                          shape=(n, n)).tocsr()
        self._sparse, self._v0 = (m + m.T).tocsr(), np.ones(n)
        self._int = rng.integers(0, 2, (150, 150)).astype(np.int64)
        self._float = rng.standard_normal((200, 200))
        r = random.Random(9)
        self._small = {u: set() for u in range(40)}
        for _ in range(200):
            a, b = r.randrange(40), r.randrange(40)
            if a != b:
                self._small[a].add(b)
                self._small[b].add(a)
        self()  # first calls set up solver and interpreter caches

    def __call__(self) -> float:
        """Seconds for one run of the task."""
        t0 = perf_counter()
        checks = (self._graph(), self._lanczos(), self._dense(), self._walks())
        elapsed = perf_counter() - t0
        if not all(checks):
            raise RuntimeError("calibration task computed nothing")
        return elapsed

    @staticmethod
    def _graph():
        import numpy as np

        rng, n = random.Random(7), 400
        nbrs = [set() for _ in range(n)]
        for _ in range(4000):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                nbrs[u].add(v)
                nbrs[v].add(u)
        common = sum(len(nbrs[u] & nbrs[v]) for u in range(0, n, 3) for v in range(u + 1, n, 7))
        src = np.fromiter((u for u in range(n) for _ in nbrs[u]), dtype=np.int64)
        dst = np.fromiter((v for u in range(n) for v in nbrs[u]), dtype=np.int64)
        x = np.ones(n)
        for _ in range(30):
            y = np.bincount(dst, weights=x[src], minlength=n)
            x = y / np.linalg.norm(y)
        return common > 0 and x.sum() > 0

    def _lanczos(self):
        from scipy.sparse.linalg import eigsh

        vals = [eigsh(self._sparse, k=1, which="LA", v0=self._v0, tol=0)[0][0] for _ in range(2)]
        return min(vals) > 0

    def _dense(self):
        return (self._int @ self._int @ self._int).trace() > 0 and (self._float @ self._float).any()

    def _walks(self):
        g, count = self._small, 0
        for _ in range(2):
            for a in g:
                for b in g[a]:
                    for c in g[b]:
                        if c != a:
                            count += sum(1 for d in g[c] if d != b and d != a)
        return count > 0
