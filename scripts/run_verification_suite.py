"""Full verification sweep: 20 seeded lattices per d in {2,3,5,-1,-2,-5}.

Checks rank N_D = 2, the definiteness dichotomy, the six-entry value
table and 100 lambda round trips per lattice, plus algebraicity with an
exact certificate for every d > 0 lattice.  Any refuted claim is a
release blocker and exits nonzero.

Run from the repository root:  python scripts/run_verification_suite.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from toruslab.neronseveri import is_algebraic
from toruslab.papercheck import random_torus_with_sqrt_d, verify_proposition

D_VALUES = (2, 3, 5, -1, -2, -5)
SEEDS = range(1, 21)


def main():
    t0 = time.time()
    refuted = 0
    skipped = 0
    for d in D_VALUES:
        td = time.time()
        for seed in SEEDS:
            torus, mult = random_torus_with_sqrt_d(d, seed)
            report = verify_proposition(torus, mult, seed=seed)
            for claim in report.claims:
                if claim.status == "refuted":
                    refuted += 1
                    print(f"REFUTED d={d} seed={seed}: {claim.claim_id}")
                    print(f"  witness: {claim.witness}")
                elif claim.status == "skipped":
                    skipped += 1
                    print(f"skipped d={d} seed={seed}: {claim.claim_id} "
                          f"({claim.reason})")
            if d > 0:
                verdict = is_algebraic(torus, mults=[mult])
                if verdict.status != "algebraic":
                    skipped += 1
                    print(f"no certificate d={d} seed={seed}: {verdict.status}")
        print(f"d={d}: {len(list(SEEDS))} lattices verified "
              f"in {time.time() - td:.1f}s")
    print(f"total {time.time() - t0:.1f}s, refuted={refuted}, "
          f"incomplete={skipped}")
    if refuted or skipped:
        sys.exit(1)
    print("all claims verified")


if __name__ == "__main__":
    main()
