#!/usr/bin/env python3
"""Randomised audit of the surgery and gluing laws of the walk engine.

Checks, across random scenarios: the forced Euler pairing at every blow-down,
exactness of the transfer operators, reversal symmetry of traces, and that
splitting a walk at a regular value and regluing reproduces its fingerprints.

Usage: python scripts/gluing_audit.py [--walks 100] [--seed 0]
"""

import argparse
import random
import sys
from fractions import Fraction

from dhwalk.lattice import LatticeClass
from dhwalk.scenario import three_sphere_product_data, time_reversed
from dhwalk.walk import compose_traces, run_walk, split_trace


def random_area(rnd: random.Random) -> Fraction:
    den = rnd.randint(1, 4)
    return Fraction(rnd.randint(den, 9 * den), den)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--walks", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rnd = random.Random(args.seed)
    blow_downs = splits = 0
    for _ in range(args.walks):
        lams = sorted(random_area(rnd) for _ in range(3))
        data = three_sphere_product_data(*lams, mode="small")
        trace = run_walk(data)

        for event in trace.events:
            for action in event.actions:
                if action.kind != "blow_down":
                    continue
                blow_downs += 1
                assert action.euler_pairing == 1
                bdm = action.blow_down_map
                for _ in range(20):
                    x = LatticeClass(
                        [rnd.randint(-9, 9) for _ in range(bdm.target.rank)]
                    )
                    assert bdm.apply(bdm.pullback(x)) == x

        reverse = run_walk(time_reversed(data))
        assert reverse.k_sequence == tuple(reversed(trace.k_sequence))

        walls = set(trace.walls)
        total = trace.moment_range.hi
        seam = None
        while seam is None or seam in walls:
            seam = total * Fraction(rnd.randint(1, 59), 60)
        left, right = split_trace(trace, seam)
        assert compose_traces(left, right).fingerprints() == trace.fingerprints()
        splits += 1
    print(
        f"{args.walks} walks audited: {blow_downs} blow-downs satisfied the "
        f"pairing law, {splits} split/reglue round trips exact"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
