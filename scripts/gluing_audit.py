#!/usr/bin/env python3
"""Randomised audit of the surgery and gluing laws of the walk engine.

Checks, across random scenarios: the forced Euler pairing at every blow-down,
exactness of the transfer operators, reversal symmetry of traces, that
splitting a walk at a regular value and regluing reproduces its fingerprints,
that data compare equal to their double time reversal, and, for the
bootstrapped data of every triple, that the weak classification check certifies
them against themselves and finds them distinct from the previous triple's.
A broken law is named with its sphere areas on stderr, and the exit status
is 1; a count below 1 is a usage error.

Usage: python scripts/gluing_audit.py [--walks 100] [--seed 0]
"""

import argparse
import random
import sys
from fractions import Fraction

from dhwalk.classify import (
    compare_fixed_point_data,
    small_data_bootstrap,
    weak_classification_check,
)
from dhwalk.lattice import LatticeClass
from dhwalk.scenario import three_sphere_product_data, time_reversed
from dhwalk.walk import compose_traces, run_walk, split_trace


def random_area(rnd: random.Random) -> Fraction:
    den = rnd.randint(1, 4)
    return Fraction(rnd.randint(den, 9 * den), den)


def fail(lams, law: str) -> int:
    """Name the law and the sphere areas that break it on stderr; the exit status."""
    print(f"FAIL: {law} for sphere areas ({', '.join(map(str, lams))})", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--walks", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.walks < 1:
        parser.error(f"--walks must be at least 1, got {args.walks}")
    rnd = random.Random(args.seed)
    blow_downs = splits = weak_checks = 0
    previous = None  # the last triple's bootstrapped data
    for _ in range(args.walks):
        lams = sorted(random_area(rnd) for _ in range(3))
        data = three_sphere_product_data(*lams, mode="small")
        trace = run_walk(data)

        for event in trace.events:
            for action in event.actions:
                if action.kind != "blow_down":
                    continue
                blow_downs += 1
                if action.euler_pairing != 1:
                    return fail(lams, "the blow-down pairing pair(e, C) = 1")
                bdm = action.blow_down_map
                for _ in range(20):
                    x = LatticeClass(
                        [rnd.randint(-9, 9) for _ in range(bdm.target.rank)]
                    )
                    if bdm.apply(bdm.pullback(x)) != x:
                        return fail(lams, "the transfer law push(pull(x)) = x")

        reverse = run_walk(time_reversed(data))
        if reverse.k_sequence != tuple(reversed(trace.k_sequence)):
            return fail(lams, "reversal symmetry of the k-sequence")

        walls = set(trace.walls)
        total = trace.moment_range.hi
        seam = None
        while seam is None or seam in walls:
            seam = total * Fraction(rnd.randint(1, 59), 60)
        left, right = split_trace(trace, seam)
        if compose_traces(left, right).fingerprints() != trace.fingerprints():
            return fail(lams, f"the split/reglue round trip at {seam}")
        splits += 1

        if not compare_fixed_point_data(data, time_reversed(time_reversed(data))).same:
            return fail(lams, "the comparison of data with their double reversal")
        full = small_data_bootstrap(data)
        if weak_classification_check(full, full).kind != "isomorphic (certified)":
            return fail(lams, "the weak check of bootstrapped data against themselves")
        if previous is not None and previous.name != full.name:  # the name spells the areas
            if weak_classification_check(full, previous).kind != "distinct data":
                return fail(lams, f"the weak check against {previous.name}")
        previous = full
        weak_checks += 1
    print(
        f"{args.walks} walks audited: {blow_downs} blow-downs satisfied the "
        f"pairing law, {splits} split/reglue round trips exact, every walk compared "
        f"equal to its double reversal, {weak_checks} weak checks certified"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
