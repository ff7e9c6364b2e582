#!/usr/bin/env python3
"""Sweep random sphere-area triples and audit the volume identity.

For each triple the piecewise-quadratic reduced-space volume must integrate,
exactly, to the product of the three areas, and must agree pointwise with the
clipped-box slice area computed from scratch: at every interval's midpoint
and at every row of the 64-step volume profile (``io.profile_rows``), walls
and the maximum among them.  Prints a summary table.  A
broken identity is named with its sphere areas on stderr, and the exit status
is 1; a count below 1 is a usage error.

Usage: python scripts/volume_identity_sweep.py [--trials 200] [--seed 2]
"""

import argparse
import random
import sys
from fractions import Fraction

from dhwalk.io import profile_rows
from dhwalk.scenario import three_sphere_product_data
from dhwalk.walk import run_walk


def random_area(rnd: random.Random) -> Fraction:
    den = rnd.randint(1, 6)
    return Fraction(rnd.randint(den, 10 * den), den)


def slice_area(a, b, c, t):
    def ramp(u):
        return u if u > 0 else Fraction(0)

    def under(s):
        return (ramp(s) ** 2 - ramp(s - a) ** 2 - ramp(s - b) ** 2 + ramp(s - a - b) ** 2) / 2

    return under(t) - under(t - c)


def fail(lams, law: str) -> int:
    """Name the law and the sphere areas that break it on stderr; the exit status."""
    print(f"FAIL: {law} for sphere areas ({', '.join(map(str, lams))})", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    rnd = random.Random(args.seed)
    k_patterns: dict[tuple, int] = {}
    for _ in range(args.trials):
        lams = sorted(random_area(rnd) for _ in range(3))
        trace = run_walk(three_sphere_product_data(*lams))
        product = lams[0] * lams[1] * lams[2]
        if trace.volume_integral() != product:
            return fail(lams, "the volume integral equals the product of the areas")
        for rec in trace.intervals:
            mid = rec.interval.midpoint
            if rec.volume(mid) != slice_area(*lams, mid):
                return fail(lams, f"the volume equals the slice area at t = {mid}")
        for t, volume, _ in profile_rows(trace, 64):
            if volume != slice_area(*lams, t):
                return fail(lams, f"the profile row equals the slice area at t = {t}")
        k_patterns[trace.k_sequence] = k_patterns.get(trace.k_sequence, 0) + 1
    print(f"{args.trials} random triples: integral, pointwise and profile checks exact")
    print("reduced-space chains seen:")
    for pattern, count in sorted(k_patterns.items(), key=lambda kv: -kv[1]):
        print(f"  {list(pattern)}: {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
