#!/usr/bin/env python3
"""Walk the diagonal circle action on a product of three spheres.

Usage: python scripts/walk_three_spheres.py 2 3 4

Prints the full wall-crossing trace, the exact volume profile at the walls,
and the classification certificate.
"""

import argparse
from fractions import Fraction

from dhwalk.classify import classify
from dhwalk.io import trace_text
from dhwalk.scenario import three_sphere_product_data
from dhwalk.walk import run_walk


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("areas", nargs=3, help="sphere areas, e.g. 2 3 4 or 7/2 4 9/2")
    args = parser.parse_args()
    lams = [Fraction(a) for a in args.areas]
    data = three_sphere_product_data(*lams)
    trace = run_walk(data)
    print(trace_text(trace))
    print(f"volume integral: {trace.volume_integral()} "
          f"(product of areas: {lams[0] * lams[1] * lams[2]})")
    print()
    for line in classify(data).lines():
        print(line)


if __name__ == "__main__":
    main()
