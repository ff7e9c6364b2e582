"""The Duistermaat-Heckman localization formula as a volume oracle that never walks.

For fixed point data whose fixed points are all isolated (weights +-1), the
volume of the reduced space at a regular value ``t`` is

    f(t) = sum over points p of (-1)^(index(p)/2) (t - Phi(p))_+^2 / 2

(Duistermaat and Heckman, *Invent. Math.* 69, 1982; Guillemin, Lerman and
Sternberg, *Symplectic Fibrations and Multiplicity Diagrams*, 1996), read off
the levels alone.  Its derivative ``f'`` is the fingerprint's
``volume_slope``.  The walk's volumes, its fingerprints' slopes and every
``dh-profile`` row are checked against them.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from dhwalk import cli
from dhwalk.io import load_scenario, profile_csv
from dhwalk.scenario import FixedPointData, three_sphere_product_data
from dhwalk.walk import run_walk, state_fingerprint
from testutil import random_triple, walk_universe

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
#: the isolated scenarios whose walk completes (``bad_value_lattice`` is refused at 6)
WALKED = ("bad_maximum_8", "three_spheres_1_1_1", "three_spheres_1_2_4", "three_spheres_2_3_4")


def density(data, t) -> Fraction:
    """``f(t)``: each point's signed quadratic ramp from its moment value."""
    return sum(((-1) ** (c.index // 2) * (t - lv.value) ** 2 / 2
                for lv in data.levels if t > lv.value for c in lv.components), Fraction(0))


def density_slope(data, t) -> Fraction:
    """``f'(t)``: each point's signed linear ramp."""
    return sum(((-1) ** (c.index // 2) * (t - lv.value)
                for lv in data.levels if t > lv.value for c in lv.components), Fraction(0))


def assert_localizes(data, profile: str) -> int:
    """The walk of ``data`` and the ``dh-profile --emit csv`` text ``profile`` agree
    with the density; the number of profile rows checked."""
    assert data.is_isolated()
    for family in run_walk(data).intervals:
        lo, mid, hi = family.interval.lo, family.interval.midpoint, family.interval.hi
        for t in (lo, mid, hi):
            assert family.volume(t) == density(data, t), (data.name, t)
        assert state_fingerprint(family, mid).volume_slope == density_slope(data, mid)
    header, *rows = profile.splitlines()
    assert header == "t,volume,k"
    for row in rows:
        t, volume, _ = row.split(",")
        assert Fraction(volume) == density(data, Fraction(t)), (data.name, row)
    return len(rows)


@pytest.mark.parametrize("name", WALKED)
def test_the_shipped_isolated_scenarios_localize(name, capsys):
    path = str(SCENARIOS / f"{name}.json")
    assert cli.main(["dh-profile", path, "--emit", "csv", "--samples", "48"]) == 0
    assert assert_localizes(load_scenario(path), capsys.readouterr().out) == 49


def test_seeded_triples_localize_coincident_values_included():
    rnd, coincident = random.Random(8), 0
    for _ in range(40):
        triple = random_triple(rnd)
        data = three_sphere_product_data(*triple)
        coincident += len(data.levels) < 8  # equal sums share a level
        assert_localizes(data, profile_csv(run_walk(data), 24))
    assert coincident >= 10


@pytest.mark.parametrize("depth, values", [(3, range(1, 5)), (6, range(1, 8))],
                         ids=["the-tier-1-slice", "depth-6"])
def test_the_points_only_universe_localizes(depth, values):
    # an empty box offers no surface, so these are the universe's points-only
    # accepted sets: the tier-1 slice has one, depth 6 has nine
    accepted = [item for item in walk_universe(depth, values, ()) if item.error is None]
    assert len(accepted) == {3: 1, 6: 9}[depth]
    for n, item in enumerate(accepted):
        data = FixedPointData.build(f"points-{n}", 6, "small", item.levels)
        assert_localizes(data, profile_csv(run_walk(data), 16))
