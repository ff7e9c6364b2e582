import pytest


@pytest.fixture
def cold_lattice_caches():
    """Empty the per-process caches of the class enumeration and those in front of it.

    A test that patches ``lattice._solutions`` to guard it must not be served
    a map or a frame that an earlier test built with the unpatched one, and a
    test that times a walk must pay for its enumerations.  The crossing edges
    the walk caches on its frames go with the frames, and so does the family
    above an isolated minimum, which holds its frame.  Yields
    ``blow_down_data.cache_info``, whose counts start at zero here.
    """
    from dhwalk import family, lattice, walk

    for cached in (lattice.blow_down_data, lattice.canonical_presentation, family.walk_frame,
                   lattice._solutions, lattice._contractions, lattice._default_marked,
                   walk._plane_above_minimum):
        cached.cache_clear()
    yield lattice.blow_down_data.cache_info
