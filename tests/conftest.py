import pytest


@pytest.fixture
def cold_lattice_caches():
    """Empty the per-process caches in front of the presentation searches.

    A test that patches a search to guard it must not be served a map or a
    frame that an earlier test built with the unpatched search.  Yields
    ``blow_down_data.cache_info``, whose counts start at zero here.
    """
    from dhwalk import family, lattice

    for cached in (lattice.blow_down_data, lattice.canonical_presentation, family.walk_frame):
        cached.cache_clear()
    yield lattice.blow_down_data.cache_info
