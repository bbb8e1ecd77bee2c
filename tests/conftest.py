import pytest

from extsquare import rings


@pytest.fixture
def clear_sign_dependent_caches():
    """Returns a function that clears every cache holding orientation signs,
    so a test that patches indexing.canon sees its mutant everywhere."""
    from extsquare import exterior, words

    def clear():
        words._letter_support.cache_clear()
        words._LETTER_CACHE.clear()
        exterior._certify_expansion.cache_clear()
        exterior.route_target.cache_clear()
        exterior.route_source.cache_clear()

    return clear


@pytest.fixture
def zmod97():
    return rings.ModularRing(97)


@pytest.fixture
def integers():
    return rings.IntegerRing()


@pytest.fixture
def poly_xi():
    return rings.PolynomialRing(("xi",))
