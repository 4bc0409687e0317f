"""Property tests: a bundle's cache key is canonical.

:meth:`~repro.core.options.ALSOptions.cache_key` keys the service's artifact
cache, so two bundles of one class with equal fields must produce equal keys
however they were built, and a copy through :func:`dataclasses.replace` must
equal its source.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.options import ALSOptions, PPOptions

pytestmark = pytest.mark.property


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_cache_key_is_canonical(data):
    cls = data.draw(st.sampled_from([ALSOptions, PPOptions]))
    fields = dict(
        rank=data.draw(st.integers(1, 16)),
        n_sweeps=data.draw(st.integers(1, 500)),
        tol=data.draw(st.floats(0, 1e-2, allow_nan=False)),
        seed=data.draw(st.one_of(st.none(), st.integers(0, 2**31 - 1))),
    )
    if cls is PPOptions:
        fields["pp_tol"] = data.draw(st.floats(0.01, 0.99, allow_nan=False))
    opts = cls(**fields)
    assert dataclasses.replace(opts) == opts
    assert opts.cache_key() == cls(**fields).cache_key()
