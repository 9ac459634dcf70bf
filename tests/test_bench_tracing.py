"""Every traced name in bench/tracing.py resolves at its lookup site.

`run.py --trace 1` patches each TARGETS entry where the package looks it
up; a refactor that renames or drops one of those names would otherwise
break only the traced benchmark run.  The bench modules are only read.
"""
import pytest

from conftest import import_from_bench

(tracing,) = import_from_bench("tracing")


@pytest.mark.parametrize("site_spec, attr", [t[:2] for t in tracing.TARGETS],
                         ids=lambda v: v)
def test_trace_target_resolves_and_is_callable(site_spec, attr):
    site = tracing._site(site_spec)
    assert attr in site.__dict__, f"{site_spec}.{attr} is missing"
    assert callable(site.__dict__[attr])
