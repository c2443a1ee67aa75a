"""A term group reads its label sites two ways: one label match and one table gather.

``TermGroup.match`` compares term j's labels, or their images under row maps,
with term j''s at a set of label sites, in chunks of sites within the byte
budget; ``TermGroup.at`` reads a padded (sites x width) per-site table at the
labels; and ``TermGroup.rotated`` gathers a label site's kets in an eigenbasis
from the labels, with no basis ket written out.  These tests check each against
its per-site definition on label-only and mixed label/ket groups, with budgets
small enough to force several chunks.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab.states import MixedEnsemble, PureSOP


@st.composite
def groups(draw):
    """One term group of G components of t terms each, on 1-4 sites of dim 1-4, each site a
    label site or (if ``draw`` says so) a ket site; and a numpy generator for its tables."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    count, terms = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    kets = [k for k in range(len(dims)) if draw(st.booleans())]
    pures = []
    for _ in range(count):
        labels = np.array([rng.integers(0, d, terms) for d in dims]).T
        labels[:, kets] = -1
        stacks = {k: rng.standard_normal((terms, dims[k])) + 1j for k in kets}
        stacks = {k: stack / np.linalg.norm(stack, axis=1)[:, None] for k, stack in stacks.items()}
        pures.append(PureSOP.from_labels(dims, rng.standard_normal(terms) + 0j, labels, stacks))
    (group,) = MixedEnsemble(dims, (1.0 / count,) * count, pures).groups
    return group, rng


def _label_sites(draw, group) -> list[int]:
    """A sorted subset of the group's label sites, possibly all or none of them."""
    sites = [k for k in range(len(group.dims)) if k not in group.kets]
    return [k for k in sites if draw(st.booleans())] if draw(st.booleans()) else sites


def _budgets(group):
    """Byte budgets under which the match compares 1 site, 2 sites, or every site at once."""
    count, terms = group.amps.shape
    return (count * terms * terms, 2 * count * terms * terms, 2**26)


@settings(max_examples=60, deadline=None)
@given(groups(), st.data())
def test_match_is_the_product_of_per_site_label_equalities(drawn, data):
    group, rng = drawn
    sites = _label_sites(data.draw, group)
    images = np.array([rng.integers(0, group.dims[k], group.amps.shape) for k in sites])
    images = images.reshape(len(sites), *group.amps.shape)
    for given_images in (None, images):
        seen = group.labels[sites] if given_images is None else given_images
        want = np.ones(group.amps.shape + group.amps.shape[1:], dtype=bool)
        for image, k in zip(seen, sites):
            want &= image[:, :, None] == group.labels[k][:, None, :]
        for budget in _budgets(group):
            with mock.patch("witnesslab.states.ARRAY_BYTES_CAP", budget):
                got = group.match(sites, given_images)
            assert got.dtype == bool
            np.testing.assert_array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(groups(), st.data())
def test_at_reads_each_site_row_of_a_padded_table_at_the_labels(drawn, data):
    group, rng = drawn
    sites = _label_sites(data.draw, group)
    table = rng.standard_normal((len(group.dims), max(group.dims) + 1)) + 1j
    want = np.array([table[k, group.labels[k]] for k in sites]).reshape(
        len(sites), *group.amps.shape
    )
    np.testing.assert_array_equal(group.at(table, sites), want)


@settings(max_examples=40, deadline=None)
@given(groups())
def test_rotated_label_site_equals_the_one_hot_product(drawn):
    """On a label site the gathered rows of conj(V) equal the written-out basis kets times
    conj(V), to 0 absolute."""
    group, rng = drawn
    for k in range(len(group.dims)):
        if k in group.kets:
            continue
        d = group.dims[k]
        basis = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        one_hot = np.eye(d, dtype=complex)[group.labels[k]]
        want = (one_hot.reshape(-1, d) @ basis.conj()).reshape(one_hot.shape)
        np.testing.assert_array_equal(group.rotated(k, basis), want)
