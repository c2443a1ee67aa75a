"""State families represented as normalized sums of product terms.

A pure state is stored as a short list of amplitude-weighted product
terms (one local ket per subsystem); a mixed state is a convex mixture
of such pure states, optionally with a maximally-mixed component.  This
sum-of-products form is what lets expectation values factorize per site
instead of going through the full tensor-product space.

Every state is its :class:`TermAxis`, the base of both classes: all its
components' terms on one axis, a (terms x sites) integer ``labels``
array next to the amplitudes, a dict from each ket site to its
(terms x dim) stack of unit-norm kets, and each component's offset and
weight, filled once by each constructor (a mixture's ``pures`` are views
cut from them).  The built-in mixtures (MixedSingleOut, NoisyGHZ) write
their axis arrays directly, with no per-component :class:`PureSOP`, and
every mixture's weights and new kets are checked in one place
(``MixedEnsemble._from_axis``).  A site whose kets are all
computational-basis kets (every basis-ket site of the built-in
families) is its label column; any other site (tilted qubits, random
kets) is in the dict, with labels -1 where a component gave kets.  The
axis groups the components by term count t (:class:`TermGroup`); each
per-site quantity of a group is one (G x t x t) block, for any t.  A
group reads its label sites two ways: :meth:`TermGroup.match` compares
the terms' labels, or their images under row maps, and
:meth:`TermGroup.at` reads a padded per-site table at the labels.  So
the overlaps are the match times the ket sites' grams, lhs takes the
label sites whose operators are row maps as one
:meth:`TermGroup.row_block`, a diagonal operator is one weighted sum of
its entries at the labels (:meth:`TermGroup.diagonal`), and no basis
ket is written out.  rhs2 contracts each site's
:meth:`TermGroup.ket_pairs` with S's entries, building no state vector.

A state is its values (amplitudes, component weights, white-noise weight)
and its structure: the dims, labels, ket stacks and offsets, what the term
groups derive from them (label matches, grams, overlaps, rotated kets) and
the blocks the sides keep on it per operator assignment.
:meth:`TermAxis.share_structure` hands it to a state with the same bits.

Fock-truncated continuous-variable families carry an explicit cutoff;
the discarded tail weight is checked against a tolerance and the kept
amplitudes are renormalized.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from typing import NamedTuple

import numpy as np

from .errors import BadParameter, TruncationTooCoarse
from .linalg import ARRAY_BYTES_CAP, RowMap, basis_ket, check_bytes

#: Largest acceptable discarded probability for truncated CV states.
DEFAULT_TAIL_TOL = 1e-10

#: The start of every builder's label check: the label entries (terms x sites,
#: over all components) it will allocate, 8 B each, checked by ``check_bytes``.
_LABELS = "{}: label entries (terms x sites) from {}:"


@dataclass(frozen=True, eq=False)
class ProductTerm:
    """One amplitude-weighted product of local kets."""

    amplitude: complex
    factors: tuple[np.ndarray, ...]


def _check_dims(dims) -> tuple[int, ...]:
    """The dims as ints: at least 2 subsystems, each an integral number >= 1 (2.0 reads
    as 2; a bool, a fraction or a non-number is a :class:`BadParameter`)."""
    try:
        dims = tuple(dims)
        sizes = tuple(map(int, dims))  # a fraction or a string then differs from its int
    except (TypeError, ValueError, OverflowError):
        sizes = ()
    if len(sizes) < 2 or sizes != dims or min(sizes) < 1 or {bool, np.bool_} & set(map(type, dims)):
        raise BadParameter(f"need at least 2 subsystems of integral dim >= 1, got {dims!r}")
    return sizes


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _check_kets(stacks) -> None:
    """Every row of every (terms x dim) stack must be a finite unit-norm ket."""
    stacks = list(stacks)
    # every ket's norm at once, from the moduli: an inf entry gives inf, not a warning
    moduli = np.abs(np.concatenate(stacks, axis=1))
    starts = [0, *itertools.accumulate(stack.shape[1] for stack in stacks)][:-1]
    norms = np.sqrt(np.add.reduceat(moduli * moduli, starts, axis=1))
    if not np.all(np.abs(norms - 1.0) <= 1e-10):
        raise BadParameter("local kets must be finite and unit-normalized")


def _basis_kets(labels: np.ndarray, dim: int) -> np.ndarray:
    """(... x dim) computational-basis kets |labels[...]>, written out."""
    stack = np.zeros((*labels.shape, dim), dtype=complex)
    stack.flat[np.arange(0, stack.size, dim) + labels.ravel()] = 1.0
    return stack


def stack_pairs(stack: np.ndarray, op) -> np.ndarray:
    """(G x t x t) entries <u_j|op|u_j'> of a (G x t x dim) stack of kets, one batched
    product for any t; a 1-D ``op`` is ``diag(op)``, a :class:`~witnesslab.linalg.RowMap`
    applies its rows, and None is the identity."""
    right = stack.transpose(0, 2, 1)
    if isinstance(op, RowMap):  # A u = w * u[c], for every ket at once
        right = (stack.take(op.cols, axis=2) * op.weights).transpose(0, 2, 1)
    elif op is not None:
        right = op[:, None] * right if op.ndim == 1 else op @ right
    return stack.conj() @ right


class TermAxis:
    """Every pure component of a state on one axis of product terms; the base of
    :class:`PureSOP` and :class:`MixedEnsemble`, whose constructors fill it once.

    ``labels`` is (terms x sites): each row's basis label, or -1 where its
    component gave kets.  ``kets`` maps each site where any component gave kets
    to its (terms x dim) stack, basis kets written out; no reader takes such a
    site's labels.  Component c is the rows ``offsets[c]:offsets[c + 1]`` of
    ``amps``, with weight ``weight_array[c]``.
    """

    white_noise_weight = 0.0

    def _fill(self, dims, labels, kets, amps, offsets, weights) -> None:
        for array in (labels, amps, *kets.values()):
            array.flags.writeable = False
        self.dims, self.labels, self.kets, self.amps = dims, labels, kets, amps
        self.offsets, self.weight_array = offsets, np.array(weights, dtype=float)
        self._blocks: dict = {}  # per assignment, what the sides contract with the values

    def share_structure(self, other: "TermAxis") -> bool:
        """Take ``other``'s structure, if its dims, offsets, labels and ket stacks hold exactly
        this state's bits, before this state's groups are built: its term groups, bound to
        this state's amplitudes and weights, and its kept blocks.  Returns whether it did."""
        mine = (self.offsets, self.labels, *self.kets.values())
        theirs = (other.offsets, other.labels, *map(other.kets.get, self.kets))
        if self.dims != other.dims or self.kets.keys() != other.kets.keys() or not all(
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(mine, theirs)
        ):
            return False
        if "groups" in vars(other):
            vars(self)["groups"] = tuple(group._with_values(self) for group in other.groups)
        self._blocks = other._blocks
        return True

    @property
    def num_sites(self) -> int:
        return len(self.dims)

    @property
    def term_axis(self) -> "TermAxis":
        """The state itself, which is its term axis."""
        return self

    @cached_property
    def groups(self) -> tuple["TermGroup", ...]:
        """The components grouped by term count, their blocks checked against the budget."""
        counts = self.offsets[1:] - self.offsets[:-1]
        groups = [((counts == t).nonzero()[0], t) for t in dict.fromkeys(counts.tolist())]
        for comps, t in groups:  # each group's complex (G x t x t) blocks
            check_bytes(len(comps) * t * t, 16, "term group: components x terms x terms block of")
        return tuple(TermGroup(self, comps, t) for comps, t in groups)


class TermGroup:
    """The G components of one term count t: per site, a (G x t x t) block or a (G x t) row.

    ``comps`` and ``weights`` index and weigh the components; ``amps`` (G x t),
    ``labels`` (sites x G x t) and ``kets`` (site -> G x t x dim) are cut from the axis.
    """

    def __init__(self, axis: TermAxis, comps: np.ndarray, t: int):
        self.dims, self.comps = axis.dims, comps
        count, first, last = len(comps), comps[0], comps[-1]
        if last - first + 1 == count:  # consecutive components: views of the axis
            self._cut = slice(axis.offsets[first], axis.offsets[last + 1]), slice(first, last + 1)
        else:
            self._cut = axis.offsets[comps, None] + np.arange(t), comps
        rows = self._cut[0]
        labels = axis.labels[rows].reshape(count, t, -1)
        self.labels = np.ascontiguousarray(labels.transpose(2, 0, 1))
        self.kets = {site: stack[rows].reshape(count, t, -1) for site, stack in axis.kets.items()}
        self._grams: dict[int, np.ndarray] = {}
        self._rotated: dict[int, tuple] = {}
        self._set_values(axis)

    def _set_values(self, axis: TermAxis) -> None:
        """Cut the group's values from the axis: amplitudes (G x t) and weights (G)."""
        rows, comps = self._cut
        self.amps = axis.amps[rows].reshape(self.labels.shape[1:])
        self.weights = axis.weight_array[comps]
        self._bras, self._columns = self.amps.conj()[:, None, :], self.amps[:, :, None]

    def _with_values(self, axis: TermAxis) -> "TermGroup":
        """A new group of this structure with ``axis``'s values: it shares the labels, kets,
        overlaps and the dicts of grams and rotated kets, so what either derives serves both."""
        group = TermGroup.__new__(TermGroup)
        vars(group).update(vars(self))
        vars(group).pop("_row", None)
        group._set_values(axis)
        return group

    def match(self, sites, images=None) -> np.ndarray:
        """New (G x t x t) bool block: term j's labels, or their ``images`` (sites x G x t),
        equal term j''s at every label site in ``sites`` (True for none), compared in
        chunks of sites within the byte budget."""
        labels = self.labels if len(sites) == len(self.labels) else self.labels[sites]
        images = labels if images is None else images
        count, terms = self.amps.shape
        step = max(1, ARRAY_BYTES_CAP // (count * terms**2))  # sites compared at once
        match = np.logical_and.reduce(images[:step, :, :, None] == labels[:step, :, None, :])
        for start in range(step, len(labels), step):
            part = slice(start, start + step)
            match &= np.logical_and.reduce(images[part, :, :, None] == labels[part, :, None, :])
        return match

    def at(self, table: np.ndarray, sites) -> np.ndarray:
        """New (sites x G x t) entries ``table[k, l]`` of a padded (sites x width) per-site
        table at each term's label l, for the label sites k in ``sites``."""
        labels = self.labels if len(sites) == len(self.labels) else self.labels[sites]
        return table[np.asarray(sites, dtype=int)[:, None, None], labels]

    def gram(self, site: int) -> np.ndarray:
        """Overlaps <u_j|u_j'> of the kets at one site: on a ket site their products, kept;
        on a label site its :meth:`match`, a new array on each call."""
        if site not in self.kets:
            return self.match([site])
        if (gram := self._grams.get(site)) is None:
            gram = self._grams[site] = _read_only(stack_pairs(self.kets[site], None))
        return gram

    @cached_property
    def overlaps(self) -> np.ndarray:
        """Term overlaps <t_j|t_j'> (kept): the label sites' :meth:`match` times the ket
        sites' grams, in site order."""
        match = self.match([k for k in range(len(self.dims)) if k not in self.kets])
        return _read_only(reduce(np.multiply, map(self.gram, sorted(self.kets)), match))

    @cached_property
    def _row(self) -> np.ndarray:
        """(G x t) row r = w (a^dag O) o a of :meth:`diagonal`; the overlaps O are 1 at t = 1."""
        bras = self._bras if self.amps.shape[1] == 1 else self._bras @ self.overlaps
        return bras[:, 0, :] * self.amps * self.weights[:, None]

    def diagonal(self, values: np.ndarray) -> np.ndarray:
        """w_c a_c^dag (O_c o v_c) a_c, (O o v)_jj' = O_jj' v_j', for each component c from
        (... x G x t) values v, as sum_j' r_cj' v_cj': a label site's diagonal operator."""
        return (values * self._row).sum(axis=-1)

    def pair_block(self, site: int, op) -> np.ndarray:
        """New (G x t x t) array of <u_j|op|u_j'> at one site, for any t: a product of its
        kets (see :func:`stack_pairs`), or on a label site a lookup of op's d x d entries."""
        if site in self.kets:
            return stack_pairs(self.kets[site], op)
        labels = self.labels[site]
        return op[labels[:, :, None], labels[:, None, :]]

    def row_block(self, sites, cols: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """New (G x t x t) block prod_k <u_j|A_k|u_j'> over the label sites ``sites``, A_k
        the row map in row k of the padded tables ``cols`` and ``weights``: nonzero where
        every site's column at j's label is j''s label (the :meth:`match` of the images),
        and there the product of the weights at j's labels, taken in site order."""
        product = np.multiply.reduce(self.at(weights, sites), axis=0)
        return np.where(self.match(sites, self.at(cols, sites)), product[:, :, None], 0j)

    def quadratic(self, blocks: np.ndarray) -> np.ndarray:
        """w_c a_c^dag B_c a_c for every component c, from (... x G x t x t) blocks B, any t."""
        return (self._bras @ blocks @ self._columns)[..., 0, 0] * self.weights

    def ket_pairs(self, site: int, basis: np.ndarray | None, rows: slice) -> np.ndarray:
        """(G' x t x t x dim) conj(u~_j[i]) u~_j'[i] of the :meth:`rotated` kets of the
        components ``rows`` at one site (0/1 from the labels on a label site as it is)."""
        if basis is None and site not in self.kets:
            hits = self.labels[site][rows][:, :, None] == np.arange(self.dims[site])
            return hits[:, :, None, :] * hits[:, None, :, :]
        kets = self.rotated(site, basis)[rows]
        return kets.conj()[:, :, None, :] * kets[:, None, :, :]

    def rotated(self, site: int, basis: np.ndarray | None) -> np.ndarray:
        """(G x t x dim) kets u~ at one site read in the columns b_i of ``basis``,
        u~[i] = <b_i|u>, kept for rhs1 and rhs2 to share; None reads a ket site's kets as
        they are.  On a label site, u~ of |l> is row l of conj(basis), gathered."""
        if basis is None:
            return self.kets[site]
        kept = self._rotated.get(site)
        if kept is None or kept[0] is not basis:
            if (stack := self.kets.get(site)) is None:
                labels = self.labels[site]
                check_bytes(labels.size * self.dims[site], 16, "term group: basis kets of")
                rows = basis.conj()[labels]
            else:
                rows = (stack.reshape(-1, stack.shape[2]) @ basis.conj()).reshape(stack.shape)
            kept = self._rotated[site] = (basis, _read_only(rows))
        return kept[1]


def _numbers(value, what: str, dtype=complex) -> np.ndarray:
    """``value`` as a new array; what numpy cannot read as numbers is a :class:`BadParameter`."""
    try:
        return np.array(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise BadParameter(f"{what} must be numbers: {exc}") from None


class PureSOP(TermAxis):
    """Pure state as a sum of product terms over fixed subsystem dims.

    ``PureSOP(dims, terms)`` takes explicit :class:`ProductTerm` objects,
    each carrying one unit-norm local ket per subsystem; every site is
    then stored in ket form.  :meth:`from_labels` builds the label form
    directly.  Either way ``labels`` is the (terms, sites) integer label
    array, -1 on every ket-form site.  Instances are immutable; the
    arrays they hand out are read-only.
    """

    def __init__(self, dims, terms):
        dims = _check_dims(dims)
        terms = tuple(terms)
        if not terms:
            raise BadParameter("a state needs at least one product term")
        try:  # a non-term, a ragged ket or a non-number is a BadParameter
            for term in terms:
                if (count := len(term.factors)) != len(dims):
                    raise BadParameter(f"term has {count} factors for {len(dims)} subsystems")
                for ket, dim in zip(term.factors, dims):
                    if np.shape(ket) != (dim,):
                        raise BadParameter(f"local ket shape {np.shape(ket)} != ({dim},)")
            stacks = zip(*(term.factors for term in terms))
            kets = {k: np.array(stack, dtype=complex) for k, stack in enumerate(stacks)}
            amps = np.array([term.amplitude for term in terms], dtype=complex)
        except (AttributeError, TypeError, ValueError) as exc:
            raise BadParameter(f"terms must be ProductTerms of numeric kets: {exc}") from None
        self._setup(dims, amps, np.full((len(terms), len(dims)), -1, dtype=np.int64), kets)

    @classmethod
    def from_labels(cls, dims, amplitudes, labels, kets=None) -> "PureSOP":
        """Label-form state: ``sum_j amplitudes[j] |labels[j, 0]> ... |labels[j, n-1]>``.

        ``labels`` is a (terms, sites) integer array of computational-basis
        indices.  A site listed in ``kets`` (site -> (terms, dim) array of
        unit-norm kets) is stored in ket form instead; its label column
        must be -1.
        """
        dims = _check_dims(dims)
        amps = _numbers(amplitudes, "amplitudes")
        labels = _numbers(labels, "labels", None)
        kets = {site: _numbers(stack, "local kets") for site, stack in (kets or {}).items()}
        if amps.ndim != 1 or amps.size == 0:
            raise BadParameter("a state needs at least one product term")
        if labels.shape != (amps.size, len(dims)) or labels.dtype.kind not in "iu":
            raise BadParameter(
                f"labels must be integers of shape {(amps.size, len(dims))}, got {labels.shape}"
            )
        # read as unsigned, a negative label is larger than any dimension
        bad = labels.astype(np.uint64).max(axis=0) >= np.array(dims)
        for site in kets:  # a ket site's labels must be -1 instead
            if site in range(len(dims)):
                bad[site] = np.any(labels[:, site] != -1)
        if bad.any():
            site = int(np.argmax(bad))  # the first bad site
            if site in kets:
                raise BadParameter(f"site {site} has kets, so its labels must be -1")
            raise BadParameter(f"basis label outside dimension {dims[site]} at site {site}")
        for site, stack in kets.items():
            if site not in range(len(dims)):
                raise BadParameter(f"kets given for unknown site {site!r}")
            if stack.shape != (amps.size, dims[site]):
                raise BadParameter(f"kets at site {site} have shape {stack.shape}")
        return cls.__new__(cls)._setup(dims, amps, labels, kets)

    def _setup(self, dims, amps, labels, kets) -> "PureSOP":
        """Keep the arrays as the one component, of weight 1: kets must be finite and
        unit-norm, amplitudes finite."""
        if kets:
            _check_kets(kets.values())
        if not np.isfinite(amps).all():
            raise BadParameter("amplitudes must be finite")
        self._fill(dims, labels, kets, amps, np.array([0, len(amps)]), (1.0,))
        return self

    @property
    def terms(self) -> Sequence[ProductTerm]:
        """The product terms, each built on access."""
        return _Terms(self)

    def amplitudes(self) -> np.ndarray:
        return self.amps

    def site_labels(self, site: int) -> np.ndarray | None:
        """Basis labels of all terms at a label-form site, or None for a ket-form site."""
        return None if site in self.kets else self.labels[:, site]

    def site_stack(self, site: int) -> np.ndarray:
        """All terms' local kets at one site, stacked to shape (terms, dim)."""
        stack = self.kets.get(site)
        return _basis_kets(self.labels[:, site], self.dims[site]) if stack is None else stack

    def _scaled_norm(self) -> tuple[float, float]:
        """(m, r) with norm m r: r is the norm of the amplitudes / m, and m is 1 unless the
        direct norm is 0 or not finite, then the largest amplitude modulus."""
        overlaps = self.groups[0].overlaps[0]
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(np.sqrt((self.amps.conj() @ overlaps @ self.amps).real))
        top = 1.0 if 0.0 < value < math.inf else float(np.max(np.abs(self.amps)))
        if top in (0.0, 1.0):  # in range, or a zero state
            return 1.0, value
        amps = self.amps / top
        return top, float(np.sqrt((amps.conj() @ overlaps @ amps).real))

    def norm(self) -> float:
        return math.prod(self._scaled_norm())

    def normalized(self) -> "PureSOP":
        top, scale = self._scaled_norm()
        if scale == 0.0:
            raise BadParameter("cannot normalize a zero state")
        amps = self.amps if top == 1.0 else self.amps / top
        # one Python division per amplitude: numpy would scale by 1/scale instead
        amps = np.array([complex(amp) / scale for amp in amps], dtype=complex)
        return PureSOP.__new__(PureSOP)._setup(self.dims, amps, self.labels, self.kets)


class _Terms(Sequence):
    """Read-only sequence of a state's product terms, each built on access."""

    def __init__(self, state: PureSOP):
        self._state = state

    def __len__(self) -> int:
        return len(self._state.amps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[j] for j in range(len(self))[index])
        j = range(len(self))[index]
        state, kets = self._state, self._state.kets
        factors = tuple(
            kets[site][j] if site in kets else basis_ket(dim, label)
            for site, (dim, label) in enumerate(zip(state.dims, state.labels[j].tolist()))
        )
        return ProductTerm(complex(state.amps[j]), factors)


class MixedEnsemble(TermAxis):
    """Convex mixture of pure SOP states plus an optional white-noise part.

    The constructor concatenates the components on the axis once, and
    ``pures`` cuts one :class:`PureSOP` view per component from it on each
    read.  ``weights`` (a tuple of floats) and ``white_noise_weight`` sum to
    one; the white-noise component stands for I / prod(dims) and is always
    handled factorwise, never materialized.
    """

    def __init__(self, dims, weights, pures, white_noise_weight=0.0):
        dims = _check_dims(dims)
        pures = tuple(pures)
        for pure in pures:
            if not isinstance(pure, PureSOP) or pure.dims != dims:
                raise BadParameter(f"all components must be PureSOPs of the ensemble dims {dims}")
        offsets = np.array([0, *itertools.accumulate(len(pure.amps) for pure in pures)])
        labels = np.concatenate([pure.labels for pure in pures] or [np.zeros((0, len(dims)), int)])
        amps = np.concatenate([pure.amps for pure in pures] or [np.zeros(0, complex)])
        kets = {}
        for site in sorted({site for pure in pures for site in pure.kets}):
            # basis kets written out; each row labelled -1 takes its component's ket below
            kets[site] = _basis_kets(np.maximum(labels[:, site], 0), dims[site])
        for pure, start in zip(pures, offsets.tolist()):
            for site, stack in pure.kets.items():
                kets[site][start : start + len(stack)] = stack
        self._from_axis(dims, weights, white_noise_weight, labels, kets, amps, offsets)

    def _from_axis(self, dims, weights, noise, labels, kets, amps, offsets, new_kets=()):
        """Fill the axis with these arrays as they are, every mixture's one way in: the
        weights must be a mixture's, and the (rows x dim) ket stacks ``new_kets``, checked
        as one batch, unit-norm; the caller builds or checks every other array."""
        self._set_weights(weights, noise, len(offsets) - 1)
        if new_kets:
            _check_kets(new_kets)
        self._fill(dims, labels, kets, amps, offsets, self.weights)
        return self

    def _set_weights(self, weights, noise, count: int) -> None:
        """Keep one finite weight >= 0 per component and the white-noise weight, summing to 1."""
        weights = tuple(_as_real(w, "weights", "MixedEnsemble") for w in weights)
        noise = _as_real(noise, "white_noise_weight", "MixedEnsemble")
        if len(weights) != count:
            raise BadParameter("one weight per pure component required")
        if not all(w >= -1e-12 for w in (*weights, noise)):
            raise BadParameter("mixture weights must be nonnegative")
        total = sum(weights) + noise
        if not abs(total - 1.0) <= 1e-12:
            raise BadParameter(f"mixture weights sum to {total}, expected 1")
        self.weights, self.white_noise_weight = weights, noise

    @classmethod
    def from_products(cls, dims, weights, stacks) -> "MixedEnsemble":
        """Mixture of one-term product states with unit amplitudes, one ket stack per site.

        Component c is ``|stacks[0][c]> x ... x |stacks[n-1][c]>`` with weight
        ``weights[c]``; ``stacks[k]`` is a (components x dims[k]) array of unit-norm
        kets, checked once and kept as the ket stacks of the axis.
        """
        dims = _check_dims(dims)
        weights = tuple(weights)
        stacks = [_numbers(stack, "local kets") for stack in stacks]
        if len(stacks) != len(dims):
            raise BadParameter(f"{len(stacks)} ket stacks for {len(dims)} subsystems")
        for site, (stack, dim) in enumerate(zip(stacks, dims)):
            if stack.shape != (len(weights), dim):
                raise BadParameter(f"kets at site {site} have shape {stack.shape}")
        return cls._products(dims, weights, stacks, stacks)

    @classmethod
    def _products(cls, dims, weights, stacks, new_kets=()) -> "MixedEnsemble":
        """:meth:`from_products` on checked dims and stack shapes, checking only the
        stacks in ``new_kets``."""
        labels = np.full((len(weights), len(dims)), -1, dtype=np.int64)
        amps, offsets = np.ones(len(weights), dtype=complex), np.arange(len(weights) + 1)
        return cls.__new__(cls)._from_axis(
            dims, weights, 0.0, labels, dict(enumerate(stacks)), amps, offsets, new_kets
        )

    @property
    def pures(self) -> tuple[PureSOP, ...]:
        """One :class:`PureSOP` view per component, cut from the axis rows on each read: a
        site is in ket form where the component's labels are -1."""
        views = []
        for start, stop in itertools.pairwise(self.offsets.tolist()):
            labels, amps = self.labels[start:stop], self.amps[start:stop]
            kets = {k: stack[start:stop] for k, stack in self.kets.items() if labels[0, k] < 0}
            views.append(PureSOP.__new__(PureSOP)._setup(self.dims, amps, labels, kets))
        return tuple(views)


State = PureSOP | MixedEnsemble

@dataclass(frozen=True)
class StateFamily:
    """Parametric descriptor of a state family, serializable to JSON."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise BadParameter(f"unknown family {self.family!r}; known: {sorted(FAMILIES)}")

    def with_param(self, name: str, value) -> "StateFamily":
        spec = FAMILIES[self.family]
        if name not in spec.required + spec.optional:
            raise BadParameter(f"family {self.family} has no parameter {name!r}")
        params = dict(self.params)
        params[name] = value
        return StateFamily(self.family, params)

    def as_dict(self) -> dict:
        params = {
            key: list(val) if isinstance(val, (tuple, list, np.ndarray)) else val
            for key, val in self.params.items()
        }
        return {"family": self.family, "params": params}

    @classmethod
    def from_dict(cls, obj) -> "StateFamily":
        if not isinstance(obj, dict) or "family" not in obj:
            raise BadParameter("state family object needs a 'family' key")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise BadParameter("'params' must be an object")
        return cls(str(obj["family"]), dict(params))


def tail_weight(x: float, cutoff: int) -> float:
    """Probability discarded by truncating a squeezed-vacuum series at ``cutoff``.

    The kept weights are (1-x^2) x^(2m) for m = 0..cutoff, so the tail is
    x^(2(cutoff+1)).
    """
    return float(x) ** (2 * (int(cutoff) + 1))


def _check_tail_tol(tail_tol: float) -> float:
    """A truncation tail tolerance must lie in (0, 1); returns it as a float."""
    tail_tol = float(tail_tol)
    if not 0.0 < tail_tol < 1.0:
        raise BadParameter(f"tail_tol must lie in (0, 1), got {tail_tol}")
    return tail_tol


def auto_cutoff(x: float, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Smallest cutoff >= 1 whose tail weight is within tolerance."""
    if not 0.0 < x < 1.0:
        raise BadParameter(f"x must lie in (0, 1), got {x}")
    tail_tol = _check_tail_tol(tail_tol)
    cutoff = max(1, math.ceil(math.log(tail_tol) / (2.0 * math.log(x)) - 1.0))
    while tail_weight(x, cutoff) > tail_tol:
        cutoff += 1
    while cutoff > 1 and tail_weight(x, cutoff - 1) <= tail_tol:
        cutoff -= 1
    return cutoff


def _as_real(value, name: str, family: str) -> float:
    """``value`` as a finite float, else BadParameter naming the family and parameter."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise BadParameter(f"{family}: {name} must be a real number, got {value!r}") from None
    if not math.isfinite(number):
        raise BadParameter(f"{family}: {name} must be finite")
    return number


def _as_param(value, name: str, family: str) -> float:
    """A family parameter as a finite float; a bool or a string is a BadParameter."""
    if isinstance(value, (bool, np.bool_, str)):
        raise BadParameter(f"{family}: {name} must be a real number, got {value!r}")
    return _as_real(value, name, family)


def _as_int(params: dict, name: str, family: str, minimum: int) -> int:
    value = _as_param(params[name], name, family)
    if not value.is_integer():
        raise BadParameter(f"{family}: {name} must be an integer, got {params[name]!r}")
    value = int(value)
    if value < minimum:
        raise BadParameter(f"{family}: {name} must be >= {minimum}, got {value}")
    return value


def _as_float(params: dict, name: str, family: str) -> float:
    return _as_param(params[name], name, family)


def _as_angles(params: dict, name: str, family: str, length: int) -> list[float]:
    value = params[name]
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise BadParameter(f"{family}: {name} must be a list of angles")
    angles = [_as_param(v, name, family) for v in value]
    if len(angles) != length:
        raise BadParameter(f"{family}: {name} needs {length} entries, got {len(angles)}")
    return angles


def _superposition_qubit(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)], dtype=complex)


def _ghz_rows(copies: int, n: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Labels (2 copies x n) and amplitudes of ``copies`` GHZ components cos(theta)|0...0> +
    sin(theta)|1...1> on one axis, as :func:`_ghz_state` writes each."""
    labels = np.zeros((2 * copies, n), dtype=np.int64)
    labels[1::2] = 1
    return labels, np.tile(np.array((math.cos(theta), math.sin(theta)), dtype=complex), copies)


def _ghz_state(n: int, theta: float, tilted=None, flipped: int | None = None) -> PureSOP:
    """cos(theta)|0...0> + sin(theta)|1...1> in label form.

    ``flipped`` names one site whose bit is inverted in both terms;
    ``tilted`` maps sites to one qubit ket that both terms carry there
    instead of a bit.
    """
    labels, amps = _ghz_rows(1, n, theta)
    if flipped is not None:
        labels[:, flipped] = (1, 0)
    kets = {}
    for site, ket in (tilted or {}).items():
        labels[:, site] = -1
        kets[site] = (ket, ket)
    return PureSOP.from_labels((2,) * n, amps, labels, kets)


def _build_ghz(params: dict, tail_tol: float, family="GHZ", flipped=None) -> PureSOP:
    n = _as_int(params, "n", family, 2)
    check_bytes(2 * n, 8, _LABELS.format(family, "n"))
    return _ghz_state(n, _as_float(params, "theta", family), flipped=flipped)


def _build_two_group_ghz(params: dict, tail_tol: float) -> PureSOP:
    n = _as_int(params, "n", "TwoGroupGHZ", 2)
    check_bytes(4 * n, 8, _LABELS.format("TwoGroupGHZ", "n"))
    l = _as_int(params, "l", "TwoGroupGHZ", 1)
    if l >= n:
        raise BadParameter(f"TwoGroupGHZ: l must be < n, got l={l}, n={n}")
    t1 = _as_float(params, "theta1", "TwoGroupGHZ")
    t2 = _as_float(params, "theta2", "TwoGroupGHZ")
    amps, labels = [], []
    for amp1, bit1 in ((math.cos(t1), 0), (math.sin(t1), 1)):
        for amp2, bit2 in ((math.cos(t2), 0), (math.sin(t2), 1)):
            amps.append(amp1 * amp2)
            labels.append([bit1] * l + [bit2] * (n - l))
    return PureSOP.from_labels((2,) * n, amps, labels)


def _build_l_separable(params: dict, tail_tol: float) -> PureSOP:
    n = _as_int(params, "n", "LSeparable", 2)
    check_bytes(2 * n, 8, _LABELS.format("LSeparable", "n"))
    l = _as_int(params, "l", "LSeparable", 1)
    if l >= n:
        raise BadParameter(f"LSeparable: l must be < n, got l={l}, n={n}")
    theta = _as_float(params, "theta", "LSeparable")
    thetas = _as_angles(params, "thetas", "LSeparable", l)
    # The l single-qubit factors come first, then the (n-l)-qubit GHZ block.
    tilted = {k: _superposition_qubit(t) for k, t in enumerate(thetas)}
    return _ghz_state(n, theta, tilted=tilted)


def _build_mixed_single_out(params: dict, tail_tol: float) -> MixedEnsemble:
    """The mixture of n tilted GHZ states, component i with its own qubit ket at site i,
    written straight onto its axis: site i's (2n x 2) stack holds basis kets from the
    labels and the tilted ket at component i's two rows (labelled -1 there)."""
    n = _as_int(params, "n", "MixedSingleOut", 2)
    check_bytes(2 * n * n, 8, _LABELS.format("MixedSingleOut", "n"))
    theta = _as_float(params, "theta", "MixedSingleOut")
    thetas = _as_angles(params, "thetas", "MixedSingleOut", n)
    labels, amps = _ghz_rows(n, n, theta)
    rows = np.arange(2 * n)
    labels[rows, rows // 2] = -1
    tilted = np.array([(math.cos(t), math.sin(t)) for t in thetas], dtype=complex)
    basis = _basis_kets(rows % 2, 2)
    kets = {}
    for site, ket in enumerate(tilted):
        kets[site] = stack = basis.copy()
        stack[2 * site : 2 * site + 2] = ket
    offsets, weights = np.arange(0, 2 * n + 1, 2), (1.0 / n,) * n
    return MixedEnsemble.__new__(MixedEnsemble)._from_axis(
        (2,) * n, weights, 0.0, labels, kets, amps, offsets, (tilted,)
    )


def _build_noisy_ghz(params: dict, tail_tol: float) -> MixedEnsemble:
    """GHZ with weight p, plus |0...0> (ground noise) or I / 2^n (white noise) with 1 - p,
    written straight onto its axis."""
    n = _as_int(params, "n", "NoisyGHZ", 2)
    check_bytes((3 if params["noise"] == "ground" else 2) * n, 8, _LABELS.format("NoisyGHZ", "n"))
    theta = _as_float(params, "theta", "NoisyGHZ")
    p = _as_float(params, "p", "NoisyGHZ")
    if not 0.0 < p < 1.0:
        raise BadParameter(f"NoisyGHZ: p must lie in (0, 1), got {p}")
    noise = params["noise"]
    labels, amps = _ghz_rows(1, n, theta)
    if noise == "ground":  # one more component, the one term |0...0> of amplitude 1
        labels, amps = np.concatenate((labels, labels[:1])), np.append(amps, 1.0)
        weights, white, offsets = (p, 1.0 - p), 0.0, np.array([0, 2, 3])
    elif noise == "white":
        weights, white, offsets = (p,), 1.0 - p, np.array([0, 2])
    else:
        raise BadParameter(f"NoisyGHZ: noise must be 'ground' or 'white', got {noise!r}")
    return MixedEnsemble.__new__(MixedEnsemble)._from_axis(
        (2,) * n, weights, white, labels, {}, amps, offsets
    )


def _squeezed_amplitudes(x: float, cutoff: int) -> np.ndarray:
    # Renormalized geometric amplitudes; successive ratio is exactly x.
    amps = np.full(cutoff + 1, x)
    amps[0] = 1.0
    np.multiply.accumulate(amps, out=amps)
    kept = (1.0 - x ** (2 * (cutoff + 1))) / (1.0 - x * x)
    return (amps / math.sqrt(kept)).astype(complex)


def _resolve_cutoff(params: dict, family: str, tail_tol: float, sites: int, names: str):
    """x and the cutoff, whose (cutoff + 1) x sites labels and pair matrices are checked."""
    x = _as_float(params, "x", family)
    if not 0.0 < x < 1.0:
        raise BadParameter(f"{family}: x must lie in (0, 1), got {x}")
    given = params.get("cutoff") is not None
    cutoff = _as_int(params, "cutoff", family, 1) if given else auto_cutoff(x, tail_tol)
    check_bytes((cutoff + 1) * sites, 8, _LABELS.format(family, names))
    tail = tail_weight(x, cutoff)
    if given and tail > tail_tol:
        raise TruncationTooCoarse(
            f"{family}: tail weight {tail:.3e} at cutoff {cutoff} exceeds {tail_tol:.3e}"
        )
    # every route builds terms x terms pair matrices
    check_bytes((cutoff + 1) ** 2, 16, f"{family}: term count {cutoff + 1}, pair matrix of")
    return x, cutoff


def _build_n_mode_squeezed(params: dict, tail_tol: float) -> PureSOP:
    n = _as_int(params, "n", "NModeSqueezed", 2)
    x, cutoff = _resolve_cutoff(params, "NModeSqueezed", tail_tol, n, "n and the cutoff")
    occupation = np.arange(cutoff + 1)
    labels = np.repeat(occupation[:, None], n, axis=1)
    dim = cutoff + 1
    return PureSOP.from_labels((dim,) * n, _squeezed_amplitudes(x, cutoff), labels)


def _build_modified_four_mode(params: dict, tail_tol: float) -> PureSOP:
    x, cutoff = _resolve_cutoff(params, "ModifiedFourMode", tail_tol, 4, "the cutoff")
    m = np.arange(cutoff + 1)
    labels = np.stack([m, m, m + 1, m + 1], axis=1)
    low, high = cutoff + 1, cutoff + 2
    return PureSOP.from_labels(
        (low, low, high, high), _squeezed_amplitudes(x, cutoff), labels
    )


class FamilySpec(NamedTuple):
    """A family's parameter names and its builder ``build(params, tail_tol)``."""

    required: tuple[str, ...]
    optional: tuple[str, ...]
    build: Callable[[dict, float], State]


#: Family tag -> its parameter names and builder.
FAMILIES: dict[str, FamilySpec] = {
    "GHZ": FamilySpec(("n", "theta"), (), _build_ghz),
    "FlippedGHZ": FamilySpec(
        ("n", "theta"), (), partial(_build_ghz, family="FlippedGHZ", flipped=0)
    ),
    "TwoGroupGHZ": FamilySpec(("n", "l", "theta1", "theta2"), (), _build_two_group_ghz),
    "LSeparable": FamilySpec(("n", "l", "theta", "thetas"), (), _build_l_separable),
    "MixedSingleOut": FamilySpec(("n", "theta", "thetas"), (), _build_mixed_single_out),
    "NoisyGHZ": FamilySpec(("n", "theta", "p", "noise"), (), _build_noisy_ghz),
    "NModeSqueezed": FamilySpec(("n", "x"), ("cutoff",), _build_n_mode_squeezed),
    "ModifiedFourMode": FamilySpec(("x",), ("cutoff",), _build_modified_four_mode),
}


def build_state(family: StateFamily, tail_tol: float = DEFAULT_TAIL_TOL) -> State:
    """Construct the normalized state described by a family descriptor."""
    spec = FAMILIES[family.family]
    missing = [name for name in spec.required if name not in family.params]
    if missing:
        raise BadParameter(f"family {family.family} missing parameters {missing}")
    unknown = [name for name in family.params if name not in spec.required + spec.optional]
    if unknown:
        raise BadParameter(f"family {family.family} got unknown parameters {unknown}")
    return spec.build(dict(family.params), _check_tail_tol(tail_tol))
