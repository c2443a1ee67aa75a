"""State families represented as normalized sums of product terms.

A pure state is stored as a short list of amplitude-weighted product
terms (one local ket per subsystem); a mixed state is a convex mixture
of such pure states, optionally with a maximally-mixed component.  This
sum-of-products form is what lets expectation values factorize per site
instead of going through the full tensor-product space.

A pure state has one storage layout, read only in this module: a
(terms x sites) integer ``labels`` array next to the amplitudes, and a
dict from each ket-form site to its (terms x dim) stack of unit-norm
kets.  A site whose kets are all computational-basis kets (every
basis-ket site of the built-in families) is its label column, so its
overlaps and matrix elements are index lookups; any other site (tilted
qubits, random kets) is in the dict, with labels -1.  Other modules use
``PureSOP.pair_matrix(site, op)``, the terms x terms matrix of
``<u_j|op|u_j'>``, and ``PureSOP.site_gram(site)``, which is computed
once and kept on the state.  ``PureSOP.terms`` and
``PureSOP.site_stack`` materialize basis kets only when asked for.

Fock-truncated continuous-variable families carry an explicit cutoff;
the discarded tail weight is checked against a tolerance and the kept
amplitudes are renormalized.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import BadParameter, TruncationTooCoarse
from .linalg import basis_ket, capped_dimension

#: Largest acceptable discarded probability for truncated CV states.
DEFAULT_TAIL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ProductTerm:
    """One amplitude-weighted product of local kets."""

    amplitude: complex
    factors: tuple[np.ndarray, ...]


def _check_dims(dims) -> tuple[int, ...]:
    dims = tuple(map(int, dims))
    if len(dims) < 2 or min(dims) < 1:
        raise BadParameter(f"need at least 2 subsystems of dim >= 1, got {dims}")
    return dims


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class PureSOP:
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
        for term in terms:
            if len(term.factors) != len(dims):
                raise BadParameter(
                    f"term has {len(term.factors)} factors for {len(dims)} subsystems"
                )
            for ket, dim in zip(term.factors, dims):
                if ket.shape != (dim,):
                    raise BadParameter(f"local ket shape {ket.shape} != ({dim},)")
                if not abs(np.linalg.norm(ket) - 1.0) <= 1e-10:
                    raise BadParameter("local kets must be finite and unit-normalized")
        kets = {
            k: np.array([term.factors[k] for term in terms], dtype=complex)
            for k in range(len(dims))
        }
        amps = np.array([term.amplitude for term in terms], dtype=complex)
        labels = np.full((len(terms), len(dims)), -1, dtype=np.int64)
        self._setup(dims, amps, labels, kets)

    @classmethod
    def from_labels(cls, dims, amplitudes, labels, kets=None) -> "PureSOP":
        """Label-form state: ``sum_j amplitudes[j] |labels[j, 0]> ... |labels[j, n-1]>``.

        ``labels`` is a (terms, sites) integer array of computational-basis
        indices.  A site listed in ``kets`` (site -> (terms, dim) array of
        unit-norm kets) is stored in ket form instead; its label column
        must be -1.
        """
        dims = _check_dims(dims)
        amps = np.array(amplitudes, dtype=complex)
        labels = np.array(labels)
        kets = {site: np.array(stack, dtype=complex) for site, stack in (kets or {}).items()}
        if amps.ndim != 1 or amps.size == 0:
            raise BadParameter("a state needs at least one product term")
        if labels.shape != (amps.size, len(dims)) or labels.dtype.kind not in "iu":
            raise BadParameter(
                f"labels must be integers of shape {(amps.size, len(dims))}, got {labels.shape}"
            )
        lows, highs = labels.min(axis=0).tolist(), labels.max(axis=0).tolist()
        for site, (dim, low, high) in enumerate(zip(dims, lows, highs)):
            if site in kets:
                if low != -1 or high != -1:
                    raise BadParameter(f"site {site} has kets, so its labels must be -1")
            elif low < 0 or high >= dim:
                raise BadParameter(f"basis label outside dimension {dim} at site {site}")
        for site, stack in kets.items():
            if site not in range(len(dims)):
                raise BadParameter(f"kets given for unknown site {site!r}")
            if stack.shape != (amps.size, dims[site]):
                raise BadParameter(f"kets at site {site} have shape {stack.shape}")
            if not np.all(np.abs(np.linalg.norm(stack, axis=1) - 1.0) <= 1e-10):
                raise BadParameter("local kets must be finite and unit-normalized")
        state = cls.__new__(cls)
        state._setup(dims, amps, labels, kets)
        return state

    def _setup(self, dims, amps, labels, kets) -> None:
        if not np.isfinite(amps).all():
            raise BadParameter("amplitudes must be finite")
        self.dims = dims
        self.labels = _read_only(labels)
        self._amps = _read_only(amps)
        self._kets = {site: _read_only(stack) for site, stack in kets.items()}
        self._grams: dict[int, np.ndarray] = {}
        self._overlaps = None

    @property
    def num_sites(self) -> int:
        return len(self.dims)

    @property
    def terms(self) -> Sequence[ProductTerm]:
        """The product terms, each built on access."""
        return _Terms(self)

    def amplitudes(self) -> np.ndarray:
        return self._amps

    def site_labels(self, site: int) -> np.ndarray | None:
        """Basis labels of all terms at a label-form site, or None for a ket-form site."""
        return None if site in self._kets else self.labels[:, site]

    def site_stack(self, site: int) -> np.ndarray:
        """All terms' local kets at one site, stacked to shape (terms, dim)."""
        stack = self._kets.get(site)
        if stack is None:
            return np.eye(self.dims[site], dtype=complex)[self.labels[:, site]]
        return stack

    def pair_matrix(self, site: int, op: np.ndarray) -> np.ndarray:
        """New array of the entries <u_j | op | u_j'> over the terms' kets at one site."""
        stack, labels = self._kets.get(site), self.labels[:, site]
        if stack is None:
            return op[labels[:, None], labels]
        return stack.conj() @ (op @ stack.T)

    def site_gram(self, site: int) -> np.ndarray:
        """Overlaps <u_j|u_j'> of the terms' kets at one site (kept on the state).

        On a label-form site this is the boolean equality of the labels.
        """
        gram = self._grams.get(site)
        if gram is None:
            stack, labels = self._kets.get(site), self.labels[:, site]
            gram = labels[:, None] == labels if stack is None else stack.conj() @ stack.T
            self._grams[site] = gram = _read_only(gram)
        return gram

    def overlaps(self) -> np.ndarray:
        """Term overlaps <t_j|t_j'>: the product of every site's gram (kept on the state)."""
        if self._overlaps is None:
            total = self.site_gram(0)
            for site in range(1, self.num_sites):
                total = total * self.site_gram(site)
            self._overlaps = _read_only(total)
        return self._overlaps

    def norm(self) -> float:
        amps = self._amps
        return float(np.sqrt((amps.conj() @ self.overlaps() @ amps).real))

    def normalized(self) -> "PureSOP":
        scale = self.norm()
        if scale == 0.0:
            raise BadParameter("cannot normalize a zero state")
        # one Python division per amplitude: numpy would scale by 1/scale instead
        amps = [complex(amp) / scale for amp in self._amps]
        return PureSOP.from_labels(self.dims, amps, self.labels, self._kets)


class _Terms(Sequence):
    """Read-only sequence of a state's product terms, each built on access."""

    def __init__(self, state: PureSOP):
        self._state = state

    def __len__(self) -> int:
        return len(self._state.amplitudes())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[j] for j in range(len(self))[index])
        j = range(len(self))[index]
        state = self._state
        kets = state._kets
        factors = tuple(
            kets[site][j] if site in kets else basis_ket(dim, label)
            for site, (dim, label) in enumerate(zip(state.dims, state.labels[j].tolist()))
        )
        return ProductTerm(complex(state.amplitudes()[j]), factors)


@dataclass(frozen=True, eq=False)
class MixedEnsemble:
    """Convex mixture of pure SOP states plus an optional white-noise part.

    ``weights`` and ``white_noise_weight`` sum to one; the white-noise
    component stands for I / prod(dims) and is always handled factorwise,
    never materialized.
    """

    dims: tuple[int, ...]
    weights: tuple[float, ...]
    pures: tuple[PureSOP, ...]
    white_noise_weight: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        weights = tuple(_as_real(w, "weights", "MixedEnsemble") for w in self.weights)
        noise = _as_real(self.white_noise_weight, "white_noise_weight", "MixedEnsemble")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "white_noise_weight", noise)
        if len(weights) != len(self.pures):
            raise BadParameter("one weight per pure component required")
        if not all(w >= -1e-12 for w in (*weights, noise)):
            raise BadParameter("mixture weights must be nonnegative")
        total = sum(weights) + noise
        if not abs(total - 1.0) <= 1e-12:
            raise BadParameter(f"mixture weights sum to {total}, expected 1")
        for pure in self.pures:
            if pure.dims != self.dims:
                raise BadParameter("all components must share the ensemble dims")

    @property
    def num_sites(self) -> int:
        return len(self.dims)


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


def _as_int(params: dict, name: str, family: str, minimum: int) -> int:
    value = _as_real(params[name], name, family)
    if not value.is_integer():
        raise BadParameter(f"{family}: {name} must be an integer, got {params[name]!r}")
    value = int(value)
    if value < minimum:
        raise BadParameter(f"{family}: {name} must be >= {minimum}, got {value}")
    return value


def _as_float(params: dict, name: str, family: str) -> float:
    return _as_real(params[name], name, family)


def _as_angles(params: dict, name: str, family: str, length: int) -> list[float]:
    value = params[name]
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise BadParameter(f"{family}: {name} must be a list of angles")
    angles = [_as_real(v, name, family) for v in value]
    if len(angles) != length:
        raise BadParameter(f"{family}: {name} needs {length} entries, got {len(angles)}")
    return angles


def _superposition_qubit(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)], dtype=complex)


def _ghz_state(n: int, theta: float, tilted=None, flipped: int | None = None) -> PureSOP:
    """cos(theta)|0...0> + sin(theta)|1...1> in label form.

    ``flipped`` names one site whose bit is inverted in both terms;
    ``tilted`` maps sites to one qubit ket that both terms carry there
    instead of a bit.
    """
    labels = np.zeros((2, n), dtype=np.int64)
    labels[1] = 1
    if flipped is not None:
        labels[:, flipped] = (1, 0)
    kets = {}
    for site, ket in (tilted or {}).items():
        labels[:, site] = -1
        kets[site] = (ket, ket)
    amps = (math.cos(theta), math.sin(theta))
    return PureSOP.from_labels((2,) * n, amps, labels, kets)


def _build_ghz(params: dict, tail_tol: float, family="GHZ", flipped=None) -> PureSOP:
    n = _as_int(params, "n", family, 2)
    return _ghz_state(n, _as_float(params, "theta", family), flipped=flipped)


def _build_two_group_ghz(params: dict, tail_tol: float) -> PureSOP:
    n = _as_int(params, "n", "TwoGroupGHZ", 2)
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
    l = _as_int(params, "l", "LSeparable", 1)
    if l >= n:
        raise BadParameter(f"LSeparable: l must be < n, got l={l}, n={n}")
    theta = _as_float(params, "theta", "LSeparable")
    thetas = _as_angles(params, "thetas", "LSeparable", l)
    # The l single-qubit factors come first, then the (n-l)-qubit GHZ block.
    tilted = {k: _superposition_qubit(t) for k, t in enumerate(thetas)}
    return _ghz_state(n, theta, tilted=tilted)


def _build_mixed_single_out(params: dict, tail_tol: float) -> MixedEnsemble:
    n = _as_int(params, "n", "MixedSingleOut", 2)
    theta = _as_float(params, "theta", "MixedSingleOut")
    thetas = _as_angles(params, "thetas", "MixedSingleOut", n)
    pures = tuple(
        _ghz_state(n, theta, tilted={i: _superposition_qubit(thetas[i])}) for i in range(n)
    )
    return MixedEnsemble((2,) * n, (1.0 / n,) * n, pures)


def _build_noisy_ghz(params: dict, tail_tol: float) -> MixedEnsemble:
    n = _as_int(params, "n", "NoisyGHZ", 2)
    theta = _as_float(params, "theta", "NoisyGHZ")
    p = _as_float(params, "p", "NoisyGHZ")
    if not 0.0 < p < 1.0:
        raise BadParameter(f"NoisyGHZ: p must lie in (0, 1), got {p}")
    noise = params["noise"]
    ghz = _ghz_state(n, theta)
    if noise == "ground":
        ground = PureSOP.from_labels((2,) * n, (1.0,), np.zeros((1, n), dtype=np.int64))
        return MixedEnsemble((2,) * n, (p, 1.0 - p), (ghz, ground))
    if noise == "white":
        return MixedEnsemble((2,) * n, (p,), (ghz,), white_noise_weight=1.0 - p)
    raise BadParameter(f"NoisyGHZ: noise must be 'ground' or 'white', got {noise!r}")


def _squeezed_amplitudes(x: float, cutoff: int) -> np.ndarray:
    # Renormalized geometric amplitudes; successive ratio is exactly x.
    amps = np.empty(cutoff + 1)
    amps[0] = 1.0
    for m in range(cutoff):
        amps[m + 1] = amps[m] * x
    kept = (1.0 - x ** (2 * (cutoff + 1))) / (1.0 - x * x)
    return (amps / math.sqrt(kept)).astype(complex)


def _resolve_cutoff(params: dict, family: str, tail_tol: float) -> tuple[float, int]:
    x = _as_float(params, "x", family)
    if not 0.0 < x < 1.0:
        raise BadParameter(f"{family}: x must lie in (0, 1), got {x}")
    if params.get("cutoff") is None:
        return x, auto_cutoff(x, tail_tol)
    cutoff = _as_int(params, "cutoff", family, 1)
    tail = tail_weight(x, cutoff)
    if tail > tail_tol:
        raise TruncationTooCoarse(
            f"{family}: tail weight {tail:.3e} at cutoff {cutoff} exceeds {tail_tol:.3e}"
        )
    return x, cutoff


def _build_n_mode_squeezed(params: dict, tail_tol: float) -> PureSOP:
    n = _as_int(params, "n", "NModeSqueezed", 2)
    x, cutoff = _resolve_cutoff(params, "NModeSqueezed", tail_tol)
    occupation = np.arange(cutoff + 1)
    labels = np.repeat(occupation[:, None], n, axis=1)
    dim = cutoff + 1
    return PureSOP.from_labels((dim,) * n, _squeezed_amplitudes(x, cutoff), labels)


def _build_modified_four_mode(params: dict, tail_tol: float) -> PureSOP:
    x, cutoff = _resolve_cutoff(params, "ModifiedFourMode", tail_tol)
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


def dense_vector(state: PureSOP) -> np.ndarray:
    """Expand a pure SOP state into a full state vector (dense route)."""
    total = capped_dimension(state.dims, "dense_vector")
    stacks = [state.site_stack(k) for k in range(state.num_sites)]
    vec = np.zeros(total, dtype=complex)
    for j, amp in enumerate(state.amplitudes()):
        comp = np.array([amp], dtype=complex)
        for stack in stacks:
            comp = np.outer(comp, stack[j]).ravel()  # the 1-D kron, without its overhead
        vec += comp
    return vec
