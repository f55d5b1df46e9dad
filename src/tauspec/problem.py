"""Problem descriptions: term types, document parsing, and linearization.

A problem is a square system of integro-differential equations with
polynomial data: one equation per unknown, each equation a sum of terms
equal to a polynomial right-hand side, plus point conditions.  A term is
a coefficient times a product of unknowns, each possibly differentiated
or integrated, the product possibly under an integral sign; a term of
one factor is linear.  Documents arrive as
JSON-compatible dictionaries; all polynomial data is converted to the
shifted orthogonal basis on load, and kernels are given as power-basis
coefficient matrices in (x, t).

Nonlinear products are handled in two ways that cooperate: a product
marked for augmentation is replaced by a fresh unknown together with a
differential equation for it (the derivative of the product by the chain
rule), and any remaining products are linearized around a frozen iterate
for Newton's method.
"""

from __future__ import annotations

import enum
import logging
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisSpec, Series, _padded, _support, basis_row, product
from .errors import ValidationError
from . import operators as ops

__all__ = [
    "Kind",
    "TermSpec",
    "ConditionTerm",
    "ConditionSpec",
    "EquationSpec",
    "SolveSettings",
    "ProblemSpec",
    "NewtonState",
    "parse_problem",
    "check_working_size",
    "augment_variables",
    "linearize",
    "initial_iterate",
]

log = logging.getLogger("tauspec")

DERIV_CAP = 8
# Largest working size.  A solve's member store can hold n matrices of
# n x n, about 1 GB at n = 513, so a far larger n would fail inside numpy
# with no location; the cap rejects it before anything of size n is made.
N_CAP = 1024
# Largest finite float; a bigger int or a NaN fails ``abs(x) <= FLOAT_MAX``.
FLOAT_MAX = float(np.finfo(float).max)


class Kind(str, enum.Enum):
    """The integral a term's product sits inside."""

    VOLTERRA = "volterra"
    FREDHOLM = "fredholm"


@dataclass(frozen=True)
class TermSpec:
    """A coefficient times a product of unknowns, optionally under an integral.

    ``factors`` is an ordered tuple of (variable, order) pairs; an order
    k > 0 differentiates the unknown k times and k < 0 integrates it -k
    times.  One factor makes a linear term, whose ``coeff`` is a
    polynomial multiplying it from outside, as shifted-basis
    coefficients.  Two or more make a product, whose ``coeff`` is one
    scalar weight.  With an ``enclosure`` the product sits inside that
    integral as a function of t.  ``augment`` asks for a product under
    an integral to be replaced by an auxiliary unknown before solving.
    """

    factors: tuple
    coeff: tuple = (1.0,)
    enclosure: Kind | None = None
    kernel: "ops.KernelPoly | None" = None
    lower: float | None = None
    augment: bool = False
    augment_name: str | None = None
    augment_initial: tuple | None = None

    def __post_init__(self):
        facs = tuple((str(v), int(o)) for v, o in self.factors)
        coeff = tuple(np.atleast_1d(np.asarray(self.coeff, dtype=float)).tolist())
        if not facs:
            raise ValidationError("a term needs at least one factor")
        if len(facs) > 1 and len(coeff) != 1:
            raise ValidationError("a product takes one weight, not a polynomial")
        object.__setattr__(self, "factors", facs)
        object.__setattr__(self, "coeff", coeff)
        if self.enclosure is not None:
            if self.enclosure not in (Kind.VOLTERRA, Kind.FREDHOLM):
                raise ValidationError(f"unknown enclosure {self.enclosure!r}")
            if self.kernel is None:
                raise ValidationError("a term inside an integral needs a kernel")
            object.__setattr__(self, "enclosure", Kind(self.enclosure))
        if self.augment and (self.enclosure is None or len(facs) < 2):
            raise ValidationError("augmentation applies to products inside integrals")


@dataclass(frozen=True)
class ConditionTerm:
    var: str
    order: int
    point: float
    weight: float = 1.0


@dataclass(frozen=True)
class ConditionSpec:
    """A functional condition sum_terms w * y_v^(d)(x_c) = value."""

    terms: tuple
    value: float
    attach_to: str | None = None


@dataclass(frozen=True)
class EquationSpec:
    """The sum of ``terms``, in document order, equals the polynomial ``rhs``."""

    terms: tuple = ()
    rhs: tuple = (0.0,)

    def __post_init__(self):
        object.__setattr__(self, "rhs", tuple(float(c) for c in np.atleast_1d(self.rhs)))

    @property
    def linear(self) -> tuple:
        """The one-factor terms, in order."""
        return tuple(t for t in self.terms if len(t.factors) == 1)

    @property
    def products(self) -> tuple:
        """The terms of two or more factors, in order."""
        return tuple(t for t in self.terms if len(t.factors) > 1)


@dataclass(frozen=True)
class SolveSettings:
    n: int
    newton_tol: float = 1e-14
    max_iter: int = 25
    initial: object = "conditions"
    damping: bool = False


@dataclass(frozen=True)
class ProblemSpec:
    basis: BasisSpec
    variables: tuple
    equations: tuple
    conditions: tuple
    settings: SolveSettings
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(str(v) for v in self.variables))
        _validate_spec(self)

    @property
    def is_linear(self) -> bool:
        return all(not eq.products for eq in self.equations)

    def var_index(self, name: str) -> int:
        return self.variables.index(name)


@dataclass
class NewtonState:
    """Snapshot of one Newton step: the iterate and how far it moved."""

    iteration: int
    iterate: dict
    update_norm: float
    residual_norm: float


def _rhs_degree(rhs) -> int:
    return max(_support(np.asarray(rhs, dtype=float)) - 1, 0)


def check_working_size(spec: ProblemSpec) -> None:
    """Enforce 1 <= n <= N_CAP and n >= conditions + max rhs degree for a user-level problem.

    Applied on parse and again after augmentation, before anything of
    size n is made, but not to the linearized systems Newton builds
    internally, whose right-hand sides carry corrections of degree up to
    n - 1 by construction.
    """
    n = spec.settings.n
    if not 1 <= n <= N_CAP:
        raise ValidationError(f"n must be positive and at most {N_CAP}, got {n}", "solve.n")
    nu = len(spec.conditions)
    lam = max((_rhs_degree(eq.rhs) for eq in spec.equations), default=0)
    if n < nu + lam:
        raise ValidationError(
            f"n={n} is too small: the method needs n >= conditions + max rhs "
            f"degree = {nu} + {lam} = {nu + lam}", "solve.n")


def _validate_spec(spec: ProblemSpec) -> None:
    names = spec.variables
    if len(set(names)) != len(names):
        raise ValidationError("variable names must be unique")
    if len(spec.equations) != len(names):
        raise ValidationError(
            f"system must be square: {len(names)} variables, "
            f"{len(spec.equations)} equations")
    cap = DERIV_CAP
    # derivatives need conditions, except inside an integral, where the
    # equation itself fixes the unknown's value
    has_deriv = False
    for e, eq in enumerate(spec.equations):
        for t, term in enumerate(eq.terms):
            where = f"equations[{e}].terms[{t}]"
            counts = term.enclosure is None
            for v, o in term.factors:
                if v not in names:
                    raise ValidationError(f"unknown variable {v!r}", where)
                if abs(o) > cap:
                    raise ValidationError(f"order {o} exceeds the cap {cap}", where)
                has_deriv = has_deriv or counts and o >= 1
    for c, cond in enumerate(spec.conditions):
        where = f"conditions[{c}]"
        for term in cond.terms:
            if term.var not in names:
                raise ValidationError(f"unknown variable {term.var!r}", where)
            if term.order < 0 or term.order > cap:
                raise ValidationError(f"condition order {term.order} out of range", where)
        if cond.attach_to is not None and cond.attach_to not in names:
            raise ValidationError(f"unknown variable {cond.attach_to!r}", where)
    if has_deriv and not spec.conditions:
        raise ValidationError(
            "equations involve derivatives but no conditions were given")


# ---------------------------------------------------------------------------
# document parsing: one reader per JSON type, each naming the entry it rejects

_NUMBERS = (int, float, np.integer, np.floating)
_KERNEL_KINDS = ("volterra", "fredholm")
_OVERFLOW = "overflows in the conversion to the shifted basis"


def _at(where, key=None):
    """Location of entry ``key`` (a name or an index) of a node; built only to raise."""
    if key is None:
        return where
    return f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}"


def _doc_get(doc, key, where, required=True, default=None):
    if required and key not in doc:
        raise ValidationError(f"missing required key {key!r}", where)
    return doc.get(key, default)


def _object(node, where, keys) -> Mapping:
    """A document object whose keys all come from ``keys``."""
    if not isinstance(node, Mapping):
        raise ValidationError(f"must be an object, got {node!r}", where)
    for key in node:
        if key not in keys:
            raise ValidationError(f"unknown key {key!r}; expected one of {', '.join(keys)}", where)
    return node


def _list(node, where, nonempty=True):
    """A list, tuple or array, never a string; nonempty unless told otherwise."""
    is_list = isinstance(node, (list, tuple)) or isinstance(node, np.ndarray) and node.ndim > 0
    if not is_list or nonempty and len(node) == 0:
        raise ValidationError(f"must be a {'nonempty ' * nonempty}list, got {node!r}", where)
    return node


def _one_of(node, where, keys):
    """The one key of ``keys`` that the node has, or None; two or more conflict."""
    found = [key for key in keys if key in node]
    if len(found) > 1:
        raise ValidationError(f"give at most one of {' and '.join(map(repr, found))}", where)
    return found[0] if found else None


def _text(value, where, key=None) -> str:
    """A string, such as a name."""
    if not isinstance(value, str):
        raise ValidationError(f"must be a string, got {value!r}", _at(where, key))
    return value


def _doc_text(node, key, where, required=True):
    """A string entry of a document node; unless required, absent or null is None."""
    value = _doc_get(node, key, where, required)
    return None if value is None and not required else _text(value, where, key)


def _as_int(value, where, key=None) -> int:
    """An integer input: an int, or a float such as 2.0, but not a bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"must be an integer, got {value!r}", _at(where, key))
    return int(value)


def _doc_int(node, key, where, default=0) -> int:
    """An integer entry of a document node; required if the default is None."""
    return _as_int(_doc_get(node, key, where, default is None, default), where, key)


def _real(value, where, key=None) -> float:
    """A finite int or float, never a bool or string."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS):
        raise ValidationError(f"must be a number, got {value!r}", _at(where, key))
    if not abs(value) <= FLOAT_MAX:
        raise ValidationError(f"must be finite, got {value!r}", _at(where, key))
    return float(value)


def _doc_float(node, key, where, default=None) -> float:
    """A finite real entry of a document node; required unless a default is given."""
    return _real(_doc_get(node, key, where, default is None, default), where, key)


def _reals(node, where) -> list:
    """A nonempty list of finite reals, as floats; a finite float is taken as it is."""
    return [x if type(x) is float and abs(x) <= FLOAT_MAX else _real(x, where, i)
            for i, x in enumerate(_list(node, where))]


def _doc_bool(node, key, where) -> bool:
    """A true/false entry of a document node, false when absent."""
    value = node.get(key, False)
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"must be true or false, got {value!r}", _at(where, key))
    return bool(value)


def _parse_poly(node, basis: BasisSpec, where: str) -> tuple:
    """A polynomial document node to shifted-basis coefficients."""
    if isinstance(node, _NUMBERS) and not isinstance(node, bool):
        return (_real(node, where),)
    if not isinstance(node, Mapping):
        raise ValidationError("polynomial must be a number or {basis, coeffs}", where)
    node = _object(node, where, ("basis", "coeffs"))
    kind = _doc_text(node, "basis", where)
    coeffs = _reals(_doc_get(node, "coeffs", where), f"{where}.coeffs")
    if kind == "orthogonal":
        return tuple(coeffs)
    if kind != "power":
        raise ValidationError(
            f"polynomial basis must be 'power' or 'orthogonal', got {kind!r}", where)
    with np.errstate(over="ignore", invalid="ignore"):
        converted = ops.from_power_series(basis, coeffs)
    if not np.all(np.isfinite(converted)):
        raise ValidationError(_OVERFLOW, where)
    return tuple(converted)


def _parse_factor(node, where: str) -> tuple:
    node = _object(node, where, ("var", "order", "deriv"))
    key = _one_of(node, where, ("order", "deriv")) or "order"
    return (_doc_text(node, "var", where), _doc_int(node, key, where))


def _parse_enclosure(node, kind: str, basis: BasisSpec, where: str):
    """(KernelPoly, lower) of a term's volterra or fredholm node.

    That node is {kernel: [equal-length rows]}; a Volterra node may add
    lower: x0, which defaults to the left end of the domain.
    """
    where = f"{where}.{kind}"
    node = _object(node[kind], where, ("kernel", "lower") if kind == "volterra" else ("kernel",))
    kw = f"{where}.kernel"
    rows = [_reals(row, f"{kw}[{r}]")
            for r, row in enumerate(_list(_doc_get(node, "kernel", where), kw))]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValidationError("kernel rows must all have the same length", kw)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            kernel = ops.kernel_from_power(basis, rows)
    except ValueError:  # the only one left: a converted coefficient is not finite
        raise ValidationError(_OVERFLOW, kw) from None
    a, b = basis.domain
    lower = a if node.get("lower") is None else _doc_float(node, "lower", where)
    if not a <= lower <= b:
        raise ValidationError(f"lower limit {lower} outside the domain [{a}, {b}]", where)
    return kernel, lower if kind == "volterra" else None


def _parse_term(node, basis: BasisSpec, where: str) -> TermSpec:
    """A term node: a product if it has a 'product' key, else one unknown.

    A lone unknown's ``deriv: k`` becomes the factor order k and its
    ``integral: k`` the order -k; a kernel term's ``order`` is kept as given.
    """
    extra = {}
    if isinstance(node, Mapping) and "product" in node:
        node = _object(node, where, ("product", "augment", "augment_name", "augment_initial")
                       + _KERNEL_KINDS)
        pw = f"{where}.product"
        fw = f"{pw}.factors"
        pnode = _object(node["product"], pw, ("factors", "weight"))
        fnodes = _list(_doc_get(pnode, "factors", pw), fw)
        if len(fnodes) < 2:
            raise ValidationError("a product needs at least two factors", fw)
        factors = tuple(_parse_factor(f, f"{fw}[{i}]") for i, f in enumerate(fnodes))
        coeff = (_doc_float(pnode, "weight", pw, 1.0),)
        kind = _one_of(node, where, _KERNEL_KINDS)
        augment = _doc_bool(node, "augment", where)
        if augment and kind is None:
            raise ValidationError(
                "augmentation applies to products inside integrals", _at(where, "augment"))
        for key in ("augment_name", "augment_initial"):
            if node.get(key) is not None and not augment:
                raise ValidationError("applies only with 'augment': true", _at(where, key))
        init = node.get("augment_initial")
        if init is not None:
            iw = f"{where}.augment_initial"
            init = _object(init, iw, ("point", "value"))
            init = (_doc_float(init, "point", iw), _doc_float(init, "value", iw))
        extra = dict(augment=augment, augment_initial=init,
                     augment_name=_doc_text(node, "augment_name", where, required=False))
    else:
        node = _object(node, where, ("var", "coeff", "deriv", "integral", "order") + _KERNEL_KINDS)
        var = _doc_text(node, "var", where)
        coeff = _parse_poly(node.get("coeff", 1.0), basis, f"{where}.coeff")
        key = _one_of(node, where, ("deriv", "integral") + _KERNEL_KINDS) or "deriv"
        kind = key if key in _KERNEL_KINDS else None
        if kind is None and "order" in node:
            raise ValidationError("'order' belongs only to volterra and fredholm terms", where)
        order = _doc_int(node, "order" if kind else key, where)
        if key == "deriv" and order < 0:
            raise ValidationError(
                f"derivative order must be nonnegative, got {order}", _at(where, key))
        if key == "integral":
            if order < 1:
                raise ValidationError(
                    f"integral order must be at least 1, got {order}", _at(where, key))
            order = -order
        factors = ((var, order),)
    kernel, lower = _parse_enclosure(node, kind, basis, where) if kind else (None, None)
    return TermSpec(factors, coeff, kind, kernel, lower, **extra)


def _parse_condition(node, where: str) -> ConditionSpec:
    node = _object(node, where, ("terms", "value", "attach_to"))
    terms = []
    for i, t in enumerate(_list(_doc_get(node, "terms", where), f"{where}.terms")):
        tw = f"{where}.terms[{i}]"
        t = _object(t, tw, ("var", "point", "deriv", "weight"))
        terms.append(ConditionTerm(
            var=_doc_text(t, "var", tw), order=_doc_int(t, "deriv", tw),
            point=_doc_float(t, "point", tw), weight=_doc_float(t, "weight", tw, 1.0)))
    return ConditionSpec(tuple(terms), _doc_float(node, "value", where),
                         _doc_text(node, "attach_to", where, required=False))


def _parse_settings(node, where: str, overrides: Mapping) -> SolveSettings:
    node = {} if node is None else dict(
        _object(node, where, ("n", "newton_tol", "max_iter", "initial", "damping")))
    node.update({k: v for k, v in overrides.items() if v is not None})
    n = _doc_int(node, "n", where, None)
    tol = _doc_float(node, "newton_tol", where, 1e-14)
    if not tol > 0:
        raise ValidationError(f"newton_tol must be positive, got {tol}", f"{where}.newton_tol")
    max_iter = _doc_int(node, "max_iter", where, 25)
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}", f"{where}.max_iter")
    initial = node.get("initial", "conditions")
    if not isinstance(initial, str):
        # one row of coefficients per unknown, or a single flat row
        iw = f"{where}.initial"
        rows = _list(initial, iw)
        initial = (tuple(_reals(rows, iw)) if isinstance(rows[0], _NUMBERS) else tuple(
            tuple(_reals(row, f"{iw}[{r}]")) for r, row in enumerate(rows)))
    elif initial not in ("conditions", "zero"):
        raise ValidationError(
            f"initial policy must be 'conditions', 'zero', or coefficients, "
            f"got {initial!r}", f"{where}.initial")
    return SolveSettings(
        n=n, newton_tol=tol, max_iter=max_iter, initial=initial,
        damping=_doc_bool(node, "damping", where))


def parse_problem(doc: Mapping, *, n: int | None = None, family: str | None = None,
                  newton_tol: float | None = None, max_iter: int | None = None,
                  initial: object = None) -> ProblemSpec:
    """Build a validated ProblemSpec from a JSON-compatible document.

    Keyword overrides replace the corresponding entries of the document's
    ``solve`` block (and ``family`` its basis family) before conversion,
    so power-basis data is always converted under the final basis.
    """
    doc = _object(doc, "document", (
        "name", "basis", "variables", "equations", "conditions", "solve"))
    bnode = _object(_doc_get(doc, "basis", "basis"), "basis", ("family", "domain"))
    fam = family if family is not None else _doc_text(bnode, "family", "basis")
    domain = _reals(_doc_get(bnode, "domain", "basis"), "basis.domain")
    if len(domain) != 2:
        raise ValidationError(f"must be a pair [a, b], got {len(domain)} numbers", "basis.domain")
    basis = BasisSpec(fam, tuple(domain))
    names = _list(_doc_get(doc, "variables", "variables"), "variables")
    variables = tuple(_text(v, "variables", i) for i, v in enumerate(names))
    equations = []
    for e, node in enumerate(_list(_doc_get(doc, "equations", "equations"), "equations")):
        where = f"equations[{e}]"
        node = _object(node, where, ("terms", "rhs"))
        terms = tuple(_parse_term(tnode, basis, f"{where}.terms[{t}]") for t, tnode in enumerate(
            _list(_doc_get(node, "terms", where), f"{where}.terms", nonempty=False)))
        equations.append(EquationSpec(
            terms, _parse_poly(node.get("rhs", 0.0), basis, f"{where}.rhs")))
    cond_nodes = _list(doc.get("conditions", []), "conditions", nonempty=False)
    conditions = tuple(_parse_condition(c, f"conditions[{i}]") for i, c in enumerate(cond_nodes))
    settings = _parse_settings(doc.get("solve"), "solve", {
        "n": n, "newton_tol": newton_tol, "max_iter": max_iter, "initial": initial})
    spec = ProblemSpec(basis=basis, variables=variables, equations=tuple(equations),
                       conditions=conditions, settings=settings,
                       name=_doc_text(doc, "name", "document", required=False))
    check_working_size(spec)
    return spec


# ---------------------------------------------------------------------------
# augmentation


def _chain_rule_products(factors: tuple, weight: float) -> tuple:
    """The products that make up weight * d/dx of a bare product of unknowns."""
    return tuple(TermSpec(factors[:f] + ((v, o + 1),) + factors[f + 1:], (weight,))
                 for f, (v, o) in enumerate(factors))


def _point_values(spec: ProblemSpec) -> dict:
    """(var, order, point) -> value for simple single-term conditions."""
    known = {}
    for cond in spec.conditions:
        if len(cond.terms) != 1:
            continue
        t = cond.terms[0]
        if t.weight == 0.0:
            continue
        known[(t.var, t.order, t.point)] = cond.value / t.weight
    return known


def _aux_initial(term: TermSpec, spec: ProblemSpec, aux: str):
    """Find (point, value) for the auxiliary unknown."""
    if term.augment_initial is not None:
        return term.augment_initial
    known = _point_values(spec)
    for x in dict.fromkeys(x for _, _, x in known):
        vals = [known.get((v, o, x)) for v, o in term.factors]
        if None not in vals:
            return (x, float(np.prod(vals)))
    raise ValidationError(
        f"cannot determine the initial value of auxiliary variable {aux!r} "
        f"from the given conditions; supply 'augment_initial'")


def augment_variables(spec: ProblemSpec) -> ProblemSpec:
    """Replace products marked for augmentation by auxiliary unknowns.

    Each marked product inside an integral becomes a linear kernel term
    on a new unknown w = product(factors); the system grows by the
    defining equation w' = (chain rule) and a point condition for w
    derived from the original conditions.  Without marked products the
    spec is returned unchanged.
    """
    if not any(t.augment for eq in spec.equations for t in eq.terms):
        return spec
    variables = list(spec.variables)
    conditions = list(spec.conditions)
    equations, new_equations = [], []
    for eq in spec.equations:
        kept, replaced = [], []
        for term in eq.terms:
            if not term.augment:
                kept.append(term)
                continue
            aux = term.augment_name or f"aux{len(new_equations)}"
            if aux in variables:
                raise ValidationError(
                    f"auxiliary variable name {aux!r} collides with an existing one")
            point, value = _aux_initial(term, spec, aux)
            variables.append(aux)
            replaced.append(TermSpec(((aux, 0),), term.coeff, term.enclosure,
                                     term.kernel, term.lower))
            new_equations.append(EquationSpec(
                (TermSpec(((aux, 1),)),) + _chain_rule_products(term.factors, -1.0)))
            conditions.append(ConditionSpec(
                terms=(ConditionTerm(var=aux, order=0, point=point),),
                value=value, attach_to=aux))
        equations.append(EquationSpec(tuple(kept + replaced), eq.rhs))
    return replace(
        spec,
        variables=tuple(variables),
        equations=tuple(equations + new_equations),
        conditions=tuple(conditions))


# ---------------------------------------------------------------------------
# linearization around a frozen iterate


def _truncated(coeffs: np.ndarray, n: int, what: str) -> np.ndarray:
    if coeffs.size <= n:
        return coeffs
    dropped = float(np.max(np.abs(coeffs[n:])))
    if dropped > 0.0:
        log.debug("%s truncated to %d coefficients (dropped mass %.3e)", what, n, dropped)
    return coeffs[:n]


class FrozenIterate(dict):
    """A Newton iterate, unknown -> Series, with what is computed from it.

    ``factor((v, o))`` is ``apply_order(self[v], o)`` and ``pair(f, g)``
    is the product of two factors, keyed unordered because ``product``
    is bitwise symmetric.  Each is computed on first use and kept as
    long as the mapping, so a candidate's exact defect and the
    linearization around it share them.  The mapping is not changed
    after it is built.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._factors: dict = {}
        self._pairs: dict = {}

    def factor(self, key: tuple) -> Series:
        out = self._factors.get(key)
        if out is None:
            var, order = key
            out = self._factors[key] = ops.apply_order(self[var], order)
        return out

    def pair(self, f: tuple, g: tuple) -> Series:
        key = (f, g) if f <= g else (g, f)
        out = self._pairs.get(key)
        if out is None:
            out = self._pairs[key] = product(self.factor(f), self.factor(g))
        return out


def freeze(iterate: Mapping) -> FrozenIterate:
    """The iterate as a FrozenIterate: itself if it is one, else a new one."""
    return iterate if isinstance(iterate, FrozenIterate) else FrozenIterate(iterate)


def _frozen_product(frozen: FrozenIterate, factors: tuple, n: int | None = None) -> Series:
    """Product of the factors at the iterate, multiplied left to right.

    The first two factors come as their shared pair.  With ``n``, every
    multiplication is cut to n coefficients, as the linearization needs;
    without it the product is exact.
    """
    if len(factors) == 1:
        return frozen.factor(factors[0])
    acc = frozen.pair(factors[0], factors[1])
    for f in factors[2:]:
        if n is not None:
            acc = Series(acc.basis, _truncated(acc.coeffs, n, "frozen product"))
        acc = product(acc, frozen.factor(f))
    if n is not None:
        acc = Series(acc.basis, _truncated(acc.coeffs, n, "frozen product"))
    return acc


def _kernel_times_t_poly(kernel: "ops.KernelPoly", phi: Series, n: int) -> "ops.KernelPoly":
    """New kernel K(x, t) * phi(t), t rows multiplied in the basis."""
    k = kernel.coeffs
    nt_new = min(k.shape[1] + phi.coeffs.size - 1, n)
    out = np.zeros((k.shape[0], nt_new))
    for r in range(k.shape[0]):
        if not k[r, :].any():
            continue
        row = product(Series(kernel.basis, k[r, :]), phi).coeffs
        out[r, :] += _truncated(row, nt_new, "kernel row")
    return ops.KernelPoly(kernel.basis, out)


def _apply_integral(term: TermSpec, series: Series) -> Series:
    """Exact image of a Series under the term's integral, or the Series itself."""
    if term.enclosure is Kind.VOLTERRA:
        return ops.volterra_apply(term.kernel, term.lower, series)
    if term.enclosure is Kind.FREDHOLM:
        return ops.fredholm_apply(term.kernel, series)
    return series


def linearize(spec: ProblemSpec, iterate: Mapping) -> ProblemSpec:
    """Freeze a Newton iterate: replace each product by its linear model.

    A product u_1 ... u_p becomes sum_i (prod_{j != i} u_j at the
    iterate) * u_i, and (p - 1) times the fully frozen product moves to
    the right-hand side.  Products under an integral keep their kernel,
    with the frozen factors folded into its t dependence.  A spec with
    no products is returned unchanged.
    """
    if spec.is_linear:
        return spec
    frozen = freeze(iterate)
    n = spec.settings.n
    # terms that share a kernel and the factors of phi share one new kernel
    kernels: dict = {}
    equations = []
    for eq in spec.equations:
        terms = list(eq.linear)
        rhs = _padded(np.asarray(eq.rhs, dtype=float), max(len(eq.rhs), n))
        for term in eq.products:
            (weight,), p = term.coeff, len(term.factors)
            for i, factor in enumerate(term.factors):
                others = term.factors[:i] + term.factors[i + 1:]
                if term.enclosure is None:
                    phi = _frozen_product(frozen, others, n)
                    # one frozen antiderivative keeps n + 1 coefficients
                    phi_n = _truncated(phi.coeffs, n, "frozen coefficient")
                    terms.append(TermSpec((factor,), weight * phi_n))
                else:
                    k = term.kernel.coeffs
                    key = (k.shape, k.tobytes(), others)
                    new_kernel = kernels.get(key)
                    if new_kernel is None:
                        phi = _frozen_product(frozen, others, n)
                        new_kernel = kernels[key] = _kernel_times_t_poly(term.kernel, phi, n)
                    terms.append(TermSpec((factor,), term.coeff, term.enclosure,
                                          new_kernel, term.lower))
            moved = _apply_integral(term, _frozen_product(frozen, term.factors, n))
            corr = weight * (p - 1) * moved.coeffs
            corr = _truncated(corr, rhs.size, "rhs correction")
            rhs[: corr.size] += corr
        equations.append(EquationSpec(tuple(terms), tuple(rhs)))
    return replace(spec, equations=tuple(equations))


# ---------------------------------------------------------------------------
# initial iterate


def _initial_rows(spec: ProblemSpec) -> list | None:
    """Explicit starting rows, one per unknown in solve order, or None for a named policy.

    The count is checked against the unknowns of ``spec``, so call it on
    the augmented spec, whose auxiliary unknowns come last.
    """
    policy = spec.settings.initial
    if isinstance(policy, str):
        return None
    rows = list(policy)
    if rows and not isinstance(rows[0], (tuple, list, np.ndarray)):
        rows = [rows]
    if len(rows) != len(spec.variables):
        raise ValidationError(
            f"expected {len(spec.variables)} rows, one per unknown in solve order "
            f"({', '.join(spec.variables)}), got {len(rows)}", "solve.initial")
    return rows


def initial_iterate(spec: ProblemSpec) -> dict:
    """Starting iterate for Newton's method, by the policy ``spec.settings.initial``.

    'conditions' (the default) gives each unknown the lowest degree
    polynomial meeting that unknown's own point conditions, falling back
    to least squares with a warning when they conflict; an unknown with
    no condition of its own starts at zero.  'zero' gives zero
    polynomials.  Explicit coefficient rows are used as given, one row
    per unknown in solve order, auxiliary unknowns of augmentation last.
    """
    policy = spec.settings.initial
    basis = spec.basis
    rows = _initial_rows(spec)
    if rows is not None:
        return {v: Series(basis, np.atleast_1d(np.asarray(row, dtype=float)))
                for v, row in zip(spec.variables, rows)}
    if policy == "zero":
        return {v: Series(basis, np.zeros(1)) for v in spec.variables}
    if policy != "conditions":
        raise ValidationError(f"unknown initial policy {policy!r}", "solve.initial")
    out = {}
    for v in spec.variables:
        conds = [cond for cond in spec.conditions
                 if cond.terms and all(t.var == v for t in cond.terms)]
        q = len(conds)
        if q == 0:
            out[v] = Series(basis, np.zeros(1))
            continue
        rows = np.zeros((q, q))
        vals = np.zeros(q)
        store = ops.WorkingSize(basis, q)
        for r, cond in enumerate(conds):
            for t in cond.terms:
                rows[r] += t.weight * (basis_row(basis, t.point, q) @ store.power(t.order))
            vals[r] = cond.value
        try:
            coeffs = np.linalg.solve(rows, vals)
        except np.linalg.LinAlgError:
            warnings.warn(
                f"conditions for {v!r} conflict; least-squares initial guess",
                UserWarning, stacklevel=2)
            coeffs = np.linalg.lstsq(rows, vals, rcond=None)[0]
        out[v] = Series(basis, coeffs)
    return out
