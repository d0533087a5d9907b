"""Boolean functions and their quantum images.

Truth tables with ANF (positive-polarity Reed-Muller), Davio cofactors
and real multilinear forms; DIMACS CNF parsing; Boolean quantum states
(appended / post-selected), linear and polarity families, Boolean
density operators; #SAT by tensor contraction with an enumeration
oracle; and wire-based constraint networks for classical circuits.

Variable order: x1 is the most significant bit of the truth-table index.
"""

from __future__ import annotations

import functools
import graphlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ParseError, ShapeError
from .gates import _GATE_FNS, _graph_tensor, copy_tensor
from .network import Network, contract_network
from .tensor import DOWN, UP, Tensor


def _bits(bits, n):
    """``bits`` as a tuple of n ints, each 0 or 1."""
    (bits,) = tz._ints((bits,), "bits", 0, 1)
    if len(bits) != n:
        raise ShapeError(f"expected {n} bits, got {len(bits)}")
    return bits


@dataclass(frozen=True)
class BooleanFunction:
    """Truth vector of length 2^n_vars over {0, 1}."""

    n_vars: int
    truth: tuple

    def __post_init__(self):
        object.__setattr__(self, "n_vars", tz._int(self.n_vars,
                                                   "variable counts", 0))
        (truth,) = tz._ints((self.truth,), "truth values", 0, 1)
        object.__setattr__(self, "truth", truth)
        # the bit length first: no 2^n_vars for a huge n_vars
        n, size = self.n_vars, len(self.truth)
        if size.bit_length() != n + 1 or size != 2**n:
            raise ShapeError("truth vector length must be 2^n_vars")

    @classmethod
    def from_callable(cls, n_vars, fn):
        truth = [
            int(bool(fn(*bits)))
            for bits in itertools.product(range(2), repeat=n_vars)
        ]
        return cls(n_vars, truth)

    def evaluate(self, bits):
        idx = 0
        for b in _bits(bits, self.n_vars):
            idx = (idx << 1) | b
        return self.truth[idx]

    def __invert__(self):
        return BooleanFunction(self.n_vars, [1 - b for b in self.truth])


@dataclass(frozen=True)
class CnfFormula:
    """Clauses as lists of nonzero signed literals (1-based variables)."""

    n_vars: int
    clauses: tuple

    def __post_init__(self):
        n_vars = tz._int(self.n_vars, "variable counts", 0)
        clauses = tz._ints(self.clauses, "literals", -n_vars, n_vars)
        if any(0 in c for c in clauses):
            raise ShapeError("literals must be nonzero")
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "clauses", clauses)

    def evaluate(self, bits):
        bits = _bits(bits, self.n_vars)
        # literal i holds when x_i = 1, literal -i when x_i = 0
        return int(all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
                       for clause in self.clauses))

    def to_function(self):
        return BooleanFunction.from_callable(
            self.n_vars, lambda *bits: self.evaluate(bits)
        )


# ---------------------------------------------------------------------------
# DIMACS

#: Most variables a DIMACS header may declare.  A model count is at most
#: 2^n, and 2^10000 has 3011 digits, under the 4300 that Python converts
#: to text by default.
DIMACS_MAX_VARS = 10_000


def parse_dimacs(text):
    """Parse DIMACS CNF ('c' comments, 'p cnf n m' header, 0-terminated
    clauses).  A header declaring more than :data:`DIMACS_MAX_VARS`
    variables is refused before any clause is read."""
    header = None
    clauses, current = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if header is not None:
                raise ParseError("duplicate header", code="bad-header",
                                 line=lineno)
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ParseError(f"bad header {stripped!r}",
                                 code="bad-header", line=lineno)
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError("non-integer header field",
                                 code="bad-header", line=lineno)
            if header[0] < 0 or header[1] < 0:
                raise ParseError("negative header field",
                                 code="bad-header", line=lineno)
            if header[0] > DIMACS_MAX_VARS:
                raise ParseError(f"header declares {header[0]} variables, "
                                 f"over the cap of {DIMACS_MAX_VARS}",
                                 code="bad-header", line=lineno)
            continue
        if header is None:
            raise ParseError("clause before header", code="bad-header",
                             line=lineno)
        for tok in stripped.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad token {tok!r}", code="bad-token",
                                 line=lineno)
            if abs(lit) > header[0]:
                raise ParseError(f"literal {lit} out of range",
                                 code="literal-range", line=lineno)
            if lit:
                current.append(lit)
            else:
                clauses.append(tuple(current))
                current = []
    if header is None:
        raise ParseError("missing 'p cnf' header", code="bad-header")
    n_vars, n_clauses = header
    if current:
        raise ParseError("unterminated clause", code="malformed")
    if len(clauses) != n_clauses:
        raise ParseError(
            f"header declares {n_clauses} clauses, found {len(clauses)}",
            code="clause-count",
        )
    return CnfFormula(n_vars, clauses)


def serialize_dimacs(cnf):
    lines = [f"p cnf {cnf.n_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# normal forms

def _truth_array(f):
    """Truth table as an int array with one length-2 axis per variable."""
    return np.array(f.truth).reshape((2,) * f.n_vars)


def _mobius(f):
    """Integer Moebius (subset) transform of the truth table.

    Entry S is sum over T subset of S of (-1)^|S - T| f(T), computed one
    axis (variable) at a time.
    """
    c = _truth_array(f)
    for axis in range(f.n_vars):
        v = c.swapaxes(0, axis)
        v[1] -= v[0]
    return c


def anf(f):
    """Positive-polarity Reed-Muller coefficients (Moebius transform mod 2).

    Index = monomial mask with x1 most significant; coefficient 1 means
    the product of the masked variables appears in the XOR expansion.
    """
    return tuple((_mobius(f) % 2).reshape(-1).tolist())


def function_from_anf(n_vars, coeffs):
    """Inverse of :func:`anf` (the transform is an involution)."""
    return BooleanFunction(n_vars, anf(BooleanFunction(n_vars, coeffs)))


def davio(f, i):
    """Positive Davio cofactors: f = f0 xor x_i * (f0 xor f1).

    ``i`` is 1-based; both returned functions keep all n variables and
    are constant in x_i.
    """
    i = tz._int(i, "variable indices", 1, f.n_vars)
    t = _truth_array(f)
    f0 = np.take(t, [0], axis=i - 1)
    deriv = f0 ^ np.take(t, [1], axis=i - 1)
    return tuple(BooleanFunction(f.n_vars, np.broadcast_to(c, t.shape).flat)
                 for c in (f0, deriv))


def multilinear(f):
    """Real multilinear polynomial agreeing with f on {0,1}^n.

    Returns a map from sorted variable-index tuples (1-based) to integer
    coefficients; the empty tuple is the constant term.
    """
    c = _mobius(f)
    return {
        tuple(k + 1 for k, b in enumerate(idx) if b): int(c[tuple(idx)])
        for idx in np.argwhere(c)
    }


def evaluate_multilinear(coeffs, bits):
    return sum(c * math.prod(bits[v - 1] for v in vars_)
               for vars_, c in coeffs.items())


# ---------------------------------------------------------------------------
# Boolean quantum states

def boolean_state(f, mode="postselected"):
    """Appended: sum_x |x>|f(x)>; postselected: sum_x f(x)|x>."""
    n = f.n_vars
    if mode == "appended":
        return _graph_tensor(_truth_array(f), [DOWN] * (n + 1))
    if mode == "postselected":
        return Tensor(_truth_array(f), [DOWN] * n)
    raise ShapeError(f"unknown mode {mode!r}")


def linear_state(c0, cs):
    """Affine-indicator state sum_x (c0 xor xor_i c_i x_i)|x>."""
    ((c0, *cs),) = tz._ints(((c0, *cs),), "coefficients", 0, 1)
    n = len(cs)
    fn = BooleanFunction.from_callable(
        n, lambda *bits: c0 ^ (sum(c * b for c, b in zip(cs, bits)) % 2)
    )
    return boolean_state(fn, "postselected")


def polarity_state(f):
    """Sign state sum_x (-1)^f(x) |x>."""
    return Tensor(1 - 2 * _truth_array(f), [DOWN] * f.n_vars)


def boolean_density(f):
    """rho_B = sum_{x,y} f(x) f(y) |x><y| (unnormalized projector)."""
    v = np.array(f.truth, dtype=complex)
    tz._check_size("density operator", v.shape * 2)
    return tz.operator(np.outer(v, v))


def boolean_partial_trace(f, k):
    """Partial trace of rho_B over the k-th bit (1-based)."""
    k = tz._int(k, "bit indices", 1, f.n_vars)
    m = np.moveaxis(_truth_array(f), k - 1, 0).reshape(2, -1)
    return tz.operator(m.T @ m)


def diagonal_map(psi):
    """Diagonal operator L with L |+...+> = psi (amplitudes on the
    diagonal)."""
    return tz.operator(np.diag(tz._tensor(psi, "state").data.reshape(-1)))


def spin_to_pseudo_boolean(h_terms):
    """Convert diagonal spin-string terms to multilinear x-coefficients.

    Terms are (coefficient, letters) with letters over {I, Z}, or
    (coefficient, iterable of 1-based spin positions), where a position
    listed twice cancels (Z Z = I).  Substituting s_i = 1 - 2 x_i expands
    each product of Z factors.
    """
    coeffs = {}
    for coeff, spec in h_terms:
        if isinstance(spec, str):
            bad = [letter for letter in spec if letter not in "IZ"]
            if bad:
                raise ShapeError(f"non-diagonal term letter {bad[0]!r}")
            spec = [pos for pos, z in enumerate(spec, start=1) if z == "Z"]
        (spec,) = tz._ints((spec,), "spin positions", 1)
        positions = sorted(p for p in set(spec) if spec.count(p) % 2)
        for r in range(len(positions) + 1):
            for subset in itertools.combinations(positions, r):
                key = tuple(subset)
                coeffs[key] = coeffs.get(key, 0) + coeff * (-2) ** r
    return {k: v for k, v in coeffs.items() if v != 0}


def stabilizer_form_state(f, g, k):
    """sum_x (-1)^f(x) i^g(x) k(x) |x> for same-arity Boolean triples."""
    if not (f.n_vars == g.n_vars == k.n_vars):
        raise ShapeError("f, g, k must share the same number of variables")
    data = np.where(_truth_array(g), 1j, 1) * (1 - 2 * _truth_array(f))
    return Tensor(data * _truth_array(k), [DOWN] * f.n_vars)


# ---------------------------------------------------------------------------
# counting

def _clause_effect(clause, bent=(), summed=()):
    """Exact effect tensor over the clause's literal wires: 1 iff
    satisfied, with the legs the bool tuple ``summed`` flags summed out
    and kets on the kept legs ``bent`` flags.

    Only the one assignment that falsifies every literal gets a 0, so
    with s legs summed every entry is 2^s but that one, 2^s - 1.  Up to 3
    literals the tensor comes from a constant table keyed by that
    assignment, ``bent`` and ``summed`` (empty: no leg), once its size
    passes ``tz._check_size``.
    """
    w = len(clause)
    tz._check_size("clause", (2,), w)
    effect = _clause_table if w <= 3 else _clause_table.__wrapped__
    return effect(tuple([lit < 0 for lit in clause]), bent or (False,) * w,
                  summed)


@functools.cache
def _clause_table(falsifying, bent, summed):
    summed = summed or (False,) * len(bent)
    kept = [(f, b) for f, b, s in zip(falsifying, bent, summed) if not s]
    scale = 2 ** (len(falsifying) - len(kept))
    data = np.full((2,) * len(kept), float(scale))
    data[tuple([int(f) for f, _ in kept])] -= 1
    return Tensor._trusted(data, tuple([DOWN if b else UP for _, b in kept]),
                           scale)


@functools.cache
def _ones(exact):
    """The 1-leg COPY spider: the all-ones ket."""
    return copy_tensor(1, exact=exact)


def _spider_network(factors, open_wires, exact=False):
    """Network joining the factors' legs that share a wire.

    ``factors`` are ``(id, make, wires)``: leg k is on wire ``wires[k]``,
    a tuple (ints number the factors' legs), and ``make(bent, summed)`` is
    the factor, an effect, with the legs the bool tuple ``summed`` flags
    (empty: none) summed out and kets on the legs ``bent`` flags.
    ``open_wires`` are the open legs, in order.  Each factor leg kept is
    labelled with its wire.  A wire is a COPY spider with a leg on each
    of its ends, fused away by their number:

    - two ends: a bond, as the 2-leg spider is the identity: its later
      factor leg is bent to a ket; its other end is a factor leg (a
      trace if both are on one factor) or the open leg;
    - one end: a closed wire's one factor leg is summed, as the 1-leg
      spider is the all-ones effect; an open wire on no factor is that
      spider as a ket, the node ``w`` (the 1-leg COPY tensor);
    - three or more: the hyperindex ``w`` of :class:`tnq.network.Network`;
      an open one's first factor leg is bent to a ket, whose orientation
      the open leg takes.
    """
    ends = {w: [w] for w in open_wires}  # the open leg first
    nodes, first = [], 0  # the factors' legs are numbered 0, 1, 2, ...
    for n, make, wires in factors:
        legs = range(first, first + len(wires))
        first = legs.stop
        for w, leg in zip(wires, legs):
            ends.setdefault(w, []).append(leg)
        nodes.append((n, make, legs, wires))
    # the legs bent to kets, and those summed out
    kets, summed, built = set(), set(), []
    for w, legs in ends.items():
        if len(legs) == 2 or len(legs) > 2 and legs[0] == w:
            kets.add(legs[1])
        elif len(legs) == 1 and legs[0] == w:
            built.append((w, _ones(exact), legs))
        elif len(legs) == 1:
            summed.add(legs[0])
    for n, make, legs, wires in nodes:
        bent = tuple(map(kets.__contains__, legs))
        if summed.isdisjoint(legs):  # most factors: a cheaper path
            built.append((n, make(bent, ()), wires))
        else:
            built.append((n, make(bent, tuple(map(summed.__contains__, legs))),
                          [w for k, w in zip(legs, wires) if k not in summed]))
    return Network(built, open_wires)


def cnf_state_network(cnf, closed=False):
    """Exact network whose contraction is the post-selected solution
    state.

    One satisfaction effect per clause, whose legs lie on the wires
    ``("var", i)`` of its variables, joined by :func:`_spider_network`:
    a wire with two ends is a bond, one with three or more the
    hyperindex ``("var", i)``; the open legs are ordered x1..xn.  With
    ``closed=True`` every open leg is capped by the all-ones effect,
    which spider fusion absorbs: each wire loses its open leg, a
    variable in one clause is summed in that clause's effect, the k
    variables in no clause become one scalar 2^k, and the network
    contracts to the model count <+...+|psi>.  Clause effects come
    pre-bent and pre-summed from a constant table by shape.
    """
    factors = [(("clause", j), functools.partial(_clause_effect, clause),
                [("var", abs(lit)) for lit in clause])
               for j, clause in enumerate(cnf.clauses)]
    unused = cnf.n_vars - len({abs(l) for c in cnf.clauses for l in c})
    if closed and unused:
        scalar = Tensor._exact(2**unused, ())
        factors.append((("var", "unused"), lambda bent, summed: scalar, ()))
    opened = () if closed else [("var", i) for i in range(1, cnf.n_vars + 1)]
    return _spider_network(factors, opened, True)


def count_sat(obj, engine="tensor"):
    """Number of satisfying assignments of a CNF formula or function.

    The tensor engine contracts the closed #SAT network of a CNF
    (:func:`cnf_state_network` with ``closed=True``) through the network
    planner, and a truth table's exact tensor with itself: exact integer
    tensors, so the count is exact at any size (see :mod:`tnq.tensor`).
    A plan whose intermediate would fail ``tz._check_size`` raises
    ``SizeCapError``.  The enumeration engine is the oracle.
    """
    if engine == "enumerate":
        if isinstance(obj, CnfFormula):
            obj = obj.to_function()
        if isinstance(obj, BooleanFunction):
            return sum(obj.truth)
        raise ShapeError("count_sat expects a BooleanFunction or CnfFormula")
    if engine != "tensor":
        raise ShapeError(f"unknown engine {engine!r}")
    if isinstance(obj, BooleanFunction):
        psi = Tensor._exact(_truth_array(obj), [DOWN] * obj.n_vars)
        legs = range(obj.n_vars)
        count = tz.contract(psi, legs, tz.bend_all(psi), legs)
    elif isinstance(obj, CnfFormula):
        count = contract_network(cnf_state_network(obj, closed=True))
    else:
        raise ShapeError("count_sat expects a BooleanFunction or CnfFormula")
    # .real: a network without nodes contracts to the complex scalar 1
    return int(count.data.real)


# ---------------------------------------------------------------------------
# circuits as constraint networks

@functools.cache
def _gate_effect(name, bent, summed):
    """Constant table of gate indicators: legs are the input wires, then
    the output wires; the legs the bool tuple ``summed`` flags (empty:
    none) are summed out, and the others are kets where ``bent`` flags,
    else bras."""
    summed = summed or (False,) * len(bent)
    if name == "COPY":
        data = copy_tensor(3).data
    else:
        arity, fn = _GATE_FNS[name]
        data = _graph_tensor(fn(*np.indices((2,) * arity)),
                             UP * (arity + 1)).data
    return Tensor(data.sum(tuple([k for k, s in enumerate(summed) if s])),
                  [DOWN if b else UP for b, s in zip(bent, summed) if not s])


def network_from_circuit(gates, inputs, outputs=(), postselect=None):
    """Constraint network for a classical circuit.

    ``gates`` is a list of {"gate": name, "in": [wires], "out": wire},
    where name is a gate of ``gates._GATE_FNS`` (AND, OR, XOR, NAND, NOR,
    XNOR, NOT, CONST0, CONST1) or COPY, which also takes "out2".  Each
    gate is an effect whose legs lie on its input wires, then its output
    wires; each wire ``("wire", w)`` joins them as a COPY spider, fused
    as :func:`_spider_network` does for the CNF variables (a bond, a
    summed leg or a hyperindex), so the contraction sums over consistent
    wire assignments.  Open legs are the ``inputs`` followed by ``outputs``,
    each wire at most once; ``postselect`` maps wire names to fixed bits.
    """
    postselect = dict(postselect or {})
    post_bits = _bits(postselect.values(), len(postselect))
    inputs = list(inputs)
    open_wires = inputs + list(outputs)
    if len(set(open_wires)) < len(open_wires):
        w = next(w for k, w in enumerate(open_wires) if w in open_wires[:k])
        raise ShapeError(f"wire {w!r} is listed twice among inputs "
                         f"and outputs")

    produced, parsed = {}, []
    for gi, g in enumerate(gates):
        name = g["gate"].upper()
        wires_in = list(g.get("in", ()))
        out = g["out"]
        if name != "COPY" and name not in _GATE_FNS:
            raise ShapeError(f"unknown gate {name!r}")
        arity = 1 if name == "COPY" else _GATE_FNS[name][0]
        if len(wires_in) != arity:
            raise ShapeError(f"gate {name} expects {arity} inputs")
        if name == "COPY" and "out2" not in g:
            raise ShapeError("COPY gate needs 'out' and 'out2'")
        outs = [out, g["out2"]] if name == "COPY" else [out]
        for w in outs:
            if w in produced:
                raise ShapeError(f"wire {w!r} produced twice")
            produced[w] = gi
        parsed.append((name, wires_in, outs))

    # dangling check: every gate input must be driven or be a circuit input
    driven = {*produced, *inputs}
    for w in [w for _, wires_in, _ in parsed for w in wires_in]:
        if w not in driven:
            raise ShapeError(f"dangling wire {w!r}")

    # cycle check over declared gate directions: each gate after the
    # gates driving its inputs
    drivers = {gi: [produced[w] for w in wires_in if w in produced]
               for gi, (_, wires_in, _) in enumerate(parsed)}
    try:
        graphlib.TopologicalSorter(drivers).prepare()
    except graphlib.CycleError:
        raise ShapeError("cyclic wiring") from None

    factors = [(("gate", gi), functools.partial(_gate_effect, name),
                [("wire", w) for w in wires_in + outs])
               for gi, (name, wires_in, outs) in enumerate(parsed)]
    factors += [(("post", w), functools.partial(_gate_effect, f"CONST{bit}"),
                 [("wire", w)]) for w, bit in zip(postselect, post_bits)]
    # a postselected bit b is the effect <b|, the gate CONSTb
    return _spider_network(factors, [("wire", w) for w in open_wires])


def circuit_state(gates, inputs, outputs=(), postselect=None):
    """Contract the circuit network to an all-ket state tensor."""
    return contract_network(
        network_from_circuit(gates, inputs, outputs, postselect)
    )
