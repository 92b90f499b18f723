"""Classification of CVSs up to isomorphism and up to isotopy.

States are basis tables (sigma, chi, alpha) over F_p.  Isomorphism orbits
come from a BFS under generators of GL(k, p) acting by basis change plus
rescaling of the value group; isotopy orbits additionally close under the
adjoint translations chi -> chi + alpha(., e_i, .), which generate all
translates since adt_k adt_k' = adt_{k+k'}.

For dimension >= 4 over an odd prime the seed enumeration is pruned by
first checking (by BFS on the alpha component alone) that nonzero alpha
is unique up to basis change, then seeding only states carrying that
canonical alpha; a full-enumeration cross-check runs at dimension <= 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cvs import Cvs, cvs_new, pair_list, signed_forms, triple_list
from .modular import _rank_mod_p


@dataclass(frozen=True)
class IsoClass:
    rep: tuple          # (sigma, chi_flat, alpha_flat)
    size: int
    invariants: dict


@dataclass(frozen=True)
class ClassifyResult:
    p: int
    dim: int
    exponent: int
    n_states: int
    iso_classes: tuple      # IsoClass, ordered by packed rep
    isotopy_classes: tuple  # tuples of iso-class indices
    isotopy_reps: tuple     # rep state of each isotopy class

    @property
    def n_iso(self):
        return len(self.iso_classes)

    @property
    def n_isotopy(self):
        return len(self.isotopy_classes)


def _gl_generators(k: int, p: int) -> list:
    gens = []
    if k >= 2:
        E = np.eye(k, dtype=np.int64)
        E[0, 1] = 1
        gens.append(E)
        S = np.eye(k, dtype=np.int64)
        S[[0, 1]] = S[[1, 0]]
        gens.append(S)
        C = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            C[(i + 1) % k, i] = 1
        gens.append(C)
    if p > 2:
        D = np.eye(k, dtype=np.int64)
        D[0, 0] = 2
        gens.append(D)
    return gens


def _pack(sig, chi, alpha, p: int) -> int:
    key = 0
    for v in itertools.chain(sig, chi, alpha):
        key = key * p + int(v)
    return key


def _flat_chi(X, k):
    return tuple(int(X[i, j]) for i, j in pair_list(k))


def _flat_alpha(A, k):
    return tuple(int(A[i, j, l]) for i, j, l in triple_list(k))


class _State:
    """Mutable working form of a state: (sigma vector, chi matrix,
    alpha tensor)."""

    __slots__ = ("sig", "X", "A")

    def __init__(self, sig, X, A):
        self.sig = sig
        self.X = X
        self.A = A

    @classmethod
    def from_tuples(cls, state, k, p):
        sig, chi, alpha = state
        return cls(np.array(sig, dtype=np.int64),
                   *signed_forms(k, p, chi, alpha))

    def to_tuples(self, k):
        return (tuple(int(v) for v in self.sig), _flat_chi(self.X, k),
                _flat_alpha(self.A, k))

    def key(self, k, p):
        s, c, a = self.to_tuples(k)
        return _pack(s, c, a, p)


def _apply_matrix(st: _State, M: np.ndarray, p: int) -> _State:
    """Basis change: column i of M is the i-th new basis vector.  sigma is
    linear for odd p (the only case this classifier enumerates sigma for)."""
    sig = (M.T @ st.sig) % p
    X = (M.T @ st.X @ M) % p
    A = np.einsum("abc,ai,bj,cl->ijl", st.A, M, M, M) % p
    return _State(sig, X, A)


def _apply_scalar(st: _State, a: int, p: int) -> _State:
    return _State((a * st.sig) % p, (a * st.X) % p, (a * st.A) % p)


def _apply_adt(st: _State, i: int, p: int) -> _State:
    X = (st.X + st.A[:, i, :]) % p
    return _State(st.sig.copy(), X, st.A.copy())


def _orbit(seed, k, p, matrices, scalars, adts) -> set:
    """All states reachable from seed; returns the set of packed keys,
    with a dict from key to state tuples filled in out_states."""
    start = _State.from_tuples(seed, k, p)
    seen = {start.key(k, p): seed}
    frontier = [start]
    while frontier:
        nxt = []
        for st in frontier:
            images = [_apply_matrix(st, M, p) for M in matrices]
            images += [_apply_scalar(st, a, p) for a in scalars]
            images += [_apply_adt(st, i, p) for i in adts]
            for im in images:
                key = im.key(k, p)
                if key not in seen:
                    seen[key] = im.to_tuples(k)
                    nxt.append(im)
        frontier = nxt
    return seen


def _nullspace_mod_p(Mrows: np.ndarray, p: int) -> list:
    """Basis of {v : M v = 0} over F_p, rows as the matrix."""
    M = [[int(x) % p for x in row] for row in np.asarray(Mrows).tolist()]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for rr in range(r, rows):
            if M[rr][c] % p:
                piv = rr
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [(x * inv) % p for x in M[r]]
        for rr in range(rows):
            if rr != r and M[rr][c]:
                f = M[rr][c]
                M[rr] = [(x - f * y) % p for x, y in zip(M[rr], M[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-M[ri][fc]) % p
        basis.append(v)
    return basis


def state_invariants(state, k: int, p: int) -> dict:
    """Radical dimensions of chi and alpha and their containment; these
    are isomorphism invariants (and partially isotopy invariants)."""
    sig, chi, alpha = state
    X, A = signed_forms(k, p, chi, alpha)
    rad_chi = _nullspace_mod_p(X, p)
    Aflat = A.reshape(k, k * k).T  # columns indexed by v-slot: rows (j,l)
    rad_alpha = _nullspace_mod_p(Aflat, p)
    contained = True
    if rad_alpha:
        stacked = [list(r) for r in rad_chi]
        base_rank = _rank_mod_p([r[:] for r in stacked], p) if stacked else 0
        for v in rad_alpha:
            grown = _rank_mod_p([r[:] for r in stacked] + [list(v)], p)
            if grown != base_rank:
                contained = False
                break
    return {
        "chi_trivial": not any(chi),
        "rad_chi_dim": len(rad_chi),
        "rad_alpha_dim": len(rad_alpha),
        "rad_alpha_in_rad_chi": contained,
    }


def _enumerate_seeds(p, k, exponent, nonassoc, prune):
    npairs = len(pair_list(k))
    ntrip = len(triple_list(k))
    if exponent == p:
        sigs = [(0,) * k]
    elif exponent == p * p:
        sigs = list(itertools.product(range(p), repeat=k))
    else:
        raise ValueError("exponent must be p or p^2, got %d" % exponent)
    if p > 3:
        alphas = [(0,) * ntrip]
    else:
        alphas = list(itertools.product(range(p), repeat=ntrip))
    if nonassoc:
        alphas = [a for a in alphas if any(a)]
        if not alphas:
            raise ValueError("no nonassociative CVS exists here (alpha "
                             "forced to vanish)")
    pruned_note = None
    if prune and k >= 4 and p in (2, 3) and nonassoc:
        # alpha is unique up to basis change; verify, then fix it
        gens = _gl_generators(k, p)
        seen = set()
        classes = []
        for a in alphas:
            key = _pack((), (), a, p)
            if key in seen:
                continue
            orb = _orbit(((0,) * k, (0,) * npairs, a), k, p, gens, (), ())
            keys = {_pack((), (), s[2], p) for s in orb.values()}
            seen |= keys
            classes.append(min(s[2] for s in orb.values()))
        if len(classes) == 1:
            alphas = [classes[0]]
            pruned_note = "alpha fixed to its unique class"
        # otherwise fall through to the full product
    chis = list(itertools.product(range(p), repeat=npairs))
    seeds = [(s, c, a) for s in sigs for a in alphas for c in chis]
    return seeds, pruned_note


def total_state_count(p, k, exponent, nonassoc):
    """Size of the full (unpruned) state space being classified."""
    npairs = len(pair_list(k))
    ntrip = len(triple_list(k))
    nsig = 1 if exponent == p else p ** k
    nalpha = 1 if p > 3 else p ** ntrip
    if nonassoc:
        nalpha -= 1
    return nsig * (p ** npairs) * nalpha


def classify(p: int, dim: int, exponent: int, nonassoc: bool = False,
             prune: bool = True) -> ClassifyResult:
    """Partition the state space into isomorphism and isotopy classes.

    Only odd p is supported (for p = 2 sigma transforms nonlinearly, and
    every isotope is isomorphic to the original anyway)."""
    if p == 2:
        raise ValueError("classification is implemented for odd p; over "
                         "F_2 isotopy adds nothing (G-loops)")
    k = dim
    matrices = _gl_generators(k, p)
    scalars = tuple(range(2, p))
    seeds, note = _enumerate_seeds(p, k, exponent, nonassoc, prune)

    visited = set()
    iso_orbits = []
    for seed in sorted(seeds, key=lambda s: _pack(*s, p)):
        key = _pack(*seed, p)
        if key in visited:
            continue
        orb = _orbit(seed, k, p, matrices, scalars, ())
        visited |= set(orb.keys())
        rep = min(orb.values(), key=lambda s: _pack(*s, p))
        iso_orbits.append((rep, orb))
    iso_orbits.sort(key=lambda t: _pack(*t[0], p))

    expected = total_state_count(p, k, exponent, nonassoc)
    if len(visited) != expected:
        raise AssertionError("orbit union covers %d of %d states; seed "
                             "pruning was unsound" % (len(visited), expected))

    # isotopy: close each iso orbit under the adjoint translations too
    adts = tuple(range(k))
    key_to_iso = {}
    for idx, (_, orb) in enumerate(iso_orbits):
        for key in orb.keys():
            key_to_iso[key] = idx
    merged = []
    assigned = {}
    for idx, (rep, _) in enumerate(iso_orbits):
        if idx in assigned:
            continue
        orb = _orbit(rep, k, p, matrices, scalars, adts)
        group = sorted({key_to_iso[key] for key in orb.keys()})
        for g in group:
            assigned[g] = len(merged)
        merged.append(tuple(group))

    iso_classes = tuple(
        IsoClass(rep, len(orb), state_invariants(rep, k, p))
        for rep, orb in iso_orbits)
    isotopy_reps = tuple(iso_orbits[grp[0]][0] for grp in merged)
    return ClassifyResult(p, dim, exponent, expected, iso_classes,
                          tuple(merged), isotopy_reps)


def rep_to_cvs(rep, p: int, k: int) -> Cvs:
    sig, chi, alpha = rep
    chid = {pr: v for pr, v in zip(pair_list(k), chi) if v}
    alphad = {tr: v for tr, v in zip(triple_list(k), alpha) if v}
    return cvs_new(p, k, sig, chid, alphad)
