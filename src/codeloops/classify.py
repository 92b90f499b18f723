"""Classification of CVSs up to isomorphism and up to isotopy.

A state is the basis data (sigma, chi, alpha) of a CVS over F_p, packed
into N = k + C(k,2) + C(k,3) coordinates, sigma first and alpha last.
Two SFMLs are isomorphic, preserving Z, exactly when their CVSs are
isomorphic up to a scalar, so the isomorphism classes are the orbits of
GL(k, p) x F_p^* on states.  Isotopy classes also close under the adjoint
translations chi -> chi + alpha(., e_i, .), which generate all translates
since adt_k adt_k' = adt_{k+k'}.

For odd p every one of these generators acts linearly on the packed
state: a basis change pulls sigma, chi and alpha back along M, a scalar
multiplies every entry and a translation adds alpha to chi.  So each
generator is a matrix over F_p, one matrix product gives the image of
every state, and the orbits are the connected components of the graph
joining each state to its images.  States are ranked in packed order over
their free coordinates (sigma is zero at exponent p and alpha is zero for
p > 3), and min-label propagation leaves each state labelled with the
smallest state of its orbit, which is the class representative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cvs import (Cvs, adjoint_translate, cvs_new, exact_float, is_prime,
                  pair_list, pullback_tables, rad_alpha, rad_chi, triple_list)
from .modular import basis_vector, row_reduce
from .tables import MAX_ENTRIES, reduce_mod

_IMAGE_CHUNK = 1 << 12  # states imaged per matrix product


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
    if p > 2 and k >= 1:
        D = np.eye(k, dtype=np.int64)
        D[0, 0] = 2
        gens.append(D)
    return gens


def _split(state, k: int) -> tuple:
    """(sigma, chi, alpha) tuples of a packed state."""
    state = [int(v) for v in state]
    npairs = len(pair_list(k))
    return (tuple(state[:k]), tuple(state[k:k + npairs]),
            tuple(state[k + npairs:]))


def _tables(C: Cvs) -> tuple:
    return C.sigma_basis, C.chi_flat, C.alpha_flat


def _matrix(image, p: int, k: int, free: np.ndarray) -> np.ndarray:
    """The matrix over F_p, on the free coordinates, of a map that is linear
    in the packed state: column j is image(C) for the CVS C of the j-th
    free unit state.  image returns (sigma, chi, alpha) tuples."""
    cols = np.flatnonzero(free)
    G = np.zeros((len(cols), len(cols)))
    for c, j in enumerate(cols):
        unit = np.zeros(len(free), dtype=np.int64)
        unit[j] = 1
        out = np.concatenate([np.asarray(t, dtype=np.int64)
                              for t in image(Cvs(p, k, *_split(unit, k)))])
        G[:, c] = out[free] % p
    return G


def _digits(ranks, p: int, n: int) -> np.ndarray:
    """Base-p digits of ranks over n coordinates, most significant first."""
    return (np.asarray(ranks)[..., None] // p ** np.arange(n - 1, -1, -1)) % p


def _image_ranks(gens: list, p: int, n: int, n_states: int) -> np.ndarray:
    """Row g holds the rank of gens[g] s for every state s, states taken in
    rank order, as int32.  The product's entries are integers of at most
    n (p - 1)^2: it runs in exact_float's dtype and is reduced mod p in the
    narrowest integer dtype holding them and p (an int64 % was slower)."""
    w = p ** np.arange(n - 1, -1, -1)
    bound = n * (p - 1) ** 2 + 1
    fl, narrow = exact_float(bound, "images"), np.min_scalar_type(bound + p)
    GT = np.concatenate(gens).T.astype(fl)
    out = np.empty((len(gens), n_states), dtype=np.int32)
    for lo in range(0, n_states, _IMAGE_CHUNK):
        ranks = np.arange(lo, min(lo + _IMAGE_CHUNK, n_states))
        images = (_digits(ranks, p, n).astype(fl) @ GT).astype(narrow)
        images = reduce_mod(images, p).reshape(len(ranks), len(gens), n)
        out[:, lo:lo + len(ranks)] = (images @ w).T
    return out


def _components(images: list, label: np.ndarray) -> np.ndarray:
    """Smallest state of every state's connected component in the graph
    joining each s to img[s], for every img in images.  label must map each
    state into its own component at or below it (arange does).

    Min-label propagation: both ends of every edge hook their roots to the
    smaller label, then pointer jumping flattens every tree onto its root,
    until a round changes nothing."""
    label = label.copy()
    while True:
        before = label.copy()
        for img in images:
            ends = (label.copy(), label[img])
            low = np.minimum(*ends)
            for end in ends:
                np.minimum.at(label, end, low)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
        if np.array_equal(label, before):
            return label


def state_invariants(state, k: int, p: int) -> dict:
    """Radical dimensions of chi and alpha and whether rad alpha lies in
    rad chi; these are isomorphism invariants (and partially isotopy
    invariants)."""
    sig, chi, alpha = state
    C = Cvs(p, k, tuple(sig), tuple(chi), tuple(alpha))
    rc, ra = rad_chi(C), rad_alpha(C)
    return {
        "chi_trivial": not any(chi),
        "rad_chi_dim": len(rc),
        "rad_alpha_dim": len(ra),
        "rad_alpha_in_rad_chi":
            len(row_reduce(rc + ra, p)) == len(rc),
    }


def total_state_count(p, k, exponent, nonassoc):
    """Size of the state space being classified."""
    npairs = len(pair_list(k))
    ntrip = len(triple_list(k))
    nsig = 1 if exponent == p else p ** k
    nalpha = 1 if p > 3 else p ** ntrip
    if nonassoc:
        nalpha -= 1
    return nsig * (p ** npairs) * nalpha


def classify(p: int, dim: int, exponent: int,
             nonassoc: bool = False) -> ClassifyResult:
    """Partition the state space into isomorphism and isotopy classes.

    Only odd p is supported.  For p = 2, sigma(Mc) is not linear in M,
    but the action on states is still linear (not yet implemented), and
    every isotope is isomorphic to the original anyway (G-loops).  State
    spaces above tables.MAX_ENTRIES are refused before anything is
    allocated: ranks and labels are int32, and every generator keeps one
    image rank per state.  3^14 (dim 4, exponent 9) and 5^10 (p = 5, dim 4,
    exponent 25) are below it."""
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    if p == 2:
        raise ValueError("classification is implemented for odd p; over "
                         "F_2 isotopy adds nothing (G-loops)")
    if dim < 0:
        raise ValueError("dimension must be >= 0, got %d" % dim)
    if exponent not in (p, p * p):
        raise ValueError("exponent must be p or p^2, got %d" % exponent)
    k = dim
    npairs = len(pair_list(k))
    free = np.concatenate([np.full(k, exponent != p), np.ones(npairs, bool),
                           np.full(len(triple_list(k)), p <= 3)])
    n_alpha = int(free[k + npairs:].sum())
    if nonassoc and not n_alpha:
        raise ValueError("no nonassociative CVS exists here (alpha "
                         "forced to vanish)")
    n = int(free.sum())
    n_states = p ** n
    if n_states > MAX_ENTRIES:
        raise ValueError("%d^%d states exceed the classification limit %d"
                         % (p, n, MAX_ENTRIES))

    gens = [_matrix(lambda C, M=M: pullback_tables(C, M.T), p, k, free)
            for M in _gl_generators(k, p)]
    gens += [a * np.eye(n) for a in range(2, p)]
    adts = [_matrix(lambda C, i=i: _tables(adjoint_translate(
        C, basis_vector(i, k, p))), p, k, free) for i in range(k)]
    images = list(_image_ranks(gens + adts, p, n, n_states))
    iso = _components(images[:len(gens)], np.arange(n_states, dtype=np.int32))
    isotopy = _components(images, iso)

    # alpha holds the lowest digits; alpha != 0 is preserved by every
    # generator, so the nonassociative states are a union of orbits
    ranks = np.arange(n_states)
    keep = ranks % p ** n_alpha != 0 if nonassoc else np.ones(n_states, bool)
    reps, sizes = np.unique(iso[keep], return_counts=True)

    def state(rank):
        packed = np.zeros(len(free), dtype=np.int64)
        packed[free] = _digits(rank, p, n)
        return _split(packed, k)

    iso_classes = tuple(
        IsoClass(state(r), int(s), state_invariants(state(r), k, p))
        for r, s in zip(reps, sizes))
    groups = {}
    for idx, r in enumerate(reps):
        groups.setdefault(int(isotopy[r]), []).append(idx)
    isotopy_classes = tuple(tuple(g) for g in groups.values())
    isotopy_reps = tuple(iso_classes[g[0]].rep for g in isotopy_classes)
    return ClassifyResult(p, dim, exponent,
                          total_state_count(p, k, exponent, nonassoc),
                          iso_classes, isotopy_classes, isotopy_reps)


def rep_to_cvs(rep, p: int, k: int) -> Cvs:
    sig, chi, alpha = rep
    chid = {pr: v for pr, v in zip(pair_list(k), chi) if v}
    alphad = {tr: v for tr, v in zip(triple_list(k), alpha) if v}
    return cvs_new(p, k, sig, chid, alphad)
