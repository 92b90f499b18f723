"""Structure theory over explicit Cayley tables.

Everything here works on a LoopTable: an n x n array over indices 0..n-1
that is a Latin square with a two-sided identity and two-sided inverses
satisfying the inverse property.  Functions are exhaustive scans (chunked
numpy gathers), so they are meant for desk-scale loops; the intended
ceiling is a few hundred elements for the cubic scans.

Each structure of a table (divisions, inverses, element orders, nucleus
and Moufang-center masks, commutators, associator values, upper central
series) is a cached property of the LoopTable, computed once; the nucleus
and the associator values share one scan of the n^3 associators.
frattini picks one algorithm per loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .cvs import CheckResult, ValidationReport
from .tables import MAX_ENTRIES

SCAN_MAX = 512  # largest order whose n^3 triples are scanned
LATTICE_ORACLE_MAX = 128
SUBLOOP_CAP = 4096
ISO_SEARCH_MAX = 256
_SCAN_CHUNK = 1 << 16  # associator triples per gather: small blocks stay in cache


@dataclass(frozen=True)
class Subloop:
    """A sorted index set closed under the table's product."""

    members: tuple

    def __len__(self):
        return len(self.members)

    def __contains__(self, idx):
        return idx in set(self.members)


class LoopTable:
    """Validated Cayley table; table[a, b] is the index of a*b."""

    def __init__(self, table):
        arr = np.asarray(table)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("table must be square")
        n = arr.shape[0]
        if n > 256:
            arr = arr.astype(np.int32)
        else:
            arr = arr.astype(np.int16)
        self.table = arr
        self.n = n
        self._validate()

    def _validate(self):
        T, n = self.table, self.n
        ar = np.arange(n)
        if T.min() < 0 or T.max() >= n:
            raise ValueError("table entries out of range")
        if not (np.sort(T, axis=1) == ar[None, :]).all():
            bad = int(np.flatnonzero(
                ~(np.sort(T, axis=1) == ar[None, :]).all(axis=1))[0])
            raise ValueError("not a Latin square: row %d repeats an entry" % bad)
        if not (np.sort(T, axis=0) == ar[:, None]).all():
            bad = int(np.flatnonzero(
                ~(np.sort(T, axis=0) == ar[:, None]).all(axis=0))[0])
            raise ValueError("not a Latin square: column %d repeats an entry" % bad)
        ids = np.flatnonzero((T == ar[None, :]).all(axis=1)
                             & (T.T == ar[None, :]).all(axis=1))
        if ids.size != 1:
            raise ValueError("no unique two-sided identity (found %d)" % ids.size)
        self.identity = int(ids[0])
        inv = self.inverse
        if not (T[inv, ar] == self.identity).all():
            raise ValueError("inverses are not two-sided")
        # inverse property: a^-1(ax) = x and (xa)a^-1 = x
        if not (T[inv[:, None], T] == ar[None, :]).all():
            a = int(np.argwhere(T[inv[:, None], T] != ar[None, :])[0][0])
            raise ValueError("left inverse property fails at element %d" % a)
        if not (T[T.T, inv[:, None]] == ar[None, :]).all():
            a = int(np.argwhere(T[T.T, inv[:, None]] != ar[None, :])[0][0])
            raise ValueError("right inverse property fails at element %d" % a)

    @cached_property
    def ldiv(self) -> np.ndarray:
        """ldiv[a, c] = the b with a*b = c."""
        out = np.empty_like(self.table)
        ar = np.arange(self.n)
        rows = np.repeat(ar, self.n)
        out[rows, self.table.ravel()] = np.tile(ar, self.n)
        return out

    @cached_property
    def rdiv(self) -> np.ndarray:
        """rdiv[c, a] = the b with b*a = c."""
        out = np.empty_like(self.table)
        ar = np.arange(self.n)
        cols = np.tile(ar, self.n)
        out[self.table.ravel(), cols] = np.repeat(ar, self.n)
        return out

    @cached_property
    def inverse(self) -> np.ndarray:
        inv = np.empty(self.n, dtype=self.table.dtype)
        pos = np.argwhere(self.table == self.identity)
        inv[pos[:, 0]] = pos[:, 1]
        return inv

    @cached_property
    def element_orders(self) -> np.ndarray:
        T, n, e = self.table, self.n, self.identity
        ar = np.arange(n)
        acc = ar.copy()
        orders = np.zeros(n, dtype=np.int64)
        orders[e] = 1
        for step in range(1, n + 1):
            done = (acc == e) & (orders == 0)
            orders[done] = step
            if orders.all():
                break
            acc = T[ar, acc]
        if not orders.all():
            raise AssertionError("element order exceeded |L|")
        return orders

    @cached_property
    def _associator_scan(self) -> tuple:
        """One pass over all n^3 associators: (seen, trivial), where seen
        marks the associator values and trivial[0][a] (trivial[1][a],
        trivial[2][a]) says [a,x,y] ([x,a,y], [x,y,a]) = 1 for all x, y."""
        seen = np.zeros(self.n, dtype=bool)
        bad = np.zeros((3, self.n), dtype=bool)
        for lo, block in _associator_blocks(self):
            seen[block] = True
            off = block != self.identity
            bad[0, lo:lo + len(block)] = off.any(axis=(1, 2))
            bad[1] |= off.any(axis=(0, 2))
            bad[2] |= off.any(axis=(0, 1))
        return seen, ~bad

    @cached_property
    def nucleus_mask(self) -> np.ndarray:
        """Elements a with (ax)y = a(xy), (xa)y = x(ay) and (xy)a = x(ya):
        the left, middle and right nuclei from the associator scan."""
        return self._associator_scan[1].all(axis=0)

    @cached_property
    def moufang_center_mask(self) -> np.ndarray:
        """Elements that commute with every element."""
        return (self.table == self.table.T).all(axis=1)

    @cached_property
    def commutator_table(self) -> np.ndarray:
        """K[a, b] = (ba) \\ (ab)."""
        T = np.asarray(self.table, dtype=np.int64)
        return np.asarray(self.ldiv, dtype=np.int64)[T.T, T]

    @cached_property
    def associator_values(self) -> np.ndarray:
        """Sorted distinct values of the associator over all triples."""
        if self.n > SCAN_MAX:
            raise ValueError("order %d beyond associator scan budget %d"
                             % (self.n, SCAN_MAX))
        return np.flatnonzero(self._associator_scan[0])

    @cached_property
    def upper_central_series(self) -> tuple:
        """(Z_1, Z_2, ...) with Z_{i+1}/Z_i = Z(L/Z_i), until it stabilizes."""
        chain = [center(self)]
        while len(chain[-1]) < self.n:
            Q, coset = quotient_table(self, chain[-1])
            zq = np.array(center(Q).members, dtype=np.int64)
            nxt = _subloop_from_mask(self, np.isin(coset, zq))
            if len(nxt) == len(chain[-1]):
                break
            chain.append(nxt)
        return tuple(chain)

    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_orders))

    def power(self, a: int, n: int) -> int:
        """a^n with the convention a^(n+1) = a * a^n, which repeats with
        period element_orders[a], so n is reduced by it first."""
        if n < 0:
            return self.power(int(self.inverse[a]), -n)
        acc = self.identity
        for _ in range(n % int(self.element_orders[a])):
            acc = int(self.table[a, acc])
        return acc

    def power_column(self, n: int) -> np.ndarray:
        """x^n for every x at once."""
        ar = np.arange(self.n)
        acc = np.full(self.n, self.identity, dtype=np.int64)
        for _ in range(abs(n)):
            acc = self.table[ar, acc]
        if n < 0:
            acc = np.asarray(self.inverse)[acc]
        return acc

    def __repr__(self):
        return "LoopTable(n=%d)" % self.n


# -- identities ---------------------------------------------------------------

def is_moufang(L: LoopTable):
    """Exhaustive check of the Moufang identity ((dg)e)g = d(g(eg)) over
    all triples.

    This is the right Moufang identity (xy.z)y = x(y.zy) at x, y, z = d, g,
    e, which in a loop implies the left one ((gd)g)e = g(d(ge)) and both
    middle ones (g(de))g = (gd)(eg) = g((de)g) (Bruck, "A Survey of Binary
    Systems", 1958, ch. VII, Lemma 3.1).  Returns (ok, witness); the
    witness is (1, g, d, e) at the first g where the identity fails.
    Gathers read the table in its stored narrow dtype, and columns come
    from one contiguous transposed copy.
    """
    T, n = L.table, L.n
    if n > SCAN_MAX:
        raise ValueError("order %d beyond Moufang scan budget %d"
                         % (n, SCAN_MAX))
    TT = np.ascontiguousarray(T.T)  # TT[x] is the column T[:, x]
    for g in range(n):
        B = TT[g]       # x*g
        lhs = B[T[B]]           # lhs[d, e] = ((dg)e)g
        rhs = TT[T[g, B]].T     # rhs[d, e] = d(g(eg))
        if not np.array_equal(lhs, rhs):
            d, e = np.argwhere(lhs != rhs)[0]
            return False, (1, g, int(d), int(e))
    return True, None


def is_associative(L: LoopTable) -> bool:
    """A loop is associative exactly when its nucleus is all of it."""
    if L.n > SCAN_MAX:
        raise ValueError("order %d beyond associativity scan budget %d"
                         % (L.n, SCAN_MAX))
    return bool(L.nucleus_mask.all())


def mk_law_holds(L: LoopTable, k: int) -> bool:
    """Does c^k(d(ce)) = ((c^k d)c)e hold for all c, d, e?"""
    T, n = np.asarray(L.table, dtype=np.int64), L.n
    if n > SCAN_MAX:
        raise ValueError("order %d beyond scan budget %d" % (n, SCAN_MAX))
    pk = L.power_column(k)
    for c in range(n):
        ck = int(pk[c])
        lhs = T[ck][T[:, T[c]]]            # c^k (d (c e))
        rhs = T[T[:, c][T[ck]]]            # ((c^k d) c) e
        if not np.array_equal(lhs, rhs):
            return False
    return True


# -- centers and nuclei -------------------------------------------------------

def _subloop_from_mask(L: LoopTable, mask: np.ndarray) -> Subloop:
    idx = np.flatnonzero(mask)
    prods = L.table[np.ix_(idx, idx)]
    if not np.isin(prods, idx).all():
        raise AssertionError("member set is not closed under the product")
    return Subloop(tuple(int(i) for i in idx))


def moufang_center(L: LoopTable) -> Subloop:
    return _subloop_from_mask(L, L.moufang_center_mask)


def nucleus(L: LoopTable) -> Subloop:
    return _subloop_from_mask(L, L.nucleus_mask)


def center(L: LoopTable) -> Subloop:
    return _subloop_from_mask(L, L.nucleus_mask & L.moufang_center_mask)


# -- commutators, associators, derived subloops -------------------------------

def _associator_blocks(L: LoopTable):
    """(lo, block) with block[a - lo, b, c] = (a(bc)) \\ ((ab)c), over
    consecutive chunks of a holding at most _SCAN_CHUNK triples.  The
    gathers read the stored int16/int32 tables, and the flat index into
    ldiv is computed in the narrowest signed dtype that holds n^2."""
    T, n = L.table, L.n
    ld = L.ldiv.ravel()
    step = max(1, _SCAN_CHUNK // (n * n))
    for lo in range(0, n, step):
        # a(bc) * n + (ab)c indexes ldiv[a(bc), (ab)c]
        idx = T[lo:lo + step, T].astype(np.min_scalar_type(-n * n))
        idx *= n
        idx += T[T[lo:lo + step]]
        yield lo, ld[idx]


def associator_table(L: LoopTable) -> np.ndarray:
    """Full A[a,b,c] = (a(bc)) \\ ((ab)c) as a compact integer array."""
    n = L.n
    if n ** 3 > MAX_ENTRIES:
        raise ValueError("order %d beyond associator table budget: "
                         "%d^3 > %d entries" % (n, n, MAX_ENTRIES))
    out = np.empty((n, n, n), dtype=np.int16)
    for lo, block in _associator_blocks(L):
        out[lo:lo + len(block)] = block
    return out


def subloop_closure(L: LoopTable, seeds) -> Subloop:
    """Smallest subloop containing the seeds (product closure suffices for
    finite loops: translations restrict to bijections of a closed set)."""
    idx = np.unique(np.asarray(list(seeds) + [L.identity], dtype=np.int64))
    T = L.table
    while True:
        prods = np.unique(T[np.ix_(idx, idx)])
        merged = np.union1d(idx, prods)
        if merged.size == idx.size:
            return Subloop(tuple(int(i) for i in idx))
        idx = merged


def normal_closure(L: LoopTable, seeds) -> Subloop:
    """Smallest normal subloop containing the seeds; normality realized as
    invariance under T_x, L_{x,y}, R_{x,y} (the inner mapping generators)."""
    T = np.asarray(L.table, dtype=np.int64)
    ld = np.asarray(L.ldiv, dtype=np.int64)
    rd = np.asarray(L.rdiv, dtype=np.int64)
    members = np.array(subloop_closure(L, seeds).members, dtype=np.int64)
    while True:
        imgs = set(members.tolist())
        for m in members.tolist():
            A = T[:, m]                       # x*m
            imgs.update(rd[A, np.arange(L.n)].tolist())   # T_x(m) = (xm)/x
            B = T[:, A]                       # B[y, x] = y(xm)
            imgs.update(np.unique(ld[T, B]).tolist())     # L_{x,y}(m)
            E = T[T[m], :]                    # E[x, y] = (mx)y
            imgs.update(np.unique(rd[E, T]).tolist())     # R_{x,y}(m)
        closed = subloop_closure(L, imgs)
        new = np.array(closed.members, dtype=np.int64)
        if new.size == members.size:
            return closed
        members = new


def derived_subloops(L: LoopTable):
    """(L', L*): normal closures of {commutators + associators} and of
    {associators} alone."""
    assoc = L.associator_values
    lprime = normal_closure(L, np.union1d(L.commutator_table, assoc))
    lstar = normal_closure(L, assoc)
    return lprime, lstar


# -- quotients, central series, Frattini --------------------------------------

def quotient_table(L: LoopTable, N: Subloop):
    """Materialize L/N (N must be normal); cosets ordered by least
    representative.  Returns (LoopTable, coset index per element)."""
    T, n = np.asarray(L.table, dtype=np.int64), L.n
    mem = np.array(N.members, dtype=np.int64)
    coset = np.full(n, -1, dtype=np.int64)
    reps = []
    for x in range(n):
        if coset[x] == -1:
            coset[T[x, mem]] = len(reps)
            reps.append(x)
    reps = np.array(reps, dtype=np.int64)
    Q = coset[T[np.ix_(reps, reps)]]
    if not np.array_equal(coset[T], Q[coset][:, coset]):
        raise ValueError("subloop is not normal: coset products inconsistent")
    return LoopTable(Q), coset


def nilpotency_class(L: LoopTable) -> Optional[int]:
    if L.n == 1:
        return 0
    chain = L.upper_central_series
    if len(chain[-1]) == L.n:
        return len(chain)
    return None


def all_subloops(L: LoopTable) -> list:
    """Every subloop, by closing each known subloop with each outside
    element.  Raises if the lattice exceeds SUBLOOP_CAP."""
    seen = {subloop_closure(L, []).members}
    queue = list(seen)
    while queue:
        S = queue.pop()
        inside = set(S)
        for x in range(L.n):
            if x in inside:
                continue
            grown = subloop_closure(L, list(S) + [x]).members
            if grown not in seen:
                seen.add(grown)
                if len(seen) > SUBLOOP_CAP:
                    raise ValueError("subloop lattice exceeds cap %d"
                                     % SUBLOOP_CAP)
                queue.append(grown)
    return sorted(seen)


def frattini(L: LoopTable) -> Subloop:
    """Frattini subloop: the intersection of the maximal subloops.

    One algorithm per loop.  In a finite centrally nilpotent p-loop every
    maximal subloop is normal of index p (Bruck), so Phi(L) is the normal
    closure of the commutators, associators and p-th powers; that formula
    serves every such loop.  Other loops of order <= LATTICE_ORACLE_MAX
    intersect the maximal subloops of the whole lattice; larger ones raise
    ValueError.  The tests check the formula against the lattice.
    """
    n = L.n
    p = _prime_power_base(n)
    if p is not None and nilpotency_class(L) is not None:
        return normal_closure(L, np.unique(np.concatenate([
            L.commutator_table.ravel(), L.associator_values,
            L.power_column(p)])))
    if n > LATTICE_ORACLE_MAX:
        raise ValueError("no Frattini algorithm applies: order %d > %d and "
                         "not a nilpotent prime-power loop"
                         % (n, LATTICE_ORACLE_MAX))
    proper = [set(s) for s in all_subloops(L) if len(s) < n]
    maximal = [s for s in proper if not any(s < t for t in proper)]
    # with no proper subloop (n = 1) every element is a non-generator
    inter = set.intersection(*maximal) if maximal else set(range(n))
    return Subloop(tuple(sorted(inter)))


def _prime_power_base(n: int) -> Optional[int]:
    if n < 2:
        return None
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    return None


# -- torsion ------------------------------------------------------------------

def torsion_components(L: LoopTable, p: int) -> Subloop:
    """L_p = {x : order(x) is a power of p}; verified to be a subloop, and
    for class <= 2 tables elements of the other components commute and
    associate with it."""
    orders = L.element_orders
    mask = np.ones(L.n, dtype=bool)
    for x in range(L.n):
        o = int(orders[x])
        while o % p == 0:
            o //= p
        mask[x] = (o == 1)
    Lp = _subloop_from_mask(L, mask)

    others = np.flatnonzero(~mask)
    if others.size and L.n <= SCAN_MAX:
        cls = nilpotency_class(L)
        if cls is not None and cls <= 2:
            T = np.asarray(L.table, dtype=np.int64)
            ld = np.asarray(L.ldiv, dtype=np.int64)
            mem = np.array(Lp.members, dtype=np.int64)
            K = L.commutator_table
            if (K[np.ix_(mem, others)] != L.identity).any():
                raise AssertionError("cross-component commutator nontrivial")
            # associators with one slot in the complement
            for x in others.tolist():
                lhs = T[T[x, mem][:, None], mem[None, :]]
                rhs = T[x, T[np.ix_(mem, mem)]]
                if (ld[rhs, lhs] != L.identity).any():
                    raise AssertionError("cross-component associator nontrivial")
    return Lp


# -- isomorphism --------------------------------------------------------------

def _profiles(L: LoopTable) -> np.ndarray:
    """Per-element invariant used for pruning: (order, central?, commuting
    count)."""
    orders = L.element_orders
    zmask = L.nucleus_mask & L.moufang_center_mask
    commcount = (L.table == L.table.T).sum(axis=1)
    return np.stack([orders, zmask.astype(np.int64), commcount], axis=1)


def brute_force_isomorphic(L: LoopTable, M: LoopTable) -> Optional[list]:
    """Backtracking isomorphism search; returns the mapping (as a list,
    L-index -> M-index) or None.  Deterministic: generator images are tried
    in increasing index order, so the first hit is lexicographically least."""
    if L.n != M.n:
        return None
    if L.n > ISO_SEARCH_MAX:
        raise ValueError("order %d beyond isomorphism budget %d"
                         % (L.n, ISO_SEARCH_MAX))
    TL = np.asarray(L.table, dtype=np.int64)
    TM = np.asarray(M.table, dtype=np.int64)
    n = L.n
    profL, profM = _profiles(L), _profiles(M)
    if sorted(map(tuple, profL.tolist())) != sorted(map(tuple, profM.tolist())):
        return None

    img = np.full(n, -1, dtype=np.int64)
    pre = np.full(n, -1, dtype=np.int64)

    def assign(x, y, trail):
        """Set img[x] = y and propagate products; record changes in trail."""
        stack = [(x, y)]
        while stack:
            a, b = stack.pop()
            if img[a] == b:
                continue
            if img[a] != -1 or pre[b] != -1:
                return False
            if profL[a].tolist() != profM[b].tolist():
                return False
            img[a] = b
            pre[b] = a
            trail.append((a, b))
            known = np.flatnonzero(img != -1)
            # close under products with everything already known
            pa = TL[a, known]
            qa = TM[b, img[known]]
            pb = TL[known, a]
            qb = TM[img[known], b]
            for src, dst in ((pa, qa), (pb, qb)):
                for s, d in zip(src.tolist(), dst.tolist()):
                    if img[s] == -1 and pre[d] == -1:
                        stack.append((s, d))
                    elif img[s] != d:
                        return False
        return True

    def undo(trail, mark):
        while len(trail) > mark:
            a, b = trail.pop()
            img[a] = -1
            pre[b] = -1

    def solve(trail):
        todo = np.flatnonzero(img == -1)
        if todo.size == 0:
            return True
        x = int(todo[0])
        for y in range(n):
            if pre[y] != -1:
                continue
            mark = len(trail)
            if assign(x, y, trail) and solve(trail):
                return True
            undo(trail, mark)
        return False

    trail = []
    if not assign(L.identity, M.identity, trail):
        return None
    if solve(trail):
        return [int(v) for v in img]
    return None


# -- class-2 identity battery ---------------------------------------------------

def class2_associator_identities(L: LoopTable) -> ValidationReport:
    """Exhaustively verify, on a class <= 2 table, that the associator is
    skew-symmetric and power-linear, the commutator expansion
    [cd,e] = [c,e] [[c,e],d] [d,e] [c,d,e]^3 holds, and the associator
    satisfies the pentagonal and exchange expansions.  The quartic scans
    run over center-coset representatives after checking that commutators
    and associators only depend on those cosets."""
    n = L.n
    if n ** 3 > MAX_ENTRIES:
        raise ValueError("order %d beyond identity battery budget: "
                         "%d^3 > %d entries" % (n, n, MAX_ENTRIES))
    T = np.asarray(L.table, dtype=np.int64)
    ld = np.asarray(L.ldiv, dtype=np.int64)
    inv = np.asarray(L.inverse, dtype=np.int64)
    K = L.commutator_table
    A = associator_table(L).astype(np.int64)
    checks = []

    Z = center(L)
    _, coset = quotient_table(L, Z)
    reps = np.array([int(np.flatnonzero(coset == c)[0])
                     for c in range(int(coset.max()) + 1)], dtype=np.int64)
    repmap = reps[coset]

    okK = np.array_equal(K, K[repmap][:, repmap])
    checks.append(CheckResult("commutator factors through L/Z", "exhaustive", okK))
    okA = np.array_equal(A, A[repmap][:, repmap][:, :, repmap])
    checks.append(CheckResult("associator factors through L/Z", "exhaustive", okA))
    if not (okK and okA):
        return ValidationReport(False, checks)

    m = len(reps)
    Ar = A[np.ix_(reps, reps, reps)]
    Kr = K[np.ix_(reps, reps)]

    # skew symmetry: [c,d,e] = [d,e,c] = [d,c,e]^-1
    ok = (np.array_equal(Ar, Ar.transpose(1, 2, 0))
          and np.array_equal(Ar, inv[Ar.transpose(1, 0, 2)]))
    checks.append(CheckResult("associator skew-symmetry", "exhaustive", ok))

    # power linearity: [c^t,d,e] = [c,d,e]^t for t up to the exponent
    expnt = L.exponent()
    ok = True
    for t in range(expnt + 1):
        pc = L.power_column(t)
        lhs = A[pc[reps]][:, reps][:, :, reps]
        if not np.array_equal(lhs, pc[Ar]):
            ok = False
            break
    checks.append(CheckResult("associator power-linearity", "exhaustive", ok))

    # [cd,e] = [c,e] [[c,e],d] [d,e] [c,d,e]^3
    cd = T[np.ix_(reps, reps)]
    lhs = K[cd][:, :, reps]                         # [cd, e] -> (c,d,e)
    t1 = np.broadcast_to(Kr[:, np.newaxis, :], (m, m, m))        # [c,e]
    t2 = K[Kr[:, None, :], reps[None, :, None]]                  # [[c,e],d]
    t3 = np.broadcast_to(Kr[np.newaxis, :, :], (m, m, m))        # [d,e]
    t4 = L.power_column(3)[Ar]
    rhs = T[T[T[t1, t2], t3], t4]
    ok = np.array_equal(lhs, rhs)
    checks.append(CheckResult("commutator product expansion", "exhaustive", ok))

    # pentagonal identity: a(cd,e,f) = a(c,d,e) a(c,de,f) a(d,e,f) a(c,d,ef)^-1
    ok, wit = _pentagonal(A, T, inv, reps, Ar, cd)
    checks.append(CheckResult("pentagonal associator expansion", "exhaustive",
                              ok, wit))

    # exchange: a(wx,y,z) = a(wz,y,x) a(w,x,y) a(w,y,z) a(x,y,z)^2
    ok, wit = _exchange(A, T, reps, L.power_column(2)[Ar])
    checks.append(CheckResult("exchange identity", "exhaustive", ok, wit))

    return ValidationReport(all(c.ok for c in checks), checks)


def _pentagonal(A, T, inv, reps, Ar, RR):
    """Ar = A over reps^3 and RR = T over reps^2, shared by every c."""
    for c in reps.tolist():
        lhs = A[T[c, reps]][:, reps][:, :, reps]    # a(cd,e,f) -> (d,e,f)
        Ac = A[c, reps]
        a1 = Ac[:, reps]                            # a(c,d,e) -> (d,e)
        a2 = A[c, RR][:, :, reps]                   # a(c,de,f) -> (d,e,f)
        a4 = Ac[:, RR]                              # a(c,d,ef) -> (d,(e,f))
        rhs = T[T[a1[:, :, None], a2], T[Ar, inv[a4]]]
        if not np.array_equal(lhs, rhs):
            d, e, f = np.argwhere(lhs != rhs)[0]
            return False, (c, int(reps[d]), int(reps[e]), int(reps[f]))
    return True, None


def _exchange(A, T, reps, sq_Ar):
    """sq_Ar[x, y, z] = a(x,y,z)^2 over reps^3, shared by every w."""
    for w in reps.tolist():
        lhs = A[T[w, reps]][:, reps][:, :, reps]    # a(wx,y,z) -> (x,y,z)
        r1 = lhs.transpose(2, 1, 0)                 # a(wz,y,x) -> (x,y,z)
        r2 = A[w, reps][:, reps]                    # a(w,x,y), a(w,y,z)
        rhs = T[T[r1, r2[:, :, None]], T[r2[None, :, :], sq_Ar]]
        if not np.array_equal(lhs, rhs):
            x, y, z = np.argwhere(lhs != rhs)[0]
            return False, (w, int(reps[x]), int(reps[y]), int(reps[z]))
    return True, None


# -- summary report -----------------------------------------------------------

def loop_report(L: LoopTable) -> dict:
    """Key facts for the CLI: identities, sizes of the classical subloops,
    nilpotency class, Frattini data and the special/extraspecial flags."""
    mf, wit = is_moufang(L)
    out = {"order": L.n, "moufang": mf}
    if wit is not None:
        out["moufang_witness"] = wit
    out["assoc"] = is_associative(L)
    cls = nilpotency_class(L)
    out["class"] = cls
    Z = center(L)
    N = nucleus(L)
    C = moufang_center(L)
    lp, ls = derived_subloops(L)
    F = frattini(L)
    out["Z"] = len(Z)
    out["N"] = len(N)
    out["C"] = len(C)
    out["Lprime"] = len(lp)
    out["Lstar"] = len(ls)
    ls_orders = L.element_orders[np.array(ls.members, dtype=np.int64)]
    out["expLstar"] = int(np.lcm.reduce(ls_orders))
    out["frattini"] = len(F)
    p = _prime_power_base(L.n)
    out["small_frattini"] = bool(p is not None and len(F) in (1, p)
                                 and set(F.members) <= set(Z.members))
    out["extraspecial"] = bool(
        p is not None and len(F) == p
        and set(F.members) == set(Z.members) == set(lp.members))
    return out
