"""Coded modules: the mixed-radix generalization of a CVS.

C is a finite abelian p-group with basis orders q_i = p^{e_i}, Z is cyclic
of order p^r, and the data is (z_i, chi_ij, alpha_ijl) with c_i^{q_i} = z_i
in the built loop.  chi on general vectors comes from the long formula
(p = 2) or bilinearity (p > 2); alpha is multilinear.  The construction
is the same level-sum kernel as for CVSs (loops.LevelSumLoop), except the
carry at slot m contributes z_m instead of sigma_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cvs import (CheckResult, ValidationReport, is_prime, pair_list,
                  signed_forms, triple_list)
from .modular import Residue
from .loops import CodedLoopElement, LevelSumLoop, kappa_isotope
from .tables import vector_table


@dataclass(frozen=True)
class CodedModule:
    p: int
    orders: tuple       # q_i, each a power of p
    z_order: int        # |Z| = p^r, Z cyclic
    z_values: tuple     # z_i = c_i^{q_i}, as residues mod z_order
    chi_flat: tuple     # chi_ij for i < j, residues mod z_order
    alpha_flat: tuple   # alpha_ijl for i < j < l

    @property
    def k(self) -> int:
        return len(self.orders)

    @property
    def csize(self) -> int:
        n = 1
        for q in self.orders:
            n *= q
        return n

    def chi_entry(self, i: int, j: int) -> int:
        if i == j:
            return 0
        a, b = (i, j) if i < j else (j, i)
        pos = pair_list(self.k).index((a, b))
        v = self.chi_flat[pos]
        return v if i < j else (-v) % self.z_order

    @cached_property
    def chi_mat(self) -> np.ndarray:
        return signed_forms(self.k, self.z_order, self.chi_flat,
                            self.alpha_flat)[0]

    @cached_property
    def alpha_tensor(self) -> np.ndarray:
        """Full signed tensor; for p = 2 the sign is invisible (2a = 0)."""
        return signed_forms(self.k, self.z_order, self.chi_flat,
                            self.alpha_flat)[1]

    def __repr__(self):
        return ("CodedModule(p=%d, orders=%r, z_order=%d)"
                % (self.p, self.orders, self.z_order))


def _additive_order(v: int, modulus: int) -> int:
    return modulus // math.gcd(v % modulus, modulus)


def module_new(p: int, orders, z_order: int, z_values,
               chi_basis: dict, alpha_basis: dict) -> CodedModule:
    """Validate and freeze module data; errors name the violated clause."""
    if not is_prime(p):
        raise ValueError("p must be prime, got %d" % p)
    orders = tuple(int(q) for q in orders)
    for q in orders:
        qq = q
        while qq % p == 0:
            qq //= p
        if qq != 1 or q < p:
            raise ValueError("basis order %d is not a positive power of %d"
                             % (q, p))
    zz = z_order
    while zz % p == 0:
        zz //= p
    if zz != 1 or z_order < p:
        raise ValueError("Z order %d is not a positive power of %d"
                         % (z_order, p))
    k = len(orders)
    z_values = tuple(int(v) % z_order for v in z_values)
    if len(z_values) != k:
        raise ValueError("need one z value per basis slot")

    pairs = pair_list(k)
    chi = [0] * len(pairs)
    for key, v in chi_basis.items():
        i, j = key
        if i == j:
            raise ValueError("condition (1) violated: chi(%d,%d) must be 0"
                             % (i + 1, j + 1))
        if not (0 <= i < j < k):
            raise ValueError("chi key %r: need 0 <= i < j < %d "
                             "(condition (2) fixes chi(j,i) = -chi(i,j))"
                             % (key, k))
        chi[pairs.index((i, j))] = int(v) % z_order
    for pos, (i, j) in enumerate(pairs):
        ordv = _additive_order(chi[pos], z_order)
        if math.gcd(orders[i], orders[j]) % ordv != 0:
            raise ValueError(
                "condition (3) violated: chi(%d,%d) has additive order %d, "
                "which does not divide the order %d of x_%d"
                % (i + 1, j + 1, ordv,
                   orders[i] if orders[i] % ordv else orders[j],
                   i + 1 if orders[i] % ordv else j + 1))

    triples = triple_list(k)
    alpha = [0] * len(triples)
    for key, v in alpha_basis.items():
        i, j, l = key
        if not (0 <= i < j < l < k):
            raise ValueError("alpha key %r: need 0 <= i < j < l < %d"
                             % (key, k))
        v = int(v) % z_order
        if p == 2 and (2 * v) % z_order != 0:
            raise ValueError("alpha(%d,%d,%d) = %d violates 2*alpha = 0"
                             % (i + 1, j + 1, l + 1, v))
        if (6 * v) % z_order != 0:
            raise ValueError("alpha(%d,%d,%d) = %d violates 6*alpha = 0"
                             % (i + 1, j + 1, l + 1, v))
        if p > 3 and v != 0:
            raise ValueError("alpha must vanish for p > 3, got alpha(%d,%d,%d)"
                             " = %d" % (i + 1, j + 1, l + 1, v))
        alpha[triples.index((i, j, l))] = v
    return CodedModule(p, orders, z_order, z_values, tuple(chi), tuple(alpha))


def _rows(M: CodedModule, c) -> np.ndarray:
    arr = np.asarray(c, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[None, :]
    return arr % np.array(M.orders, dtype=np.int64)


def chi_rows_module(M: CodedModule, C, D) -> np.ndarray:
    """chi on rows of mixed-radix vectors; long formula for p = 2,
    bilinear for p > 2."""
    C, D = _rows(M, C), _rows(M, D)
    X = M.chi_mat
    out = np.einsum("ai,ij,aj->a", C, X, D)
    if M.p == 2:
        A = M.alpha_tensor
        if A.any():
            iltj = np.triu(np.ones((M.k, M.k), dtype=np.int64), 1)
            # sum_{i<j} sum_k c_i c_j d_k a_ijk
            out += np.einsum("ai,aj,ij,ak,ijk->a", C, C, iltj, D, A)
            # sum_i sum_{j<k} c_i d_j d_k a_ijk
            out += np.einsum("ai,aj,jk,ak,ijk->a", C, D, iltj, D, A)
    return out % M.z_order


def alpha_rows_module(M: CodedModule, C, D, E) -> np.ndarray:
    C, D, E = _rows(M, C), _rows(M, D), _rows(M, E)
    return np.einsum("ai,aj,al,ijl->a", C, D, E, M.alpha_tensor) % M.z_order


def eval_chi_module(M: CodedModule, c, d) -> Residue:
    return Residue(int(chi_rows_module(M, c, d)[0]), M.z_order)


def eval_alpha_module(M: CodedModule, c, d, e) -> Residue:
    return Residue(int(alpha_rows_module(M, c, d, e)[0]), M.z_order)


def eval_sigma2(M: CodedModule, sigma_basis, c) -> Residue:
    """sigma(c) = sum c_i s_i + sum_{i<j} c_i c_j chi_ij + sum_{i<j<k}
    c_i c_j c_k alpha_ijk; needs p = 2 and elementary abelian Z."""
    if M.p != 2:
        raise ValueError("sigma2 formula is specific to p = 2")
    if M.z_order != 2:
        raise ValueError("sigma2 needs Z of exponent 2 (polarization fails "
                         "otherwise)")
    sig = np.asarray(tuple(sigma_basis), dtype=np.int64)
    if sig.shape != (M.k,):
        raise ValueError("need one sigma value per basis slot")
    cc = _rows(M, c)[0]
    out = int(cc @ sig)
    for pos, (i, j) in enumerate(pair_list(M.k)):
        out += int(cc[i] * cc[j]) * M.chi_flat[pos]
    for pos, (i, j, l) in enumerate(triple_list(M.k)):
        out += int(cc[i] * cc[j] * cc[l]) * M.alpha_flat[pos]
    return Residue(out % 2, 2)


class ModuleLoop(LevelSumLoop):
    """Coded extension of a coded module: order p^r * prod(q_i)."""

    def __init__(self, module: CodedModule):
        super().__init__(module.p, module.orders, module.z_order,
                         module.z_values, module.chi_mat, module.alpha_tensor)
        self.module = module

    def __repr__(self):
        return "ModuleLoop(order %d, %r)" % (self.order, self.module)


def build_module_extension(M: CodedModule) -> ModuleLoop:
    return ModuleLoop(M)


def sigma_q(L: ModuleLoop, q: int, c) -> Residue:
    """The q-th power function on C_q (q = p^n), for elementary abelian Z.

    Well-definedness is asserted by raising two distinct preimages of c to
    the q-th power."""
    M = L.module
    if M.z_order != M.p:
        raise ValueError("sigma_q needs Z of exponent p")
    qq = q
    while qq % M.p == 0:
        qq //= M.p
    if qq != 1:
        raise ValueError("q must be a power of %d" % M.p)
    cc = tuple(int(x) % o for x, o in zip(tuple(c), M.orders))
    for x, o in zip(cc, M.orders):
        if (x * q) % o != 0:
            raise ValueError("element is not in C_q (order does not divide %d)"
                             % q)
    a = L.pow(L.element(0, cc), q)
    b = L.pow(L.element(1, cc), q)
    if a != b or any(a.v):
        raise AssertionError("sigma_q not well-defined on this input")
    return Residue(a.z, M.z_order)


def verify_module_extension(L: ModuleLoop) -> ValidationReport:
    """Exhaustive: c_i^{q_i} = z_i per slot, commutators = chi on C x C,
    associators = alpha on C^3."""
    from .loops import _comm_table, _assoc_tables

    M = L.module
    checks = []
    ok = True
    wit = None
    for i in range(M.k):
        got = L.pow(L.generator(i), M.orders[i])
        want = CodedLoopElement(M.z_values[i], (0,) * M.k)
        if got != want:
            ok = False
            wit = (i + 1, got)
            break
    checks.append(CheckResult("basis powers c_i^{q_i} = z_i", "exhaustive",
                              ok, wit))

    V = vector_table(L.moduli)
    n = V.shape[0]
    comm = _comm_table(L)
    chi = chi_rows_module(M, np.repeat(V, n, axis=0),
                          np.tile(V, (n, 1))).reshape(n, n)
    okc = np.array_equal(comm, chi)
    checks.append(CheckResult("commutators realize chi", "exhaustive", okc))

    oka = True
    for sl, az in _assoc_tables(L):
        m = sl.stop - sl.start
        uu = np.repeat(V[sl], n * n, axis=0)
        ww = np.tile(np.repeat(V, n, axis=0), (m, 1))
        tt = np.tile(V, (m * n, 1))
        av = alpha_rows_module(M, uu, ww, tt).reshape(az.shape)
        if not np.array_equal(az, av):
            oka = False
            break
    checks.append(CheckResult("associators realize alpha", "exhaustive", oka))
    return ValidationReport(all(c.ok for c in checks), checks)


def module_isotopy_check(M: CodedModule, max_kappas: int = 81,
                         seed: int = 0) -> ValidationReport:
    """For p = 3 modules with exponent-3 values: every kappa-isotope has
    unchanged powers and associators, and commutators shifted by
    -alpha(c, kappa, d)."""
    from .loops import _comm_table, _assoc_tables

    if M.p != 3 or M.z_order != 3:
        raise ValueError("isotopy analysis needs p = 3 and Z of exponent 3")
    L = build_module_extension(M)
    V = vector_table(L.moduli)
    n = V.shape[0]
    if n <= max_kappas:
        kappas = [tuple(r) for r in V.tolist()]
    else:
        rng = np.random.default_rng(seed)
        kappas = [tuple(r) for r in V[rng.choice(n, size=max_kappas,
                                                 replace=False)].tolist()]
    checks = []
    base_assoc = {sl.start: az.copy() for sl, az in _assoc_tables(L)}
    chi = chi_rows_module(M, np.repeat(V, n, axis=0),
                          np.tile(V, (n, 1))).reshape(n, n)
    exponent = max(M.orders) * 3
    for kv in kappas:
        iso = kappa_isotope(L, kv)
        if kv == (0,) * M.k:
            okz = np.array_equal(iso.theta_table(), L.theta_table())
            checks.append(CheckResult("kappa = 0 gives the original loop",
                                      "exhaustive", okz))
        # powers: a^{on} = a^n for every element, n up to the exponent
        okp = True
        for idx in range(L.order):
            a = L.element_at(idx)
            x, y = a, a
            for _ in range(exponent):
                x = iso.mul(a, x)
                y = L.mul(a, y)
                if x != y:
                    okp = False
                    break
            if not okp:
                break
        # commutators: [a,b]_o = chi(c,d) - alpha(c,k,d)
        B = L.alpha_bilinear_for(kv)
        shift = (V @ B) @ V.T
        okc = np.array_equal(_comm_table(iso), (chi - shift) % 3)
        # associators unchanged
        oka = all(np.array_equal(az, base_assoc[sl.start])
                  for sl, az in _assoc_tables(iso))
        checks.append(CheckResult("isotope laws at kappa=%r" % (kv,),
                                  "exhaustive", okp and okc and oka))
    return ValidationReport(all(c.ok for c in checks), checks)


# -- text format ----------------------------------------------------------------

def emit_module(M: CodedModule) -> str:
    lines = ["module", "p %d" % M.p,
             "orders %s" % " ".join(str(q) for q in M.orders),
             "zorder %d" % M.z_order]
    for i, v in enumerate(M.z_values):
        if v:
            lines.append("zi %d %d" % (i + 1, v))
    for pos, (i, j) in enumerate(pair_list(M.k)):
        if M.chi_flat[pos]:
            lines.append("chi %d %d %d" % (i + 1, j + 1, M.chi_flat[pos]))
    for pos, (i, j, l) in enumerate(triple_list(M.k)):
        if M.alpha_flat[pos]:
            lines.append("alpha %d %d %d %d" % (i + 1, j + 1, l + 1,
                                                M.alpha_flat[pos]))
    return "\n".join(lines) + "\n"


def parse_module(text: str) -> CodedModule:
    p = None
    orders = None
    z_order = None
    z_entries = {}
    chi = {}
    alpha = {}
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "module":
                seen_header = True
            elif parts[0] == "p":
                p = int(parts[1])
            elif parts[0] == "orders":
                orders = tuple(int(x) for x in parts[1:])
            elif parts[0] == "zorder":
                z_order = int(parts[1])
            elif parts[0] == "zi":
                i, v = int(parts[1]), int(parts[2])
                if i in z_entries:
                    raise ValueError("duplicate zi %d" % i)
                z_entries[i] = v
            elif parts[0] == "chi":
                i, j, v = int(parts[1]), int(parts[2]), int(parts[3])
                if (i, j) in chi:
                    raise ValueError("duplicate chi %d %d" % (i, j))
                chi[(i, j)] = v
            elif parts[0] == "alpha":
                i, j, l, v = (int(parts[1]), int(parts[2]), int(parts[3]),
                              int(parts[4]))
                if (i, j, l) in alpha:
                    raise ValueError("duplicate alpha %d %d %d" % (i, j, l))
                alpha[(i, j, l)] = v
            else:
                raise ValueError("unknown directive %r" % parts[0])
        except (IndexError, ValueError) as ex:
            raise ValueError("line %d: %s" % (lineno, ex)) from None
    if not seen_header:
        raise ValueError("missing 'module' header line")
    if p is None or orders is None or z_order is None:
        raise ValueError("p, orders and zorder are all required")
    k = len(orders)
    for i in z_entries:
        if not 1 <= i <= k:
            raise ValueError("zi index %d out of range 1..%d" % (i, k))
    z_values = [z_entries.get(i + 1, 0) for i in range(k)]
    chi0 = {(i - 1, j - 1): v for (i, j), v in chi.items()}
    alpha0 = {(i - 1, j - 1, l - 1): v for (i, j, l), v in alpha.items()}
    return module_new(p, orders, z_order, z_values, chi0, alpha0)
