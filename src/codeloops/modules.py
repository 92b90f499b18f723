"""Coded modules: the mixed-radix generalization of a CVS.

C is a finite abelian p-group with basis orders q_i = p^{e_i}, Z is cyclic
of order p^r, and the data is (z_i, chi_ij, alpha_ijl) with c_i^{q_i} = z_i
in the built loop.  chi on general vectors comes from the long formula
(p = 2) or bilinearity (p > 2); alpha is multilinear.  The construction
is the same level-sum kernel as for CVSs (loops.LevelSumLoop), except the
carry at slot m contributes z_m instead of sigma_m.  A ModuleLoop carries
the module's forms, so loops.verify_coded_extension checks its laws (and
those of its kappa-isotopes) as it does for a CVS: the basis powers
c_i^{q_i} = z_i unless every order and |Z| equal p, then commutators and
associators, exhaustively or on samples.  module_isotopy_check runs that
verifier on each kappa-isotope of a p = 3 module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cvs import (CheckResult, DataError, Forms, ValidationReport, as_rows,
                  body_lines, checked_entries, is_prime, located, pair_list,
                  place_entries, read_directives, signed_forms, triple_list)
from .loops import (CentralExtensionLoop, LevelSumLoop, kappa_isotope,
                    verify_coded_extension)
from .tables import rank_rows, vector_table

_MAX_KAPPAS = 81  # module_isotopy_check samples this many kappas beyond it
_KAPPA_SEED = 0


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

    @cached_property
    def forms(self) -> Forms:
        """The row evaluators: chi by the long formula for p = 2 and
        bilinearity for p > 2, alpha multilinear.  Its X and A are the
        signed chi matrix and alpha tensor (for p = 2 the alpha sign is
        invisible, since 2 alpha = 0)."""
        return Forms(self.p, self.orders, self.z_order, self.z_values,
                     *signed_forms(self.k, self.z_order, self.chi_flat,
                                   self.alpha_flat))

    def __repr__(self):
        return ("CodedModule(p=%d, orders=%r, z_order=%d)"
                % (self.p, self.orders, self.z_order))


def _is_power(q: int, p: int) -> bool:
    """Whether q = p^n for some n >= 0."""
    while q > 1 and q % p == 0:
        q //= p
    return q == 1


def _additive_order(v: int, modulus: int) -> int:
    return modulus // math.gcd(v % modulus, modulus)


def module_new(p: int, orders, z_order: int, z_values,
               chi_basis: dict, alpha_basis: dict) -> CodedModule:
    """Validate and freeze module data; errors name the violated clause."""
    if not is_prime(p):
        raise DataError("p", "p must be prime, got %d" % p)
    orders = tuple(int(q) for q in orders)
    for q in orders:
        if q < p or not _is_power(q, p):
            raise DataError("orders", "basis order %d is not a positive "
                            "power of %d" % (q, p))
    if z_order < p or not _is_power(z_order, p):
        raise DataError("zorder", "Z order %d is not a positive power of %d"
                        % (z_order, p))
    k = len(orders)
    z_values = tuple(int(v) % z_order for v in z_values)
    if len(z_values) != k:
        raise ValueError("need one z value per basis slot")

    for i, j in chi_basis:
        if i == j:
            raise ValueError("condition (1) violated: chi(%d,%d) must be 0"
                             % (i + 1, j + 1))
        if i > j:
            raise ValueError("chi key %r: need i < j (condition (2) fixes "
                             "chi(j,i) = -chi(i,j))" % ((i, j),))
    chi = place_entries(k, 2, chi_basis, z_order, "chi")
    for (i, j), v in zip(pair_list(k), chi):
        ordv = _additive_order(v, z_order)
        if math.gcd(orders[i], orders[j]) % ordv != 0:
            raise DataError(
                ("chi", (i, j)),
                "condition (3) violated: chi(%d,%d) has additive order %d, "
                "which does not divide the order %d of x_%d"
                % (i + 1, j + 1, ordv,
                   orders[i] if orders[i] % ordv else orders[j],
                   i + 1 if orders[i] % ordv else j + 1))

    alpha = place_entries(k, 3, alpha_basis, z_order, "alpha")
    for (i, j, l), v in alpha_basis.items():
        v = int(v) % z_order
        # 2 alpha = 0 is 6 alpha = 0 in a 2-group; for p > 3, 6 alpha = 0
        # forces alpha = 0, since 6 is a unit mod |Z|
        e = 2 if p == 2 else 6
        if (e * v) % z_order != 0:
            raise DataError(("alpha", (i, j, l)),
                            "alpha(%d,%d,%d) = %d violates %d*alpha = 0"
                            % (i + 1, j + 1, l + 1, v, e))
    return CodedModule(p, orders, z_order, z_values, chi, alpha)


def eval_chi_module(M: CodedModule, c, d) -> int:
    return int(M.forms.chi(*as_rows(M.forms, c, d))[0])


def eval_sigma2(M: CodedModule, sigma_basis, c) -> int:
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
    cc = as_rows(M.forms, c)[0][0] % np.array(M.orders)
    out = int(cc @ sig)
    for pos, (i, j) in enumerate(pair_list(M.k)):
        out += int(cc[i] * cc[j]) * M.chi_flat[pos]
    for pos, (i, j, l) in enumerate(triple_list(M.k)):
        out += int(cc[i] * cc[j] * cc[l]) * M.alpha_flat[pos]
    return out % 2


class ModuleLoop(LevelSumLoop):
    """Coded extension of a coded module: order p^r * prod(q_i)."""

    def __init__(self, module: CodedModule):
        super().__init__(module.p, module.orders, module.z_order,
                         module.z_values, module.forms.X, module.forms.A)
        self.module = module

    @property
    def forms(self) -> Forms:
        return self.module.forms

    def __repr__(self):
        return "ModuleLoop(order %d, %r)" % (self.order, self.module)


def build_module_extension(M: CodedModule) -> ModuleLoop:
    return ModuleLoop(M)


def sigma_q(L: ModuleLoop, q: int, c) -> int:
    """The q-th power function on C_q (q = p^n), for elementary abelian Z.

    Well-definedness is asserted by raising two distinct preimages of c to
    the q-th power."""
    M = L.module
    if M.z_order != M.p:
        raise ValueError("sigma_q needs Z of exponent p")
    if not _is_power(q, M.p):
        raise ValueError("q must be a power of %d" % M.p)
    x = L.element(0, c)
    if any(v * q % o for v, o in zip(x.v, M.orders)):
        raise ValueError("element is not in C_q (order does not divide %d)"
                         % q)
    a = L.pow(x, q)
    b = L.pow(L.element(1, x.v), q)
    if a != b or any(a.v):
        raise AssertionError("sigma_q not well-defined on this input")
    return a.z


def _powers_agree(L: ModuleLoop, iso: CentralExtensionLoop,
                  exponent: int) -> bool:
    """a^{on} = a^n for every element a and n up to exponent + 1, as one
    walk over both theta tables.  The central part of a adds n z_a to both
    powers, so walking the vector parts with z_a = 0 covers every lift."""
    V = vector_table(L.moduli)
    ar, mods = np.arange(len(V)), np.array(L.moduli, dtype=np.int64)
    Tb, Ti = (M.theta_values().astype(np.int64) for M in (L, iso))
    acc, diff = V, np.zeros(len(V), dtype=np.int64)
    for _ in range(exponent):
        r = rank_rows(acc, L.moduli)
        diff += Ti[ar, r] - Tb[ar, r]
        if (diff % L.zmod).any():
            return False
        acc = (acc + V) % mods
    return True


def module_isotopy_check(M: CodedModule) -> ValidationReport:
    """For p = 3 modules with exponent-3 values: every kappa-isotope has
    unchanged powers and passes verify_coded_extension against its forms,
    the module forms with commutators shifted by 2 alpha(c, kappa, d) =
    -alpha(c, kappa, d) and associators unchanged."""
    if M.p != 3 or M.z_order != 3:
        raise ValueError("isotopy analysis needs p = 3 and Z of exponent 3")
    L = build_module_extension(M)
    V = vector_table(L.moduli)
    n = V.shape[0]
    if n <= _MAX_KAPPAS:
        kappas = [tuple(r) for r in V.tolist()]
    else:
        rng = np.random.default_rng(_KAPPA_SEED)
        kappas = [tuple(r) for r in V[rng.choice(n, size=_MAX_KAPPAS,
                                                 replace=False)].tolist()]
    checks = []
    exponent = max(M.orders) * 3
    for kv in kappas:
        iso = kappa_isotope(L, kv)
        if kv == (0,) * M.k:
            okz = np.array_equal(iso.theta_values(), L.theta_values())
            checks.append(CheckResult("kappa = 0 gives the original loop",
                                      "exhaustive", okz))
        rep = verify_coded_extension(iso)
        ok = _powers_agree(L, iso, exponent) and rep.ok
        # the last check, CEassociate, carries the verifier's mode
        checks.append(CheckResult("isotope laws at kappa=%r" % (kv,),
                                  rep.checks[-1].mode, ok))
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
    """Parse the module text format; raises ValueError with line
    diagnostics, or module_new's on data that breaks its conditions."""
    ((n_p, (p,)), (n_o, orders), (n_z, (z_order,))), found = read_directives(
        body_lines(text, "module"), {"p": 1, "orders": None, "zorder": 1},
        {"zi": 1, "chi": 2, "alpha": 3})
    got, lines = checked_entries(found, len(orders))
    lines.update(p=n_p, k=n_o, orders=n_o, zorder=n_z)
    z_values = [got["zi"].get((i,), 0) for i in range(len(orders))]
    return located(lambda: module_new(p, orders, z_order, z_values,
                                      got["chi"], got["alpha"]), lines)
