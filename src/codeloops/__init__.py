"""Code loops, small Frattini Moufang loops, and class-2 Moufang loops
built from coded vector spaces over F_p."""

from .modular import basis_vector, fp_vector
from .cvs import (Cvs, CheckResult, ValidationReport, adjoint_translate,
                  cvs_new, emit_cvs, eval_alpha, eval_chi, eval_sigma,
                  iso_up_to_scalar, octonion_cvs, parse_cvs, rad_alpha,
                  rad_chi, random_cvs, scale_cvs, transform, validate_axioms)
from .codes import (BinaryCode, builtin_golay24, builtin_hamming734,
                    code_to_cvs, cvs_to_code, emit_code, is_doubly_even,
                    parse_code)
from .loops import (CodedLoop, CodedLoopElement, KappaIsotope, build,
                    emit_cayley_csv, kappa_isotope, moufang_sampled,
                    parse_cayley_csv, semidirect_central_product,
                    verify_coded_extension)
from .analysis import (LoopTable, brute_force_isomorphic, center,
                       class2_associator_identities, frattini, is_moufang,
                       loop_report, mk_law_holds, nilpotency_class, nucleus,
                       torsion_components)
from .modules import (CodedModule, ModuleLoop, build_module_extension,
                      emit_module, eval_chi_module, eval_sigma2,
                      module_isotopy_check, module_new, parse_module,
                      sigma_q)
from .words import (WordSyntaxError, eval_word, normal_form_string,
                    parse_word, render_element, render_word)
from .classify import ClassifyResult, classify, rep_to_cvs

__version__ = "0.1.0"

__all__ = [
    "basis_vector", "fp_vector",
    "Cvs", "CheckResult", "ValidationReport", "adjoint_translate",
    "cvs_new", "emit_cvs", "eval_alpha", "eval_chi", "eval_sigma",
    "iso_up_to_scalar", "octonion_cvs", "parse_cvs", "rad_alpha",
    "rad_chi", "random_cvs", "scale_cvs", "transform", "validate_axioms",
    "BinaryCode", "builtin_golay24", "builtin_hamming734", "code_to_cvs",
    "cvs_to_code", "emit_code", "is_doubly_even", "parse_code",
    "CodedLoop", "CodedLoopElement", "KappaIsotope", "build",
    "emit_cayley_csv", "kappa_isotope", "moufang_sampled",
    "parse_cayley_csv", "semidirect_central_product",
    "verify_coded_extension",
    "LoopTable", "brute_force_isomorphic", "center",
    "class2_associator_identities", "frattini", "is_moufang",
    "loop_report", "mk_law_holds", "nilpotency_class", "nucleus",
    "torsion_components",
    "CodedModule", "ModuleLoop", "build_module_extension", "emit_module",
    "eval_chi_module", "eval_sigma2", "module_isotopy_check", "module_new",
    "parse_module", "sigma_q",
    "WordSyntaxError", "eval_word", "normal_form_string", "parse_word",
    "render_element", "render_word",
    "ClassifyResult", "classify", "rep_to_cvs",
]
