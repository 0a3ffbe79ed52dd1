"""smoothap: a workbench for multiplicative functions on smooth numbers.

Submodules:
    sieve        the y-smooth integers from the primes <= y, Psi(x,y) counts, saddle exponent
    characters   exact Dirichlet character arithmetic and primitive families
    multfn       prime-power oracles, Lambda_f coefficients, Dirichlet inverses
    discrepancy  progression discrepancies, the truncated kernel, BV averages
    large_sieve  smooth-supported large-sieve experiments and exceptional scans
    reports      CSV/JSON report emission
    cli          the `smoothap` command-line entry point
"""

from .sieve import (SmoothSet, alpha_saddle, dyadic_partition, psi, psi_coprime,
                    psi_progression, smooth_numbers, smooth_short_interval)
from .characters import (CharacterFamily, DirichletCharacter, decompose,
                         enumerate_characters, family_A, induce,
                         principal_character, trivial_character)
from .multfn import (ClassCCertificate, MultFnSpec, check_class_c,
                     dirichlet_inverse, evaluate, lambda_f, restrict_smooth)
from .discrepancy import (DiscrepancyRecord, ExceptionalSet, bv_average,
                          character_sum, delta, delta_A, delta_xi,
                          u_kernel_chardef_row, u_kernel_moebius,
                          u_kernel_moebius_row,
                          verify_transfer_identity)
from .large_sieve import (EtaClass, SieveExperiment, classify_eta,
                          detect_exceptional, ls_dual, ls_primal)

__version__ = "0.1.0"
