"""smoothap: a workbench for multiplicative functions on smooth numbers.

Submodules:
    sieve        the y-smooth integers from the primes <= y, Psi(x,y) counts, dyadic grids
    characters   exact Dirichlet character arithmetic and primitive families
    multfn       prime-power oracles, evaluation, supports, Dirichlet inverses
    discrepancy  progression discrepancies, the truncated kernel, BV averages
    large_sieve  smooth-supported large-sieve experiments and exceptional scans
    reports      CSV/JSON report emission
    cli          the `smoothap` command-line entry point

The package holds one route per quantity, the one a command runs.  The
second routes the tests compare against (induction, the scalar kernel, the
dual large sieve, Lambda_f, the saddle exponent, ...) live in
tests/oracles.py.
"""

from .sieve import (SmoothSet, dyadic_partition, psi, psi_coprime, psi_progression,
                    smooth_numbers)
from .characters import (CharacterFamily, DirichletCharacter, enumerate_characters,
                         family_A, principal_character, trivial_character)
from .multfn import MultFnSpec, dirichlet_inverse, evaluate
from .discrepancy import (DiscrepancyRecord, bv_average, discrepancy_record,
                          u_kernel_chardef_row, u_kernel_moebius_row,
                          verify_transfer_identity)
from .large_sieve import ExceptionalSet, SieveExperiment, detect_exceptional, ls_primal

__version__ = "0.1.0"
