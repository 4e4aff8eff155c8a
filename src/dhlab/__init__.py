"""dhlab: a numerical laboratory for the inequality |l1 p1 + l2 p2 + l3 p3^k - omega| <= eta.

Exponential sums over primes, the Fejer detection kernel, arc decompositions
of the real line, continued-fraction machinery, bound-ratio experiments, and
direct enumeration of prime solutions along the cube scale sequence.

Importing the package before numpy pins BLAS to one thread where the caller
set no thread count: multithreaded matrix products would move the seeded
CSVs' last bits.  A caller that imports numpy first must set it itself.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .arcs import ArcDecomposition, choose_parameters, eta_exponent, locate
from .diophantine import (Convergent, Expansion, RationalWitness, convergents,
                          cube_sequence, find_rational_witness, legendre_check,
                          vaughan_ratio)
from .errors import (DhlabError, DomainError, EmptyDomainError,
                     InsufficientTableError, ParameterError, PhaseBudgetError)
from .expsums import (SpectrumGrid, eval_grid, fejer_kernel,
                      fejer_kernel_hat, integer_exp_sum, integral_exp_sum,
                      prime_exp_sum)
from .harness import (ExperimentConfig, MeasureSample, run_lemma_suite,
                      run_theorem_experiment, sample_large_sum_measure)
from .norms import (MomentReport, count_quadruples, exp_sum_gap_l2,
                    kernel_moment, moment_integral, selberg_integral)
from .primes import PrimeTable, SumRange, primes_in_range, sieve, theta
from .solver import (ProblemInstance, SolutionRecord, Solutions,
                     enumerate_solutions, main_term_scan, solution_integral,
                     weighted_count)

__version__ = "0.1.0"
