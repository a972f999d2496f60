"""Spherical rectangles: accessory parameters, conformal moduli,
developing maps, and Belyi-map verification for the quadrilateral
family with corner angles (3/2, 1/2, 3/2, 1/2) half-turns."""
from .accessory import (AccessorySolution, Family, QuadParam, amp_A, bethe_h,
                        bigF, family2_integral, solve_family1, solve_family2)
from .belyi import (PortraitPoint, RamificationPortrait, RationalMap,
                    dihedral_invariant, example_anchor, example_map,
                    verify_belyi)
from .constants import CriticalConstants, critical_constants, kappa_prime_crit
from .developing import (BoundaryImageReport, SideImage, L_eval,
                         boundary_check, extract_alpha)
from .elliptic import agm, ellip_E, ellip_K
from .errors import (AccuracyError, BelyiViolationError, BracketError,
                     DomainError, SphrectError)
from .modulus import k_of_modulus, modulus_of_k, modulus_oracle
from .quadrature import integrate_arc, integrate_segment, integrate_singular

__version__ = "0.1.0"
