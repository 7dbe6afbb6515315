"""Exact characters for untwisted affine Kac-Moody algebras: affine Demazure
modules, Heisenberg/lattice coset characters, and irreducible integrable
characters, with a verification harness for the classical identities relating
them (Frenkel-Kac-Segal, tensor factorization of Demazure modules, fixed-point
multiplicities, minuscule strata)."""

__version__ = "0.1.0"

from .affine import (AffineCoroot, AffineRoot, AffineWeight, affine_coroot,
                     curve_data, fixed_point_support, fixed_point_weight)
from .charring import QCharacter, chars_agree, first_discrepancy
from .demazure import (DemazureCharacter, demazure_character,
                       restriction_domination_check, tensor_product_check)
from .fock import LatticeCoset, lattice_character
from .kacweyl import AffineDominantWeight, weyl_kac_character
from .rootsys import (Coweight, OrbitCapExceeded, RootSystem, Weight,
                      build_root_system, coweight, weight)
