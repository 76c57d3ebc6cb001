"""Exact loci of ambiguous camera-center pairs for point sets in P^3.

Two projective cameras viewing two different world configurations can
produce the same image up to a plane homography; this package decides when
that happens and computes the locus of such center pairs: exactly for up to
six points; for seven by an exact finiteness check (the Hilbert function mod
a prime), a numeric solve and exact certification of the rational pairs; and
for eight or more by an exact emptiness test that verifies any surviving
pair.
"""

from .projective import (Configuration, ProjectivePoint, StabilityClass,
                         bracket, center_admissible, gale_transform,
                         homography_fit, pp, project, stability_class)
from .invariants import (InvariantVector, WeddleQuartic, fano, fano15,
                         fano15_lifted, g5, g5_lifted, igusa_F,
                         lifted_quadrics, morley, t6, t6_lifted,
                         weddle_quartic)
from .loci import (CandidateSets, CentersVariety, CubicFibrationN5,
                   DegenerationTag, EmptyN8, EverythingN4, MatchedPair,
                   SurfacePairN6, ThreePairsN7, TwistedCubic,
                   candidates_n7, centers_n_ge8, centers_n_le4,
                   centers_variety, classify_degeneration_n5, cubic_locus_n5,
                   cubic_param_n5, map_a_to_b_n6, map_b_to_a_n6,
                   pair_candidates_n7, quadric_pair_n6, weddle_curve_point)
from .numeric import NumericPoint, projective_distance, solve_quadric_system
from .datagen import (Reconstruction, generate_degenerate,
                      generate_reconstruction)
from .errors import (AmbiguousMatch, CenterHit, DegenerateCurve,
                     DegenerateInput, GenerationFailed, InadmissibleCenter,
                     Inconclusive, Inconsistent, InvalidInput, NoRationalImage,
                     NotFinite, ToolkitError)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
