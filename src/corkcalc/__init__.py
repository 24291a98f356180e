"""corkcalc: exact symbolic calculus on 4-manifold handle-decomposition data.

Wheel-link families indexed by {*,0}-sequences, validity-checked Kirby
moves with replayable traces, exact homology and intersection-form
certificates, cork-order computation from sequence periods, and Legendrian
front framing checks.
"""

from .datum import (CorkPair, KirbyDatum, TwoHandle, canonical_json, datum_hash,
                    make_datum, two_handle, validate, validate_cork_pair)
from .errors import CorkCalcError
from .families import (build_C, build_Cm, build_D, build_E, build_F, build_W,
                       build_W_twisted, build_X, build_Z, dot_zero_exchange)
from .invariants import (boundary_h1, char_numbers_from_datum, connected_sum,
                         cp2, cp2_bar, homology, intersection_form)
from .isomorphism import datum_isomorphic
from .linalg import IntMatrix, coker_invariants, det, is_diag_minus_one, kernel_basis, snf
from .moves import (MoveTrace, Recorder, attach_2handle, blow_down, blow_up,
                    cancel_1_2, cork_twist_pair, minus_one_sphere_present,
                    remove_split_zero_handle, replay, rotate, slide_2_over_1,
                    slide_2_over_2, twist_wheel)
from .presentations import GroupPresentation, pi1_presentation, tietze_simplify
from .scripts import deletion_chain, deletion_script, insertion_script
from .sequences import all_sequences, cork_order, period, shift
from .stein import LegendrianFront, linking_number, rot, stein_check, tb, writhe
from .words import Word

__version__ = "0.1.0"
