"""Parameter names of the public field-to-shift path.

Every keyword here is one some caller sets; a new option on this path
has to come with a deliberate change to this table.
"""

import inspect

from rydtrap import beam, potential, radial

SIGNATURES = {
    beam.decompose: ["beam", "position", "grid", "k_max", "tol"],
    beam.brute_force_average: ["beam", "wf", "position", "m",
                               "angular_density", "tol"],
    radial.RadialGrid: ["points"],
    radial.RadialGrid.default: ["n_max", "npoints"],
    radial.radial_integral: ["wf", "profile"],
    potential.ponderomotive_shift: ["state", "field", "axis_angle_deg"],
    potential.potential_breakdown: ["state", "field", "axis_angle_deg"],
    potential.trap_depth: ["state", "field", "axis_angle_deg"],
    potential.tensor_splitting: ["species", "n", "term", "field",
                                 "axis_angle_deg"],
    potential.differential_shift: ["a", "b", "field", "axis_angle_deg"],
}


def test_field_to_shift_parameter_names():
    for fn, names in SIGNATURES.items():
        assert list(inspect.signature(fn).parameters) == names, \
            fn.__qualname__
