"""The displacement u = Phi - Id of a composition of time-1 flows.

Phi = L_1 o ... o L_m, where L_j is the time-1 flow of a small vector
field V_j, one per averaging step.  u is built as one Fourier field by
Lie series (Lie transforms): for a flow L of V, and with L_V u = Du.V,

    u_L         = sum_{m>=1} L_V^{m-1} V / m!,
    u_{Phi o L} = u_L + exp(L_V) u_Phi,

so no ODE is integrated and nothing is resampled on a grid.  u is what
gets stored and what the oracles take; only they evaluate Phi.
"""

from __future__ import annotations

from . import field as fld
from .field import FourierVectorField


def displacement(n: int, flows) -> FourierVectorField:
    """Phi - Id for Phi = L_1 o ... o L_m with flows = [(V_j, w_j)]: L_j is
    the time-1 flow of V_j, from the strip of width w_j (that of the step's
    P_plus) into that of width V_j.width_s.  The zero field when m = 0."""
    u = fld.zero_field(n, flows[0][0].width_s if flows else 1.0)
    for V, w in flows:
        s = V.width_s
        head = fld.add(V, u)
        ref = fld.norm(head, s)
        rho = fld.series_ratio(n, fld.norm(V, s), s, s - w)
        u, _ = fld.lie_series(fld.lie_derivative, V, rho, head, u, V, s,
                              s - w, fld.SERIES_TOL_REL * ref,
                              floor=fld.PRUNE_REL * ref)
    return u
