"""Near-identity torus embeddings built from time-1 flows.

Each elementary map is the time-1 flow of a small vector field V.  The
composed embedding Phi = L_1 o ... o L_m keeps its ordered layers, for
the displacement bound, and evaluates as theta + u(theta), where the
displacement u = Phi - Id is a Fourier field built once, on first use,
by Lie series (Lie transforms): for a layer L, the flow of V, and with
L_V u = Du.V,

    u_L         = sum_{m>=1} L_V^{m-1} V / m!,
    u_{Phi o L} = u_L + exp(L_V) u_Phi,

so no ODE is integrated and nothing is resampled on a grid.  Phi is
evaluated through real_torus_view(u); u itself is what gets stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import field as fld
from .field import FourierVectorField

# Relative to the norm of V + u: the remainder tolerance of a layer's
# series, and its pruning floor (also the averaging step's, relative to eps).
_SERIES_TOL_REL = 1e-18
_PRUNE_REL = 1e-16


@dataclass(frozen=True)
class Layer:
    """Time-1 flow of V, mapping T^n_{source_width} into T^n_{target_width}."""

    V: FourierVectorField
    source_width: float
    target_width: float

    def displacement_bound(self) -> float:
        """|Phi - Id| <= norm(V) on the source strip (flow displacement)."""
        return fld.norm(self.V, self.V.width_s)


def _compose(u: FourierVectorField, layer: Layer) -> FourierVectorField:
    """Displacement of Phi o L from the displacement u of Phi."""
    s = layer.target_width
    head = fld.add(layer.V, u)
    ref = fld.norm(head, s)
    out, _ = fld.lie_series(fld.lie_derivative, layer.V, head, u, layer.V,
                            s, s - layer.source_width, _SERIES_TOL_REL * ref,
                            floor=_PRUNE_REL * ref)
    return out


def apply_displacement(u: FourierVectorField, thetas) -> np.ndarray:
    """theta + u(theta) at one point (n,) or at real points (N, n)."""
    y = np.asarray(thetas, dtype=float)
    if y.ndim == 1:
        return y + fld.eval_many(u, y[None, :])[0]
    return y + fld.eval_many(u, y)


def real_torus_view(u: FourierVectorField) -> FourierVectorField:
    """u without the modes below 2^-53 S / M, where S = sum_k max_j |c_{j,k}|
    over its M modes: the dropped modes sum to at most 2^-53 S, below the
    roundoff of evaluating u on the real torus.  Mode 0 is kept."""
    if not len(u.modes):
        return u
    mass = np.abs(u.coef).max(axis=1)
    view, _ = fld.prune(u, 0.0, 2.0 ** -53 * mass.sum() / len(mass))
    return view


@dataclass(frozen=True)
class NearIdentityEmbedding:
    """Composition Phi = L_1 o L_2 o ... o L_m of time-1 flows."""

    n: int
    layers: tuple

    @cached_property
    def displacement(self) -> FourierVectorField:
        """Phi - Id as a Fourier field on the innermost source strip."""
        u = fld.zero_field(
            self.n, self.layers[0].target_width if self.layers else 1.0)
        for layer in self.layers:
            u = _compose(u, layer)
        return u

    @cached_property
    def real_view(self) -> FourierVectorField:
        return real_torus_view(self.displacement)

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        return apply_displacement(self.real_view, thetas)

    def extended(self, layer: Layer) -> "NearIdentityEmbedding":
        return NearIdentityEmbedding(n=self.n, layers=self.layers + (layer,))

    def displacement_bound(self) -> float:
        return sum(layer.displacement_bound() for layer in self.layers)
