"""Near-identity torus embeddings built from time-1 flows.

Each elementary map is the time-1 flow of a small vector field V.  The
composed embedding Phi = L_1 o ... o L_m keeps its ordered layers, for
the displacement bound, and builds its displacement u = Phi - Id as one
Fourier field, once, on first use, by Lie series (Lie transforms): for a
layer L, the flow of V, and with L_V u = Du.V,

    u_L         = sum_{m>=1} L_V^{m-1} V / m!,
    u_{Phi o L} = u_L + exp(L_V) u_Phi,

so no ODE is integrated and nothing is resampled on a grid.  u is what
gets stored and what the oracles take; only they evaluate Phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    def extended(self, layer: Layer) -> "NearIdentityEmbedding":
        return NearIdentityEmbedding(n=self.n, layers=self.layers + (layer,))

    def displacement_bound(self) -> float:
        return sum(layer.displacement_bound() for layer in self.layers)
