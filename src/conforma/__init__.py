"""Desk-scale numerical checks for conformally invariant fully nonlinear
curvature equations: cone/operator algebra, Mobius conjugation of the
conformal Schouten tensor, bubble rigidity residuals, radial shooting,
moving-sphere sweeps, the explicit Harnack product, and a homotopy
continuation solver on the circle-sphere product.

Import from the submodules (conforma.cones, conforma.yamabe, ...); the
package root only carries the version."""

__version__ = "0.1.0"
