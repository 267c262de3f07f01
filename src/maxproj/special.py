"""Normalizing constants and moments of the concentration families.

The von Mises-Fisher and Watson quantities used by the efficiency
calculations, each one ``scipy.special`` evaluation:

``vmf_norm_ratio``      a_d(kappa) / |S^{d-1}|, with a_d(kappa) the integral
                        of exp(kappa t) over the sphere
``vmf_mean_resultant``  A_d(kappa)   = E kappa-concentrated (theta . U)
``watson_norm_ratio``   d_d(kappa) / |S^{d-1}|, with d_d(kappa) the integral
                        of exp(kappa t^2)
``watson_mean_square``  D_d(kappa)   = E kappa-concentrated (theta . U)^2

The normalizing constants are divided by the sphere area, so they stay
exactly 1 + O(kappa^2) near zero, which keeps small-kappa Kullback-Leibler
evaluations free of cancellation.  The documented range is kappa in [0, 50].
"""

from ._errors import InputError


def vmf_mean_resultant(d, kappa):
    """A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa); 0 at kappa = 0."""
    from scipy import special as sps

    if kappa < 0:
        raise InputError("concentration must be >= 0")
    if kappa == 0.0:
        return 0.0  # both scaled Bessel values vanish there for d > 2
    return float(sps.ive(d / 2.0, kappa) / sps.ive(d / 2.0 - 1.0, kappa))


def vmf_norm_ratio(d, kappa):
    """a_d(kappa) / |S^{d-1}|, the hypergeometric function 0F1(d/2; kappa^2/4)."""
    from scipy import special as sps

    if kappa < 0:
        raise InputError("concentration must be >= 0")
    return float(sps.hyp0f1(d / 2.0, 0.25 * kappa * kappa))


def watson_norm_ratio(d, kappa):
    """d_d(kappa) / |S^{d-1}| = M(1/2, d/2, kappa)."""
    from scipy import special as sps

    if kappa < 0:
        raise InputError("concentration must be >= 0")
    return float(sps.hyp1f1(0.5, d / 2.0, kappa))


def watson_mean_square(d, kappa):
    """D_d(kappa) = M(3/2, d/2+1, kappa) / (d M(1/2, d/2, kappa))."""
    from scipy import special as sps

    if kappa < 0:
        raise InputError("concentration must be >= 0")
    return float(sps.hyp1f1(1.5, d / 2.0 + 1.0, kappa) / (d * sps.hyp1f1(0.5, d / 2.0, kappa)))
