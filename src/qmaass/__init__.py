"""qmaass: exact q-series engines for quantum-modular Maass waveforms."""

from .agpolys import ag_polynomial, ag_polynomials, verify_ag_relation
from .bailey import (
    BaileyPair,
    pair_relative_one,
    pair_relative_q,
    synthetic_pair,
    unit_pair,
    verify_limiting_identity,
    verify_pair,
)
from .bessel import k0_bessel
from .cyclotomic import CycNumber
from .families import (
    family_series,
    negative_part_series,
    sigma_coefficients,
    sigma_series,
    sigma_star_coefficients,
    sigma_star_series,
    verify_kz_duality,
)
from .maass import (
    MaassCoeffTable,
    QuantumSample,
    cocycle_samples,
    cohen_table,
    cohen_transform_residual,
    eval_waveform,
    quantum_value,
    radial_limit_check,
)
from .reports import CheckReport
from .series import (
    INF,
    PrecisionError,
    QSeries,
    QSeriesError,
    gaussian_binomial,
    inverse_pochhammer,
    pochhammer,
)
from .theta import (
    FamilyThetaData,
    ThetaParams,
    completion_defect,
    family_params,
    indefinite_theta_series,
    validate_family_params,
    validate_params,
    verify_family_lattice,
    verify_theta_embedding,
    waveform_numeric,
)

__all__ = [
    "INF",
    "BaileyPair",
    "CheckReport",
    "CycNumber",
    "FamilyThetaData",
    "MaassCoeffTable",
    "PrecisionError",
    "QSeries",
    "QSeriesError",
    "QuantumSample",
    "ThetaParams",
    "ag_polynomial",
    "ag_polynomials",
    "cocycle_samples",
    "cohen_table",
    "cohen_transform_residual",
    "completion_defect",
    "eval_waveform",
    "family_params",
    "family_series",
    "gaussian_binomial",
    "indefinite_theta_series",
    "inverse_pochhammer",
    "k0_bessel",
    "negative_part_series",
    "pair_relative_one",
    "pair_relative_q",
    "pochhammer",
    "quantum_value",
    "radial_limit_check",
    "sigma_coefficients",
    "sigma_series",
    "sigma_star_coefficients",
    "sigma_star_series",
    "synthetic_pair",
    "unit_pair",
    "validate_family_params",
    "validate_params",
    "verify_ag_relation",
    "verify_family_lattice",
    "verify_kz_duality",
    "verify_limiting_identity",
    "verify_pair",
    "verify_theta_embedding",
    "waveform_numeric",
]

__version__ = "0.1.0"
