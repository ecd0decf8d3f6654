"""sicnet: successive interference cancellation in Poisson cellular networks.

Closed-form success/outage/rate-coverage probabilities for multi-tier
networks with SIC receivers, plus an independent Monte Carlo engine that
replays the cancellation event chain on sampled point processes and a sweep
harness that reproduces the reference scenarios.
"""

from .errors import (
    ConfigError,
    DegenerateReaError,
    DomainError,
    NumericsError,
    SicnetError,
)
from .model import (
    EquivalentNetwork,
    NetworkConfig,
    SicConfig,
    TierParams,
    association_prob_max_power,
    biased_association_prob,
    cancellation_radius,
    config_from_dict,
    db_to_linear,
    equivalent_density,
    load_config,
    rea_association_prob,
)
from .numerics import (
    QuadratureSettings,
    c_integral,
    c_integral_quadrature,
    pareto_received_power_cdf,
)
from .analytic import (
    SicGainBreakdown,
    kurtosis_after_cancellation,
    load_pmf,
    outage_max_inst_sir,
    ps_can,
    ps_can_tsd,
    ps_ic,
    ps_ic_rea,
    ps_plain,
    ps_sic,
    ps_sic_max_inst_sir,
    rate_coverage_max_sir,
    rate_coverage_min_load,
)
from .montecarlo import (
    Estimate,
    sample_ppp,
    simulate_max_inst_sir,
    simulate_min_load,
    simulate_rea,
)

__version__ = "0.1.0"
