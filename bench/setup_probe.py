"""Set-up probe: make a fresh interpreter ready for one workload.

Imports sicnet and the scipy submodule it loads lazily, makes one
tiny-budget call of each public function the workload uses, then prints
``ready``.  ``bench/run.py`` times a probe from its start to that line.

    python3 bench/setup_probe.py {closed_forms|chain_mc|policy_mc}
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(workload: str) -> None:
    from sicnet import analytic as an
    from sicnet import experiments as ex
    from sicnet import montecarlo as mc
    from sicnet import numerics as nu
    from sicnet.model import SicConfig

    importlib.import_module("scipy.spatial")  # montecarlo.voronoi_load_histogram
    cfg = ex.two_tier_config()
    cfg_b = ex.two_tier_config(bias2=5.0)
    tiny = 16
    if workload == "closed_forms":
        nu.c_integral(1.0, 4.0)
        an.ps_can_tsd(1.0, 1)
        an.rate_coverage_max_sir(0.5, 1e-5, 5e-5, 4.0)
        an.rate_coverage_min_load(0.5, 1e-5, 5e-5, 4.0, 400.0)
        an.outage_max_inst_sir(1.0, cfg)
        an.ps_sic_max_inst_sir(1.0, 1, cfg)
    if workload in ("closed_forms", "chain_mc"):
        an.ps_can(1.0, 1, 4.0)
        an.ps_sic(1.0, 1, 1e-4, 1e-4, 4.0)
        an.ps_ic_rea(1.0, cfg_b, 1, 0)
    if workload == "chain_mc":
        ex.default_spec("fig2", trials=1000)
        mc.ps_can_curve_mc(1e-4, 4.0, [1.0], 2, tiny, 0)
        mc.ps_sic_curve_mc(1e-4, 1e-4, 4.0, [1.0], 1, tiny, 0)
        mc.ps_sic_curve_mc(1e-4, 1e-4, 4.0, [1.0], 1, tiny, 0, independent_stages=True)
        mc.simulate_rea(cfg_b, 1, [1.0], tiny, 0)
        mc.simulate_rea(cfg_b, 1, [1.0], tiny, 0, cancel_mode="annulus")
    if workload == "policy_mc":
        ex.default_spec("fig4", trials=1000)
        an.rate_coverage_max_sir(0.5, 1e-5, 5e-5, 4.0)
        an.rate_coverage_min_load(0.5, 1e-5, 5e-5, 4.0, 400.0)
        an.outage_max_inst_sir(1.0, cfg)
        an.ps_sic_max_inst_sir(1.0, 1, cfg)
        mc.simulate_min_load(1e-5, 5e-5, 400.0, [0.5], tiny, 0)
        mc.max_sir_success_curve_mc(cfg, [1.0], tiny, 0)
        mc.max_sir_success_curve_mc(cfg, [1.0], tiny, 0, independent_fields=True)
        mc.simulate_max_inst_sir(cfg, SicConfig(eta_t=1.0, n_max=1), tiny, 0)
        mc.simulate_max_inst_sir(cfg, SicConfig(eta_t=1.0, n_max=1), tiny, 0, independent_fields=True)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
