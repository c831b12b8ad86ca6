"""Verfploeter-style measurement plane.

The paper measures catchments and RTTs by sending ICMP echo requests
whose *source* address is the anycast prefix: the reply routes back to
the target's catchment site and arrives at the orchestrator through
that site's GRE tunnel, identifying the catchment (S3).  This package
simulates that protocol against the BGP simulator's data plane:

- :mod:`repro.measurement.targets` — ping-target selection (S3.2);
- :mod:`repro.measurement.icmp` — probe-level loss and jitter, for
  whole target-by-sequence grids at once;
- :mod:`repro.measurement.tunnels` — GRE tunnel RTTs and their
  periodic estimation;
- :mod:`repro.measurement.verfploeter` — catchment mapping;
- :mod:`repro.measurement.rtt` — site-to-target RTT estimation
  (median of seven probes minus the tunnel RTT);
- :mod:`repro.measurement.orchestrator` — deploys configurations on
  the simulated Internet and runs the measurements.
"""

from repro.measurement.icmp import IcmpProber, ProbeResult
from repro.measurement.orchestrator import Deployment, Orchestrator
from repro.measurement.rtt import RttMatrix, estimate_rtt, estimate_rtts
from repro.measurement.targets import PingTarget, TargetSet, select_targets
from repro.measurement.tunnels import GreTunnel, TunnelManager
from repro.measurement.verfploeter import CatchmentMap, measure_catchments

__all__ = [
    "CatchmentMap",
    "Deployment",
    "GreTunnel",
    "IcmpProber",
    "Orchestrator",
    "PingTarget",
    "ProbeResult",
    "RttMatrix",
    "TargetSet",
    "TunnelManager",
    "estimate_rtt",
    "estimate_rtts",
    "measure_catchments",
    "select_targets",
]
