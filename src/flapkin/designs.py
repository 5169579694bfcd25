"""Shipped example mechanism: a two-stage crank / four-bar armwing.

Stage 1 is a Grashof crank-rocker that flaps the humerus (plunge). Stage 2 is
a four-bar riding on the humerus, driven by a second pin on the stage-1
coupler, that folds the forearm about the elbow (extension-retraction). One
motor at the crank pin drives both, so the wing expands and retracts within
each wingbeat.

All dimensions are design choices at desk scale (a ~25 cm wing). Their design
problem is the `flapkin synthesize` input pair data/armwing_space.json (twelve
marker coordinates, each +-25 % of its shipped value) and
data/armwing_spec.json (gait targets with margins on the acceptance
thresholds). The hinge dimensions and modulus are representative of
3D-printable flexible polymers, not measured values.
"""
from __future__ import annotations

import importlib.resources

from .fileio import parse_mechanism
from .mechanism import Mechanism

# transmission-quality joints of the two stages (coupler-follower pins)
ARMWING_TRANSMISSION_JOINTS = ("j_b", "j_d")


def two_stage_armwing() -> Mechanism:
    """The shipped armwing example, loaded from the packaged JSON document."""
    data = importlib.resources.files("flapkin.data").joinpath("armwing.json").read_bytes()
    return parse_mechanism(data)
