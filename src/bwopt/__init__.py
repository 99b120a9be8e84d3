"""Evolutionary layout optimization for attached breakwaters.

A grid wave model runs inside the evaluation loop: candidate breakwater
layouts, encoded as flat genotypes growing from fixed attachment points, are
scored on construction cost, wave heights at protected control points and
fairway clearance. Multi-objective SPEA2 and single-objective differential
evolution search that space; exact hypervolume tracks front quality.
"""

__version__ = "0.1.0"
