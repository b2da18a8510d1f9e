"""clumplab: weighted clump graphs for diameter vs. minimum-degree
analysis of k-colorable graphs — constructions, canonical forms, packing
certificates, sieve inequalities, and exact rational LPs.

Every name is imported from its own module, e.g.
``from clumplab.core import WeightedClumpGraph``."""

__version__ = "0.1.0"
