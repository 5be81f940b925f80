"""Train track maps on roses: invariants, certificates, and constructions.

The package computes train-track and Whitehead-graph invariants of free-group
outer automorphisms given as sequences of standard Nielsen generators,
certifies the absence of periodic Nielsen paths, builds ideal-decomposition
diagrams, and glues certified examples into every higher rank.

Importing the package loads none of its modules; import the one you use,
for example `from rosetrack.synthesis import theorem_a_pipeline`.
"""

__version__ = "0.1.0"
