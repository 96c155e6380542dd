"""Frequency-domain Maxwell solver built on a two-step scalar/vector
potential formulation, with tree-cotree stabilization of the curl system
against low-frequency breakdown."""

__version__ = "0.1.0"
