"""Pseudospectral simulation and verification lab for the
Benjamin-Ono-Zakharov-Kuznetsov equation

    u_t + H u_xx + u_xyy + u u_x = 0

on a periodic 2-D box, with the parabolically regularised variant
(+ mu Lap u), weighted-Sobolev diagnostics, and numeric exhibits of its
conservation laws, decay-persistence thresholds, and the Fourier-side
unique-continuation obstruction.
"""

__version__ = "0.1.0"
