"""Monte Carlo laboratory for stochastic optimal control on discretized Hilbert spaces.

The package simulates controlled SDEs of the form

    dX(s) = [A X(s) + b(X(s), a(s))] ds + sigma(X(s)) dW(s)

on weighted finite-dimensional spaces standing in for H = L^2 or product
spaces, estimates costs and value functions by Monte Carlo, synthesizes
feedback controls from value gradients, and audits regularity and ordering
properties of the estimated value numerically.
"""

__version__ = "0.1.0"
