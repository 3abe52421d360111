"""Reliability-based topology optimization with stochastic gradients.

Sampling-based failure-probability estimators (Monte Carlo, subset sampling,
surrogate-screened hybrid), an exponential density model for failing designs
supplying the failure-penalty gradient, and a projected stochastic-gradient
loop, applied to a two-bar truss benchmark and 2D compliance-constrained
topology optimization.
"""
