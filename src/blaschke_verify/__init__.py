"""Numerical verification of disk zero bounds for Cauchy transforms.

Atomic measures on the unit circle, their Cauchy transforms, rank-one
perturbations of the companion diagonal unitary, unitary dilations, and the
inequality chains tying zero locations to total variation.
"""
