"""Exact-arithmetic certificates for two K3 lattice scenarios.

Everything here is integer or symbolic arithmetic: lattices and their
discriminant groups, isometries and reflection groups, a fundamental
chamber with a ping-pong certificate, a Pell-family generator search,
and the plane translation maps of elliptic curves.  No floating point
is used anywhere in a verification path.
"""
