"""Numerical workbench for stretched-metric kinematic dynamos.

The package re-exports nothing; import each name from its module:

* differentiation: the spectral p, q derivative, the 4th-order z-stencil
  matrices (Fornberg weights) and the not-a-knot `CubicSpline`;
* frame_calculus: diagonal coframes, frame metrics and grad/div/curl and
  the vector Laplacian in the orthonormal frame;
* exterior_geometry: Cartan structure equations, connection forms, Riemann
  curvature, with a coordinate Christoffel oracle;
* induction_dynamo: induction-equation evolution, characteristics oracle,
  growth-rate fitting, cat-map eigenstructure;
* flux_rope: Frenet-frame tube model with dynamo ratio and radius bound;
* verification: the end-to-end acceptance matrix behind `verify-all`;
* cli: the command-line front end.
"""
