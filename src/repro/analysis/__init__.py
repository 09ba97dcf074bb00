"""Result analysis: terminal plots and comparisons.

The paper reports line charts (Figure 3), bucketed bar charts (Figures 4
and 5) and a comparison table (Table 2).  This package renders all three
in plain text and codifies the paper's qualitative claims as checkable
*shape assertions*:

- :mod:`repro.analysis.ascii` -- dependency-free terminal charts;
- :mod:`repro.analysis.compare` -- Flower-vs-Squirrel comparison reports
  and the shape checks the benchmark harness asserts.
"""
