"""Monte Carlo test bench for downstream effects of single imputation.

Generate a linear-Gaussian population with known parameters, mask half
of the outcome column (completely at random or by right-censoring),
fill the holes with one of five imputation methods, and measure how far
the completed data pull nine downstream estimates away from the truth.
"""

__version__ = "0.1.0"
