"""Physical constants in SI units (CODATA 2022), as float literals.

h, k and e are exact in the SI; hbar and the flux quantum are the float64
quotients h / (2 pi) and h / (2 e).  ``tests/test_imports.py`` checks all
five against the reference library values.
"""

hbar = 1.0545718176461565e-34  # J s
k = 1.380649e-23  # J / K, Boltzmann
e = 1.602176634e-19  # C
epsilon_0 = 8.8541878188e-12  # F / m
flux_quantum = 2.0678338484619295e-15  # Wb
