"""ionspec2d: two-dimensional phase-cycled spectroscopy of ion Coulomb crystals.

From trap parameters the package derives the chain's normal modes and
anharmonic Coulomb couplings, simulates the four-displacement phase-cycled
pulse protocol under unitary or Lindblad dynamics, and produces 2D spectra
with identified peaks.

Import the submodules by name (``from ionspec2d import protocol``): the
package itself loads none of them, and so not numpy, which lets ``cli`` pin
the BLAS threads before numpy loads.
"""

__version__ = "0.1.0"
