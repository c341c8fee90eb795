"""tessella: brane tilings, quivers with potential, orbit quivers, and
finite-field representation counts.

Submodules:

* :mod:`tessella.surfacemap`   -- combinatorial maps, tilings, dual quivers
* :mod:`tessella.pathalg`      -- exact path-algebra arithmetic
* :mod:`tessella.equivariant`  -- automorphisms, orbit quiver, xi, transport
* :mod:`tessella.repcount`     -- finite-field representation counts
* :mod:`tessella.sweep`        -- the counts' numpy batch sweep
* :mod:`tessella.matrixrep`    -- the counts' per-point oracle
* :mod:`tessella.presentation` -- surface-group words, Dehn's algorithm
* :mod:`tessella.psi`          -- surface action, Psi, derivation scripts
* :mod:`tessella.cli`          -- the ``tessella`` command
"""

__version__ = "0.1.0"
