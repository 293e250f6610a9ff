"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: InputError -> 2,
InternalConsistencyError -> 3, property failures -> 1.
"""


class PhantomcoverError(Exception):
    """Base class for all library errors."""


class InputError(PhantomcoverError, ValueError):
    """Malformed or incompatible input (dimension mismatch, bad manifest, ...)."""


class IllDefinedMorphismError(InputError):
    """A matrix entry violates the congruence a_ij * d_j = 0 (mod d_i)."""

    def __init__(self, row, col, target_factor, source_factor, entry):
        self.row = row
        self.col = col
        self.target_factor = target_factor
        self.source_factor = source_factor
        self.entry = entry
        super().__init__(
            f"entry {entry} at ({row}, {col}) violates "
            f"{entry} * {source_factor} = 0 (mod {target_factor})"
        )


class InternalConsistencyError(PhantomcoverError, RuntimeError):
    """A mathematically guaranteed condition failed; the build is defective."""
