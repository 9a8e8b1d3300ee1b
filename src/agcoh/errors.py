"""The five exceptions the `agcoh` command maps to exit codes.

They live apart from the engines that raise them, so the command can name
them without importing any engine; each engine module re-exports its own
(`torsion.MassTableError` is `errors.MassTableError`).
"""


class InputError(ValueError):
    """Outside input (a command-line value or an argument) was refused, or
    work past a bound ("work bound: ..."): the normal-form memo, class
    listing, stable series and h-series.  The command exits 2, type `usage`."""


class MassTableError(ValueError):
    """Malformed or inconsistent mass-table data."""


class RegistryConflictError(ValueError):
    """An ingested record contradicts the built-in or previous data."""


class RegistryIncompleteError(LookupError):
    """A needed block lies beyond the registry's exhaustiveness bound."""


class SignPolicyError(ValueError):
    """A half-spin sign is needed but not provided by the active policy."""

