"""Exception classes shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2, input
problems exit 3, numerical problems exit 4.
"""


class BayesidError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(BayesidError):
    """Inconsistent or out-of-range run configuration or API misuse."""


class InputError(BayesidError):
    """Unusable input data (files, matrices, traces)."""


class ParseError(InputError):
    """Malformed matrix or trace file.

    Carries the 1-based line number and, when meaningful, the column (field)
    number where parsing failed.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class DegenerateChainError(InputError):
    """A sample chain with no variation, for which autocorrelation is undefined."""


class NumericalError(BayesidError):
    """Numerical degeneracy encountered during computation."""


class RankDeficiencyError(NumericalError):
    """A matrix required to have full column rank does not.

    The estimated numerical rank is available as the ``rank`` attribute.
    """

    def __init__(self, message, rank):
        self.rank = rank
        super().__init__(f"{message} (numerical rank {rank})")
