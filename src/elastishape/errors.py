"""Exception types shared across the package.

The command line tool maps these onto exit codes, so library code should
prefer them over bare exceptions whenever the failure class matters to a
caller: configuration problems, unreadable or malformed inputs, and
numerical breakdowns are kept distinct.
"""


class ConfigError(Exception):
    """A run configuration is missing, malformed, or inconsistent."""


class InputError(Exception):
    """An input file or data table cannot be used as provided."""


class ParseError(InputError):
    """A file exists but its contents do not match the expected format."""


class NumericalError(Exception):
    """A computation failed for numerical reasons."""


class ZeroAreaError(NumericalError):
    """A surface has (numerically) vanishing total area."""


class OrientationError(NumericalError):
    """A sphere map is not orientation preserving at some grid node."""


class RankDeficiencyError(NumericalError):
    """A design matrix is rank deficient.

    columns names the columns a pivoted QR dropped; dependent_sets names,
    in the same order, the whole set each one is dependent with.
    """

    def __init__(self, columns, dependent_sets=()):
        self.columns = list(columns)
        self.dependent_sets = [list(s) for s in dependent_sets]
        sets = "".join("; dependent set {%s}" % ", ".join(map(str, s))
                       for s in self.dependent_sets)
        super().__init__("design matrix is rank deficient; offending columns: %s%s"
                         % (", ".join(map(str, self.columns)), sets))
