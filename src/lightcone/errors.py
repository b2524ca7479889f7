"""Error vocabulary shared across the package.

Three broad categories map onto CLI exit codes: configuration / validation
problems (exit 2), failures inside a computation (exit 3), and I/O trouble
(exit 4).  Every named error subclasses one of the categories so callers can
catch coarsely or precisely.
"""

from __future__ import annotations


class LightconeError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(LightconeError):
    """Invalid input, parameters, or domain violations.  CLI exit code 2."""

    exit_code = 2


class ComputeError(LightconeError):
    """A computation failed or did not converge.  CLI exit code 3."""

    exit_code = 3


class IoError(LightconeError):
    """File or serialization failure.  CLI exit code 4."""

    exit_code = 4


# -- graph construction and queries -----------------------------------------

class EmptyFactor(ConfigError):
    """A factor with an empty node subset."""


class NodeOutOfRange(ConfigError):
    """A factor references a node id outside 0..N-1."""


class DuplicateFactor(ConfigError):
    """The same (node subset, flavor) pair appears twice."""


class Disconnected(ConfigError):
    """Operation requires a connected graph (or a shared component)."""


class ProbabilityOutOfRange(ConfigError):
    """Requested inclusion probability exceeds 1."""


class InvalidParams(ConfigError):
    """Parameter combination outside an operation's domain."""


class SameNode(ConfigError):
    """Pairwise operation called with i == j."""


class AlphaOutOfRange(ConfigError):
    """Lieb-Robinson decay parameter must satisfy alpha > 1."""


class NotRegular(ConfigError):
    """Graph is not (k, q)-regular."""


class WeightTooLarge(ConfigError):
    """Factor weight exceeds the admissible cap for this bound."""


class BadDimension(ConfigError):
    """Local dimension must be an integer >= 2."""


# -- sequence / combinatorics -----------------------------------------------

class UnknownFactor(ConfigError):
    """Sequence references a factor absent from the ambient graph."""


class TargetAbsent(ConfigError):
    """Target node j appears in no factor of the tree or sequence."""


class IndexOutOfRange(ConfigError):
    """Slot or position index outside the valid range."""


class TooLarge(ConfigError):
    """Instance exceeds the brute-force size cap."""


class NotCreeping(ConfigError):
    """Sequence's causal forest is disconnected in a required reading."""


class UnrepeatedFactor(ConfigError):
    """A factor of a two-sided sequence appears only once."""


class NotIrreducible(ConfigError):
    """Operation requires an irreducible causal tree pair."""


class InvalidOrdering(ConfigError):
    """Ordering is not a member of the relevant ordering set."""


# -- exact simulation -------------------------------------------------------

class BasisMismatch(ConfigError):
    """Operands use different string bases or system sizes."""


class KrylovNotConverged(ComputeError):
    """Lanczos iteration hit its dimension cap before converging."""


class BadInitialOperator(ConfigError):
    """Initial operator must be traceless and supported on one site."""


class SizeMismatch(ConfigError):
    """Majorana strings built over different mode counts."""


class OddQ(ConfigError):
    """SYK locality q must be even."""


# -- ensemble bounds --------------------------------------------------------

class GenusOutOfRange(ConfigError):
    """Genus cutoff must lie in 0..N-1."""


class BadQ(ConfigError):
    """Bound requires even q > 2."""
