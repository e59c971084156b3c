"""Error types shared across the toolkit.

Every mathematically meaningful failure carries a machine-checkable
witness (a vertex, an edge, a polynomial) so that reports can show why
a check failed, not merely that it did: the error report copies the
``vertex``, ``edge`` and ``witness`` an error carries, and the ``seed``
and ``index`` that ``selftest`` attaches to the instance that raised.

``exit_code`` is the command-line exit status of each error type: 1 for
a failed mathematical check, 2 for a rejected input.
"""


class CartanCoverError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ParseError(CartanCoverError):
    """An instance file is malformed; the message names the offending field."""

    exit_code = 2


class DimensionMismatch(CartanCoverError):
    """Operands live in different ambient dimensions, or over different fields."""

    exit_code = 2


class SingularMatrix(CartanCoverError):
    """A matrix that must be invertible is not."""


class SingularTransition(CartanCoverError):
    """A bundle transition matrix is singular."""

    exit_code = 2

    def __init__(self, edge, message=None):
        self.edge = edge
        super().__init__(message or f"transition on edge {edge} is singular")


class DisconnectedBase(CartanCoverError):
    """The base graph is not connected."""

    exit_code = 2


class NotSplitCartan(CartanCoverError):
    """Operation requires a split Cartan subspace and the input is not one."""

    def __init__(self, verdict, message=None):
        self.verdict = verdict
        super().__init__(message or f"subspace is not a split Cartan subalgebra: {verdict}")


class NotCartanAtVertex(CartanCoverError):
    """A fiber of a claimed Cartan bundle fails the Cartan test."""

    def __init__(self, vertex, witness):
        self.vertex = vertex
        self.witness = witness  # the text of the failing verdict
        super().__init__(f"fiber at vertex {vertex} is not a Cartan subalgebra: {witness}")


class NonSplitAtVertex(CartanCoverError):
    """A fiber is Cartan only after a field extension; carries the witness polynomial."""

    def __init__(self, vertex, witness):
        self.vertex = vertex
        self.witness = witness
        super().__init__(f"fiber at vertex {vertex} is Cartan but not split (witness {witness})")


class IncompatibleEdge(CartanCoverError):
    """Conjugation along an edge does not carry one fiber subspace to the next."""

    def __init__(self, edge, message=None):
        self.edge = edge
        super().__init__(message or f"fiber subspaces incompatible along edge {edge}")


class EtaNotMonomial(CartanCoverError):
    """A pushforward's eigenline matrix is not monomial: a fault of the reconstruction."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"eigenline matrix at vertex {vertex} is not monomial")


class NotABlockSystem(CartanCoverError):
    """A partition is not preserved by the monodromy generators."""


class DegreeTooLarge(CartanCoverError):
    """Refused beyond a degree bound: block-system enumeration, or a pushforward report."""

    exit_code = 2


class NonIntegralGenus(CartanCoverError):
    """Ramification data violates the parity constraint."""

    exit_code = 2


class NegativeGenus(CartanCoverError):
    """Ramification data forces a negative genus."""

    exit_code = 2
