"""Exception types shared across the package."""


class RosetrackError(Exception):
    """Base class for all library errors."""


class InvalidLetter(RosetrackError, ValueError):
    """A direction/letter is outside the declared rank's alphabet."""


class RankError(RosetrackError, ValueError):
    """Two objects of different ranks were combined."""


class NotTrainTrack(RosetrackError, ValueError):
    """An operation requiring a train track map received something else."""


class MissingCertificate(RosetrackError, ValueError):
    """An operation requiring a Nielsen-path-freeness certificate got none,
    or got one issued for a different map."""


class SpecError(RosetrackError, ValueError):
    """A gluing specification violates its preconditions."""


class Inconclusive(NotTrainTrack):
    """A Nielsen path search ran out of its bounds before reaching a verdict,
    so the certificate it was to issue is neither granted nor refused."""
